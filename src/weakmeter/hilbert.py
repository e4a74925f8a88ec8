"""Labeled composite Hilbert spaces and the dense linear algebra on them.

States and operators are plain complex numpy arrays tagged with a
:class:`SpaceSignature` that names each tensor factor.  Factor order is part
of a signature's identity; operations never reorder factors implicitly.
Everything is immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SignatureError

__all__ = [
    "SpaceSignature",
    "Ket",
    "Operator",
    "extend",
    "inner",
]


def _frozen(values, dtype=complex) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SpaceSignature:
    """Ordered tuple of ``(label, dimension)`` tensor factors.

    Two signatures with permuted factors are distinct spaces.
    """

    factors: tuple[tuple[str, int], ...]
    dim: int = field(init=False, repr=False, compare=False)  # product of the dimensions

    def __post_init__(self):
        factors = tuple((str(label), int(dim)) for label, dim in self.factors)
        object.__setattr__(self, "factors", factors)
        labels = [label for label, _ in factors]
        if len(set(labels)) != len(labels):
            raise SignatureError(f"duplicate factor labels: {labels}")
        if any(dim < 1 for _, dim in factors):
            raise SignatureError(f"factor dimensions must be positive: {factors}")
        object.__setattr__(self, "dim", math.prod(dim for _, dim in factors))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.factors)

    def axis_of(self, label: str) -> int:
        for i, (name, _) in enumerate(self.factors):
            if name == label:
                return i
        raise SignatureError(f"no factor labeled {label!r} in {self.labels}")

    def dimension_of(self, label: str) -> int:
        return self.factors[self.axis_of(label)][1]

    def concat(self, other: "SpaceSignature") -> "SpaceSignature":
        return SpaceSignature(self.factors + other.factors)

    def drop(self, labels) -> "SpaceSignature":
        keep = tuple(f for f in self.factors if f[0] not in set(labels))
        return SpaceSignature(keep)

    def __str__(self) -> str:
        return " * ".join(f"{label}:{dim}" for label, dim in self.factors) or "scalar"


@dataclass(frozen=True, eq=False)
class Ket:
    """Complex amplitude vector over a signature's product basis.

    May be unnormalized (post-selection output).
    """

    signature: SpaceSignature
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _frozen(np.asarray(self.amplitudes).reshape(-1))
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (self.signature.dim,):
            raise SignatureError(
                f"amplitude length {amps.shape[0]} != signature dimension {self.signature.dim}"
            )
        if not np.isfinite(amps.view(float)).all():
            raise ValueError("ket amplitudes must be finite")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True, eq=False)
class Operator:
    """Dense complex square matrix tagged with its signature."""

    signature: SpaceSignature
    matrix: np.ndarray

    def __post_init__(self):
        mat = _frozen(np.asarray(self.matrix))
        object.__setattr__(self, "matrix", mat)
        d = self.signature.dim
        if mat.shape != (d, d):
            raise SignatureError(f"matrix shape {mat.shape} != ({d}, {d})")
        if not np.all(np.isfinite(mat.view(float))):
            raise ValueError("operator entries must be finite")


def extend(op: Operator, target: SpaceSignature) -> Operator:
    """Embed ``op`` into ``target`` by tensoring identities on missing factors.

    Every factor of ``op`` must appear in ``target`` (same dimension); the
    result is factor-ordered per ``target``, so the operator's factors may sit
    anywhere in the target order, contiguously or not.
    """
    for label, dim in op.signature.factors:
        try:
            tdim = target.dimension_of(label)
        except SignatureError:
            raise SignatureError(
                f"factor {label!r} of operator absent from target {target.labels}"
            ) from None
        if tdim != dim:
            raise SignatureError(
                f"factor {label!r} has dimension {dim} in operator, {tdim} in target"
            )

    own = op.signature.labels
    rest = [f for f in target.factors if f[0] not in set(own)]
    rest_dim = math.prod(d for _, d in rest) if rest else 1
    full = np.kron(op.matrix, np.eye(rest_dim, dtype=complex))

    # current factor order: op factors then the remaining target factors
    current = list(own) + [label for label, _ in rest]
    dims = {label: dim for label, dim in target.factors}
    perm = [current.index(label) for label in target.labels]
    n = len(current)
    shaped = full.reshape([dims[label] for label in current] * 2)
    shaped = shaped.transpose(perm + [n + p for p in perm])
    return Operator(target, shaped.reshape(target.dim, target.dim))


def inner(bra: Ket, ket: Ket) -> complex:
    """<bra|ket>, conjugate-linear in the first argument."""
    if bra.signature != ket.signature:
        raise SignatureError(
            f"inner product between different signatures: {bra.signature} vs {ket.signature}"
        )
    return complex(np.vdot(bra.amplitudes, ket.amplitudes))
