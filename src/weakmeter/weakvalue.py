"""Observable catalog and weak values <post|A|pre> / <post|pre>."""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .errors import DegeneratePostselectionError, UnknownIdError
from .hilbert import Ket, Operator, SpaceSignature, extend, inner
from .optics import (
    ARM_PROJECTORS,
    ORBITAL,
    ORBITAL_SIGNATURES,
    PATH_SIGNATURE,
    POLARIZATION_SIGNATURE,
    check_orbital_dim,
    orbital_matrix,
)

__all__ = [
    "EPS_OVERLAP",
    "observable",
    "observable_ids",
    "lifted_observable",
    "weak_value",
    "check_overlap",
    "weak_value_tables",
]

# Below this normalized overlap the post-selection is degenerate and weak
# values are numerically meaningless (they diverge as the overlap vanishes).
EPS_OVERLAP = 1e-10

_SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)  # circular (+,-) basis
_SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PI_L, _PI_R = ARM_PROJECTORS["L"], ARM_PROJECTORS["R"]
_I_GPRIME_T = "i g't"


class _Entry(NamedTuple):
    """One catalog observable as its factors; ``None`` marks an absent factor.

    Without a ``coefficient`` the operator is arm (x) (orbital (x) polarization)
    on the factors present.  With one it is the effective observable
    1 (x) sigma_z + coefficient * orbital (x) polarization on orbital (x)
    polarization, the coefficient being i g't or -1.
    """

    arm: np.ndarray | None
    orbital: str | None  # "L_x" or "L_z", see optics.orbital_matrix
    polarization: np.ndarray | None
    coefficient: str | int | None = None


_CATALOG = {
    "pi_L": _Entry(_PI_L, None, None),
    "pi_R": _Entry(_PI_R, None, None),
    "sigma_z": _Entry(None, None, _SIGMA_Z),
    "sigma_x": _Entry(None, None, _SIGMA_X),
    "sigma_z_L": _Entry(_PI_L, None, _SIGMA_Z),
    "sigma_z_R": _Entry(_PI_R, None, _SIGMA_Z),
    "sigma_x_L": _Entry(_PI_L, None, _SIGMA_X),
    "sigma_x_R": _Entry(_PI_R, None, _SIGMA_X),
    "L_x": _Entry(None, "L_x", None),
    "L_z": _Entry(None, "L_z", None),
    "Lx_sigma_x": _Entry(None, "L_x", _SIGMA_X),
    "Lx_sigma_z": _Entry(None, "L_x", _SIGMA_Z),
    "Lz_sigma_z": _Entry(None, "L_z", _SIGMA_Z),
    "Lx_sigma_x_L": _Entry(_PI_L, "L_x", _SIGMA_X),
    "Lx_sigma_x_R": _Entry(_PI_R, "L_x", _SIGMA_X),
    "Lx_sigma_z_L": _Entry(_PI_L, "L_x", _SIGMA_Z),
    "Lx_sigma_z_R": _Entry(_PI_R, "L_x", _SIGMA_Z),
    "Lz_sigma_z_L": _Entry(_PI_L, "L_z", _SIGMA_Z),
    "Lz_sigma_z_R": _Entry(_PI_R, "L_z", _SIGMA_Z),
    "effective_spin_orbit": _Entry(None, "L_x", _SIGMA_X @ _SIGMA_Z, _I_GPRIME_T),
    "effective_parallel_lx": _Entry(None, "L_x", np.eye(2, dtype=complex), _I_GPRIME_T),
    "effective_parallel_lz": _Entry(None, "L_z", np.eye(2, dtype=complex), _I_GPRIME_T),
    "effective_three_body": _Entry(None, "L_x", _SIGMA_X, -1),
}


def _terms(obs_id: str, orbital_dim: int):
    """(signature, matrix, cross, coefficient) of a catalog entry.

    An entry with a ``coefficient`` is matrix + coefficient * cross (see
    :func:`_combined`); any other is ``matrix``, with ``cross`` None.
    """
    try:
        arm, orbital, pol, coefficient = _CATALOG[obs_id]
    except (KeyError, TypeError):
        raise UnknownIdError(
            f"unknown observable id {obs_id!r}; valid ids: {observable_ids()}") from None
    check_orbital_dim(orbital_dim)
    d = orbital_dim
    if coefficient is not None:
        sig = ORBITAL_SIGNATURES[d].concat(POLARIZATION_SIGNATURE)
        return (sig, np.kron(np.eye(d, dtype=complex), _SIGMA_Z),
                np.kron(orbital_matrix(orbital, d), pol), coefficient)
    factors = []
    if arm is not None:
        factors.append((PATH_SIGNATURE, arm))
    if orbital is not None:
        factors.append((ORBITAL_SIGNATURES[d], orbital_matrix(orbital, d)))
    if pol is not None:
        factors.append((POLARIZATION_SIGNATURE, pol))
    sig, matrix = factors[-1]
    for factor_sig, factor in reversed(factors[:-1]):  # arm (x) (orbital (x) polarization)
        sig, matrix = factor_sig.concat(sig), np.kron(factor, matrix)
    return sig, matrix, None, None


def _combined(matrix: np.ndarray, cross, coefficient, gprime_t: float) -> np.ndarray:
    """``matrix``, or the effective observable matrix + i g't cross (matrix - cross for -1)."""
    if cross is None:
        return matrix
    return matrix - cross if coefficient == -1 else matrix + (1j * gprime_t) * cross


def observable(obs_id: str, *, orbital_dim: int = 2, gprime_t: float = 0.0) -> Operator:
    """Catalog operator by id, on the signature of the factors its entry holds.

    The ``effective_*`` entries are the non-Hermitian observables whose weak
    values the noisy meter registers; they take the integrated noise
    strength ``gprime_t``.  ``effective_parallel_lz`` uses the orbital
    factor as given: on the doublet the L_z restriction is the zero matrix
    (L_z maps {v_a, v_b} into the forbidden direction), so there it reduces
    to sigma_z.  Every id takes the same ``orbital_dim`` rule
    (:func:`~weakmeter.optics.check_orbital_dim`), whether or not its entry
    holds an orbital factor.
    """
    sig, matrix, cross, coefficient = _terms(obs_id, orbital_dim)
    return Operator(sig, _combined(matrix, cross, coefficient, gprime_t))


@functools.cache
def _lifted(obs_id: str, system: SpaceSignature):
    """(matrix, cross, coefficient) of :func:`_terms`, each matrix extended to ``system``.

    The entry takes the system's orbital dimension, 2 when it has no
    orbital factor.  Cached for the life of the process: the key holds no
    coupling strength, time or grid size, so it ranges over the catalog ids
    and system signatures in use only.  The matrices are read-only.
    """
    sig, *terms, coefficient = _terms(obs_id, dict(system.factors).get(ORBITAL, 2))
    matrix, cross = (None if term is None else extend(Operator(sig, term), system).matrix
                     for term in terms)
    return matrix, cross, coefficient


def lifted_observable(obs_id: str, system: SpaceSignature, *, gprime_t: float = 0.0) -> np.ndarray:
    """The matrix of ``extend(observable(obs_id, ...), system)``, from a per-process table.

    The observable takes the system's orbital dimension (see :func:`_lifted`).
    Equal to it entry by entry (a zero may differ in sign: an ``effective_*``
    entry lifts its two terms and combines them after).  An id without a
    ``gprime_t`` term returns the shared read-only matrix.
    """
    return _combined(*_lifted(obs_id, system), gprime_t)


def observable_ids() -> tuple[str, ...]:
    return tuple(_CATALOG)


def check_overlap(overlap: complex, scale: float) -> None:
    """Raise :class:`DegeneratePostselectionError` unless |overlap| > EPS_OVERLAP * scale.

    ``scale`` is the product of the two state norms.
    """
    if scale == 0.0 or abs(overlap) <= EPS_OVERLAP * scale:
        raise DegeneratePostselectionError(
            f"post-selection is degenerate: normalized overlap "
            f"{abs(overlap) / scale if scale else 0.0:.3e} <= {EPS_OVERLAP:.0e}",
            overlap_abs=abs(overlap) / scale if scale else 0.0,
        )


def weak_value(pre: Ket, post: Ket, a: Operator) -> complex:
    """<post|A|pre> / <post|pre>, the one entry of :func:`weak_value_tables` for this pair.

    ``a`` is extended to the pre-state's signature first.  Invariant under
    independent rescalings and global phases of either state.  Raises
    :class:`DegeneratePostselectionError` when the norm-scaled overlap falls
    to :data:`EPS_OVERLAP` or below.
    """
    overlaps, (table,) = weak_value_tables([pre], [post], [extend(a, pre.signature).matrix])
    check_overlap(overlaps[0, 0], pre.norm() * post.norm())
    return complex(table[0, 0])


def weak_value_tables(pres, posts, matrices) -> tuple[np.ndarray, list[np.ndarray]]:
    """<post|pre> and <post|A|pre> / <post|pre> for every (post, pre) pair.

    Returns the overlaps and one table per matrix A in ``matrices`` (on the
    states' signature), each indexed [post, pre]; :func:`weak_value` is one
    entry.  The overlaps are :func:`inner` itself.  Each matrix is one
    contraction over all the states, in which every entry sums over the
    system axis on its own, so its bits do not depend on the other states.
    Degenerate pairs are not rejected here (see :func:`check_overlap`);
    their entries may be inf or NaN.
    """
    overlaps = np.array([[inner(post, pre) for pre in pres] for post in posts])
    kets = np.array([ket.amplitudes for ket in pres])
    bras = np.array([ket.amplitudes for ket in posts]).conj()[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        return overlaps, [np.sum(bras * np.sum(matrix * kets[:, None, :], axis=-1), axis=-1)
                          / overlaps for matrix in matrices]
