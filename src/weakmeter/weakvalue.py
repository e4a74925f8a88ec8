"""Observable catalog and weak values <post|A|pre> / <post|pre>."""

from __future__ import annotations

import functools

import numpy as np

from .errors import DegeneratePostselectionError, SignatureError, UnknownIdError
from .hilbert import Ket, Operator, SpaceSignature, extend, inner
from .optics import (
    ARM_PROJECTORS,
    ORBITAL,
    PATH,
    POLARIZATION,
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

# Each id is its terms (coefficient, {factor label: matrix or orbital_matrix
# name}): a product id one term of coefficient 1, an effective_* id
# 1 (x) sigma_z + coefficient * orbital (x) polarization, with i g't or -1.
# None is an identity that the term still requires.
_SZ = (1, {ORBITAL: None, POLARIZATION: _SIGMA_Z})
_CATALOG = {
    "pi_L": ((1, {PATH: _PI_L}),),
    "pi_R": ((1, {PATH: _PI_R}),),
    "sigma_z": ((1, {POLARIZATION: _SIGMA_Z}),),
    "sigma_x": ((1, {POLARIZATION: _SIGMA_X}),),
    "sigma_z_L": ((1, {PATH: _PI_L, POLARIZATION: _SIGMA_Z}),),
    "sigma_z_R": ((1, {PATH: _PI_R, POLARIZATION: _SIGMA_Z}),),
    "sigma_x_L": ((1, {PATH: _PI_L, POLARIZATION: _SIGMA_X}),),
    "sigma_x_R": ((1, {PATH: _PI_R, POLARIZATION: _SIGMA_X}),),
    "L_x": ((1, {ORBITAL: "L_x"}),),
    "L_z": ((1, {ORBITAL: "L_z"}),),
    "Lx_sigma_x": ((1, {ORBITAL: "L_x", POLARIZATION: _SIGMA_X}),),
    "Lx_sigma_z": ((1, {ORBITAL: "L_x", POLARIZATION: _SIGMA_Z}),),
    "Lz_sigma_z": ((1, {ORBITAL: "L_z", POLARIZATION: _SIGMA_Z}),),
    "Lx_sigma_x_L": ((1, {PATH: _PI_L, ORBITAL: "L_x", POLARIZATION: _SIGMA_X}),),
    "Lx_sigma_x_R": ((1, {PATH: _PI_R, ORBITAL: "L_x", POLARIZATION: _SIGMA_X}),),
    "Lx_sigma_z_L": ((1, {PATH: _PI_L, ORBITAL: "L_x", POLARIZATION: _SIGMA_Z}),),
    "Lx_sigma_z_R": ((1, {PATH: _PI_R, ORBITAL: "L_x", POLARIZATION: _SIGMA_Z}),),
    "Lz_sigma_z_L": ((1, {PATH: _PI_L, ORBITAL: "L_z", POLARIZATION: _SIGMA_Z}),),
    "Lz_sigma_z_R": ((1, {PATH: _PI_R, ORBITAL: "L_z", POLARIZATION: _SIGMA_Z}),),
    "effective_spin_orbit": (
        _SZ, (_I_GPRIME_T, {ORBITAL: "L_x", POLARIZATION: _SIGMA_X @ _SIGMA_Z})),
    "effective_parallel_lx": (
        _SZ, (_I_GPRIME_T, {ORBITAL: "L_x", POLARIZATION: np.eye(2, dtype=complex)})),
    "effective_parallel_lz": (
        _SZ, (_I_GPRIME_T, {ORBITAL: "L_z", POLARIZATION: np.eye(2, dtype=complex)})),
    "effective_three_body": (_SZ, (-1, {ORBITAL: "L_x", POLARIZATION: _SIGMA_X})),
}


def _entry(obs_id: str) -> tuple:
    """The terms of catalog id ``obs_id``; :class:`UnknownIdError` for any other value."""
    try:
        return _CATALOG[obs_id]
    except (KeyError, TypeError):
        raise UnknownIdError(
            f"unknown observable id {obs_id!r}; valid ids: {observable_ids()}") from None


def _lift(factors: dict, system: SpaceSignature) -> np.ndarray:
    """f_1 (x) (f_2 (x) (...)) over ``system``'s factors in their order, read-only.

    f_i is the identity where ``factors`` maps the label to None or omits it;
    a name is lifted at the system's orbital dimension.  A factor the system
    lacks or holds at another dimension raises :func:`extend`'s SignatureError.
    """
    dims = dict(system.factors)
    for label, factor in factors.items():
        if label not in dims:
            raise SignatureError(
                f"factor {label!r} of operator absent from target {system.labels}")
        if isinstance(factor, np.ndarray) and len(factor) != dims[label]:
            raise SignatureError(f"factor {label!r} has dimension {len(factor)} in operator, "
                                 f"{dims[label]} in target")
    lifted = []
    for label, dim in system.factors:
        factor = factors.get(label)
        if factor is None:
            factor = np.eye(dim, dtype=complex)
        elif isinstance(factor, str):
            factor = orbital_matrix(factor, dim)
        lifted.append(factor)
    matrix = lifted[-1].copy()
    for factor in reversed(lifted[:-1]):
        matrix = np.kron(factor, matrix)
    matrix.setflags(write=False)
    return matrix


def _combined(matrix: np.ndarray, cross, coefficient, gprime_t: float) -> np.ndarray:
    """``matrix``, or the effective observable matrix + i g't cross (matrix - cross for -1)."""
    if cross is None:
        return matrix
    return matrix - cross if coefficient == -1 else matrix + (1j * gprime_t) * cross


@functools.cache
def _lifted(obs_id: str, system: SpaceSignature):
    """(matrix, cross, coefficient) for :func:`_combined`: the terms lifted onto ``system``.

    ``cross`` and ``coefficient`` are None for a product id.  Every id takes
    the system's orbital dimension, 2 without an orbital factor.  Cached per
    process: the key holds no strength, time or grid size.
    """
    (_, factors), *rest = _entry(obs_id)
    check_orbital_dim(dict(system.factors).get(ORBITAL, 2))
    matrix = _lift(factors, system)
    if not rest:
        return matrix, None, None
    ((coefficient, cross),) = rest
    return matrix, _lift(cross, system), coefficient


def lifted_observable(obs_id: str, system: SpaceSignature, *, gprime_t: float = 0.0) -> np.ndarray:
    """``extend(observable(obs_id, ...), system).matrix`` up to the sign of a zero, from a table.

    An id without a ``gprime_t`` term returns the shared read-only matrix.
    """
    try:
        lifted = _lifted(obs_id, system)
    except TypeError:  # an unhashable id, which the cache cannot key: not a catalog id
        _entry(obs_id)
        raise
    return _combined(*lifted, gprime_t)


def observable(obs_id: str, *, orbital_dim: int = 2, gprime_t: float = 0.0) -> Operator:
    """Catalog operator by id: :func:`lifted_observable` on the factors its terms name.

    The factors go path, orbital, polarization.  The ``effective_*`` entries
    are the non-Hermitian observables the noisy meter registers, at the
    integrated noise strength ``gprime_t``; on the doublet
    ``effective_parallel_lz`` is sigma_z (L_z restricts to zero there).
    Every id takes :func:`~weakmeter.optics.check_orbital_dim`'s rule.
    """
    terms = _entry(obs_id)
    check_orbital_dim(orbital_dim)
    named = {label for _, factors in terms for label in factors}
    dims = {PATH: 2, ORBITAL: orbital_dim, POLARIZATION: 2}
    own = SpaceSignature(tuple((label, dim) for label, dim in dims.items() if label in named))
    return Operator(own, lifted_observable(obs_id, own, gprime_t=gprime_t))


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
