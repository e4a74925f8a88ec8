"""Observable catalog and weak values <post|A|pre> / <post|pre>."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DegeneratePostselectionError, UnknownIdError
from .hilbert import Ket, Operator, SpaceSignature, extend, inner
from .optics import (
    ARM_PROJECTORS,
    ORBITAL_SIGNATURES,
    PATH_SIGNATURE,
    POLARIZATION_SIGNATURE,
    check_orbital_dim,
    named_state,
    orbital_matrix,
)

__all__ = [
    "EPS_OVERLAP",
    "WeakValueResult",
    "observable",
    "observable_ids",
    "lifted_observable",
    "weak_value",
    "check_overlap",
    "weak_value_tables",
    "cheshire_table",
    "noisy_effective_weak_value",
    "three_body_comparison",
    "disembodiment_table",
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
def _lifted(obs_id: str, orbital_dim: int, system: SpaceSignature):
    """(matrix, cross, coefficient) of :func:`_terms`, each matrix extended to ``system``.

    Cached for the life of the process: the key holds no coupling strength,
    time or grid size, so it ranges over the catalog ids, orbital dimensions
    and system signatures in use only.  The matrices are read-only.
    """
    sig, *terms, coefficient = _terms(obs_id, orbital_dim)
    matrix, cross = (None if term is None else extend(Operator(sig, term), system).matrix
                     for term in terms)
    return matrix, cross, coefficient


def lifted_observable(obs_id: str, system: SpaceSignature, *, orbital_dim: int = 2,
                      gprime_t: float = 0.0) -> np.ndarray:
    """The matrix of ``extend(observable(obs_id, ...), system)``, from a per-process table.

    Equal to it entry by entry (a zero may differ in sign: an ``effective_*``
    entry lifts its two terms and combines them after).  An id without a
    ``gprime_t`` term returns the shared read-only matrix.
    """
    return _combined(*_lifted(obs_id, orbital_dim, system), gprime_t)


def observable_ids() -> tuple[str, ...]:
    return tuple(_CATALOG)


@dataclass(frozen=True)
class WeakValueResult:
    value: complex
    overlap: complex
    observable: str = ""
    pre_id: str = ""
    post_id: str = ""
    params: dict = field(default_factory=dict)


def check_overlap(overlap: complex, scale: float, eps_overlap: float = EPS_OVERLAP) -> None:
    """Raise :class:`DegeneratePostselectionError` unless |overlap| > eps_overlap * scale.

    ``scale`` is the product of the two state norms.
    """
    if scale == 0.0 or abs(overlap) <= eps_overlap * scale:
        raise DegeneratePostselectionError(
            f"post-selection is degenerate: normalized overlap "
            f"{abs(overlap) / scale if scale else 0.0:.3e} <= {eps_overlap:.0e}",
            overlap_abs=abs(overlap) / scale if scale else 0.0,
        )


def weak_value(pre: Ket, post: Ket, a: Operator, *, observable_id: str = "",
               pre_id: str = "", post_id: str = "", params: dict | None = None,
               eps_overlap: float = EPS_OVERLAP) -> WeakValueResult:
    """<post|A|pre> / <post|pre>.

    Invariant under independent rescalings and global phases of either
    state.  Raises :class:`DegeneratePostselectionError` when the
    norm-scaled overlap falls below ``eps_overlap``.
    """
    if a.signature != pre.signature:
        op = extend(a, pre.signature)
    else:
        op = a
    ovl = inner(post, pre)
    check_overlap(ovl, pre.norm() * post.norm(), eps_overlap)
    value = inner(post, op.apply(pre)) / ovl
    return WeakValueResult(
        value=value, overlap=ovl, observable=observable_id,
        pre_id=pre_id, post_id=post_id, params=dict(params or {}),
    )


def weak_value_tables(pres, posts, matrices) -> tuple[np.ndarray, list[np.ndarray]]:
    """<post|pre> and <post|A|pre> / <post|pre> for every (post, pre) pair.

    Returns the overlaps and one table per matrix A in ``matrices`` (on the
    states' signature), each indexed [post, pre].  The overlaps are
    :func:`inner` itself, as in :func:`weak_value`; each matrix is one
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


_CHESHIRE_OBS = ("pi_L", "pi_R", "sigma_z_L", "sigma_z_R", "sigma_x_L", "sigma_x_R")


def cheshire_table(thetas) -> list[WeakValueResult]:
    """All six amplified-separation weak values for each requested theta.

    Closed forms: pi_L = 1, pi_R = 0, sigma_z_L = 0, sigma_z_R = tan(theta/2),
    sigma_x_L = 1, sigma_x_R = 0.
    """
    post = named_state("amp_f")
    rows = []
    for theta in np.atleast_1d(np.asarray(thetas, dtype=float)):
        pre = named_state("amp_in", theta=float(theta))
        for obs_id in _CHESHIRE_OBS:
            rows.append(weak_value(
                pre, post, observable(obs_id),
                observable_id=obs_id, pre_id="amp_in", post_id="amp_f",
                params={"theta": float(theta)},
            ))
    return rows


def noisy_effective_weak_value(variant: str, alpha: float, gprime_t: float,
                               *, orbital_dim: int = 2) -> complex:
    """Directly evaluated weak value of the noisy effective observable.

    ``spin_orbit`` gives (gprime_t + i) tan(alpha) exactly.  ``three_body``
    gives i tan(alpha) - 1; see :func:`three_body_comparison` for the
    competing closed form and the meter-dynamics adjudication.
    """
    if variant == "spin_orbit":
        obs = observable("effective_spin_orbit", orbital_dim=orbital_dim, gprime_t=gprime_t)
    elif variant == "three_body":
        obs = observable("effective_three_body", orbital_dim=orbital_dim)
    else:
        raise UnknownIdError(f"variant must be 'spin_orbit' or 'three_body', got {variant!r}")
    pre = named_state("noisy_in", orbital_dim=orbital_dim)
    post = named_state("noisy_f", alpha=float(alpha), orbital_dim=orbital_dim)
    return weak_value(pre, post, obs).value


def three_body_comparison(alpha: float) -> dict:
    """Both candidate values for the three-body effective weak value.

    The direct ratio gives i tan(alpha) - 1, while the quoted closed form is
    1 + i tan(alpha); the sign of the L_x (x) sigma_x term differs.  Nothing
    is silently corrected here: the dynamics layer's meter fit is the
    adjudicator (it sides with the direct ratio).
    """
    alpha = float(alpha)
    return {
        "direct": noisy_effective_weak_value("three_body", alpha, 0.0),
        "quoted": 1.0 + 1j * np.tan(alpha),
    }


_DISEMBODY_OBS = ("sigma_z_L", "sigma_z_R", "Lx_sigma_x_L", "Lx_sigma_x_R")


def disembodiment_table(theta: float, alpha: float, *, orbital_dim: int = 2) -> list[WeakValueResult]:
    """The noise-isolation quartet (0, tan(theta/2) tan(alpha), 1, 0)."""
    theta, alpha = float(theta), float(alpha)
    if np.cos(theta / 2) * np.cos(alpha) == 0.0:
        raise DegeneratePostselectionError(
            "cos(theta/2) cos(alpha) = 0 makes the post-selection degenerate", 0.0
        )
    pre = named_state("disembody_in", theta=theta, orbital_dim=orbital_dim)
    post = named_state("disembody_f", alpha=alpha, orbital_dim=orbital_dim)
    rows = []
    for obs_id in _DISEMBODY_OBS:
        rows.append(weak_value(
            pre, post, observable(obs_id, orbital_dim=orbital_dim),
            observable_id=obs_id, pre_id="disembody_in", post_id="disembody_f",
            params={"theta": theta, "alpha": alpha},
        ))
    return rows
