"""Observable catalog and weak values <post|A|pre> / <post|pre>."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneratePostselectionError, UnknownIdError
from .hilbert import Ket, Operator, SpaceSignature, extend, inner
from .optics import (
    named_state,
    orbital_matrix,
    orbital_signature,
    path_signature,
    polarization_signature,
)

__all__ = [
    "EPS_OVERLAP",
    "WeakValueResult",
    "observable",
    "observable_ids",
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
_PI_L = np.diag([1.0, 0.0]).astype(complex)
_PI_R = np.diag([0.0, 1.0]).astype(complex)


def _pol_op(matrix) -> Operator:
    return Operator(polarization_signature(), matrix)


def _path_op(matrix) -> Operator:
    return Operator(path_signature(), matrix)


def _arm_op(arm: str, op_sig: SpaceSignature, op_matrix: np.ndarray) -> Operator:
    pi = _PI_L if arm == "L" else _PI_R
    sig = path_signature().concat(op_sig)
    return Operator(sig, np.kron(pi, op_matrix))


def _orbital_pol(orb_name: str, pol_matrix: np.ndarray, orbital_dim: int) -> Operator:
    sig = orbital_signature(orbital_dim).concat(polarization_signature())
    return Operator(sig, np.kron(orbital_matrix(orb_name, orbital_dim), pol_matrix))


def _eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=complex)


def observable(obs_id: str, *, orbital_dim: int = 2, gprime_t: float = 0.0) -> Operator:
    """Catalog operator by id, on its native signature.

    The ``effective_*`` entries are the non-Hermitian observables whose weak
    values the noisy meter registers; they take the integrated noise
    strength ``gprime_t``.  ``effective_parallel_lz`` uses the orbital
    factor as given: on the doublet the L_z restriction is the zero matrix
    (L_z maps {v_a, v_b} into the forbidden direction), so there it reduces
    to sigma_z.
    """
    d = orbital_dim
    if obs_id == "pi_L":
        return _path_op(_PI_L)
    if obs_id == "pi_R":
        return _path_op(_PI_R)
    if obs_id == "sigma_z":
        return _pol_op(_SIGMA_Z)
    if obs_id == "sigma_x":
        return _pol_op(_SIGMA_X)
    if obs_id in ("sigma_z_L", "sigma_z_R"):
        return _arm_op(obs_id[-1], polarization_signature(), _SIGMA_Z)
    if obs_id in ("sigma_x_L", "sigma_x_R"):
        return _arm_op(obs_id[-1], polarization_signature(), _SIGMA_X)
    if obs_id == "L_x":
        return Operator(orbital_signature(d), orbital_matrix("L_x", d))
    if obs_id == "L_z":
        return Operator(orbital_signature(d), orbital_matrix("L_z", d))
    if obs_id == "Lx_sigma_x":
        return _orbital_pol("L_x", _SIGMA_X, d)
    if obs_id == "Lx_sigma_z":
        return _orbital_pol("L_x", _SIGMA_Z, d)
    if obs_id == "Lz_sigma_z":
        return _orbital_pol("L_z", _SIGMA_Z, d)
    if obs_id in ("Lx_sigma_x_L", "Lx_sigma_x_R"):
        inner_op = _orbital_pol("L_x", _SIGMA_X, d)
        return _arm_op(obs_id[-1], inner_op.signature, inner_op.matrix)
    if obs_id in ("Lx_sigma_z_L", "Lx_sigma_z_R"):
        inner_op = _orbital_pol("L_x", _SIGMA_Z, d)
        return _arm_op(obs_id[-1], inner_op.signature, inner_op.matrix)
    if obs_id in ("Lz_sigma_z_L", "Lz_sigma_z_R"):
        inner_op = _orbital_pol("L_z", _SIGMA_Z, d)
        return _arm_op(obs_id[-1], inner_op.signature, inner_op.matrix)
    if obs_id == "effective_spin_orbit":
        # sigma_z + i g't L_x (x) sigma_x sigma_z
        sig = orbital_signature(d).concat(polarization_signature())
        base = np.kron(_eye(d), _SIGMA_Z)
        cross = np.kron(orbital_matrix("L_x", d), _SIGMA_X @ _SIGMA_Z)
        return Operator(sig, base + 1j * gprime_t * cross)
    if obs_id == "effective_parallel_lx":
        sig = orbital_signature(d).concat(polarization_signature())
        return Operator(sig, np.kron(_eye(d), _SIGMA_Z)
                        + 1j * gprime_t * np.kron(orbital_matrix("L_x", d), _eye(2)))
    if obs_id == "effective_parallel_lz":
        sig = orbital_signature(d).concat(polarization_signature())
        return Operator(sig, np.kron(_eye(d), _SIGMA_Z)
                        + 1j * gprime_t * np.kron(orbital_matrix("L_z", d), _eye(2)))
    if obs_id == "effective_three_body":
        sig = orbital_signature(d).concat(polarization_signature())
        return Operator(sig, np.kron(_eye(d), _SIGMA_Z)
                        - np.kron(orbital_matrix("L_x", d), _SIGMA_X))
    raise UnknownIdError(f"unknown observable id {obs_id!r}; valid ids: {observable_ids()}")


def observable_ids() -> tuple[str, ...]:
    return (
        "pi_L", "pi_R", "sigma_z", "sigma_x",
        "sigma_z_L", "sigma_z_R", "sigma_x_L", "sigma_x_R",
        "L_x", "L_z", "Lx_sigma_x", "Lx_sigma_z", "Lz_sigma_z",
        "Lx_sigma_x_L", "Lx_sigma_x_R",
        "Lx_sigma_z_L", "Lx_sigma_z_R", "Lz_sigma_z_L", "Lz_sigma_z_R",
        "effective_spin_orbit", "effective_parallel_lx", "effective_parallel_lz",
        "effective_three_body",
    )


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


def weak_value_tables(pres, posts, ops) -> tuple[np.ndarray, list[np.ndarray]]:
    """<post|pre> and <post|A|pre> / <post|pre> for every (post, pre) pair.

    Returns the overlaps and one table per operator in ``ops``, each indexed
    [post, pre].  The overlaps are :func:`inner` itself, as in
    :func:`weak_value`; each operator is one contraction over all the states,
    in which every entry sums over the system axis on its own, so its bits
    do not depend on the other states.  Degenerate pairs are not rejected
    here (see :func:`check_overlap`); their entries may be inf or NaN.
    """
    overlaps = np.array([[inner(post, pre) for pre in pres] for post in posts])
    kets = np.array([ket.amplitudes for ket in pres])
    bras = np.array([ket.amplitudes for ket in posts]).conj()[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        return overlaps, [np.sum(bras * np.sum(op.matrix * kets[:, None, :], axis=-1), axis=-1)
                          / overlaps for op in ops]


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
