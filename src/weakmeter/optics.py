"""Interferometer state spaces and every named pre/post-selected state.

Conventions:

* Polarization amplitudes are stored in the circular basis (+, -), where
  sigma_z = diag(1, -1).  Linear H/V states enter through the fixed change
  of basis |H> = (|+> + |->)/sqrt(2), |V> = -i(|+> - |->)/sqrt(2).
* Beam-splitter-type reflections carry the usual pi/2 phase (factor i).
  The polarizing splitter reflects the V part of cos(theta/2)|H> +
  sin(theta/2)|V> into the right arm with that phase; the half-wave plate
  there turns it into H and the pi phase shifter flips its sign.  That is
  why amp_in reads cos(theta/2)|L,H> - i sin(theta/2)|R,H>, with -i on the
  right arm.
* The orbital doublet {v_a, v_b} spans the +/-1 eigenvectors of L_x.  With
  the third basis direction forbidden the doublet is used directly
  (dimension 2); the parallel-noise couplings need the full triplet, where
  v_a = (1, 0, 1)/sqrt(2) and v_b = (0, -i, 0) in the L_z eigenbasis.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterRangeError, UnknownIdError
from .hilbert import Ket, SpaceSignature

__all__ = [
    "PATH", "ORBITAL", "POLARIZATION", "METER",
    "PATH_SIGNATURE", "POLARIZATION_SIGNATURE", "ORBITAL_SIGNATURES", "check_orbital_dim",
    "pol_from_hv", "hv_components", "orbital_vector", "orbital_matrix",
    "named_state", "STATE_IDS", "check_state", "ARM_PROJECTORS",
]

PATH = "path"
ORBITAL = "orbital"
POLARIZATION = "polarization"
METER = "meter"

# change of basis: columns are |H>, |V> expressed in (+, -) coordinates
_HV_TO_PM = np.array([[1.0, -1.0j], [1.0, 1.0j]], dtype=complex) / np.sqrt(2.0)

PATH_SIGNATURE = SpaceSignature(((PATH, 2),))
POLARIZATION_SIGNATURE = SpaceSignature(((POLARIZATION, 2),))
# the orbital doublet and triplet
ORBITAL_SIGNATURES = {dim: SpaceSignature(((ORBITAL, dim),)) for dim in (2, 3)}


def check_orbital_dim(dim) -> None:
    """Raise :class:`ParameterRangeError` unless ``dim`` is the int 2 (doublet) or 3 (triplet)."""
    integral = isinstance(dim, (int, np.integer)) and not isinstance(dim, bool)
    if not integral or dim not in (2, 3):
        raise ParameterRangeError(f"orbital dimension must be 2 or 3, got {dim}")


def pol_from_hv(h_amp: complex, v_amp: complex) -> np.ndarray:
    """(+,-) coordinates of h_amp |H> + v_amp |V>."""
    return _HV_TO_PM @ np.array([h_amp, v_amp], dtype=complex)


def hv_components(pm_coords) -> np.ndarray:
    """H/V coordinates of a polarization vector stored in (+,-) coordinates."""
    return _HV_TO_PM.conj().T @ np.asarray(pm_coords, dtype=complex)


def _orbital_basis(va: np.ndarray, vb: np.ndarray) -> dict:
    """v_a, v_b and the superposition (v_a + i v_b)/sqrt(2) of noisy_in and disembody_in."""
    vecs = {"va": va, "vb": vb, "va+ivb": (va + 1j * vb) / np.sqrt(2.0)}
    for vec in vecs.values():
        vec.setflags(write=False)
    return vecs


# by orbital dimension: doublet coordinates, or the documented triplet
_ORBITAL_VECTORS = {
    2: _orbital_basis(np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)),
    3: _orbital_basis(np.array([1, 0, 1], dtype=complex) / np.sqrt(2.0),
                      np.array([0, -1j, 0], dtype=complex)),
}


def orbital_vector(label: str, dim: int = 2) -> np.ndarray:
    """Coordinates of v_a or v_b (doublet coordinates, or the documented triplet), read-only."""
    check_orbital_dim(dim)
    if label not in ("va", "vb"):
        raise UnknownIdError(f"orbital basis label must be 'va' or 'vb', got {label!r}")
    return _ORBITAL_VECTORS[dim][label]


def orbital_matrix(name: str, dim: int = 2) -> np.ndarray:
    """L_x or L_z on the orbital factor.

    In the doublet, L_x = -i(|va><vb| - |vb><va|).  L_z maps the doublet
    entirely into the forbidden direction, so its restriction there is the
    zero matrix; the triplet carries the full diag(1, 0, -1).
    """
    check_orbital_dim(dim)
    if dim == 2:
        if name == "L_x":
            return np.array([[0, -1j], [1j, 0]], dtype=complex)
        if name == "L_z":
            return np.zeros((2, 2), dtype=complex)
    else:
        if name == "L_x":
            return np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / np.sqrt(2.0)
        if name == "L_z":
            return np.diag([1.0, 0.0, -1.0]).astype(complex)
    raise UnknownIdError(f"orbital operator must be 'L_x' or 'L_z', got {name!r}")


# Pi_L and Pi_R on the path factor
ARM_PROJECTORS = {"L": np.diag([1.0, 0.0]).astype(complex),
                  "R": np.diag([0.0, 1.0]).astype(complex)}

# the spaces the named states live on: (path,) polarization with no orbital
# factor, or with the doublet or triplet placed before the polarization
_PATH_POLARIZATION = PATH_SIGNATURE.concat(POLARIZATION_SIGNATURE)
_ORBITAL_POLARIZATION = {dim: sig.concat(POLARIZATION_SIGNATURE)
                         for dim, sig in ORBITAL_SIGNATURES.items()}
_PATH_ORBITAL_POLARIZATION = {dim: PATH_SIGNATURE.concat(sig)
                              for dim, sig in _ORBITAL_POLARIZATION.items()}


STATE_IDS = {
    "cheshire_in": (),
    "cheshire_f": (),
    "amp_in": ("theta",),
    "amp_f": (),
    "noisy_in": (),
    "noisy_f": ("alpha",),
    "disembody_in": ("theta",),
    "disembody_f": ("alpha",),
}


def check_state(name, angles: dict, where: str) -> None:
    """Raise unless ``name`` is a catalog id and ``angles`` holds each angle it declares.

    ``angles`` maps ``theta``/``alpha`` to values in units of pi, the unit of
    scenario files; each angle ``STATE_IDS`` declares must be present and lie
    in (-1, 1), that is (-pi, pi) in radians.  Extra keys are ignored.
    Messages name the field as ``{where}.theta``.
    """
    if not isinstance(name, str) or name not in STATE_IDS:
        raise UnknownIdError(
            f"unknown state id {name!r} in {where}; valid ids: {sorted(STATE_IDS)}"
        )
    for param in STATE_IDS[name]:
        value = angles.get(param)
        if value is None:
            raise ParameterRangeError(f"{where}: state {name!r} requires {param!r}")
        if not -1.0 < value < 1.0:
            raise ParameterRangeError(
                f"{where}.{param} = {value} out of range (-1, 1) (units of pi)"
            )


def named_state(name: str, *, theta: float | None = None, alpha: float | None = None,
                orbital_dim: int = 2) -> Ket:
    """Pre/post-selected states by id, exactly as their closed forms read.

    Angles are radians here; ``orbital_dim`` selects the doublet (default)
    or the full triplet embedding of the orbital factor.  Raises
    :class:`ParameterRangeError` for an angle :func:`check_state` or an
    ``orbital_dim`` :func:`check_orbital_dim` rejects.
    Each closed form is written straight into one amplitude array:
    (path, polarization) rows, with the orbital factor placed between them.
    """
    given = {"theta": theta, "alpha": alpha}
    check_state(name, {k: v / np.pi for k, v in given.items() if v is not None}, "named_state")
    check_orbital_dim(orbital_dim)
    h, v = _HV_TO_PM.T  # |H>, |V> in (+, -) coordinates
    vectors = _ORBITAL_VECTORS[orbital_dim]
    if name in ("noisy_in", "noisy_f"):  # orbital (x) polarization
        if name == "noisy_in":
            orbital, pol = vectors["va+ivb"], h
        else:
            orbital = vectors["va"]
            pol = _HV_TO_PM @ np.array([np.cos(alpha), np.sin(alpha)], dtype=complex)
        return Ket(_ORBITAL_POLARIZATION[orbital_dim], orbital[:, None] * pol)

    # path (x) [orbital (x)] polarization, built from one polarization row per arm
    half = 1 / np.sqrt(2.0)
    orbital = None
    if name == "cheshire_in":
        arms = (1j * h * half, h * half)
    elif name in ("cheshire_f", "amp_f"):
        arms = (h * half, v * half)
    elif name in ("amp_in", "disembody_in"):
        arms = (np.cos(theta / 2) * h, -1j * np.sin(theta / 2) * h)
        if name == "disembody_in":
            orbital = vectors["va+ivb"]
    elif name == "disembody_f":
        arms = (np.cos(alpha) * h, np.sin(alpha) * v)
        orbital = vectors["va"]
    else:
        raise AssertionError(name)
    path_pol = np.stack(arms)
    if orbital is None:
        return Ket(_PATH_POLARIZATION, path_pol)
    return Ket(_PATH_ORBITAL_POLARIZATION[orbital_dim], path_pol[:, None, :] * orbital[:, None])
