"""Basis kets, products and sums of kets, and a hermiticity check for test references.

The package writes every named state in closed form (``optics.named_state``);
these helpers compose the same states from path, polarization and orbital
basis kets, so the tests can compare the two.
"""

import numpy as np

from weakmeter.dynamics import TERM_ATOL
from weakmeter.hilbert import Ket, Operator, SpaceSignature
from weakmeter.optics import (
    METER,
    ORBITAL_SIGNATURES,
    PATH_SIGNATURE,
    POLARIZATION_SIGNATURE,
    orbital_vector,
    pol_from_hv,
)


def unit(ket: Ket) -> Ket:
    """``ket``, asserted normalized to within 1e-12."""
    assert abs(ket.norm() - 1.0) <= 1e-12, ket.norm()
    return ket


def path_ket(arm: str) -> Ket:
    column = {"L": (1, 0), "R": (0, 1)}[arm]
    return unit(Ket(PATH_SIGNATURE, np.array(column, dtype=complex)))


def pol_ket(label: str) -> Ket:
    coords = {
        "+": np.array([1, 0], dtype=complex),
        "-": np.array([0, 1], dtype=complex),
        "H": pol_from_hv(1, 0),
        "V": pol_from_hv(0, 1),
    }[label]
    return unit(Ket(POLARIZATION_SIGNATURE, coords))


def orbital_ket(label: str, dim: int = 2) -> Ket:
    return unit(Ket(ORBITAL_SIGNATURES[dim], orbital_vector(label, dim)))


def is_hermitian(op: Operator, atol: float = TERM_ATOL) -> bool:
    return bool(np.max(np.abs(op.matrix - op.matrix.conj().T)) <= atol)


def tensor(a: Ket, b: Ket) -> Ket:
    """The product ket a (x) b on the concatenated signature."""
    return Ket(a.signature.concat(b.signature), np.kron(a.amplitudes, b.amplitudes))


def superpose(*terms) -> Ket:
    """sum c * ket over the (c, ket) pairs, all kets on one signature."""
    signature = terms[0][1].signature
    assert all(ket.signature == signature for _, ket in terms)
    return Ket(signature, sum(c * ket.amplitudes for c, ket in terms))


def meter_ket(meter) -> Ket:
    """A meter's amplitudes as a normalized ket on the single factor ``METER``."""
    return unit(Ket(SpaceSignature(((METER, meter.size),)), meter.amplitudes))
