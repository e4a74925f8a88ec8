import numpy as np
import pytest

from weakmeter.errors import SignatureError
from weakmeter.hilbert import (
    Ket,
    Operator,
    SpaceSignature,
    extend,
    inner,
)


def sig(*factors):
    return SpaceSignature(tuple(factors))


class TestSpaceSignature:
    def test_dimension_is_product(self):
        s = sig(("path", 2), ("orbital", 3), ("meter", 5))
        assert s.dim == 30

    def test_duplicate_labels_rejected(self):
        with pytest.raises(SignatureError):
            sig(("path", 2), ("path", 2))

    def test_factor_order_is_identity(self):
        a = sig(("path", 2), ("polarization", 2))
        b = sig(("polarization", 2), ("path", 2))
        assert a != b

    def test_concat_rejects_duplicates(self):
        with pytest.raises(SignatureError):
            sig(("a", 2)).concat(sig(("a", 3)))


class TestExtend:
    def test_trailing_identity(self):
        sz = Operator(sig(("polarization", 2)), np.diag([1.0, -1.0]))
        target = sig(("path", 2), ("orbital", 2), ("polarization", 2))
        got = extend(sz, target)
        expected = np.kron(np.eye(4), np.diag([1.0, -1.0]))
        np.testing.assert_allclose(got.matrix, expected)

    def test_leading_factor(self):
        pi_r = Operator(sig(("path", 2)), np.diag([0.0, 1.0]))
        target = sig(("path", 2), ("polarization", 2))
        got = extend(pi_r, target)
        np.testing.assert_allclose(got.matrix, np.kron(np.diag([0.0, 1.0]), np.eye(2)))

    def test_middle_factors(self):
        # I (x) L_x (x) sigma_x (x) I on path, orbital, polarization, meter
        l_x = np.array([[0, -1j], [1j, 0]])
        s_x = np.array([[0, 1], [1, 0]], dtype=complex)
        op = Operator(sig(("orbital", 2), ("polarization", 2)), np.kron(l_x, s_x))
        target = sig(("path", 2), ("orbital", 2), ("polarization", 2), ("meter", 5))
        got = extend(op, target)
        expected = np.kron(np.kron(np.eye(2), np.kron(l_x, s_x)), np.eye(5))
        np.testing.assert_allclose(got.matrix, expected)

    def test_non_contiguous_factors(self):
        # operator on (path, polarization) extended into path, orbital, polarization
        rng = np.random.default_rng(5)
        block = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        op = Operator(sig(("path", 2), ("polarization", 2)), block)
        target = sig(("path", 2), ("orbital", 3), ("polarization", 2))
        got = extend(op, target)
        # oracle: permute a kron built in (path, polarization, orbital) order
        full = np.kron(block, np.eye(3)).reshape(2, 2, 3, 2, 2, 3)
        expected = full.transpose(0, 2, 1, 3, 5, 4).reshape(12, 12)
        np.testing.assert_allclose(got.matrix, expected, atol=1e-14)

    def test_missing_label_rejected(self):
        op = Operator(sig(("spin", 2)), np.eye(2))
        with pytest.raises(SignatureError):
            extend(op, sig(("path", 2), ("polarization", 2)))

    def test_homomorphism(self):
        rng = np.random.default_rng(11)
        s = sig(("orbital", 2), ("polarization", 2))
        target = sig(("path", 2), ("orbital", 2), ("polarization", 2))
        a = Operator(s, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        b = Operator(s, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        lhs = extend(Operator(s, a.matrix @ b.matrix), target).matrix
        rhs = extend(a, target).matrix @ extend(b, target).matrix
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestInner:
    def test_self_overlap(self):
        h = Ket(sig(("polarization", 2)), np.array([1, 1]) / np.sqrt(2))
        assert inner(h, h) == pytest.approx(1.0)

    def test_orthogonality(self):
        h = Ket(sig(("polarization", 2)), [1, 0])
        v = Ket(sig(("polarization", 2)), [0, 1])
        assert inner(h, v) == 0

    def test_conjugate_linear_first_argument(self):
        s = sig(("a", 2))
        a = Ket(s, [1j, 0.5])
        b = Ket(s, [1, 1])
        assert inner(Ket(s, 2j * a.amplitudes), b) == pytest.approx(-2j * inner(a, b))

    def test_review_states_overlap(self):
        # hand expansion of the review pre/post pair gives i/2
        from weakmeter.optics import named_state

        got = inner(named_state("cheshire_f"), named_state("cheshire_in"))
        assert got == pytest.approx(0.5j, abs=1e-15)

    def test_signature_mismatch(self):
        with pytest.raises(SignatureError):
            inner(Ket(sig(("a", 2)), [1, 0]), Ket(sig(("b", 2)), [1, 0]))


class TestKetOperatorInvariants:
    def test_amplitudes_frozen(self):
        ket = Ket(sig(("a", 2)), [1, 0])
        with pytest.raises(ValueError):
            ket.amplitudes[0] = 5.0
