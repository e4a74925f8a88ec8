import warnings

import numpy as np
import pytest

import weakmeter.meter as meter_module
from weakmeter.errors import AnnihilationError, ParameterRangeError
from weakmeter.meter import (
    continuous_reference,
    make_meter,
    meter_readout,
    p_grid,
    q_grid,
)


class TestMakeMeter:
    def test_amplitude_pattern(self):
        with pytest.warns(UserWarning):  # width > N/5 on this tiny grid
            meter = make_meter(2, 1.0)
        raw = np.exp(-np.array([-2, -1, 0, 1, 2]) ** 2 / 4.0)
        np.testing.assert_allclose(meter.amplitudes, raw / np.linalg.norm(raw), atol=1e-15)

    @pytest.mark.parametrize("n,delta", [(8, 1.0), (64, 4.0), (200, 11.0)])
    def test_mean_is_zero_by_symmetry(self, n, delta):
        meter = make_meter(n, delta)
        assert abs(meter_readout(meter).mean_q) < 1e-14

    def test_position_variance_against_quadrature_oracle(self):
        # sum vs continuous integral of q^2 exp(-q^2 / 2 delta^2)
        delta = 4.0
        grid = np.linspace(-200, 200, 400001)
        density = np.exp(-grid**2 / (2 * delta**2))
        oracle = np.trapezoid(grid**2 * density, grid) / np.trapezoid(density, grid)
        meter = make_meter(64, delta)
        assert meter_readout(meter).var_q == pytest.approx(oracle, rel=1e-6)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            make_meter(0, 1.0)
        with pytest.raises(ValueError):
            make_meter(8, -1.0)

    @pytest.mark.parametrize("n", [10**30, 10**400], ids=["1e30", "1e400"])
    def test_grid_numpy_cannot_size_is_a_range_error(self, n):
        # 2N+1 points exceed numpy's largest array, so nothing is allocated
        with pytest.raises(ParameterRangeError,
                           match=rf"^meter.N = {n}: numpy cannot allocate its 2N\+1 point grid$"):
            make_meter(n, 4.0)

    def test_grid_numpy_cannot_allocate_is_a_range_error(self, monkeypatch):
        def refuse(half_width):
            raise MemoryError(f"Unable to allocate {2 * half_width + 1} points")

        monkeypatch.setattr(meter_module, "q_grid", refuse)
        with pytest.raises(ParameterRangeError, match="numpy cannot allocate"):
            make_meter(64, 4.0)

    def test_truncation_guard_warns(self):
        with pytest.warns(UserWarning, match="truncation"):
            make_meter(8, 2.0)

    def test_heisenberg_product_within_guard(self):
        for n, delta in [(16, 1.0), (64, 4.0), (128, 8.0)]:
            meter = make_meter(n, delta)
            readout = meter_readout(meter)
            assert readout.var_q * readout.var_p >= 0.25 * (1 - 1e-6)

    @pytest.mark.parametrize("n,delta", [(8, 1.0), (64, 4.0), (200, 11.0)])
    def test_held_arrays_are_read_only(self, n, delta):
        # every pointer read on a meter shares these, so no caller may write them
        meter = make_meter(n, delta)
        for name in ("amplitudes", "q", "p_fft", "support", "weights"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(meter, name)[0] = 1
            with pytest.raises(AttributeError):
                setattr(meter, name, np.zeros(3))

    @pytest.mark.parametrize("n,delta", [(8, 1.0), (64, 4.0), (200, 11.0)])
    def test_held_arrays_are_their_definitions(self, n, delta):
        meter = make_meter(n, delta)
        np.testing.assert_array_equal(meter.q, q_grid(n))
        np.testing.assert_array_equal(meter.p_fft, 2.0 * np.pi * np.fft.fftfreq(2 * n + 1))
        support = np.flatnonzero(np.abs(meter.amplitudes) > 1e-8)
        np.testing.assert_array_equal(meter.support, support)
        np.testing.assert_array_equal(meter.weights, meter.amplitudes[support] ** 2)


class TestMoments:
    def test_fresh_meter_is_centered(self):
        meter = make_meter(32, 3.0)
        readout = meter_readout(meter)
        assert readout.mean_q == pytest.approx(0.0, abs=1e-14)
        assert readout.mean_p == pytest.approx(0.0, abs=1e-14)

    def test_momentum_shift_theorem(self):
        meter = make_meter(128, 8.0)
        g, a = 0.05, 1.0
        shifted = np.exp(1j * g * a * meter.q) * meter.amplitudes
        assert meter_readout(shifted).mean_p == pytest.approx(g * a, abs=1e-9)

    def test_recentered_meter(self):
        meter = make_meter(64, 4.0)
        q0 = 7
        rolled = np.roll(meter.amplitudes, q0)
        assert meter_readout(rolled).mean_q == pytest.approx(q0, abs=1e-9)

    def test_zero_vector_raises(self):
        with pytest.raises(AnnihilationError):
            meter_readout(np.zeros(9))

    def test_even_length_raises(self):
        with pytest.raises(ValueError, match="odd length"):
            meter_readout(np.ones(8))

    def test_readout_success_probability(self):
        meter = make_meter(32, 3.0)
        readout = meter_readout(0.5 * meter.amplitudes)
        assert readout.success_probability == pytest.approx(0.25)


class TestContinuousReference:
    def test_real_weak_value_leaves_position(self):
        ref = continuous_reference(4.0, 0.01, 1.0)
        assert ref.mean_q == 0.0
        assert ref.mean_p == pytest.approx(0.01)

    def test_momentum_center(self):
        ref = continuous_reference(4.0, 0.01, 1.0)
        assert ref.mean_p == pytest.approx(0.01)
        assert ref.var_p == pytest.approx(1 / 64.0)

    @pytest.mark.parametrize("width", [0.0, -1.0, 1e-200, 1e300])
    def test_width_follows_the_meter_delta_rule(self, width):
        # 1e-200 divided by zero and 1e300 overflowed a Python float square
        with pytest.raises(ParameterRangeError, match="meter.delta must be positive"):
            continuous_reference(width, 0.01, 1.0)

    def test_position_shift_against_quadrature_oracle(self):
        # integrate the final state exp(+i g q A_w) exp(-q^2/4 delta^2) directly
        delta, g = 4.0, 0.01
        a_w = 1j * np.tan(np.pi / 4)
        grid = np.linspace(-200, 200, 400001)
        psi = np.exp(1j * g * grid * a_w) * np.exp(-grid**2 / (4 * delta**2))
        density = np.abs(psi) ** 2
        oracle = np.trapezoid(grid * density, grid) / np.trapezoid(density, grid)
        ref = continuous_reference(delta, g, a_w)
        assert ref.mean_q == pytest.approx(oracle, rel=1e-9)
        # magnitude 2 g delta^2 Im(A_w) = 0.32, sign set by the +i kick convention
        assert abs(ref.mean_q) == pytest.approx(0.32, abs=1e-12)
        assert ref.mean_q == pytest.approx(-0.32, abs=1e-12)


class TestConvergenceToContinuum:
    @staticmethod
    def max_rel_err(n, delta, g=0.05, a_w=1.0 + 1.0j):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            meter = make_meter(n, delta)
        shifted = np.exp(1j * g * meter.q * a_w) * meter.amplitudes
        ref = continuous_reference(delta, g, a_w)
        readout = meter_readout(shifted)
        got = np.array([readout.mean_q, readout.mean_p, readout.var_q, readout.var_p])
        want = np.array([ref.mean_q, ref.mean_p, ref.var_q, ref.var_p])
        return float(np.max(np.abs(got - want) / np.abs(want)))

    @pytest.mark.parametrize("delta", [1.0, 2.0])
    def test_tolerance_at_reference_size(self, delta):
        assert self.max_rel_err(int(16 * delta**2), delta) < 1e-3

    @pytest.mark.parametrize("delta", [1.0, 2.0])
    def test_error_halves_until_floor(self, delta):
        sizes = [int(m * delta**2) for m in (2, 4, 8, 16)]
        errs = [self.max_rel_err(n, delta) for n in sizes]
        for earlier, later in zip(errs, errs[1:]):
            assert later <= max(earlier / 2, 1e-6)


class TestGrids:
    def test_q_grid(self):
        np.testing.assert_array_equal(q_grid(2), [-2, -1, 0, 1, 2])

    def test_p_grid_spacing(self):
        p = p_grid(32)
        assert p[1] - p[0] == pytest.approx(2 * np.pi / 65)
        assert p[32] == 0.0


def dft_matrix(size):
    """Dense centered DFT kernel exp(-2 pi i k l / size) / sqrt(size), k, l in {-N..N}.

    k l is reduced mod size before scaling, so the phases stay exact at large size.
    """
    k = np.arange(size) - (size - 1) // 2
    return np.exp(-2j * np.pi * (np.outer(k, k) % size) / size) / np.sqrt(size)


def p_hat(half_width):
    """p_hat = F^dagger diag(p_l) F in the position basis."""
    kernel = dft_matrix(2 * half_width + 1)
    return kernel.conj().T @ (p_grid(half_width)[:, None] * kernel)


class TestGridOperators:
    def test_position_operator_expectation(self):
        meter = make_meter(32, 3.0)
        shifted = np.roll(meter.amplitudes, 5)
        q_op = np.diag(q_grid(32))
        expect = np.vdot(shifted, q_op @ shifted).real
        assert expect == pytest.approx(meter_readout(shifted).mean_q, abs=1e-12)

    def test_momentum_operator_expectation(self):
        meter = make_meter(32, 3.0)
        kicked = np.exp(0.12j * meter.q) * meter.amplitudes
        p_op = p_hat(32)
        assert np.max(np.abs(p_op - p_op.conj().T)) <= 1e-12
        expect = np.vdot(kicked, p_op @ kicked).real
        assert expect == pytest.approx(meter_readout(kicked).mean_p, abs=1e-12)

    def test_momentum_operator_diagonal_in_p(self):
        kernel = dft_matrix(17)
        rotated = kernel @ p_hat(8) @ kernel.conj().T
        np.testing.assert_allclose(rotated, np.diag(p_grid(8)), atol=1e-12)


class TestFftReadout:
    @pytest.mark.parametrize("n", [1, 2, 32, 64, 128, 1024])
    def test_matches_dense_kernel(self, n):
        size = 2 * n + 1
        rng = np.random.default_rng(n)
        vec = rng.normal(size=size) + 1j * rng.normal(size=size)
        dense = dft_matrix(size) @ vec
        # moments of the dense density on the centered p grid
        density = np.abs(dense) ** 2 / np.sum(np.abs(vec) ** 2)
        p = p_grid(n)
        mean = np.sum(p * density)
        var = np.sum((p - mean) ** 2 * density)
        readout = meter_readout(vec)
        assert abs(readout.mean_p - mean) <= 1e-13 * np.pi
        assert abs(readout.var_p - var) <= 1e-13 * var

    @pytest.mark.parametrize("n", [1, 2, 32, 64, 128, 1024])
    def test_fft_order_grid_is_shifted_p_grid(self, n):
        # the same values up to the order of the rounded products: 2 pi (l / M) vs 2 pi l / M
        np.testing.assert_allclose(2 * np.pi * np.fft.fftfreq(2 * n + 1),
                                   np.fft.ifftshift(p_grid(n)), rtol=1e-15, atol=0)
