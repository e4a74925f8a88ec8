import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from weakmeter.dynamics import (
    COUPLINGS,
    TERM_ATOL,
    Coupling,
    CouplingSpec,
    _catalog_basis,
    build_hamiltonian,
    coupling_terms,
    evolve_dyson2,
    evolve_exact,
    fit_effective_weak_value,
    kick_factors,
    kick_factors_from_terms,
    pointer_readout,
    post_select_meter,
    transfer_amplitudes,
    transfer_readouts,
)
from weakmeter.errors import (
    AnnihilationError,
    IllConditionedFitError,
    NumericalOverflowError,
    SignatureError,
)
from weakmeter.hilbert import Ket, SpaceSignature, extend, inner
from weakmeter.meter import make_meter, meter_readout
from weakmeter.optics import METER, named_state
from weakmeter.weakvalue import observable, weak_value

from basis_kets import meter_ket, tensor

METER64 = make_meter(64, 4.0)
METER32 = make_meter(32, 4.0)


def run_and_fit(spec, pre, post, meter):
    joint = evolve_exact(spec, pre, meter)
    final = post_select_meter(joint, post)
    return fit_effective_weak_value(final, meter, coupling_terms(spec, pre.signature)[0])


# every (variant, measure_arm) row, each kick sign, and the kick at the start,
# inside and at the end of the noise window; the triplet disembody signature
# (dim 12) carries every coupling's observables
ALL_COUPLINGS = pytest.mark.parametrize("variant, arm", list(COUPLINGS))
KICK_SIGNS = pytest.mark.parametrize("kick_sign", [1, -1])
KICK_TIMES = pytest.mark.parametrize("kick_time", [0.0, 0.4, 1.5],
                                     ids=["start", "interior", "end"])


def random_pre_and_meter(seed):
    rng = np.random.default_rng(seed)
    template = named_state("disembody_in", theta=0.9, orbital_dim=3)
    amps = rng.normal(size=12) + 1j * rng.normal(size=12)
    return Ket(template.signature, amps / np.linalg.norm(amps)), make_meter(6, 1.2)


def dense_spec(variant, arm, kick_sign, kick_time):
    return CouplingSpec(variant=variant, g=0.3, gprime=0.2, t=1.5, kick_time=kick_time,
                        measure_arm=arm, kick_sign=kick_sign)


def dense_evolution(spec, joint_signature):
    """The joint propagator as brute-force dense matrix exponentials."""
    kick, static = build_hamiltonian(spec, joint_signature)
    kick_time = spec.resolved_kick_time
    return (scipy.linalg.expm(-1j * static.matrix * (spec.t - kick_time))
            @ scipy.linalg.expm(1j * spec.kick_sign * kick.matrix)
            @ scipy.linalg.expm(-1j * static.matrix * kick_time))


class TestCouplingSpec:
    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            CouplingSpec(variant="bogus")

    def test_negative_coupling(self):
        with pytest.raises(ValueError):
            CouplingSpec(variant="noiseless_kick", g=-1.0)

    @pytest.mark.parametrize("field", ["g", "gprime", "t", "kick_time"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            CouplingSpec(variant="spin_orbit", **{field: value})

    def test_kick_time_range(self):
        with pytest.raises(ValueError):
            CouplingSpec(variant="spin_orbit", t=1.0, kick_time=2.0)

    def test_kick_defaults_to_end_of_window(self):
        spec = CouplingSpec(variant="spin_orbit", t=3.0)
        assert spec.resolved_kick_time == 3.0

    def test_regime_flag(self):
        # g/g' << t << sqrt(g)/g' with factor-10 margins
        ok = CouplingSpec(variant="spin_orbit", g=1e-4, gprime=1e-2, t=0.1)
        assert ok.in_regime
        hot = CouplingSpec(variant="spin_orbit", g=1e-3, gprime=1e-3, t=100.0)
        assert not hot.in_regime

    def test_measure_arm_only_for_parallel(self):
        with pytest.raises(ValueError):
            CouplingSpec(variant="spin_orbit", measure_arm="L")


class TestBuildHamiltonian:
    def test_noiseless_kick_structure(self):
        pre = named_state("noisy_in")
        sig = pre.signature.concat(SpaceSignature(((METER, 5),)))
        kick, static = build_hamiltonian(CouplingSpec(variant="noiseless_kick", g=0.2), sig)
        q = np.arange(-2, 3)
        expected = 0.2 * np.kron(extend(observable("sigma_z"), pre.signature).matrix,
                                 np.diag(q))
        np.testing.assert_allclose(kick.matrix, expected, atol=1e-14)
        assert not np.any(static.matrix)

    def test_spin_orbit_static_part(self):
        pre = named_state("noisy_in")
        sig = pre.signature.concat(SpaceSignature(((METER, 5),)))
        _, static = build_hamiltonian(
            CouplingSpec(variant="spin_orbit", gprime=0.3), sig)
        expected = 0.3 * np.kron(observable("Lx_sigma_x").matrix, np.eye(5))
        np.testing.assert_allclose(static.matrix, expected, atol=1e-14)

    def test_arm_resolved_kick_structure(self):
        pre = named_state("disembody_in", theta=0.5)
        sig = pre.signature.concat(SpaceSignature(((METER, 5),)))
        kick, static = build_hamiltonian(
            CouplingSpec(variant="measure_sigma_zR_noisy", g=1.0), sig)
        q = np.diag(np.arange(-2.0, 3.0))
        expected = (np.kron(extend(observable("sigma_z_R"), pre.signature).matrix, q)
                    + np.kron(extend(observable("sigma_z_L"), pre.signature).matrix,
                              np.eye(5)))
        np.testing.assert_allclose(kick.matrix, expected, atol=1e-14)
        assert not np.any(static.matrix)

    def test_three_body_is_pure_kick(self):
        pre = named_state("noisy_in")
        sig = pre.signature.concat(SpaceSignature(((METER, 5),)))
        kick, static = build_hamiltonian(CouplingSpec(variant="three_body", g=1.0), sig)
        assert not np.any(static.matrix)
        q = np.diag(np.arange(-2.0, 3.0))
        expected = np.kron(
            extend(observable("sigma_z"), pre.signature).matrix
            - observable("Lx_sigma_x").matrix, q)
        np.testing.assert_allclose(kick.matrix, expected, atol=1e-14)


class TestEvolveExact:
    def test_uncoupled_evolution_is_identity(self):
        pre = named_state("noisy_in")
        spec = CouplingSpec(variant="spin_orbit", g=0.0, gprime=0.0, t=1.0)
        joint = evolve_exact(spec, pre, METER32)
        expected = tensor(pre, meter_ket(METER32))
        np.testing.assert_allclose(joint.amplitudes, expected.amplitudes, atol=1e-14)

    def test_norm_conserved(self):
        pre = named_state("disembody_in", theta=0.8)
        spec = CouplingSpec(variant="measure_sigma_zR_noisy", g=0.05)
        joint = evolve_exact(spec, pre, METER32)
        assert joint.norm() == pytest.approx(1.0, abs=1e-12)

    def test_kick_time_irrelevant_without_static_part(self):
        pre = named_state("cheshire_in")
        results = []
        for kt in (0.0, 0.5, 1.0):
            spec = CouplingSpec(variant="measure_sigma_zR", g=1e-2, t=1.0, kick_time=kt)
            results.append(evolve_exact(spec, pre, METER32).amplitudes)
        np.testing.assert_allclose(results[0], results[1], atol=1e-12)
        np.testing.assert_allclose(results[0], results[2], atol=1e-12)

    def test_pointer_shift_matches_weak_value(self):
        pre = named_state("amp_in", theta=2 * np.pi / 3)
        post = named_state("amp_f")
        g = 1e-3
        spec = CouplingSpec(variant="measure_sigma_zR", g=g)
        joint = evolve_exact(spec, pre, METER64)
        final = post_select_meter(joint, post)
        mean_p = meter_readout(final).mean_p
        a_w = weak_value(pre, post, observable("sigma_z_R"))
        assert mean_p / g == pytest.approx(a_w.real, rel=1e-3)

    def test_review_states_meter_expansion(self):
        # post-selected meter is (1 + i g q) * reference to O(g^2)
        pre = named_state("cheshire_in")
        post = named_state("cheshire_f")
        g = 1e-3
        spec = CouplingSpec(variant="measure_sigma_zR", g=g)
        joint = evolve_exact(spec, pre, make_meter(16, 2.0))
        final = post_select_meter(joint, post)
        ref = make_meter(16, 2.0)
        ovl = inner(post, pre)
        ratio = final.amplitudes / (ovl * ref.amplitudes)
        expected = 1 + 1j * g * ref.q
        assert np.max(np.abs(ratio - expected)) < 1e-5

    def test_kick_sign_switch_conjugates_shift(self):
        pre = named_state("cheshire_in")
        post = named_state("cheshire_f")
        fits = []
        for sign in (1, -1):
            spec = CouplingSpec(variant="measure_sigma_zR", g=1e-3, kick_sign=sign)
            fits.append(run_and_fit(spec, pre, post, METER64).value)
        assert fits[1] == pytest.approx(-fits[0], abs=1e-8)

    @KICK_TIMES
    @KICK_SIGNS
    @ALL_COUPLINGS
    def test_matches_dense_matrix_exponentials(self, variant, arm, kick_sign, kick_time):
        # the per-grid-point exponentials against brute-force dense expm
        pre, meter = random_pre_and_meter(31)
        spec = dense_spec(variant, arm, kick_sign, kick_time)
        _, *terms = coupling_terms(spec, pre.signature)
        for term in terms:  # A, B and g' S
            np.testing.assert_array_equal(term, term.conj().T)
        got = evolve_exact(spec, pre, meter)

        joint = tensor(pre, meter_ket(meter))
        u = dense_evolution(spec, joint.signature)
        np.testing.assert_allclose(got.amplitudes, u @ joint.amplitudes, atol=1e-12)

    @KICK_TIMES
    @ALL_COUPLINGS
    def test_shared_kick_factors_give_identical_states(self, variant, arm, kick_time):
        # one factor set serves any pre-state at its key, bit for bit: its
        # transfer amplitudes onto the system basis, times the meter, are the
        # joint state evolve_exact builds from fresh factors
        spec = dense_spec(variant, arm, 1, kick_time)
        pre, meter = random_pre_and_meter(31)
        factors = kick_factors(spec, pre.signature)
        basis = [Ket(pre.signature, row) for row in np.eye(pre.signature.dim)]
        for seed in (31, 32):
            pre, _ = random_pre_and_meter(seed)
            shared = transfer_amplitudes(factors, meter, [pre], basis)[:, 0] * meter.amplitudes
            np.testing.assert_array_equal(shared.ravel(),
                                          evolve_exact(spec, pre, meter).amplitudes)

    def test_factors_of_another_key_rejected(self):
        pre, meter = random_pre_and_meter(31)
        spec = dense_spec("parallel_1", "R", 1, 0.4)
        factors = kick_factors(spec, pre.signature)
        doublet = named_state("disembody_in", theta=0.9)
        with pytest.raises(SignatureError, match="kick factors"):
            transfer_amplitudes(factors, meter, [doublet], [pre])
        with pytest.raises(SignatureError, match="kick factors"):
            list(transfer_readouts(factors, meter, [doublet], [pre]))

    def test_wide_grid_is_lean_and_unitary(self):
        pre = named_state("disembody_in", theta=np.pi / 2, orbital_dim=3)
        spec = CouplingSpec(variant="parallel_1", g=1e-3, gprime=1e-3, t=100.0,
                            measure_arm="R")
        meter = make_meter(128, 4.0)
        tracemalloc.start()
        try:
            evolve_exact(spec, pre, meter)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one dense joint operator here would take (12 * 257)^2 * 16 B = 145 MiB
        assert peak < 32 * 2**20
        joint = evolve_exact(spec, pre, make_meter(1024, 4.0))
        assert joint.norm() == pytest.approx(1.0, abs=1e-12)


class TestKickFactors:
    @ALL_COUPLINGS
    def test_factors_name_their_scenario_field(self, variant, arm):
        # kick errors quote this name with the strength
        spec = dense_spec(variant, arm, 1, 0.4)
        row = COUPLINGS[variant, arm]
        system = named_state("disembody_in", theta=0.9, orbital_dim=row.orbital_dim).signature
        factors = kick_factors(spec, system)
        name, strength = {"g": ("coupling.g", spec.g),
                          "gprime_t": ("coupling.gprime * coupling.t", spec.gprime * spec.t)
                          }[row.strength]
        assert (factors.name, factors.strength) == (name, strength)

    @pytest.mark.parametrize("orbital_dim", [2, 3])
    @ALL_COUPLINGS
    def test_every_catalog_kick_commutes(self, variant, arm, orbital_dim):
        # U(q) = exp(i g q A) exp(i g B) is exact only for [A, B] = 0
        system = named_state("disembody_in", theta=0.9, orbital_dim=orbital_dim).signature
        _, a, b, _ = coupling_terms(dense_spec(variant, arm, 1, 0.4), system)
        assert np.max(np.abs(a @ b - b @ a)) <= TERM_ATOL

    @ALL_COUPLINGS
    def test_every_row_builds_at_its_declared_orbital_dim(self, variant, arm):
        # scenarios, verify and demo 05 put a row's states on
        # Coupling.orbital_dim; every row of a variant declares the same one
        row = COUPLINGS[variant, arm]
        assert row.orbital_dim == COUPLINGS[variant, None].orbital_dim
        assert row.orbital_dim == (3 if variant.startswith("parallel_") else 2)
        pre = named_state("disembody_in", theta=0.9, orbital_dim=row.orbital_dim)
        factors = kick_factors(dense_spec(variant, arm, 1, 0.4), pre.signature)
        assert factors.pre_map.shape == (pre.signature.dim,) * 2
        assert evolve_exact(dense_spec(variant, arm, 1, 0.4), pre, METER32).norm() == \
            pytest.approx(1.0, abs=1e-12)

    def test_non_commuting_row_raises(self):
        system = named_state("noisy_in").signature.drop(["orbital"])
        with pytest.raises(ValueError, match=r"do not commute \(max \|AB - BA\| = 2\.000e\+00\)"):
            kick_factors_from_terms(system, 0.3, observable("sigma_z").matrix,
                                    observable("sigma_x").matrix, np.zeros((2, 2)))

    def test_one_d_by_d_eigendecomposition_per_key(self, monkeypatch):
        # the first call at a (row, system) key takes one d x d eigh per nonzero
        # term (A, B and the unscaled static S, which serves both sides of the
        # kick); later calls at that key take none, whatever their g, g', t,
        # kick_time or kick_sign; no factor has the grid's size
        shapes = []
        eigh = np.linalg.eigh

        def counted(matrix, *args, **kwargs):
            shapes.append(np.shape(matrix))
            return eigh(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        _catalog_basis.cache_clear()
        pre, meter = random_pre_and_meter(31)
        later = [  # (g, g', t, kick_time, kick_sign)
            (0.3, 0.2, 1.5, 0.4, 1), (0.05, 0.0, 1.5, None, -1), (0.7, 1e-3, 3.0, 0.0, 1),
            (0.3, 0.2, 0.5, 0.5, -1), (1e-3, 0.4, 2.0, 1.1, 1)]
        for variant, arm, terms in [("noiseless_kick", None, 1), ("measure_sigma_zR", None, 2),
                                    ("spin_orbit", None, 2), ("parallel_1", "R", 3),
                                    ("measure_LxSx_L", None, 2)]:
            shapes.clear()
            factors = kick_factors(dense_spec(variant, arm, 1, 0.4), pre.signature)
            assert shapes == [(12, 12)] * terms
            assert factors.eigenvalues.shape == (12,)
            assert factors.pre_map.shape == factors.post_map.shape == (12, 12)
            shapes.clear()
            for g, gprime, t, kick_time, kick_sign in later:
                spec = CouplingSpec(variant=variant, g=g, gprime=gprime, t=t, kick_time=kick_time,
                                    measure_arm=arm, kick_sign=kick_sign)
                factors = kick_factors(spec, pre.signature)
                assert factors.eigenvalues.shape == (12,)
                assert factors.kick_sign == kick_sign
            assert shapes == []

    @ALL_COUPLINGS
    def test_cached_basis_matches_the_terms_path(self, variant, arm):
        # the catalog path scales the cached eigenvalues of S by g'; the terms
        # path decomposes g' S itself, so they agree to rounding, and bit for
        # bit where no static factor acts
        row = COUPLINGS[variant, arm]
        system = named_state("disembody_in", theta=0.9, orbital_dim=row.orbital_dim).signature
        t = 1.5
        for gprime, kick_time, kick_sign in itertools.product((0.0, 1e-3, 0.2), (0.0, 0.6, t),
                                                              (1, -1)):
            spec = CouplingSpec(variant=variant, g=0.3, gprime=gprime, t=t, kick_time=kick_time,
                                measure_arm=arm, kick_sign=kick_sign)
            got = kick_factors(spec, system)
            want = kick_factors_from_terms(system, *coupling_terms(spec, system),
                                           kick_sign=kick_sign, before=kick_time,
                                           after=t - kick_time, name=row.strength)
            assert (got.strength, got.kick_sign) == (want.strength, want.kick_sign)
            np.testing.assert_array_equal(got.eigenvalues, want.eigenvalues)
            for x, y in ((got.pre_map, want.pre_map), (got.post_map, want.post_map)):
                if gprime == 0.0 or row.s is None:
                    np.testing.assert_array_equal(x, y)
                else:
                    assert np.max(np.abs(x - y)) <= 1e-14 * max(1.0, np.max(np.abs(y)))

    @ALL_COUPLINGS
    def test_basis_cache_does_not_grow_with_parameters(self, variant, arm):
        row = COUPLINGS[variant, arm]
        system = named_state("disembody_in", theta=0.9, orbital_dim=row.orbital_dim).signature
        kick_factors(dense_spec(variant, arm, 1, 0.4), system)
        entries = _catalog_basis.cache_info().currsize
        for g, gprime, t in itertools.product((0.01, 0.3), (0.0, 1e-3, 0.2), (1.0, 2.5)):
            spec = CouplingSpec(variant=variant, g=g, gprime=gprime, t=t, measure_arm=arm)
            kick_factors(spec, system)
        assert _catalog_basis.cache_info().currsize == entries
        for array in itertools.chain(*filter(None, _catalog_basis(row, system))):
            assert not array.flags.writeable

    def test_non_commuting_catalog_row_raises_on_every_call(self, monkeypatch):
        # a failed check is not cached: the row raises the terms path's error each time
        row = Coupling("g", "sigma_z", "sigma_x")
        monkeypatch.setitem(COUPLINGS, ("noiseless_kick", None), row)
        spec = CouplingSpec(variant="noiseless_kick", g=0.3)
        system = named_state("amp_in", theta=0.5).signature
        with pytest.raises(ValueError) as direct:
            kick_factors_from_terms(system, *coupling_terms(spec, system))
        assert "do not commute (max |AB - BA| = 2.000e+00)" in str(direct.value)
        for _ in range(3):
            with pytest.raises(ValueError) as cached:
                kick_factors(spec, system)
            assert str(cached.value) == str(direct.value)

    def test_factors_and_catalog_terms_are_read_only(self):
        pre, meter = random_pre_and_meter(31)
        spec = dense_spec("parallel_1", "R", 1, 0.4)
        factors = kick_factors(spec, pre.signature)
        _, a, b, _ = coupling_terms(spec, pre.signature)
        for array in (factors.pre_map, factors.post_map, a, b):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1.0
        # one shared array per catalog term, not a copy per call
        assert coupling_terms(spec, pre.signature)[1] is a


def random_commuting_terms(rng, d, norm=10.0):
    """Commuting Hermitian A, B on one random eigenbasis, and a random Hermitian S."""
    v, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    a, b = rng.uniform(-1.0, 1.0, size=(2, d))
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (m + m.conj().T) / 2
    return (v * a) @ v.conj().T, (v * b) @ v.conj().T, h * (norm / np.linalg.norm(h, 2))


class TestKickFactorsFromTerms:
    SYSTEM = SpaceSignature((("system", 5),))

    def test_zero_terms_give_identity_maps(self):
        zero = np.zeros((5, 5))
        factors = kick_factors_from_terms(self.SYSTEM, 0.3, zero, zero, zero,
                                          before=0.4, after=0.6)
        np.testing.assert_array_equal(factors.post_map @ factors.pre_map, np.eye(5))
        np.testing.assert_array_equal(factors.eigenvalues, np.zeros(5))
        assert (factors.strength, factors.name) == (0.3, "strength")

    def test_static_quarter_turn(self):
        # 2x2 closed form: exp(-i pi/2 sigma_z) = diag(-i, i), on either side of the kick
        system = SpaceSignature((("polarization", 2),))
        zero, sigma_z = np.zeros((2, 2)), np.diag([1.0, -1.0])
        for before, after in ((np.pi / 2, 0.0), (0.0, np.pi / 2)):
            factors = kick_factors_from_terms(system, 0.3, zero, zero, sigma_z,
                                              before=before, after=after)
            np.testing.assert_allclose(factors.post_map @ factors.pre_map,
                                       np.diag([-1j, 1j]), atol=1e-14)

    @pytest.mark.parametrize("kick_sign", [1, -1])
    @pytest.mark.parametrize("seed", range(5))
    def test_random_terms_match_dense_exponentials(self, seed, kick_sign):
        # off-catalog Hermitian terms: post_map diag(exp(i s g q_k a)) pre_map
        # is exp(-i S after) exp(+i s g (q_k A + B)) exp(-i S before), and unitary
        rng = np.random.default_rng(seed)
        a, b, static = random_commuting_terms(rng, 5)
        g, before, after = rng.uniform(0.05, 0.5), *rng.uniform(0.0, 10.0, size=2)
        meter = make_meter(6, 1.2)
        factors = kick_factors_from_terms(self.SYSTEM, g, a, b, static,
                                          kick_sign=kick_sign, before=before, after=after)
        outer = (scipy.linalg.expm(-1j * static * after), scipy.linalg.expm(-1j * static * before))
        for q in make_meter(6, 1.2).q:
            phases = np.exp(1j * kick_sign * g * q * factors.eigenvalues)
            got = factors.post_map @ (phases[:, None] * factors.pre_map)
            want = outer[0] @ scipy.linalg.expm(1j * kick_sign * g * (q * a + b)) @ outer[1]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got.conj().T @ got, np.eye(5), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("term", ["A", "B", "S"])
    def test_non_hermitian_non_finite_or_misshapen_term_rejected(self, term):
        rng = np.random.default_rng(9)
        terms = dict(zip("ABS", random_commuting_terms(rng, 5)))
        for error, match, bad in [
                (ValueError, "finite and Hermitian",
                 rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))),
                (ValueError, "finite and Hermitian", np.diag([np.inf, 0.0, 0.0, 0.0, 0.0])),
                (SignatureError, "must be 5 x 5 on system:5", np.zeros((4, 4)))]:
            with pytest.raises(error, match=match):
                kick_factors_from_terms(self.SYSTEM, 0.3, *{**terms, term: bad}.values(),
                                        before=1.0, after=1.0)

    def test_overflow_names_the_strength(self):
        a, b, static = random_commuting_terms(np.random.default_rng(3), 5)
        assert np.max(np.abs(np.linalg.eigvalsh(b))) > 0.5  # so 1e308 * 4 B overflows
        with pytest.raises(NumericalOverflowError,
                           match=r"^kick offset exp\(i strength B\) is not finite "
                                 r"\(strength = 1e\+308\)$"):
            kick_factors_from_terms(self.SYSTEM, 1e308, a, 4 * b, static)


class TestDyson2:
    def test_noise_free_truncation_is_linear_kick(self):
        pre = named_state("noisy_in")
        g = 0.01
        spec = CouplingSpec(variant="spin_orbit", g=g, gprime=0.0, t=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = evolve_dyson2(spec, pre, METER32)
        joint = tensor(pre, meter_ket(METER32))
        kick, _ = build_hamiltonian(spec, joint.signature)
        expected = joint.amplitudes + 1j * (kick.matrix @ joint.amplitudes)
        np.testing.assert_allclose(got.amplitudes, expected, atol=1e-14)

    @KICK_TIMES
    @KICK_SIGNS
    @ALL_COUPLINGS
    def test_matches_dense_second_order_expansion(self, variant, arm, kick_sign, kick_time):
        pre, meter = random_pre_and_meter(32)
        spec = dense_spec(variant, arm, kick_sign, kick_time)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = evolve_dyson2(spec, pre, meter)

        joint = tensor(pre, meter_ket(meter))
        kick, static = build_hamiltonian(spec, joint.signature)
        k, n, psi, s, t = kick.matrix, static.matrix, joint.amplitudes, kick_sign, spec.t
        expected = (psi + 1j * s * (k @ psi) - 1j * t * (n @ psi) - 0.5 * t**2 * (n @ n @ psi)
                    + s * kick_time * (k @ n @ psi) + s * (t - kick_time) * (n @ k @ psi))
        np.testing.assert_allclose(got.amplitudes, expected, atol=1e-14)

    def test_norm_deviation_is_second_order(self):
        pre = named_state("noisy_in")
        devs = []
        for scale in (1.0, 0.5):
            spec = CouplingSpec(variant="spin_orbit", g=1e-2 * scale,
                                gprime=0.05 * scale, t=1.0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                out = evolve_dyson2(spec, pre, METER32)
            devs.append(abs(out.norm() - 1.0))
        assert devs[0] > 0
        assert devs[0] / devs[1] == pytest.approx(4.0, rel=0.2)

    def test_difference_from_exact_is_third_order(self):
        rng = np.random.default_rng(4)
        template = named_state("noisy_in")
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        pre = Ket(template.signature, amps / np.linalg.norm(amps))
        scales = [1.0, 0.5, 0.25, 0.125]
        errs = []
        for s in scales:
            spec = CouplingSpec(variant="spin_orbit", g=1e-4 * s, gprime=0.2 * s, t=1.0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                diff = (evolve_exact(spec, pre, METER32).amplitudes
                        - evolve_dyson2(spec, pre, METER32).amplitudes)
            errs.append(np.linalg.norm(diff))
        slope = np.polyfit(np.log(scales), np.log(errs), 1)[0]
        assert 2.5 <= slope <= 3.5

    def test_out_of_regime_warns(self):
        pre = named_state("noisy_in")
        spec = CouplingSpec(variant="spin_orbit", g=1e-3, gprime=1e-3, t=100.0)
        with pytest.warns(UserWarning, match="regime"):
            evolve_dyson2(spec, pre, METER32)


class TestPostSelectMeter:
    def test_annihilation_error_on_orthogonal(self):
        sig = named_state("cheshire_in").signature
        pre = Ket(sig, [1, 0, 0, 0])
        post = Ket(sig, [0, 1, 0, 0])
        joint = tensor(pre, meter_ket(METER32))
        with pytest.raises(AnnihilationError):
            post_select_meter(joint, post)

    def test_success_probability(self):
        pre = named_state("cheshire_in")
        post = named_state("cheshire_f")
        spec = CouplingSpec(variant="measure_sigma_zR", g=1e-3)
        joint = evolve_exact(spec, pre, METER64)
        final = post_select_meter(joint, post)
        # |<post|pre>|^2 = 1/4 up to O(g)
        assert final.norm() ** 2 == pytest.approx(0.25, abs=1e-2)


def random_kets(seed, count, signature):
    rng = np.random.default_rng(seed)
    kets = []
    for _ in range(count):
        amps = rng.normal(size=signature.dim) + 1j * rng.normal(size=signature.dim)
        kets.append(Ket(signature, amps / np.linalg.norm(amps)))
    return kets


class TestTransferAmplitudes:
    @KICK_TIMES
    @KICK_SIGNS
    @ALL_COUPLINGS
    def test_equals_evolve_then_post_select(self, variant, arm, kick_sign, kick_time):
        # against dense matrix exponentials of the joint Hamiltonian, then <post|
        pre, meter = random_pre_and_meter(31)
        spec = dense_spec(variant, arm, kick_sign, kick_time)
        pres = random_kets(5, 2, pre.signature) + [pre]
        posts = random_kets(6, 3, pre.signature)
        got = transfer_amplitudes(kick_factors(spec, pre.signature), meter, pres, posts)
        assert got.shape == (3, 3, meter.size)
        u = dense_evolution(spec, tensor(pre, meter_ket(meter)).signature)
        for r, ket in enumerate(pres):
            evolved = (u @ np.kron(ket.amplitudes, meter.amplitudes)).reshape(-1, meter.size)
            for p, post in enumerate(posts):
                want = post.amplitudes.conj() @ evolved
                np.testing.assert_allclose(got[p, r] * meter.amplitudes, want, rtol=0, atol=1e-12)

    @ALL_COUPLINGS
    def test_entries_do_not_depend_on_the_batch(self, variant, arm):
        pre, meter = random_pre_and_meter(31)
        factors = kick_factors(dense_spec(variant, arm, 1, 0.4), pre.signature)
        pres, posts = random_kets(7, 4, pre.signature), random_kets(8, 5, pre.signature)
        batch = transfer_amplitudes(factors, meter, pres, posts)
        readouts = list(transfer_readouts(factors, meter, pres, posts))
        for p, post in enumerate(posts):
            for r, ket in enumerate(pres):
                single = transfer_amplitudes(factors, meter, [ket], [post])[0, 0]
                np.testing.assert_array_equal(batch[p, r], single)
                # readout and fit alike, bit for bit (repr tells -0.0 from 0.0)
                ((alone,),) = transfer_readouts(factors, meter, [ket], [post])
                assert repr(readouts[r][p]) == repr(alone)

    def test_states_off_the_factors_space_rejected(self):
        pre, meter = random_pre_and_meter(31)
        factors = kick_factors(dense_spec("parallel_1", "R", 1, 0.4), pre.signature)
        doublet = named_state("disembody_f", alpha=0.3)
        with pytest.raises(SignatureError, match="post-selection on"):
            transfer_amplitudes(factors, meter, [pre], [doublet])
        with pytest.raises(SignatureError, match="pre-state on"):
            transfer_amplitudes(factors, meter, [doublet], [pre])


def lstsq_fit(final, meter, g):
    """The weighted least-squares pointer fit solved densely, as the reference."""
    ref = meter.amplitudes
    mask = (np.abs(ref) > 1e-8) & (np.abs(final) > 0.0)
    q, weights = meter.q[mask], np.abs(ref[mask]) ** 2
    y = np.log(final[mask] / ref[mask])
    design = np.stack([np.ones(mask.sum(), dtype=complex), 1j * g * q], axis=1)
    root_w = np.sqrt(weights)
    beta, *_ = np.linalg.lstsq(design * root_w[:, None], y * root_w, rcond=None)
    resid = y - design @ beta
    return beta[1], beta[0], np.sqrt(np.sum(weights * np.abs(resid) ** 2) / np.sum(weights))


class TestTransferReadouts:
    def test_match_readout_and_fit_of_the_post_selected_meter(self):
        # the meter F[p, r] * phi (checked above against dense exponentials),
        # read by meter_readout and fitted by the dense lstsq reference
        spec = CouplingSpec(variant="measure_sigma_zR_noisy", g=1e-3)
        pres = [named_state("disembody_in", theta=t) for t in (0.6, 1.4)]
        posts = [named_state("disembody_f", alpha=a) for a in (0.3, 0.7, 1.1)]
        factors = kick_factors(spec, pres[0].signature)
        amplitudes = transfer_amplitudes(factors, METER64, pres, posts)
        rows = list(transfer_readouts(factors, METER64, pres, posts))
        assert [len(row) for row in rows] == [3, 3]
        for r in range(len(pres)):
            for p in range(len(posts)):
                readout, fit = rows[r][p]
                final = amplitudes[p, r] * METER64.amplitudes
                want = meter_readout(final)
                for field in ("mean_q", "mean_p", "var_q", "var_p", "success_probability"):
                    assert getattr(readout, field) == pytest.approx(getattr(want, field),
                                                                    rel=1e-13, abs=1e-14)
                value, offset, residual = lstsq_fit(final, METER64, factors.strength)
                assert fit.value == pytest.approx(value, rel=1e-12)
                assert fit.offset == pytest.approx(offset, rel=1e-12)
                assert fit.residual == pytest.approx(residual, rel=1e-9, abs=1e-15)

    def test_failed_pairs_are_returned_with_the_chain_s_error(self):
        sig = named_state("cheshire_in").signature
        pre = Ket(sig, [1, 0, 0, 0])
        post = Ket(sig, [0, 1, 0, 0])
        spec = CouplingSpec(variant="measure_sigma_zR", g=1e-3)
        factors = kick_factors(spec, sig)
        (row,) = transfer_readouts(factors, METER32, [pre], [post, pre])
        with pytest.raises(AnnihilationError) as chain:
            post_select_meter(evolve_exact(spec, pre, METER32), post)
        assert isinstance(row[0], AnnihilationError) and str(row[0]) == str(chain.value)
        readout, fit = row[1]
        assert readout.success_probability == pytest.approx(1.0, abs=1e-12)
        zero = CouplingSpec(variant="measure_sigma_zR", g=0.0)
        (row,) = transfer_readouts(kick_factors(zero, sig), METER32, [pre], [pre])
        assert isinstance(row[0], IllConditionedFitError)
        assert str(row[0]) == "fit requires a positive coupling, got g=0.0"

    @pytest.mark.parametrize("n_pres, n_posts", [(3, 3), (5, 2)])
    @pytest.mark.parametrize("per_block", [1, 2, 4])
    def test_blocks_read_as_single_pairs(self, monkeypatch, n_pres, n_posts, per_block):
        # a budget of per_block pre-states' rows, so most calls cross block
        # boundaries; the last pre- and post-state are an annihilating pair
        import weakmeter.dynamics as dynamics

        monkeypatch.setattr(dynamics, "BLOCK_ENTRIES", per_block * n_posts * METER32.size)
        sig = named_state("cheshire_in").signature
        spec = CouplingSpec(variant="measure_sigma_zR", g=1e-3)
        pres = random_kets(41, n_pres - 1, sig) + [Ket(sig, [1, 0, 0, 0])]
        posts = random_kets(42, n_posts - 1, sig) + [Ket(sig, [0, 1, 0, 0])]
        rows = list(transfer_readouts(kick_factors(spec, sig), METER32, pres, posts))
        assert [len(row) for row in rows] == [n_posts] * n_pres
        for r, pre in enumerate(pres):
            for p, post in enumerate(posts):
                try:
                    alone = pointer_readout(spec, pre, post, METER32)
                except AnnihilationError as exc:
                    assert (r, p) == (n_pres - 1, n_posts - 1)
                    alone = exc
                # bit for bit (repr tells -0.0 from 0.0), or the same error
                assert type(rows[r][p]) is type(alone) and repr(rows[r][p]) == repr(alone)

    def test_pointer_readout_is_one_entry_raised(self):
        spec = CouplingSpec(variant="measure_sigma_zR_noisy", g=1e-3)
        pre = named_state("disembody_in", theta=0.6)
        post = named_state("disembody_f", alpha=0.3)
        (row,) = transfer_readouts(kick_factors(spec, pre.signature), METER64,
                                   [pre], [post])
        assert pointer_readout(spec, pre, post, METER64) == row[0]
        sig = named_state("cheshire_in").signature
        orthogonal = CouplingSpec(variant="measure_sigma_zR", g=1e-3)
        with pytest.raises(AnnihilationError, match="annihilated"):
            pointer_readout(orthogonal, Ket(sig, [1, 0, 0, 0]), Ket(sig, [0, 1, 0, 0]), METER32)
        zero = CouplingSpec(variant="measure_sigma_zR", g=0.0)
        with pytest.raises(IllConditionedFitError, match="positive coupling"):
            pointer_readout(zero, Ket(sig, [1, 0, 0, 0]), Ket(sig, [1, 0, 0, 0]), METER32)


class TestGridFreeFactors:
    """Kick factors hold d-sized data only; each grid reader evaluates them on its meter."""

    @pytest.mark.parametrize("variant, arm", [("measure_sigma_zR_noisy", None),
                                              ("parallel_1", "L"), ("spin_orbit", None)])
    def test_one_set_of_factors_reads_any_grid(self, variant, arm):
        spec = CouplingSpec(variant=variant, g=1e-3, gprime=1e-2, t=3.0, kick_time=1.0,
                            measure_arm=arm)
        dim = COUPLINGS[variant, arm].orbital_dim
        pres = [named_state("disembody_in", theta=t, orbital_dim=dim) for t in (0.6, 1.4)]
        posts = [named_state("disembody_f", alpha=a, orbital_dim=dim) for a in (0.3, 0.7)]
        factors = kick_factors(spec, pres[0].signature)
        d = pres[0].signature.dim
        for array in (factors.eigenvalues, factors.pre_map, factors.post_map):
            assert array.shape in ((d,), (d, d))
        for meter in (make_meter(16, 2.0), make_meter(64, 4.0)):
            fresh = kick_factors(spec, pres[0].signature)
            # bit for bit (repr tells -0.0 from 0.0)
            assert (repr(list(transfer_readouts(factors, meter, pres, posts)))
                    == repr(list(transfer_readouts(fresh, meter, pres, posts))))
            np.testing.assert_array_equal(transfer_amplitudes(factors, meter, pres, posts),
                                          transfer_amplitudes(fresh, meter, pres, posts))

    SYSTEM = SpaceSignature((("system", 2),))
    A = np.diag([1.0, -2.0])  # max |a| = 2

    def factors(self, strength):
        zero = np.zeros((2, 2))
        return kick_factors_from_terms(self.SYSTEM, strength, self.A, zero, zero)

    def test_zone_limit_carries_the_p_width(self):
        # max |strength a| + 1/(2 delta) < pi reads; at delta = 2 the margin is 0.25
        meter = make_meter(16, 2.0)
        pre = Ket(self.SYSTEM, [0.6, 0.8])
        limit = (np.pi - 0.25) / 2
        for strength in (0.999 * limit, -0.999 * limit):
            assert transfer_amplitudes(self.factors(strength), meter, [pre], [pre]).shape == \
                (1, 1, meter.size)
        for strength in (1.001 * limit, -1.001 * limit, np.pi / 2, 1e308, np.inf, np.nan):
            with pytest.raises(NumericalOverflowError, match="the grid's zone limit"):
                transfer_amplitudes(self.factors(strength), meter, [pre], [pre])
        # the same strength reads on a wider pointer, whose p-width is smaller
        transfer_amplitudes(self.factors(1.001 * limit), make_meter(64, 8.0), [pre], [pre])

    def test_every_grid_reader_checks_the_zone_first(self):
        meter = make_meter(16, 2.0)
        pre = Ket(self.SYSTEM, [0.6, 0.8])
        elsewhere = named_state("cheshire_in")
        message = (r"^kick phase per grid step 3\.2 plus the p-width 1/\(2 delta\) = 0\.25 "
                   r"is not below pi, the grid's zone limit \(strength = 1\.6\)$")
        factors = self.factors(1.6)
        for read in (lambda: transfer_amplitudes(factors, meter, [pre], [elsewhere]),
                     lambda: transfer_amplitudes(factors, meter, [elsewhere], [pre]),
                     lambda: list(transfer_readouts(factors, meter, [pre], [elsewhere]))):
            with pytest.raises(NumericalOverflowError, match=message):
                read()
        spec = CouplingSpec(variant="measure_sigma_zR", g=3.0)
        with pytest.raises(NumericalOverflowError, match=r"zone limit \(coupling\.g = 3\.0\)$"):
            evolve_exact(spec, elsewhere, meter)
        with pytest.raises(NumericalOverflowError, match=r"zone limit \(coupling\.g = 3\.0\)$"):
            pointer_readout(spec, elsewhere, elsewhere, meter)


class TestFit:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("g", [1e-3, 0.05])
    @pytest.mark.parametrize("holes", [False, True], ids=["full", "holes"])
    def test_closed_form_matches_dense_lstsq(self, seed, g, holes):
        rng = np.random.default_rng(seed)
        a, offset = complex(*rng.normal(size=2)) * 3, complex(*rng.normal(size=2))
        noise = 1e-3 * (rng.normal(size=METER64.size) + 1j * rng.normal(size=METER64.size))
        final = np.exp(offset + 1j * g * METER64.q * a + noise) * METER64.amplitudes
        if holes:  # exact zeros on one side leave a lopsided fit support
            final[rng.choice(np.arange(40, 64), size=6, replace=False)] = 0.0
        fit = fit_effective_weak_value(final, METER64, g)
        value, off, residual = lstsq_fit(final, METER64, g)
        assert abs(fit.value - value) <= 1e-13 * abs(value)
        assert abs(fit.offset - off) <= 1e-13 * abs(off)
        assert abs(fit.residual - residual) <= 1e-13 * residual

    def test_zero_final_meter_is_annihilation(self):
        with pytest.raises(AnnihilationError, match="final meter state is zero"):
            fit_effective_weak_value(np.zeros(METER64.size), METER64, 1e-3)

    def test_identical_states_fit_to_zero(self):
        fit = fit_effective_weak_value(meter_ket(METER64), METER64, 1e-3)
        assert abs(fit.value) < 1e-12
        assert abs(fit.offset) < 1e-12
        assert fit.residual < 1e-12

    def test_synthetic_round_trip(self):
        a = 1.0 + 0.5j
        g = 1e-3
        final = np.exp(1j * g * METER64.q * a) * METER64.amplitudes
        fit = fit_effective_weak_value(final, METER64, g)
        assert fit.value == pytest.approx(a, abs=1e-10)

    def test_offset_recovers_prefactor(self):
        a, offset = 0.3 - 0.2j, -0.7 + 0.1j
        g = 1e-3
        final = np.exp(offset) * np.exp(1j * g * METER64.q * a) * METER64.amplitudes
        fit = fit_effective_weak_value(final, METER64, g)
        assert fit.offset == pytest.approx(offset, abs=1e-10)

    def test_ill_conditioned_rejected(self):
        lump = make_meter(1, 0.05)  # all weight on the central point
        final = np.array(lump.amplitudes)
        with pytest.raises(IllConditionedFitError):
            fit_effective_weak_value(final, lump, 1e-3)

    def test_positive_coupling_required(self):
        with pytest.raises(ValueError):
            fit_effective_weak_value(METER64.amplitudes, METER64, 0.0)

    def test_zero_crossings_excluded_from_support(self):
        # an exact zero in the post-selected meter must be skipped, not fed
        # into log(0)
        a = 0.4 + 0.1j
        g = 0.05
        final = np.array(np.exp(1j * g * METER64.q * a) * METER64.amplitudes)
        final[64 + 3] = 0.0
        fit = fit_effective_weak_value(final, METER64, g)
        assert np.isfinite(fit.value.real) and np.isfinite(fit.value.imag)
        assert fit.value == pytest.approx(a, abs=1e-6)


class TestNoisyScenarioFits:
    def test_spin_orbit_fit_with_noise_before_kick(self):
        # preparation is an eigenstate of the noise operator, so noise acting
        # before the kick contributes only a phase: the fit lands on the
        # noiseless i*tan(alpha) rather than the first-order formula
        alpha, gpt = np.pi / 4, 0.1
        pre = named_state("noisy_in")
        post = named_state("noisy_f", alpha=alpha)
        spec = CouplingSpec(variant="spin_orbit", g=1e-3, gprime=gpt, t=1.0)
        fit = run_and_fit(spec, pre, post, METER64)
        assert fit.value == pytest.approx(1j * np.tan(alpha), abs=1e-4)
        # the non-shifting prefactor carries the noise phase: log<f|in> - i g't
        expected_offset = np.log(np.cos(alpha) / np.sqrt(2)) - 1j * gpt
        assert fit.offset == pytest.approx(expected_offset, abs=1e-4)

    def test_spin_orbit_fit_with_kick_before_noise(self):
        # kick first: the noise then rotates the kicked state, and the fitted
        # response picks up the connected cross term -2 g't tan(alpha)
        alpha, gpt = np.pi / 4, 0.1
        pre = named_state("noisy_in")
        post = named_state("noisy_f", alpha=alpha)
        spec = CouplingSpec(variant="spin_orbit", g=1e-3, gprime=gpt, t=1.0,
                            kick_time=0.0)
        fit = run_and_fit(spec, pre, post, METER64)
        expected = 1j * np.tan(alpha) * np.exp(2j * gpt)
        assert fit.value == pytest.approx(expected, rel=1e-3)

    def test_effective_observable_consistency_inside_regime(self):
        # within the measurement-time window the fit and the first-order
        # formula weak value agree to better than 5 percent
        alpha = np.pi / 4
        g, gprime, t = 1e-4, 1e-2, 0.1
        spec = CouplingSpec(variant="spin_orbit", g=g, gprime=gprime, t=t)
        assert spec.in_regime
        pre = named_state("noisy_in")
        post = named_state("noisy_f", alpha=alpha)
        fit = run_and_fit(spec, pre, post, METER64)
        formula = weak_value(pre, post, observable("effective_spin_orbit", gprime_t=gprime * t))
        assert abs(fit.value - formula) / abs(formula) < 0.05

    def test_three_body_fit_sides_with_direct_ratio(self):
        alpha = np.pi / 4
        pre = named_state("noisy_in")
        post = named_state("noisy_f", alpha=alpha)
        spec = CouplingSpec(variant="three_body", g=1e-3)
        fit = run_and_fit(spec, pre, post, METER64)
        direct = 1j * np.tan(alpha) - 1.0
        quoted = 1.0 + 1j * np.tan(alpha)
        assert abs(fit.value - direct) / abs(direct) < 0.05
        assert abs(fit.value - quoted) / abs(quoted) > 0.5

    def test_doublet_and_triplet_orbital_models_agree(self):
        # L_x preserves the doublet, so the two embeddings give identical fits
        alpha, gpt = np.pi / 6, 0.08
        fits = []
        for dim in (2, 3):
            pre = named_state("noisy_in", orbital_dim=dim)
            post = named_state("noisy_f", alpha=alpha, orbital_dim=dim)
            spec = CouplingSpec(variant="spin_orbit", g=1e-3, gprime=gpt, t=1.0)
            fits.append(run_and_fit(spec, pre, post, METER32).value)
        assert fits[0] == pytest.approx(fits[1], abs=1e-10)


def disembodied_readout(theta, alpha, variant, **coupling):
    """pointer_readout of an arm-resolved measure_* variant on the noise-isolation states."""
    pre = named_state("disembody_in", theta=theta)
    post = named_state("disembody_f", alpha=alpha)
    return pointer_readout(CouplingSpec(variant=variant, **coupling), pre, post, METER64)


class TestDisembodiedMeasurement:
    def test_signal_fit_balanced(self):
        _, fit = disembodied_readout(np.pi / 2, np.pi / 4, "measure_sigma_zR_noisy", g=1e-3)
        assert abs(fit.value - 1.0) < 0.01

    def test_noise_fit_left_arm(self):
        _, fit = disembodied_readout(np.pi / 2, np.pi / 4, "measure_LxSx_L",
                                     gprime=1e-3, t=1.0)
        assert abs(fit.value - 1.0) < 0.01

    def test_amplified_point(self):
        _, fit = disembodied_readout(2 * np.pi / 3, np.pi / 3, "measure_sigma_zR_noisy", g=1e-3)
        assert abs(fit.value - 3.0) / 3.0 < 0.02

    def test_right_arm_noise_is_silent(self):
        _, fit = disembodied_readout(np.pi / 2, np.pi / 4, "measure_LxSx_R",
                                     gprime=1e-3, t=1.0)
        assert abs(fit.value) < 1e-3

    def test_readout_success_probability(self):
        readout, _ = disembodied_readout(np.pi / 2, np.pi / 4, "measure_sigma_zR_noisy", g=1e-3)
        want = (np.cos(np.pi / 4) * np.cos(np.pi / 4) / np.sqrt(2)) ** 2
        assert readout.success_probability == pytest.approx(want, rel=1e-2)


def parallel_arm_fit(variant, theta, alpha, arm, *, gprime=1e-3):
    """Pointer fit of one arm under parallel noise, states on the row's orbital space."""
    spec = CouplingSpec(variant=variant, g=1e-3, gprime=gprime, t=100.0, measure_arm=arm)
    pre = named_state("disembody_in", theta=theta, orbital_dim=spec.coupling.orbital_dim)
    post = named_state("disembody_f", alpha=alpha, orbital_dim=spec.coupling.orbital_dim)
    return pointer_readout(spec, pre, post, METER32)[1]


class TestParallelNoise:
    @pytest.mark.parametrize("variant", ["parallel_1", "parallel_2"])
    def test_both_arms_respond_above_threshold(self, variant):
        for theta, alpha in [(0.25, 0.25), (0.7, 0.7), (1.15, 1.15)]:
            for arm in ("L", "R"):
                assert abs(parallel_arm_fit(variant, theta, alpha, arm).value) > 1e-3

    def test_left_arm_reading_scales_with_noise(self):
        # the left-arm response exists only through the noise cross term
        fits = []
        for gpt in (0.05, 0.1):
            fits.append(abs(parallel_arm_fit("parallel_1", 0.7, 0.7, "L",
                                             gprime=gpt / 100.0).value))
        assert fits[1] / fits[0] == pytest.approx(2.0, rel=0.05)

    def test_linear_arrangement_fit_shows_noise_term(self):
        # no-arm variant: fit = (sigma_z)_w - i g't [(sigma_z N)_w - (sigma_z)_w (N)_w]
        alpha, gpt = np.pi / 4, 0.1
        pre = named_state("noisy_in", orbital_dim=3)
        post = named_state("noisy_f", alpha=alpha, orbital_dim=3)
        spec = CouplingSpec(variant="parallel_1", g=1e-3, gprime=gpt, t=1.0)
        fit = run_and_fit(spec, pre, post, METER32)
        sz = weak_value(pre, post, extend(observable("sigma_z"), pre.signature))
        sz_n = weak_value(pre, post, extend(observable("L_x", orbital_dim=3), pre.signature))
        n = weak_value(pre, post, extend(observable("Lx_sigma_z", orbital_dim=3),
                                         pre.signature))
        predicted = sz - 1j * gpt * (sz_n - sz * n)
        assert fit.value == pytest.approx(predicted, rel=0.05)
        assert abs(fit.value - sz) > 0.5 * gpt  # the noise term is visible
