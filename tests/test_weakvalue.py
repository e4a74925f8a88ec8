import re

import numpy as np
import pytest

from weakmeter.errors import (
    DegeneratePostselectionError,
    ParameterRangeError,
    SignatureError,
    UnknownIdError,
)
from weakmeter.hilbert import Ket, Operator, extend
from weakmeter.optics import (
    PATH_SIGNATURE,
    POLARIZATION_SIGNATURE,
    named_state,
    orbital_matrix,
)
from weakmeter.weakvalue import (
    EPS_OVERLAP,
    lifted_observable,
    observable,
    observable_ids,
    weak_value,
    weak_value_tables,
)

from basis_kets import is_hermitian


def oracle_wv(pre, post, matrix):
    """Independent ratio computed from raw arrays."""
    return (post.conj() @ matrix @ pre) / (post.conj() @ pre)


# raw H/V-basis oracle operators, built without the package's conventions
H = np.array([1, 0], complex)
V = np.array([0, 1], complex)
PLUS = (H + 1j * V) / np.sqrt(2)
MINUS = (H - 1j * V) / np.sqrt(2)
SZ_HV = np.outer(PLUS, PLUS.conj()) - np.outer(MINUS, MINUS.conj())
SX_HV = np.outer(PLUS, MINUS.conj()) + np.outer(MINUS, PLUS.conj())
LX = np.array([[0, -1j], [1j, 0]], complex)

AMPLIFICATION_IDS = ("pi_L", "pi_R", "sigma_z_L", "sigma_z_R", "sigma_x_L", "sigma_x_R")
DISEMBODIMENT_IDS = ("sigma_z_L", "sigma_z_R", "Lx_sigma_x_L", "Lx_sigma_x_R")


def weak_values(pre, post, obs_ids):
    """{id: weak value} of catalog observables on one pre/post pair."""
    return {obs_id: weak_value(pre, post, observable(obs_id)) for obs_id in obs_ids}


def amplification_row(theta):
    """The six amplified-separation weak values at theta."""
    return weak_values(named_state("amp_in", theta=theta), named_state("amp_f"),
                       AMPLIFICATION_IDS)


def disembodiment_row(theta, alpha):
    """The noise-isolation quartet at (theta, alpha)."""
    return weak_values(named_state("disembody_in", theta=theta),
                       named_state("disembody_f", alpha=alpha), DISEMBODIMENT_IDS)


def noisy_weak_value(obs_id, alpha, gprime_t=0.0):
    """Weak value of an effective observable on noisy_in / noisy_f(alpha)."""
    return weak_value(named_state("noisy_in"), named_state("noisy_f", alpha=alpha),
                      observable(obs_id, gprime_t=gprime_t))


class TestReviewQuartet:
    def test_quartet_values(self):
        pre = named_state("cheshire_in")
        post = named_state("cheshire_f")
        expected = {"pi_L": 1.0, "pi_R": 0.0, "sigma_z_L": 0.0, "sigma_z_R": 1.0}
        for obs_id, want in expected.items():
            got = weak_value(pre, post, observable(obs_id))
            assert abs(got - want) <= 1e-12

    def test_identity_weak_value(self):
        pre = named_state("cheshire_in")
        post = named_state("cheshire_f")
        got = weak_value(pre, post, Operator(pre.signature, np.eye(pre.signature.dim)))
        assert got == pytest.approx(1.0, abs=1e-14)


class TestAmplificationTable:
    @pytest.mark.parametrize("theta,expected", [
        (np.pi / 2, 1.0),
        (2 * np.pi / 3, np.sqrt(3.0)),
    ])
    def test_signal_values(self, theta, expected):
        pre = named_state("amp_in", theta=theta)
        post = named_state("amp_f")
        got = weak_value(pre, post, observable("sigma_z_R"))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_table_rows(self):
        values = amplification_row(np.pi / 2)
        for obs_id, want in [("pi_L", 1), ("pi_R", 0), ("sigma_z_L", 0),
                             ("sigma_z_R", 1), ("sigma_x_L", 1), ("sigma_x_R", 0)]:
            assert abs(values[obs_id] - want) <= 1e-12

    def test_vanishing_angle_limit(self):
        values = amplification_row(1e-9)
        assert abs(values["sigma_z_R"]) < 1e-8

    def test_beyond_spectrum(self):
        # tan(0.45 pi) = 6.3138 lies far outside [-1, 1]
        values = amplification_row(0.9 * np.pi)
        assert values["sigma_z_R"].real == pytest.approx(6.313751514675041, abs=1e-10)
        assert values["sigma_z_R"].real > 1.0

    def test_against_raw_oracle(self):
        theta = 1.1
        pre_raw = np.kron([1, 0], np.cos(theta / 2) * H) + np.kron(
            [0, 1], -1j * np.sin(theta / 2) * H)
        post_raw = (np.kron([1, 0], H) + np.kron([0, 1], V)) / np.sqrt(2)
        want = oracle_wv(pre_raw, post_raw, np.kron(np.diag([0, 1]), SZ_HV))
        got = weak_value(named_state("amp_in", theta=theta), named_state("amp_f"),
                         observable("sigma_z_R"))
        assert got == pytest.approx(want, abs=1e-12)


class TestNoisyEffective:
    def test_spin_orbit_closed_form(self):
        # (g't + i) tan(alpha) at the noisy_fit check's six points
        for gprime_t in (0.05, 0.1):
            for alpha in (np.pi / 6, np.pi / 4, np.pi / 3):
                got = noisy_weak_value("effective_spin_orbit", alpha, gprime_t)
                want = (gprime_t + 1j) * np.tan(alpha)
                assert got == pytest.approx(want, abs=1e-12 * abs(want)), (gprime_t, alpha)

    def test_spin_orbit_zero_angle(self):
        assert noisy_weak_value("effective_spin_orbit", 0.0, 0.1) == pytest.approx(0.0)

    def test_three_body_direct_vs_quoted(self):
        alpha = np.pi / 4
        direct = noisy_weak_value("effective_three_body", alpha)
        quoted = 1.0 + 1j * np.tan(alpha)
        # the direct ratio disagrees with the quoted form by a sign on the
        # orbital-polarization term
        assert direct == pytest.approx(-1.0 + 1.0j, abs=1e-12)
        assert direct - quoted == pytest.approx(-2.0, abs=1e-12)

        pre_raw = np.kron((np.array([1, 0]) + 1j * np.array([0, 1])) / np.sqrt(2), H)
        post_raw = np.kron([1, 0], np.cos(alpha) * H + np.sin(alpha) * V)
        a3 = np.kron(np.eye(2), SZ_HV) - np.kron(LX, SX_HV)
        assert direct == pytest.approx(oracle_wv(pre_raw, post_raw, a3), abs=1e-12)

    def test_degenerate_postselection(self):
        with pytest.raises(DegeneratePostselectionError) as err:
            noisy_weak_value("effective_spin_orbit", np.pi / 2, 0.1)
        assert err.value.overlap_abs < 1e-10


class TestDisembodimentTable:
    def test_balanced_point(self):
        rows = disembodiment_row(np.pi / 2, np.pi / 4)
        assert abs(rows["sigma_z_L"]) <= 1e-12
        assert rows["sigma_z_R"] == pytest.approx(1.0, abs=1e-12)
        assert rows["Lx_sigma_x_L"] == pytest.approx(1.0, abs=1e-12)
        assert abs(rows["Lx_sigma_x_R"]) <= 1e-12

    def test_amplified_point(self):
        rows = disembodiment_row(2 * np.pi / 3, np.pi / 3)
        assert rows["sigma_z_R"] == pytest.approx(3.0, abs=1e-12)

    def test_zero_alpha(self):
        rows = disembodiment_row(1.0, 0.0)
        assert abs(rows["sigma_z_R"]) <= 1e-12

    def test_closed_forms_on_grid(self):
        rng = np.random.default_rng(42)
        pairs = zip(rng.uniform(-2.7, 2.7, size=50), rng.uniform(-1.3, 1.3, size=50))
        for theta, alpha in pairs:
            if abs(np.cos(theta / 2) * np.cos(alpha)) < 1e-3:
                continue
            rows = disembodiment_row(theta, alpha)
            want = np.tan(theta / 2) * np.tan(alpha)
            assert abs(rows["sigma_z_L"]) <= 1e-12
            assert abs(rows["sigma_z_R"] - want) <= 1e-12 * max(1, abs(want))
            assert abs(rows["Lx_sigma_x_L"] - 1.0) <= 1e-12
            assert abs(rows["Lx_sigma_x_R"]) <= 1e-12

            amp = amplification_row(theta)
            signal = np.tan(theta / 2)
            assert abs(amp["sigma_z_R"] - signal) <= 1e-12 * max(1, abs(signal))
            for obs_id, fixed in [("pi_L", 1), ("pi_R", 0), ("sigma_z_L", 0),
                                  ("sigma_x_L", 1), ("sigma_x_R", 0)]:
                assert abs(amp[obs_id] - fixed) <= 1e-12


class TestWeakValueProperties:
    @staticmethod
    def rand_state(rng, sig):
        amps = rng.normal(size=sig.dim) + 1j * rng.normal(size=sig.dim)
        return Ket(sig, amps)

    @staticmethod
    def rand_hermitian_op(rng, sig):
        m = rng.normal(size=(sig.dim, sig.dim)) + 1j * rng.normal(size=(sig.dim, sig.dim))
        return Operator(sig, (m + m.conj().T) / 2)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        sig = PATH_SIGNATURE.concat(POLARIZATION_SIGNATURE)
        for _ in range(20):
            pre, post = self.rand_state(rng, sig), self.rand_state(rng, sig)
            a, b = self.rand_hermitian_op(rng, sig), self.rand_hermitian_op(rng, sig)
            ca = complex(*rng.normal(size=2))
            cb = complex(*rng.normal(size=2))
            combo = Operator(sig, ca * a.matrix + cb * b.matrix)
            lhs = weak_value(pre, post, combo)
            rhs = (ca * weak_value(pre, post, a)
                   + cb * weak_value(pre, post, b))
            assert lhs == pytest.approx(rhs, abs=1e-12 * max(1, abs(rhs)))

    def test_projector_completeness(self):
        rng = np.random.default_rng(8)
        sig = PATH_SIGNATURE.concat(POLARIZATION_SIGNATURE)
        for _ in range(20):
            pre, post = self.rand_state(rng, sig), self.rand_state(rng, sig)
            total = (weak_value(pre, post, observable("pi_L"))
                     + weak_value(pre, post, observable("pi_R")))
            assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("pauli", ["sigma_z", "sigma_x"])
    def test_arm_decomposition(self, pauli):
        rng = np.random.default_rng(9)
        sig = PATH_SIGNATURE.concat(POLARIZATION_SIGNATURE)
        for _ in range(20):
            pre, post = self.rand_state(rng, sig), self.rand_state(rng, sig)
            split = (weak_value(pre, post, observable(f"{pauli}_L"))
                     + weak_value(pre, post, observable(f"{pauli}_R")))
            whole = weak_value(pre, post, extend(observable(pauli), sig))
            assert split == pytest.approx(whole, abs=1e-10 * max(1, abs(whole)))

    def test_eigenstate_consistency(self):
        rng = np.random.default_rng(10)
        sig = POLARIZATION_SIGNATURE
        op = self.rand_hermitian_op(rng, sig)
        w, v = np.linalg.eigh(op.matrix)
        for i in range(len(w)):
            eig = Ket(sig, v[:, i])
            got = weak_value(eig, eig, op)
            assert got == pytest.approx(w[i], abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(11)
        sig = PATH_SIGNATURE.concat(POLARIZATION_SIGNATURE)
        pre, post = self.rand_state(rng, sig), self.rand_state(rng, sig)
        op = self.rand_hermitian_op(rng, sig)
        base = weak_value(pre, post, op)
        scaled = weak_value(Ket(sig, (3.7 - 0.2j) * pre.amplitudes),
                            Ket(sig, (0.01 + 5j) * post.amplitudes), op)
        assert scaled == pytest.approx(base, abs=1e-12 * max(1, abs(base)))

    def test_degenerate_threshold_is_scale_invariant(self):
        sig = POLARIZATION_SIGNATURE
        a = Ket(sig, [1, 0])
        b = Ket(sig, [0, 1e-6])  # tiny but orthogonal-to-a
        with pytest.raises(DegeneratePostselectionError):
            weak_value(a, b, Operator(sig, np.eye(2)))
        # the bound is EPS_OVERLAP on the norm-scaled overlap, at every scale
        for scale in (1e-6, 1.0, 1e6):
            for factor in (0.5, 2.0):
                eps = factor * EPS_OVERLAP
                post = Ket(sig, scale * np.array([eps, np.sqrt(1 - eps**2)]))
                if factor < 1:
                    with pytest.raises(DegeneratePostselectionError):
                        weak_value(a, post, Operator(sig, np.eye(2)))
                else:
                    assert weak_value(a, post, Operator(sig, np.eye(2))) == pytest.approx(1.0)

    def test_catalog_hermitian_members(self):
        for obs_id in observable_ids():
            if obs_id.startswith("effective_"):
                continue
            op = observable(obs_id, orbital_dim=2)
            assert is_hermitian(op, 1e-12), obs_id

    def test_projectors_resolve_identity(self):
        total = observable("pi_L").matrix + observable("pi_R").matrix
        np.testing.assert_allclose(total, np.eye(2), atol=1e-14)

    def test_sigma_z_diagonal_in_circular_basis(self):
        np.testing.assert_array_equal(observable("sigma_z").matrix, np.diag([1.0, -1.0]))

    def test_lz_restriction_vanishes_on_doublet(self):
        # computed from the documented triplet vectors: the doublet block of
        # diag(1, 0, -1) is identically zero
        assert not np.any(observable("L_z", orbital_dim=2).matrix)
        effective = observable("effective_parallel_lz", orbital_dim=2, gprime_t=0.3)
        sz_only = observable("effective_parallel_lz", orbital_dim=2, gprime_t=0.0)
        np.testing.assert_allclose(effective.matrix, sz_only.matrix)


class TestOneRoute:
    """weak_value(pre, post, A) is its entry of weak_value_tables, bit for bit."""

    @staticmethod
    def assert_entries(pres, posts, ops, tables):
        for op, table in zip(ops, tables):
            for p, post in enumerate(posts):
                for r, pre in enumerate(pres):
                    got = np.complex128(weak_value(pre, post, op))
                    assert got.tobytes() == table[p, r].tobytes(), (p, r, got, table[p, r])

    def test_random_states_and_hermitian_operators(self):
        rng = np.random.default_rng(12)
        sig = PATH_SIGNATURE.concat(POLARIZATION_SIGNATURE)
        make = TestWeakValueProperties
        pres = [make.rand_state(rng, sig) for _ in range(7)]
        posts = [make.rand_state(rng, sig) for _ in range(5)]
        ops = [make.rand_hermitian_op(rng, sig) for _ in range(6)]
        _, tables = weak_value_tables(pres, posts, [op.matrix for op in ops])
        self.assert_entries(pres, posts, ops, tables)

    @pytest.mark.parametrize("pre_id, post_id", [("amp_in", "amp_f"),
                                                 ("disembody_in", "disembody_f")])
    def test_catalog_ids(self, pre_id, post_id):
        pres = [named_state(pre_id, theta=theta) for theta in (0.3, 1.1, 2.0, 0.9 * np.pi)]
        posts = ([named_state(post_id)] if post_id == "amp_f" else
                 [named_state(post_id, alpha=alpha) for alpha in (0.25, 0.7, 1.2)])
        system = pres[0].signature
        for obs_id in observable_ids():
            if obs_id.startswith("effective_"):
                continue
            op = observable(obs_id)
            try:
                matrix = lifted_observable(obs_id, system)
            except SignatureError:  # a factor the states do not carry
                with pytest.raises(SignatureError):
                    weak_value(pres[0], posts[0], op)
                continue
            _, tables = weak_value_tables(pres, posts, [matrix])
            self.assert_entries(pres, posts, [op], tables)


# Explicit factors for the catalog pin, in the circular (+, -) polarization
# basis, the path basis (L, R), and the orbital doublet or L_z eigenbasis.
REF_PI = {"L": np.array([[1, 0], [0, 0]], complex), "R": np.array([[0, 0], [0, 1]], complex)}
REF_SZ = np.array([[1, 0], [0, -1]], complex)
REF_SX = np.array([[0, 1], [1, 0]], complex)
REF_ORBITAL = {
    ("L_x", 2): np.array([[0, -1j], [1j, 0]], complex),
    ("L_z", 2): np.zeros((2, 2), complex),
    ("L_x", 3): np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], complex) / np.sqrt(2.0),
    ("L_z", 3): np.array([[1, 0, 0], [0, 0, 0], [0, 0, -1]], complex),
}


def _ref_product(arm=None, orbital=None, pol=None):
    """arm (x) (orbital (x) polarization) on the factors given, nested right to left."""
    def build(d, gprime_t):
        factors = []
        if arm is not None:
            factors.append((("path", 2), REF_PI[arm]))
        if orbital is not None:
            factors.append((("orbital", d), REF_ORBITAL[orbital, d]))
        if pol is not None:
            factors.append((("polarization", 2), pol))
        matrix = factors[-1][1]
        for _, factor in reversed(factors[:-1]):
            matrix = np.kron(factor, matrix)
        return tuple(space for space, _ in factors), matrix
    return build


def _ref_effective(orbital, pol):
    """sigma_z + i g't orbital (x) polarization on orbital (x) polarization."""
    def build(d, gprime_t):
        base = np.kron(np.eye(d, dtype=complex), REF_SZ)
        cross = np.kron(REF_ORBITAL[orbital, d], pol)
        return (("orbital", d), ("polarization", 2)), base + 1j * gprime_t * cross
    return build


def _ref_three_body(d, gprime_t):
    """sigma_z - L_x (x) sigma_x, independent of g't."""
    base = np.kron(np.eye(d, dtype=complex), REF_SZ)
    return (("orbital", d), ("polarization", 2)), base - np.kron(REF_ORBITAL["L_x", d], REF_SX)


REF_CATALOG = {
    "pi_L": _ref_product(arm="L"),
    "pi_R": _ref_product(arm="R"),
    "sigma_z": _ref_product(pol=REF_SZ),
    "sigma_x": _ref_product(pol=REF_SX),
    "sigma_z_L": _ref_product("L", pol=REF_SZ),
    "sigma_z_R": _ref_product("R", pol=REF_SZ),
    "sigma_x_L": _ref_product("L", pol=REF_SX),
    "sigma_x_R": _ref_product("R", pol=REF_SX),
    "L_x": _ref_product(orbital="L_x"),
    "L_z": _ref_product(orbital="L_z"),
    "Lx_sigma_x": _ref_product(None, "L_x", REF_SX),
    "Lx_sigma_z": _ref_product(None, "L_x", REF_SZ),
    "Lz_sigma_z": _ref_product(None, "L_z", REF_SZ),
    "Lx_sigma_x_L": _ref_product("L", "L_x", REF_SX),
    "Lx_sigma_x_R": _ref_product("R", "L_x", REF_SX),
    "Lx_sigma_z_L": _ref_product("L", "L_x", REF_SZ),
    "Lx_sigma_z_R": _ref_product("R", "L_x", REF_SZ),
    "Lz_sigma_z_L": _ref_product("L", "L_z", REF_SZ),
    "Lz_sigma_z_R": _ref_product("R", "L_z", REF_SZ),
    "effective_spin_orbit": _ref_effective("L_x", REF_SX @ REF_SZ),
    "effective_parallel_lx": _ref_effective("L_x", np.eye(2, dtype=complex)),
    "effective_parallel_lz": _ref_effective("L_z", np.eye(2, dtype=complex)),
    "effective_three_body": _ref_three_body,
}


class TestCatalogPin:
    """Every catalog operator, bit for bit, against the explicit factors above."""

    def test_ids_in_declaration_order(self):
        assert observable_ids() == tuple(REF_CATALOG)

    @pytest.mark.parametrize("orbital_dim", [2, 3])
    @pytest.mark.parametrize("obs_id", observable_ids())
    def test_operator_bytes(self, obs_id, orbital_dim):
        for gprime_t in (0.0, 1e-3, 0.1, 0.3333333333, 7.5):
            signature, matrix = REF_CATALOG[obs_id](orbital_dim, gprime_t)
            op = observable(obs_id, orbital_dim=orbital_dim, gprime_t=gprime_t)
            assert op.signature.factors == signature, (obs_id, gprime_t)
            assert op.matrix.dtype == matrix.dtype and op.matrix.shape == matrix.shape
            assert op.matrix.tobytes() == matrix.tobytes(), (obs_id, gprime_t)

    def test_unknown_id_message(self):
        for bad in ("sigma_y", "", None, ["pi_L"]):
            with pytest.raises(UnknownIdError) as err:
                observable(bad)
            assert str(err.value) == (
                f"unknown observable id {bad!r}; valid ids: {tuple(REF_CATALOG)}")

    def test_unhashable_id_is_unknown_when_lifted(self):
        # the lifted table is a cache keyed on the id, which an unhashable id cannot key
        system = named_state("cheshire_in").signature
        for bad in (["pi_L"], {"pi_L": 1}, "sigma_y"):
            with pytest.raises(UnknownIdError) as err:
                lifted_observable(bad, system)
            assert str(err.value) == (
                f"unknown observable id {bad!r}; valid ids: {tuple(REF_CATALOG)}")

    @pytest.mark.parametrize("obs_id", ["L_x", "Lz_sigma_z", "Lx_sigma_x_R",
                                        "effective_spin_orbit", "effective_three_body",
                                        "pi_L", "sigma_z"])
    def test_bad_orbital_dim_message(self, obs_id):
        # one rule for every id, with or without an orbital factor: only the ints 2 and 3
        for dim in (4, 2.0, True):
            with pytest.raises(ValueError, match=rf"^orbital dimension must be 2 or 3, got {dim}$"):
                observable(obs_id, orbital_dim=dim)

    @pytest.mark.parametrize("dim", [1, 4, 2.0, 3.0, True, None, "2"])
    def test_bad_orbital_dim_is_a_range_error_everywhere(self, dim):
        with pytest.raises(ParameterRangeError):
            observable("pi_L", orbital_dim=dim)
        with pytest.raises(ParameterRangeError):
            named_state("cheshire_in", orbital_dim=dim)
        with pytest.raises(ParameterRangeError):
            orbital_matrix("L_x", dim)


class TestLiftedObservable:
    """The per-process table equals extend(observable(...)) entry by entry."""

    SYSTEMS = {"path-pol": ("cheshire_in", {}), "orbital-pol": ("noisy_in", {}),
               "path-orbital-pol": ("disembody_in", {"theta": 0.5})}

    @pytest.mark.parametrize("orbital_dim", [2, 3])
    @pytest.mark.parametrize("system", list(SYSTEMS))
    def test_matches_extend_of_observable(self, system, orbital_dim):
        state, angles = self.SYSTEMS[system]
        target = named_state(state, orbital_dim=orbital_dim, **angles).signature
        for obs_id in observable_ids():
            for gprime_t in (0.0, 1e-3, 0.3333333333, 7.5):
                try:
                    want = extend(observable(obs_id, orbital_dim=orbital_dim,
                                             gprime_t=gprime_t), target).matrix
                except SignatureError as exc:  # a factor the states do not carry
                    with pytest.raises(SignatureError, match=re.escape(str(exc))):
                        lifted_observable(obs_id, target, gprime_t=gprime_t)
                    continue
                got = lifted_observable(obs_id, target, gprime_t=gprime_t)
                # equal up to the sign of a zero
                np.testing.assert_array_equal(got, want, err_msg=f"{obs_id} {gprime_t}")

    def test_lifts_without_extend_or_operator(self, monkeypatch):
        # one kron over each state signature's factors: the table never takes
        # the extend-and-Operator round trip, yet every pair keeps its matrix
        # or its extend error
        from weakmeter import weakvalue

        want = {}
        for dim in (2, 3):
            for state, angles in self.SYSTEMS.values():
                target = named_state(state, orbital_dim=dim, **angles).signature
                for obs_id in observable_ids():
                    for gprime_t in (0.0, 0.3):
                        try:
                            want[obs_id, target, gprime_t] = extend(observable(
                                obs_id, orbital_dim=dim, gprime_t=gprime_t), target).matrix
                        except SignatureError as exc:
                            want[obs_id, target, gprime_t] = str(exc)

        def refuse(*args, **kwargs):
            raise AssertionError("the lift called extend or Operator")

        monkeypatch.setattr(weakvalue, "extend", refuse)
        monkeypatch.setattr(weakvalue, "Operator", refuse)
        weakvalue._lifted.cache_clear()
        try:
            for (obs_id, target, gprime_t), expected in want.items():
                if isinstance(expected, str):
                    with pytest.raises(SignatureError, match=f"^{re.escape(expected)}$"):
                        lifted_observable(obs_id, target, gprime_t=gprime_t)
                    continue
                got = lifted_observable(obs_id, target, gprime_t=gprime_t)
                np.testing.assert_array_equal(got, expected, err_msg=f"{obs_id} {target}")
        finally:
            weakvalue._lifted.cache_clear()
        assert len({target for _, target, _ in want}) == 5  # path-pol has no orbital dimension

    def test_entries_without_gprime_t_are_shared_and_read_only(self):
        target = named_state("disembody_in", theta=0.5).signature
        first = lifted_observable("Lx_sigma_x_L", target)
        assert lifted_observable("Lx_sigma_x_L", target, gprime_t=3.0) is first
        assert not first.flags.writeable
