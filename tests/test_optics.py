import numpy as np
import pytest

from weakmeter.errors import UnknownIdError
from weakmeter.hilbert import Ket, SpaceSignature, inner
from weakmeter.optics import (
    _HV_TO_PM,
    ORBITAL_SIGNATURES,
    PATH_SIGNATURE,
    POLARIZATION_SIGNATURE,
    STATE_IDS,
    hv_components,
    named_state,
    orbital_matrix,
    orbital_vector,
    pol_from_hv,
)

from basis_kets import orbital_ket, path_ket, pol_ket, superpose, tensor, unit

PP = PATH_SIGNATURE.concat(POLARIZATION_SIGNATURE)


def hv(ket):
    """H/V components of a two-level polarization ket stored in (+,-)."""
    return hv_components(ket)


# The preparation PBS -> HWP(R) -> PhaseShifter(R, pi), as 4x4 matrices on
# path (x) polarization in the H/V basis, rows and columns |L,H>, |L,V>, |R,H>, |R,V>.
# The PBS transmits H and reflects V into the other arm with the pi/2 phase i.
PBS_HV = np.array([[1, 0, 0, 0],
                   [0, 0, 0, 1j],
                   [0, 0, 1, 0],
                   [0, 1j, 0, 0]])
HWP_R_HV = np.array([[1, 0, 0, 0],   # swaps H and V in the right arm
                     [0, 1, 0, 0],
                     [0, 0, 0, 1],
                     [0, 0, 1, 0]], dtype=complex)
PHASE_R_HV = np.diag([1, 1, -1, -1]).astype(complex)  # e^{i pi} on the right arm


def in_pm_basis(matrix_hv):
    """The path (x) polarization operator with polarization in (+,-) coordinates."""
    change = np.kron(np.eye(2), _HV_TO_PM)
    return change @ matrix_hv @ change.conj().T


def element(bra, matrix, ket):
    """<bra| matrix |ket>."""
    return np.vdot(bra.amplitudes, matrix @ ket.amplitudes)


def prepare_preselected(theta):
    """cos(theta/2)|H> + sin(theta/2)|V> entering the left port, through the three elements."""
    source = tensor(path_ket("L"), Ket(POLARIZATION_SIGNATURE,
                                       pol_from_hv(np.cos(theta / 2), np.sin(theta / 2))))
    preparation = in_pm_basis(PHASE_R_HV @ HWP_R_HV @ PBS_HV)
    return Ket(PP, preparation @ source.amplitudes)


class TestPreparation:
    """The optical preparation lands exactly on named_state("amp_in", theta)."""

    def test_hwp_swaps_h_and_v_on_its_arm(self):
        op = in_pm_basis(HWP_R_HV)
        rv = tensor(path_ket("R"), pol_ket("V"))
        rh = tensor(path_ket("R"), pol_ket("H"))
        assert element(rh, op, rv) == pytest.approx(1.0, abs=1e-12)
        lh = tensor(path_ket("L"), pol_ket("H"))
        assert element(lh, op, lh) == pytest.approx(1.0, abs=1e-12)

    def test_phase_shifter_flips_right_arm(self):
        op = in_pm_basis(PHASE_R_HV)
        rh = tensor(path_ket("R"), pol_ket("H"))
        assert element(rh, op, rh) == pytest.approx(-1.0, abs=1e-12)

    def test_pbs_transmits_h_reflects_v(self):
        op = in_pm_basis(PBS_HV)
        lh = tensor(path_ket("L"), pol_ket("H"))
        assert element(lh, op, lh) == pytest.approx(1.0, abs=1e-12)
        lv = tensor(path_ket("L"), pol_ket("V"))
        rv = tensor(path_ket("R"), pol_ket("V"))
        # reflection carries the pi/2 phase
        assert element(rv, op, lv) == pytest.approx(1j, abs=1e-12)

    def test_theta_zero_is_left_h(self):
        ket = prepare_preselected(0.0)
        lh = tensor(path_ket("L"), pol_ket("H"))
        assert abs(inner(lh, ket)) == pytest.approx(1.0, abs=1e-12)

    def test_quarter_turn_closed_form(self):
        ket = prepare_preselected(np.pi / 2)
        expected = superpose((1 / np.sqrt(2), tensor(path_ket("L"), pol_ket("H"))),
                             (-1j / np.sqrt(2), tensor(path_ket("R"), pol_ket("H"))))
        np.testing.assert_allclose(ket.amplitudes, expected.amplitudes, atol=1e-12)

    def test_pipeline_matches_closed_form_exactly(self):
        theta = 2 * np.pi / 3
        ket = prepare_preselected(theta)
        closed = named_state("amp_in", theta=theta)
        assert abs(inner(closed, ket)) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(ket.amplitudes, closed.amplitudes, atol=1e-12)

    def test_norm_and_no_vertical_component(self):
        rng = np.random.default_rng(17)
        for theta in rng.uniform(-np.pi * 0.99, np.pi * 0.99, size=25):
            ket = prepare_preselected(theta)
            assert ket.norm() == pytest.approx(1.0, abs=1e-12)
            for arm in ("L", "R"):
                v_arm = tensor(path_ket(arm), pol_ket("V"))
                assert abs(inner(v_arm, ket)) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_pipeline_matches_closed_form_random_angles(self, seed):
        rng = np.random.default_rng(100 + seed)
        for theta in rng.uniform(-3.0, 3.0, size=25):
            built = prepare_preselected(theta)
            closed = named_state("amp_in", theta=theta)
            # exact equality, not only up to a global phase
            assert abs(inner(closed, built)) == pytest.approx(
                built.norm() * closed.norm(), abs=1e-12)
            np.testing.assert_allclose(built.amplitudes, closed.amplitudes, atol=1e-12)


class TestNamedStates:
    def test_cheshire_in(self):
        ket = named_state("cheshire_in")
        expected = superpose((1j / np.sqrt(2), tensor(path_ket("L"), pol_ket("H"))),
                             (1 / np.sqrt(2), tensor(path_ket("R"), pol_ket("H"))))
        np.testing.assert_allclose(ket.amplitudes, expected.amplitudes, atol=1e-14)

    def test_disembody_f_at_balanced_angle(self):
        ket = named_state("disembody_f", alpha=np.pi / 4)
        # (|L,H> + |R,V>)/sqrt(2) (x) |va>, in path, orbital, polarization order
        c = 1 / np.sqrt(2)
        shaped = ket.amplitudes.reshape(2, 2, 2)
        lh = hv(shaped[0, 0])
        rv = hv(shaped[1, 0])
        assert lh[0] == pytest.approx(c, abs=1e-12) and abs(lh[1]) < 1e-12
        assert rv[1] == pytest.approx(c, abs=1e-12) and abs(rv[0]) < 1e-12
        assert np.max(np.abs(shaped[:, 1, :])) < 1e-12  # nothing on vb

    @pytest.mark.parametrize("dim", [2, 3])
    def test_noisy_in_orbital_part_is_lx_eigenvector(self, dim):
        # apply L_x to the orbital factor directly: eigenvalue +1
        ket = named_state("noisy_in", orbital_dim=dim)
        l_x = orbital_matrix("L_x", dim)
        shaped = ket.amplitudes.reshape(dim, 2)
        np.testing.assert_allclose(l_x @ shaped, shaped, atol=1e-12)

    def test_unknown_state_rejected(self):
        with pytest.raises(UnknownIdError):
            named_state("bogus_state")

    def test_missing_parameter_rejected(self):
        with pytest.raises(ValueError):
            named_state("amp_in")

    def test_all_states_normalized(self):
        for name, params in [
            ("cheshire_in", {}), ("cheshire_f", {}), ("amp_in", {"theta": 0.7}),
            ("amp_f", {}), ("noisy_in", {}), ("noisy_f", {"alpha": 0.4}),
            ("disembody_in", {"theta": 0.7}), ("disembody_f", {"alpha": 0.4}),
        ]:
            assert named_state(name, **params).norm() == pytest.approx(1.0, abs=1e-12)

    def test_triplet_embeddings_match_doublet_overlaps(self):
        # the doublet is the {va, vb} block of the triplet model
        for theta in (0.3, 1.2):
            k2 = named_state("disembody_in", theta=theta, orbital_dim=2)
            k3 = named_state("disembody_in", theta=theta, orbital_dim=3)
            assert k2.norm() == pytest.approx(k3.norm(), abs=1e-12)


def composed_state(name, theta=None, alpha=None, orbital_dim=2):
    """Each named state composed from basis kets, tensor products and sums.

    This is the construction named_state used before it wrote the closed
    forms into one array; it is kept here as the reference.
    """
    def amp_in(theta):
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        return superpose((c, tensor(path_ket("L"), pol_ket("H"))),
                         (-1j * s, tensor(path_ket("R"), pol_ket("H"))))

    def cheshire_f():
        return superpose((1 / np.sqrt(2.0), tensor(path_ket("L"), pol_ket("H"))),
                         (1 / np.sqrt(2.0), tensor(path_ket("R"), pol_ket("V"))))

    def orbital_superposition(dim):
        amps = (orbital_vector("va", dim) + 1j * orbital_vector("vb", dim)) / np.sqrt(2.0)
        return unit(Ket(ORBITAL_SIGNATURES[dim], amps))

    def insert_orbital(path_pol, orb):
        sig = SpaceSignature((("path", 2), ("orbital", orb.signature.dim), ("polarization", 2)))
        amps = np.kron(path_pol.amplitudes.reshape(2, 2), orb.amplitudes).reshape(
            2, 2, orb.signature.dim)
        return Ket(sig, amps.transpose(0, 2, 1).reshape(-1))

    if name == "cheshire_in":
        return superpose((1j / np.sqrt(2.0), tensor(path_ket("L"), pol_ket("H"))),
                         (1 / np.sqrt(2.0), tensor(path_ket("R"), pol_ket("H"))))
    if name in ("cheshire_f", "amp_f"):
        return cheshire_f()
    if name == "amp_in":
        return amp_in(theta)
    if name == "noisy_in":
        return tensor(orbital_superposition(orbital_dim), pol_ket("H"))
    if name == "noisy_f":
        pol = Ket(POLARIZATION_SIGNATURE, pol_from_hv(np.cos(alpha), np.sin(alpha)))
        return tensor(orbital_ket("va", orbital_dim), pol)
    if name == "disembody_in":
        return insert_orbital(amp_in(theta), orbital_superposition(orbital_dim))
    if name == "disembody_f":
        post_pol = superpose((np.cos(alpha), tensor(path_ket("L"), pol_ket("H"))),
                             (np.sin(alpha), tensor(path_ket("R"), pol_ket("V"))))
        return insert_orbital(post_pol, orbital_ket("va", orbital_dim))
    raise AssertionError(name)


ANGLE_GRID = np.linspace(-0.999, 0.999, 23) * np.pi


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("name", sorted(STATE_IDS))
def test_closed_forms_match_the_composed_states(name, dim):
    angles = [{STATE_IDS[name][0]: a} for a in ANGLE_GRID] if STATE_IDS[name] else [{}]
    for kw in angles:
        got = named_state(name, orbital_dim=dim, **kw)
        want = composed_state(name, orbital_dim=dim, **kw)
        assert got.signature == want.signature
        np.testing.assert_allclose(got.amplitudes, want.amplitudes, rtol=0, atol=1e-15)
