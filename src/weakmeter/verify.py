"""Built-in verification suite: every headline result, checked at fixed tolerance.

Each check returns a :class:`CheckResult`; the CLI renders them as a
pass/fail table and the test suite asserts them one by one.  With
``kick_sign=-1`` the pointer-fit checks run under the alternate kick
bookkeeping and are reported as informational rather than pass/fail (their
fitted values come out sign-flipped by construction).
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    COUPLINGS,
    CouplingSpec,
    evolve_dyson2,
    evolve_exact,
    kick_factors,
    pointer_readout,
    transfer_readouts,
)
from .hilbert import Ket
from .meter import continuous_reference, make_meter, meter_readout
from .optics import named_state
from .weakvalue import check_overlap, lifted_observable, weak_value_tables

__all__ = ["CheckResult", "CHECK_NAMES", "run_checks", "render_table"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    informational: bool = False
    lines: list = field(default_factory=list)

    @property
    def status(self) -> str:
        if self.informational:
            return "INFO"
        return "PASS" if self.passed else "FAIL"


def _weak_values(pres, post, obs_ids) -> dict:
    """{id: [<post|A|pre> / <post|pre> for each pre]} by the route scenarios take.

    The catalog matrices come from the per-process lifting table on the
    pre-states' space (orbital doublet), and a degenerate pair raises
    :class:`~weakmeter.errors.DegeneratePostselectionError`.
    """
    system = pres[0].signature
    overlaps, tables = weak_value_tables(pres, [post],
                                         [lifted_observable(o, system) for o in obs_ids])
    for pre, overlap in zip(pres, overlaps[0]):
        check_overlap(overlap, pre.norm() * post.norm())
    return {obs_id: table[0] for obs_id, table in zip(obs_ids, tables)}


def _fit(entry):
    """The pointer fit of one :func:`transfer_readouts` entry; an error entry is raised."""
    if isinstance(entry, Exception):
        raise entry
    return entry[1]


def check_cheshire(kick_sign: int = 1) -> CheckResult:
    """Quartet (pi_L, pi_R, sigma_z_L, sigma_z_R) = (1, 0, 0, 1) to 1e-12."""
    start = time.perf_counter()
    pre = named_state("cheshire_in")
    post = named_state("cheshire_f")
    expected = {"pi_L": 1.0, "pi_R": 0.0, "sigma_z_L": 0.0, "sigma_z_R": 1.0}
    values = _weak_values([pre], post, expected)
    lines, ok = [], True
    for obs_id, want in expected.items():
        (got,) = values[obs_id]
        good = abs(got - want) <= 1e-12
        ok &= good
        lines.append(f"{obs_id}: {got:.3e} (expect {want}) {'ok' if good else 'BAD'}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    lines.append(f"runtime {elapsed * 1e3:.1f} ms (< 1 s)")
    return CheckResult("cheshire", ok, lines=lines)


def check_amplification(kick_sign: int = 1) -> CheckResult:
    """sigma_z_R = tan(theta/2) with the rest of the table pinned, to 1e-12."""
    post = named_state("amp_f")
    thetas = [np.pi / 6, np.pi / 4, np.pi / 2, 2 * np.pi / 3, 0.9 * np.pi]
    fixed = {"pi_L": 1.0, "pi_R": 0.0, "sigma_z_L": 0.0, "sigma_x_L": 1.0, "sigma_x_R": 0.0}
    values = _weak_values([named_state("amp_in", theta=theta) for theta in thetas], post,
                          [*fixed, "sigma_z_R"])
    lines, ok = [], True
    for r, theta in enumerate(thetas):
        errs = [abs(values[o][r] - want) for o, want in fixed.items()]
        got = values["sigma_z_R"][r]
        errs.append(abs(got - np.tan(theta / 2)))
        good = max(errs) <= 1e-12
        ok &= good
        lines.append(
            f"theta={theta:.6f}: sigma_z_R = {got.real:.12f} "
            f"(tan(theta/2) = {np.tan(theta / 2):.12f}), max err {max(errs):.2e}"
        )
    beyond = values["sigma_z_R"][thetas.index(0.9 * np.pi)]
    good = beyond.real > 1.0
    ok &= good
    lines.append(f"theta=0.9pi gives {beyond.real:.4f} > 1: beyond the eigenvalue range")
    return CheckResult("amplification", ok, lines=lines)


def check_noisy_fit(kick_sign: int = 1) -> CheckResult:
    """Exact evolution + pointer fit against (g't + i) tan(alpha), 5% relative.

    The first-order formula and the exact pointer response differ at order
    g't here: the preparation is an eigenstate of the noise operator, so
    with the kick after the noise window the fit returns i tan(alpha)
    exactly.  The 0.05 points sit just inside 5%; the 0.1 points do not.
    Both fitted and formula values are reported so the gap is visible.  The
    acceptance test reads the point lines (g't, alpha, fit, formula, rel err,
    ok/BAD), so keep their format when editing them.
    """
    meter = make_meter(64, 4.0)
    pre = named_state("noisy_in")
    posts = {alpha: named_state("noisy_f", alpha=alpha)
             for alpha in (np.pi / 6, np.pi / 4, np.pi / 3)}
    lines, ok = [], True
    for gpt in (0.05, 0.1):
        # one kernel pass per g't reads all three points; each reports the pass's time
        start = time.perf_counter()
        spec = CouplingSpec(variant="spin_orbit", g=1e-3, gprime=gpt, t=1.0,
                            kick_sign=kick_sign)
        (row,) = transfer_readouts(kick_factors(spec, pre.signature), meter, [pre],
                                   list(posts.values()))
        fits = [_fit(entry) for entry in row]
        elapsed = time.perf_counter() - start
        for alpha, fit in zip(posts, fits):
            target = (gpt + 1j) * np.tan(alpha)
            rel = abs(fit.value - target) / abs(target)
            good = rel <= 0.05 and elapsed < 10.0
            ok &= good
            lines.append(
                f"g't={gpt} alpha={alpha:.4f}: fit {fit.value:.6f}, "
                f"formula {target:.6f}, rel err {rel:.2%} "
                f"({elapsed:.2f} s) {'ok' if good else 'BAD'}"
            )
    lines.append('exact-dynamics prediction is i*tan(alpha); see README "Known red check"')
    return CheckResult("noisy_fit", ok, informational=kick_sign != 1, lines=lines)


def check_disembodiment(kick_sign: int = 1) -> CheckResult:
    """Quartet (0, tan(theta/2)tan(alpha), 1, 0) exact; meter fits within 1-2%."""
    meter = make_meter(64, 4.0)
    lines, ok = [], True
    cases = [(np.pi / 2, np.pi / 4, 0.01), (2 * np.pi / 3, np.pi / 3, 0.02)]
    pres = [named_state("disembody_in", theta=theta) for theta, _, _ in cases]
    posts = [named_state("disembody_f", alpha=alpha) for _, alpha, _ in cases]
    # each variant's kick factors are built once and read for both cases
    factors = [kick_factors(CouplingSpec(variant=variant, g=1e-3, gprime=1e-3, t=1.0,
                                         kick_sign=kick_sign), pres[0].signature)
               for variant in ("measure_sigma_zR_noisy", "measure_LxSx_L", "measure_LxSx_R")]
    for (theta, alpha, fit_tol), pre, post in zip(cases, pres, posts):
        signal = np.tan(theta / 2) * np.tan(alpha)
        table = {"sigma_z_L": 0.0, "sigma_z_R": signal, "Lx_sigma_x_L": 1.0,
                 "Lx_sigma_x_R": 0.0}
        values = _weak_values([pre], post, table)
        errs = [abs(values[o][0] - want) for o, want in table.items()]
        formula_ok = max(errs) <= 1e-12
        ok &= formula_ok
        lines.append(f"theta={theta:.4f} alpha={alpha:.4f}: quartet max err {max(errs):.2e}")

        fit_sig, fit_noise, fit_zero = (
            _fit(next(transfer_readouts(f, meter, [pre], [post]))[0]) for f in factors)
        want_sig = kick_sign * signal
        want_noise = kick_sign * 1.0
        rel_sig = abs(fit_sig.value - want_sig) / abs(want_sig)
        rel_noise = abs(fit_noise.value - want_noise)
        zero_mag = abs(fit_zero.value)
        good = rel_sig <= fit_tol and rel_noise <= fit_tol and zero_mag <= 1e-3
        ok &= good
        lines.append(
            f"  fits: sigma_zR {fit_sig.value:.6f} (rel {rel_sig:.2%}), "
            f"LxSx_L {fit_noise.value:.6f} (err {rel_noise:.2%}), "
            f"LxSx_R |{zero_mag:.2e}| <= 1e-3 {'ok' if good else 'BAD'}"
        )
    return CheckResult("disembodiment", ok, informational=kick_sign != 1, lines=lines)


_POINTER_CASES = (
    ("cheshire_in", {}, "cheshire_f", {}, "measure_sigma_zR", 1.0),
    ("amp_in", {"theta": 2 * np.pi / 3}, "amp_f", {}, "measure_sigma_zR", np.sqrt(3.0)),
    ("disembody_in", {"theta": 2 * np.pi / 3}, "disembody_f", {"alpha": np.pi / 3},
     "measure_sigma_zR_noisy", 3.0),
)


def check_pointer_shift(kick_sign: int = 1) -> CheckResult:
    """Richardson-extrapolated mean_p / g matches Re(A_w) to 0.1%."""
    meter = make_meter(64, 4.0)
    lines, ok = [], True
    for pre_id, pre_kw, post_id, post_kw, variant, expect in _POINTER_CASES:
        pre = named_state(pre_id, **pre_kw)
        post = named_state(post_id, **post_kw)

        def shift_over_g(g: float) -> float:
            spec = CouplingSpec(variant=variant, g=g, kick_sign=kick_sign)
            readout, _ = pointer_readout(spec, pre, post, meter)
            return readout.mean_p / g

        f = [shift_over_g(1e-2 / 2**k) for k in range(3)]
        extrapolated = (8 * f[2] - 6 * f[1] + f[0]) / 3
        want = kick_sign * expect
        rel = abs(extrapolated - want) / abs(want)
        good = rel <= 1e-3
        ok &= good
        lines.append(
            f"{pre_id}/{post_id}: mean_p/g -> {extrapolated:.6f}, "
            f"Re(A_w) = {want:.6f}, rel err {rel:.2e} {'ok' if good else 'BAD'}"
        )
    return CheckResult("pointer_shift", ok, informational=kick_sign != 1, lines=lines)


# check_dyson's pre-states on the noisy_in space: three draws of
# normal(4) + 1j * normal(4) from numpy.random.default_rng(20240817), in turn,
# each normalised; written out once, bit for bit, so the check needs no generator
_DYSON_STATES = (
    (complex(0.22569719569743735, -0.32113819463955934),
     complex(-0.025038751624476246, -0.6891402162977337),
     complex(0.21767808126800542, 0.5561350525179776),
     complex(0.09432753232623275, -0.06944229214036288)),
    (complex(-0.5235170757423291, -0.0978891168359253),
     complex(-0.39182679920201596, 0.6033275492911423),
     complex(0.048428232914081056, -0.036263335920834826),
     complex(0.18767268625941272, -0.39991731578117307)),
    (complex(0.09890758682173048, 0.05389419532597404),
     complex(-0.4800200059875421, 0.5070969508414356),
     complex(0.09981846029667509, -0.15987721126173748),
     complex(0.5603740842191787, 0.38755982675839107)),
)


def _slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y against x, in the mean-centred closed form."""
    dx = x - x.mean()
    return float(dx @ (y - y.mean()) / (dx @ dx))


def check_dyson(kick_sign: int = 1) -> CheckResult:
    """Exact-minus-truncated error scales with exponent >= 2.5 over 4 octaves.

    The pre-states are three random states drawn once from
    ``numpy.random.default_rng(20240817)`` and kept as data, :data:`_DYSON_STATES`.
    """
    meter = make_meter(32, 4.0)
    signature = named_state("noisy_in").signature
    states = [Ket(signature, np.array(amps)) for amps in _DYSON_STATES]
    scales = np.array([1.0, 0.5, 0.25, 0.125])
    errors = []
    for s in scales:
        spec = CouplingSpec(variant="spin_orbit", g=1e-4 * s, gprime=0.2 * s, t=1.0,
                            kick_sign=kick_sign)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            err = max(
                np.linalg.norm(evolve_exact(spec, ket, meter).amplitudes
                               - evolve_dyson2(spec, ket, meter).amplitudes)
                for ket in states
            )
        errors.append(err)
    slope = _slope(np.log(scales), np.log(errors))
    ok = slope >= 2.5
    scale_text = ", ".join(f"{s:g}" for s in scales)
    lines = [f"errors over scales [{scale_text}]: " + ", ".join(f"{e:.3e}" for e in errors),
             f"log-log slope {slope:.3f} (>= 2.5)"]
    return CheckResult("dyson", ok, lines=lines)


def check_convergence(kick_sign: int = 1) -> CheckResult:
    """Discrete moments reach the continuous closed forms: <1e-3 at N=16*delta^2.

    The error halves (at least) under N-doubling until it saturates at the
    grid-discreteness floor, which sits far below the 1e-3 target.
    """
    g, a_w = 0.05, 1.0 + 1.0j
    lines, ok = [], True
    for delta in (1.0, 2.0):
        ref = continuous_reference(delta, g, a_w)
        targets = np.array([ref.mean_q, ref.mean_p, ref.var_q, ref.var_p])

        def max_rel_err(n: int) -> float:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                meter = make_meter(n, delta)
            readout = meter_readout(np.exp(1j * g * meter.q * a_w) * meter.amplitudes)
            got = np.array([readout.mean_q, readout.mean_p, readout.var_q, readout.var_p])
            return float(np.max(np.abs(got - targets) / np.abs(targets)))

        # the doubling grid ends at the target N = 16 delta^2, read once
        grid = [int(m * delta**2) for m in (2, 4, 8, 16)]
        errs = [max_rel_err(n) for n in grid]
        n_target, err_target = grid[-1], errs[-1]
        ok &= err_target < 1e-3
        lines.append(f"delta={delta}: N={n_target} max rel err {err_target:.2e} (< 1e-3)")
        halved = all(
            later <= max(earlier / 2, 1e-6)
            for earlier, later in zip(errs, errs[1:])
        )
        ok &= halved
        lines.append(
            "  doubling N: " + ", ".join(f"N={n}: {e:.2e}" for n, e in zip(grid, errs))
            + (" (halves until the discreteness floor)" if halved else " NOT halving")
        )
    return CheckResult("convergence", ok, lines=lines)


def check_parallel_noise(kick_sign: int = 1) -> CheckResult:
    """Both arms keep a sigma_z-mediated response above 1e-3 under parallel noise.

    The states are ``disembody_in`` and ``disembody_f`` on a 3 x 3 angle grid,
    on the parallel rows' orbital space.  Arm 'R' measures the signal
    sigma_z_R; arm 'L' measures the arm-resolved noise observable, whose
    reading is itself sigma_z-mediated.  Per (variant, arm), one set of kick
    factors and one :func:`transfer_readouts` pass give all nine pointer fits.
    """
    meter = make_meter(32, 4.0)
    angles = (0.25, 0.7, 1.15)
    variants = ("parallel_1", "parallel_2")
    (dim,) = {COUPLINGS[variant, None].orbital_dim for variant in variants}
    pres = [named_state("disembody_in", theta=x, orbital_dim=dim) for x in angles]
    posts = [named_state("disembody_f", alpha=x, orbital_dim=dim) for x in angles]
    lines, ok = [], True
    for variant in variants:
        worst = {}
        for arm in ("L", "R"):
            spec = CouplingSpec(variant=variant, g=1e-3, gprime=1e-3, t=100.0,
                                measure_arm=arm, kick_sign=kick_sign)
            factors = kick_factors(spec, pres[0].signature)
            entries = [entry for row in transfer_readouts(factors, meter, pres, posts)
                       for entry in row]
            worst[arm] = min(abs(_fit(entry).value) for entry in entries)
        good = worst["L"] > 1e-3 and worst["R"] > 1e-3
        ok &= good
        lines.append(
            f"{variant}: min |fit| over theta,alpha in (0.2,1.2): "
            f"left arm {worst['L']:.4f}, right arm {worst['R']:.4f} "
            f"(both > 1e-3) {'ok' if good else 'BAD'}"
        )
    return CheckResult("parallel_noise", ok, informational=kick_sign != 1, lines=lines)


def check_three_body(kick_sign: int = 1) -> CheckResult:
    """Adjudicate i tan(alpha) - 1 (direct) against 1 + i tan(alpha) (quoted)."""
    meter = make_meter(64, 4.0)
    alpha = np.pi / 4
    direct = 1j * np.tan(alpha) - 1.0
    quoted = 1.0 + 1j * np.tan(alpha)
    pre = named_state("noisy_in")
    post = named_state("noisy_f", alpha=alpha)
    spec = CouplingSpec(variant="three_body", g=1e-3, kick_sign=kick_sign)
    _, fit = pointer_readout(spec, pre, post, meter)
    probed = kick_sign * fit.value
    rel_direct = abs(probed - direct) / abs(direct)
    rel_quoted = abs(probed - quoted) / abs(quoted)
    matches = [name for name, rel in (("direct", rel_direct), ("quoted", rel_quoted))
               if rel <= 0.05]
    ok = len(matches) == 1
    verdict = matches[0] if ok else "ambiguous"
    lines = [
        f"direct ratio:  {direct:.6f}",
        f"quoted form:   {quoted:.6f}",
        f"meter oracle:  {probed:.6f} (rel to direct {rel_direct:.2%}, "
        f"to quoted {rel_quoted:.2%})",
        f"verdict: the dynamics agree with the {verdict} value",
    ]
    return CheckResult("three_body", ok, informational=kick_sign != 1, lines=lines)


CHECKS = {
    "cheshire": check_cheshire,
    "amplification": check_amplification,
    "noisy_fit": check_noisy_fit,
    "disembodiment": check_disembodiment,
    "pointer_shift": check_pointer_shift,
    "dyson": check_dyson,
    "convergence": check_convergence,
    "parallel_noise": check_parallel_noise,
    "three_body": check_three_body,
}

CHECK_NAMES = tuple(CHECKS)


def run_checks(only=None, kick_sign: int = 1) -> list[CheckResult]:
    names = list(only) if only else list(CHECK_NAMES)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise ValueError(f"unknown check name(s) {unknown}; valid: {list(CHECK_NAMES)}")
    return [CHECKS[name](kick_sign=kick_sign) for name in names]


def render_table(results) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for res in results:
        lines.append(f"{res.name:<{width}}  {res.status}")
        for detail in res.lines:
            lines.append(f"{'':<{width}}    {detail}")
    failed = [r.name for r in results if not r.passed and not r.informational]
    lines.append("")
    if failed:
        lines.append(f"FAILED: {', '.join(failed)}")
    else:
        lines.append("all checks passed")
    return "\n".join(lines) + "\n"
