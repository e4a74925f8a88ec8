"""Built-in verification suite: every headline result, checked at fixed tolerance.

Each check returns a :class:`CheckResult` of graded points, from which its
verdict and lines derive; the CLI renders them as a pass/fail table and the
test suite asserts them one by one.  With ``kick_sign=-1`` the pointer-fit
checks run under the alternate kick bookkeeping and are reported as
informational rather than pass/fail (their fits come out sign-flipped).
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

__all__ = ["Point", "CheckResult", "CHECK_NAMES", "run_checks", "render_table"]


@dataclass(frozen=True)
class Point:
    """One graded number: ``value`` passes when ``value side bound`` holds.

    ``side`` is ``"<="`` or ``">="``, non-strict, so a value lying exactly on
    its bound passes.  A distance also carries the reading ``got`` and the
    target ``want`` it was measured between.  A ``wall_time`` point grades
    seconds of wall time, the one kind of value that differs run to run.
    """

    label: str
    value: float
    bound: float
    side: str = "<="
    got: complex | None = None
    want: complex | None = None
    wall_time: bool = False

    @classmethod
    def distance(cls, label, got, want, bound, relative=False) -> Point:
        """``|got - want|``, over ``|want|`` when ``relative``, at most ``bound``."""
        value = abs(got - want) / abs(want) if relative else abs(got - want)
        return cls(label, value, bound, got=got, want=want)

    @property
    def margin(self) -> float:
        """How far ``value`` sits inside its bound; negative outside it."""
        return self.bound - self.value if self.side == "<=" else self.value - self.bound

    @property
    def ok(self) -> bool:
        return self.margin >= 0.0

    def line(self) -> str:
        reading = "" if self.got is None else f" ({self.got:.6g} vs {self.want:.6g})"
        return (f"{self.label}{reading}: {self.value:.3e} {self.side} {self.bound:g} "
                f"{'ok' if self.ok else 'BAD'}")


@dataclass
class CheckResult:
    """A check's points and notes; it passes when every point is ok."""

    name: str
    points: list
    informational: bool = False
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(point.ok for point in self.points)

    @property
    def status(self) -> str:
        """INFO, PASS or FAIL: the one rule the table and the exit code read."""
        return "INFO" if self.informational else "PASS" if self.passed else "FAIL"

    @property
    def lines(self) -> list[str]:
        return [point.line() for point in self.points] + self.notes


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
    expected = {"pi_L": 1.0, "pi_R": 0.0, "sigma_z_L": 0.0, "sigma_z_R": 1.0}
    values = _weak_values([named_state("cheshire_in")], named_state("cheshire_f"), expected)
    points = [Point.distance(obs_id, values[obs_id][0], want, 1e-12)
              for obs_id, want in expected.items()]
    points.append(Point("wall time (s)", time.perf_counter() - start, 1.0, wall_time=True))
    return CheckResult("cheshire", points)


def check_amplification(kick_sign: int = 1) -> CheckResult:
    """sigma_z_R = tan(theta/2) with the rest of the table pinned, to 1e-12."""
    thetas = [np.pi / 6, np.pi / 4, np.pi / 2, 2 * np.pi / 3, 0.9 * np.pi]
    fixed = {"pi_L": 1.0, "pi_R": 0.0, "sigma_z_L": 0.0, "sigma_x_L": 1.0, "sigma_x_R": 0.0}
    values = _weak_values([named_state("amp_in", theta=theta) for theta in thetas],
                          named_state("amp_f"), [*fixed, "sigma_z_R"])
    points = []
    for r, theta in enumerate(thetas):
        got, want = values["sigma_z_R"][r], np.tan(theta / 2)
        errs = [abs(values[o][r] - w) for o, w in fixed.items()] + [abs(got - want)]
        points.append(Point(f"theta={theta:.6f} max err", max(errs), 1e-12, got=got, want=want))
    beyond = values["sigma_z_R"][thetas.index(0.9 * np.pi)].real
    points.append(Point("theta=0.9pi Re sigma_z_R, beyond the eigenvalues", beyond, 1.0, ">="))
    return CheckResult("amplification", points)


def check_noisy_fit(kick_sign: int = 1) -> CheckResult:
    """Exact evolution + pointer fit against (g't + i) tan(alpha), 5% relative.

    The first-order formula and the exact pointer response differ at order
    g't here: the preparation is an eigenstate of the noise operator, so
    with the kick after the noise window the fit returns i tan(alpha)
    exactly.  The 0.05 points sit just inside 5%; the 0.1 points do not.
    Each point holds the fit as ``got`` and the formula as ``want``, so the
    gap is visible; each kernel pass's wall time is a point of its own.
    """
    meter = make_meter(64, 4.0)
    pre = named_state("noisy_in")
    posts = {alpha: named_state("noisy_f", alpha=alpha)
             for alpha in (np.pi / 6, np.pi / 4, np.pi / 3)}
    points = []
    for gpt in (0.05, 0.1):
        # one kernel pass per g't reads all three points
        start = time.perf_counter()
        spec = CouplingSpec(variant="spin_orbit", g=1e-3, gprime=gpt, t=1.0,
                            kick_sign=kick_sign)
        (row,) = transfer_readouts(kick_factors(spec, pre.signature), meter, [pre],
                                   list(posts.values()))
        fits = [_fit(entry).value for entry in row]
        elapsed = time.perf_counter() - start
        points.append(Point(f"g't={gpt} pass (s)", elapsed, 10.0, wall_time=True))
        points += [Point.distance(f"g't={gpt} alpha={alpha:.4f} fit vs formula, rel err", fit,
                                  (gpt + 1j) * np.tan(alpha), 0.05, relative=True)
                   for alpha, fit in zip(posts, fits)]
    return CheckResult("noisy_fit", points, informational=kick_sign != 1, notes=[
        'exact-dynamics prediction is i*tan(alpha); see README "Known red check"'])


def check_disembodiment(kick_sign: int = 1) -> CheckResult:
    """Quartet (0, tan(theta/2)tan(alpha), 1, 0) exact; meter fits within 1-2%."""
    meter = make_meter(64, 4.0)
    points = []
    cases = [(np.pi / 2, np.pi / 4, 0.01), (2 * np.pi / 3, np.pi / 3, 0.02)]
    pres = [named_state("disembody_in", theta=theta) for theta, _, _ in cases]
    posts = [named_state("disembody_f", alpha=alpha) for _, alpha, _ in cases]
    # each variant's kick factors are built once and read for both cases
    factors = [kick_factors(CouplingSpec(variant=variant, g=1e-3, gprime=1e-3, t=1.0,
                                         kick_sign=kick_sign), pres[0].signature)
               for variant in ("measure_sigma_zR_noisy", "measure_LxSx_L", "measure_LxSx_R")]
    for (theta, alpha, fit_tol), pre, post in zip(cases, pres, posts):
        signal = np.tan(theta / 2) * np.tan(alpha)
        table = {"sigma_z_L": 0.0, "sigma_z_R": signal, "Lx_sigma_x_L": 1.0, "Lx_sigma_x_R": 0.0}
        values = _weak_values([pre], post, table)
        errs = [abs(values[o][0] - want) for o, want in table.items()]
        case = f"theta={theta:.4f} alpha={alpha:.4f}"
        points.append(Point(f"{case} quartet max err", max(errs), 1e-12,
                            got=values["sigma_z_R"][0], want=signal))
        fit_sig, fit_noise, fit_zero = (
            _fit(next(transfer_readouts(f, meter, [pre], [post]))[0]) for f in factors)
        points += [
            Point.distance(f"{case} sigma_zR fit, rel err", fit_sig.value, kick_sign * signal,
                           fit_tol, relative=True),
            Point.distance(f"{case} LxSx_L fit, err", fit_noise.value, kick_sign * 1.0, fit_tol),
            Point.distance(f"{case} LxSx_R |fit|", fit_zero.value, 0.0, 1e-3),
        ]
    return CheckResult("disembodiment", points, informational=kick_sign != 1)


_POINTER_CASES = (
    ("cheshire_in", {}, "cheshire_f", {}, "measure_sigma_zR", 1.0),
    ("amp_in", {"theta": 2 * np.pi / 3}, "amp_f", {}, "measure_sigma_zR", np.sqrt(3.0)),
    ("disembody_in", {"theta": 2 * np.pi / 3}, "disembody_f", {"alpha": np.pi / 3},
     "measure_sigma_zR_noisy", 3.0),
)


def check_pointer_shift(kick_sign: int = 1) -> CheckResult:
    """Richardson-extrapolated mean_p / g matches Re(A_w) to 0.1%."""
    meter = make_meter(64, 4.0)
    points = []
    for pre_id, pre_kw, post_id, post_kw, variant, expect in _POINTER_CASES:
        pre, post = named_state(pre_id, **pre_kw), named_state(post_id, **post_kw)

        def shift_over_g(g: float) -> float:
            spec = CouplingSpec(variant=variant, g=g, kick_sign=kick_sign)
            readout, _ = pointer_readout(spec, pre, post, meter)
            return readout.mean_p / g

        f = [shift_over_g(1e-2 / 2**k) for k in range(3)]
        extrapolated = (8 * f[2] - 6 * f[1] + f[0]) / 3
        points.append(Point.distance(f"{pre_id}/{post_id} mean_p/g vs Re(A_w), rel err",
                                     extrapolated, kick_sign * expect, 1e-3, relative=True))
    return CheckResult("pointer_shift", points, informational=kick_sign != 1)


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
    return CheckResult("dyson", [Point("log-log slope", slope, 2.5, ">=")], notes=[
        ", ".join(f"scale {s:g}: error {e:.3e}" for s, e in zip(scales, errors))])


def check_convergence(kick_sign: int = 1) -> CheckResult:
    """Discrete moments reach the continuous closed forms: <1e-3 at N=16*delta^2.

    The error halves (at least) under N-doubling until it saturates at the
    grid-discreteness floor, which sits far below the 1e-3 target: each
    doubling step's error is at most max(the step's earlier error / 2, 1e-6).
    """
    g, a_w = 0.05, 1.0 + 1.0j
    points = []
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
        points.append(Point(f"delta={delta} N={grid[-1]} max rel err", errs[-1], 1e-3))
        points += [Point(f"delta={delta} N={n} max rel err, halved from N={n // 2}",
                         later, max(earlier / 2, 1e-6))
                   for n, earlier, later in zip(grid[1:], errs, errs[1:])]
    return CheckResult("convergence", points)


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
    points = []
    for variant in variants:
        for arm in ("L", "R"):
            spec = CouplingSpec(variant=variant, g=1e-3, gprime=1e-3, t=100.0,
                                measure_arm=arm, kick_sign=kick_sign)
            rows = transfer_readouts(kick_factors(spec, pres[0].signature), meter, pres, posts)
            points.append(Point(f"{variant} arm {arm} min |fit| over theta,alpha in (0.2,1.2)",
                                min(abs(_fit(entry).value) for row in rows for entry in row),
                                1e-3, ">="))
    return CheckResult("parallel_noise", points, informational=kick_sign != 1)


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
    # exactly one form matches: the closer within 5%, the farther not
    (near_rel, near, near_form), (far_rel, far, far_form) = sorted(
        (abs(probed - form) / abs(form), name, form)
        for name, form in (("direct", direct), ("quoted", quoted)))
    return CheckResult("three_body", [
        Point(f"meter oracle vs the {near} form, rel err", near_rel, 0.05,
              got=probed, want=near_form),
        Point(f"meter oracle vs the {far} form, rel err", far_rel, 0.05, ">=",
              got=probed, want=far_form),
    ], informational=kick_sign != 1, notes=[f"closer form: the {near} value"])


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
        lines += [f"{'':<{width}}    {detail}" for detail in res.lines]
    failed = [r.name for r in results if r.status == "FAIL"]
    lines += ["", f"FAILED: {', '.join(failed)}" if failed else "all checks passed"]
    return "\n".join(lines) + "\n"
