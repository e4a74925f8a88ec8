"""Headline acceptance checks, one per criterion, with a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines, or use
``weakmeter verify`` for the same checks as a standalone table.

Every check is asserted green except ``noisy_fit``, which is red by design
(README "Known red check") and is asserted to stay red for its documented
reason.  It compares the exact pointer dynamics against the first-order
formula (gprime*t + i) tan(alpha) at gprime*t in {0.05, 0.1} with a 5 percent
tolerance.  The preparation is an eigenstate of the noise operator, so noise
acting before the kick is a global phase and the exact fitted response is
i tan(alpha); the relative gap to the formula is
gprime*t / sqrt(1 + (gprime*t)^2), 4.99 percent at 0.05 and 9.95 percent at
0.1.  All six points lie outside the measurement-time regime where the
formula holds, so the test pins the FAIL verdict, the fitted value, the gap
and each point's ok flag, read from the check's graded points, rather than
loosening the tolerance or moving the points.
"""

import inspect
import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from weakmeter import verify
from weakmeter.dynamics import CouplingSpec, pointer_readout
from weakmeter.verify import CHECKS

NOISY_GPTS = (0.05, 0.1)
NOISY_ALPHAS = (np.pi / 6, np.pi / 4, np.pi / 3)


def report(result):
    print(f"\n[{result.status}] {result.name}")
    for line in result.lines:
        print(f"    {line}")


def assert_noisy_fit_documented_red(monkeypatch):
    specs = []

    def recording_spec(*args, **kwargs):
        spec = CouplingSpec(*args, **kwargs)
        specs.append(spec)
        return spec

    monkeypatch.setattr(verify, "CouplingSpec", recording_spec)
    result = CHECKS["noisy_fit"]()
    report(result)
    assert result.status == "FAIL"

    # the fit points, g't by g't and alpha by alpha; got is the fit, want the formula
    points = [point for point in result.points if not point.wall_time]
    grid = [(g, a) for g in NOISY_GPTS for a in NOISY_ALPHAS]
    assert len(points) == len(grid)
    for (gpt, alpha), point in zip(grid, points):
        tan = np.tan(alpha)
        assert abs(point.got - 1j * tan) <= 1e-4 * tan, point.line()
        assert point.want == pytest.approx((gpt + 1j) * tan, abs=1e-6)
        gap = gpt / np.sqrt(1 + gpt**2)
        assert point.value == pytest.approx(gap, abs=5e-5), point.line()
        assert point.ok == (gap <= 0.05), point.line()

    # one coupling per g't: its three points share one kernel pass
    assert sorted(spec.gprime * spec.t for spec in specs) == sorted(NOISY_GPTS)
    assert not any(spec.in_regime for spec in specs)


@pytest.mark.parametrize("name", list(CHECKS))
def test_acceptance(name, monkeypatch):
    if name == "noisy_fit":
        assert_noisy_fit_documented_red(monkeypatch)
        return
    result = CHECKS[name]()
    report(result)
    assert result.passed, f"{result.name}: " + " | ".join(result.lines)


# Every check's verdict: each passes but the documented red noisy_fit
STATUSES = {"cheshire": "PASS", "amplification": "PASS", "noisy_fit": "FAIL",
            "disembodiment": "PASS", "pointer_shift": "PASS", "dyson": "PASS",
            "convergence": "PASS", "parallel_noise": "PASS", "three_body": "PASS"}


def test_statuses():
    results = verify.run_checks()
    assert {r.name: r.status for r in results} == STATUSES


def test_checks_take_no_argument():
    # a verdict derives from the check's fixed points alone
    assert {name: list(inspect.signature(check).parameters)
            for name, check in CHECKS.items()} == dict.fromkeys(CHECKS, [])


def test_convergence_reads_each_grid_once(monkeypatch):
    # the target N = 16 delta^2 is the doubling grid's last point: one meter
    # and one readout per (delta, N), 2 x 4, and its point reads that value
    built, read = [], []
    make_meter, meter_readout = verify.make_meter, verify.meter_readout
    monkeypatch.setattr(verify, "make_meter", lambda n, delta: built.append((n, delta))
                        or make_meter(n, delta))
    monkeypatch.setattr(verify, "meter_readout", lambda amps: read.append(1)
                        or meter_readout(amps))
    result = CHECKS["convergence"]()
    assert result.passed
    assert built == [(int(m * d**2), d) for d in (1.0, 2.0) for m in (2, 4, 8, 16)]
    assert len(read) == len(built)
    # per delta the target point, then one point per doubling step, the last
    # at the target N; each step's bound halves the error before it, to 1e-6
    assert len(result.points) == 2 * 4
    for target, *steps in (result.points[:4], result.points[4:]):
        assert target.bound == 1e-3 and steps[-1].value == target.value
        for earlier, later in zip(steps, steps[1:]):
            assert later.bound == max(earlier.value / 2, 1e-6)


def test_a_failing_graded_number_is_flagged(monkeypatch):
    # a clock that advances 2 s per call puts cheshire's wall time past its 1 s
    ticks = itertools.count(0.0, 2.0)
    monkeypatch.setattr(verify, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    results = verify.run_checks()
    assert {r.name for r in results if r.status == "FAIL"} == {"cheshire", "noisy_fit"}
    for result in results:
        flagged = [line for line in result.lines if line.endswith(" BAD")]
        assert bool(flagged) == (not result.passed), result.name


def test_renderings_agree_once_the_wall_times_are_dropped():
    def rendering():
        return [(r.name, r.status, [p.line() for p in r.points if not p.wall_time], r.notes)
                for r in verify.run_checks()]

    assert rendering() == rendering()


def test_dyson_states_are_the_seeded_draws():
    # the written-out states are the generator's three normalised draws, bit for bit
    rng = np.random.default_rng(20240817)
    draws = []
    for _ in range(3):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        draws.append(amps / np.linalg.norm(amps))
    assert np.array(verify._DYSON_STATES).tobytes() == np.array(draws).tobytes()


def test_closed_form_slope_is_the_least_squares_slope(monkeypatch):
    series = []
    slope = verify._slope
    monkeypatch.setattr(verify, "_slope", lambda x, y: series.append((x, y)) or slope(x, y))
    assert CHECKS["dyson"]().passed
    rng = np.random.default_rng(7)
    series += [(rng.normal(size=n), rng.normal(size=n)) for n in (2, 4, 9, 50)]
    series.append((np.arange(5.0), 3.0 * np.arange(5.0) - 1.0))
    assert len(series) == 6
    for x, y in series:
        assert slope(x, y) == pytest.approx(np.polyfit(x, y, 1)[0], rel=0, abs=1e-12)


def forbidden(*args, **kwargs):
    raise AssertionError("the check took a route it no longer needs")


@pytest.mark.parametrize("name, keys", [("noisy_fit", 2), ("disembodiment", 3)])
def test_fit_checks_build_each_coupling_key_once(name, keys, monkeypatch):
    # noisy_fit: one pass per g't over its three post-states; disembodiment:
    # each variant's factors read once per case.  Only the six points are
    # read, and every entry equals the single pair's.
    specs, reads = {}, []
    kick_factors, transfer_readouts = verify.kick_factors, verify.transfer_readouts

    def recording_factors(spec, system):
        factors = kick_factors(spec, system)
        specs[id(factors)] = spec
        return factors

    def recording_readouts(factors, meter, pres, posts):
        rows = list(transfer_readouts(factors, meter, pres, posts))
        reads.append((specs[id(factors)], meter, pres, posts, rows))
        return iter(rows)

    monkeypatch.setattr(verify, "kick_factors", recording_factors)
    monkeypatch.setattr(verify, "transfer_readouts", recording_readouts)
    monkeypatch.setattr(verify, "pointer_readout", forbidden)
    CHECKS[name]()
    assert len(specs) == keys
    assert len({(spec.variant, spec.gprime_t) for spec in specs.values()}) == keys
    assert sum(len(pres) * len(posts) for _, _, pres, posts, _ in reads) == 6
    for spec, meter, pres, posts, rows in reads:
        for pre, row in zip(pres, rows):
            for post, (readout, fit) in zip(posts, row):
                want_readout, want_fit = pointer_readout(spec, pre, post, meter)
                assert (readout, fit) == (want_readout, want_fit)
                assert np.complex128(fit.value).tobytes() == \
                    np.complex128(want_fit.value).tobytes()
