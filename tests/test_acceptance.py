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
and the per-point ok/BAD flags from the check's point lines, rather than
loosening the tolerance or moving the points.
"""

import re

import numpy as np
import pytest

from weakmeter import verify
from weakmeter.dynamics import CouplingSpec
from weakmeter.verify import CHECKS

NOISY_GPTS = (0.05, 0.1)
NOISY_ALPHAS = (np.pi / 6, np.pi / 4, np.pi / 3)
NOISY_POINT = re.compile(
    r"g't=(?P<gpt>[^ ]+) alpha=(?P<alpha>[^:]+): fit (?P<fit>[^,]+), "
    r"formula (?P<formula>[^,]+), rel err (?P<rel>[^%]+)% \([^)]*\) (?P<flag>ok|BAD)"
)


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
    result = CHECKS["noisy_fit"](kick_sign=1)
    report(result)
    assert result.status == "FAIL" and not result.informational

    points = [m for m in map(NOISY_POINT.fullmatch, result.lines) if m]
    grid = []
    for point in points:
        gpt = float(point["gpt"])
        # alpha is printed to 4 decimals; snap it to the exact grid value
        alpha = next(a for a in NOISY_ALPHAS if abs(a - float(point["alpha"])) <= 5e-5)
        grid.append((gpt, alpha))
        tan = np.tan(alpha)
        fit = complex(point["fit"])
        assert abs(fit - 1j * tan) <= 1e-4 * tan, point.string
        assert complex(point["formula"]) == pytest.approx((gpt + 1j) * tan, abs=1e-6)
        gap = gpt / np.sqrt(1 + gpt**2)
        assert float(point["rel"]) == pytest.approx(100 * gap, abs=0.005), point.string
        assert (point["flag"] == "ok") == (gap <= 0.05), point.string
    assert sorted(grid) == sorted((g, a) for g in NOISY_GPTS for a in NOISY_ALPHAS)

    assert sorted(spec.gprime * spec.t for spec in specs) == sorted(g for g, _ in grid)
    assert not any(spec.in_regime for spec in specs)


@pytest.mark.parametrize("name", list(CHECKS))
def test_acceptance(name, monkeypatch):
    if name == "noisy_fit":
        assert_noisy_fit_documented_red(monkeypatch)
        return
    result = CHECKS[name](kick_sign=1)
    report(result)
    assert result.passed, f"{result.name}: " + " | ".join(result.lines)


def test_convergence_reads_each_grid_once(monkeypatch):
    # the target N = 16 delta^2 is the doubling grid's last point: one meter
    # and one readout per (delta, N), 2 x 4, and its line reads that value
    built, read = [], []
    make_meter, meter_readout = verify.make_meter, verify.meter_readout
    monkeypatch.setattr(verify, "make_meter", lambda n, delta: built.append((n, delta))
                        or make_meter(n, delta))
    monkeypatch.setattr(verify, "meter_readout", lambda amps: read.append(1)
                        or meter_readout(amps))
    result = CHECKS["convergence"](kick_sign=1)
    assert result.passed
    assert built == [(int(m * d**2), d) for d in (1.0, 2.0) for m in (2, 4, 8, 16)]
    assert len(read) == len(built)
    # per delta a target line, then the doubling line ending at that N and value
    for target, doubling in zip(result.lines[::2], result.lines[1::2]):
        n, err = re.fullmatch(r"delta=\S+: N=(\d+) max rel err (\S+) \(< 1e-3\)", target).groups()
        assert doubling.split(", ")[-1].startswith(f"N={n}: {err} (halves")
