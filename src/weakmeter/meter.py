"""Discrete Gaussian pointer states, their moments, and continuous-limit references.

Units: the position grid is q_k = k for k in {-N..N} (grid steps); the
conjugate momentum grid is p_l = 2*pi*l/(2N+1) (radians per grid step).
Every readout and reference is in these units, :data:`GRID_UNITS`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import AnnihilationError, ParameterRangeError
from .hilbert import Ket

__all__ = [
    "GRID_UNITS",
    "DiscreteGaussianMeter",
    "MeterReadout",
    "ContinuousMoments",
    "check_meter",
    "make_meter",
    "q_grid",
    "p_grid",
    "meter_readout",
    "continuous_reference",
]

GRID_UNITS = "q: grid steps; p: rad/step (p_l = 2*pi*l/(2N+1))"

# Beyond width ~ N/5 the truncated tail mass exceeds ~1e-10 and grid-edge
# artifacts leak into moments.
TRUNCATION_GUARD = 5.0

# the pointer fit takes only the grid points whose amplitude exceeds this
FIT_SUPPORT_ATOL = 1e-8


def q_grid(half_width: int) -> np.ndarray:
    return np.arange(-half_width, half_width + 1, dtype=float)


def p_grid(half_width: int) -> np.ndarray:
    size = 2 * half_width + 1
    return 2.0 * np.pi * np.arange(-half_width, half_width + 1, dtype=float) / size


def _fft_order_p(size: int) -> np.ndarray:
    """The p grid in FFT order, 2*pi*fftfreq(size) = ifftshift(p_grid(N))."""
    return 2.0 * np.pi * np.fft.fftfreq(size)


@dataclass(frozen=True, eq=False)
class DiscreteGaussianMeter:
    """Normalized Gaussian pointer on the 2N+1 point grid.

    Amplitudes are proportional to exp(-q_k^2 / (4 width^2)), so the
    probability density has variance width^2 (up to truncation).  Build it
    with :func:`make_meter`, which checks ``half_width`` and ``width``.
    The meter derives its arrays once, read-only, since every pointer read
    on it shares them: the ``amplitudes``, the ``q`` grid, the p grid in FFT
    order ``p_fft`` (2*pi*fftfreq(2N+1)), and the pointer fit's ``support``
    (the grid indices whose amplitude exceeds ``FIT_SUPPORT_ATOL``) with its
    ``weights``, the squared amplitudes there.
    """

    half_width: int
    width: float
    amplitudes: np.ndarray = field(init=False, repr=False)
    q: np.ndarray = field(init=False, repr=False)
    p_fft: np.ndarray = field(init=False, repr=False)
    support: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        q = q_grid(self.half_width)
        amps = np.exp(-(q**2) / (4.0 * self.width**2))
        amps = amps / np.linalg.norm(amps)
        support = np.flatnonzero(amps > FIT_SUPPORT_ATOL)
        derived = {"amplitudes": amps, "q": q, "p_fft": _fft_order_p(len(q)),
                   "support": support, "weights": amps[support] ** 2}
        for name, array in derived.items():
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def size(self) -> int:
        return 2 * self.half_width + 1


def check_meter(half_width, width) -> None:
    """Raise :class:`ParameterRangeError` unless ``make_meter`` can take these values.

    ``half_width`` (a scenario's ``meter.N``) must be an integer >= 1 and
    ``width`` (``meter.delta``) positive, with 4 width^2 a nonzero finite
    float because the amplitudes divide by it.  Builds no grid.
    """
    integral = isinstance(half_width, (int, np.integer)) and not isinstance(half_width, bool)
    if not integral or half_width < 1:
        raise ParameterRangeError(f"meter.N must be a positive integer, got {half_width!r}")
    _check_width(width)


def _check_width(width) -> float:
    delta = float(width)
    if not (delta > 0 and 0.0 < 4.0 * delta * delta < math.inf):  # no float ** (OverflowError)
        raise ParameterRangeError(
            f"meter.delta must be positive with 4 delta^2 a nonzero finite float, got {width!r}"
        )
    return delta


def make_meter(half_width: int, width: float) -> DiscreteGaussianMeter:
    """Build the normalized discrete Gaussian meter.

    Raises :class:`ParameterRangeError` for values :func:`check_meter`
    rejects, and for a ``half_width`` whose 2N+1 point grid numpy cannot
    size or allocate.  Warns when ``width > half_width / 5``: the lost tail
    mass then exceeds the tolerance the continuous-limit comparisons assume.
    """
    check_meter(half_width, width)
    n = int(half_width)
    delta = float(width)
    try:
        meter = DiscreteGaussianMeter(half_width=n, width=delta)
    except (ValueError, MemoryError):  # "Maximum allowed size exceeded", "Unable to allocate"
        raise ParameterRangeError(
            f"meter.N = {n}: numpy cannot allocate its 2N+1 point grid") from None
    if delta > n / TRUNCATION_GUARD:
        warnings.warn(
            f"meter width {delta} exceeds half_width/{TRUNCATION_GUARD:.0f} = "
            f"{n / TRUNCATION_GUARD}; truncation error exceeds tolerance",
            stacklevel=2,
        )
    return meter


@dataclass(frozen=True)
class MeterReadout:
    """Grid moments of a (possibly unnormalized) pointer state, in :data:`GRID_UNITS`.

    ``success_probability`` is the squared norm of the unnormalized
    post-selected meter; for a fresh meter it is 1.
    """

    mean_q: float
    mean_p: float
    var_q: float
    var_p: float
    success_probability: float


@dataclass(frozen=True)
class ContinuousMoments:
    """Continuous-limit (N -> infinity) pointer moments, in :data:`GRID_UNITS`."""

    mean_q: float
    mean_p: float
    var_q: float
    var_p: float


def _row_moments(density: np.ndarray, grid: np.ndarray):
    """(mean, variance) of each row of ``density`` on ``grid``; each row reduces on its own."""
    mean = (grid * density).sum(axis=-1)
    var = ((grid - mean[..., None]) ** 2 * density).sum(axis=-1)
    return mean, var


def _readouts(rows: np.ndarray, q: np.ndarray, p: np.ndarray) -> list[MeterReadout]:
    """:func:`meter_readout` of each row of a (rows, 2N+1) array on the grids ``q`` and ``p``.

    ``p`` is the p grid in FFT order, 2*pi*fftfreq(2N+1) = ifftshift(p_grid(N)),
    against which the p density |FFT(row)|^2 / (2N+1) is taken: a density does
    not see the phase that centering the transform would add, so no shift is
    needed.  A row's values do not depend on the other rows, and a zero row
    reads NaN moments rather than raising.
    """
    abs2 = np.abs(rows) ** 2
    weights = abs2.sum(axis=-1)
    weight = weights[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        mean_q, var_q = _row_moments(abs2 / weight, q)
        p_density = np.abs(np.fft.fft(rows, axis=-1)) ** 2 / (rows.shape[-1] * weight)
        mean_p, var_p = _row_moments(p_density, p)
    return [MeterReadout(mean_q=mq, mean_p=mp, var_q=vq, var_p=vp, success_probability=w)
            for mq, mp, vq, vp, w in zip(mean_q.tolist(), mean_p.tolist(), var_q.tolist(),
                                         var_p.tolist(), weights.tolist())]


def meter_readout(meter_amplitudes) -> MeterReadout:
    """Full readout of one pointer: q and p moments plus the post-selection probability.

    Takes a meter, a meter ket or a vector of odd length 2N+1; raises
    ``ValueError`` for an even length and :class:`AnnihilationError` for a
    zero state.
    """
    if isinstance(meter_amplitudes, (DiscreteGaussianMeter, Ket)):
        vec = np.asarray(meter_amplitudes.amplitudes)
    else:
        vec = np.asarray(meter_amplitudes, dtype=complex).reshape(-1)
    size = len(vec)
    if size % 2 == 0:
        raise ValueError("meter grid must have odd length 2N+1")
    if np.sum(np.abs(vec) ** 2) <= 0.0:
        raise AnnihilationError("zero meter state: post-selection annihilated it")
    return _readouts(vec[None], q_grid((size - 1) // 2), _fft_order_p(size))[0]


def continuous_reference(width: float, g: float, weak_value: complex) -> ContinuousMoments:
    """Closed-form moments of exp(+i g q A_w) exp(-q^2/4 width^2) as N -> infinity.

    The real part of the weak value shifts the momentum mean to g*Re(A_w);
    the imaginary part reweights the position density, shifting its mean to
    -2 g width^2 Im(A_w).  The q-shift relation is not derived here from
    first principles; it is the standard complex-weak-value readout and is
    cross-checked against direct quadrature of the final state in the tests.
    ``width`` follows the meter's delta rule (see :func:`check_meter`).
    """
    delta = _check_width(width)
    a_w = complex(weak_value)
    return ContinuousMoments(
        mean_q=-2.0 * g * delta**2 * a_w.imag,
        mean_p=g * a_w.real,
        var_q=delta**2,
        var_p=1.0 / (4.0 * delta**2),
    )
