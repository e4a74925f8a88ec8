"""Property test: the pointer fit on the kick kernel reads the weak value.

For a random unitary V, commuting Hermitian A = V diag(a) V^dagger and
B = V diag(b) V^dagger, and random pre/post states, two routes must agree:
the pointer fit of :func:`transfer_readouts` on the factors of
:func:`kick_factors_from_terms`, and the weak value
A_w = <post| A e^{igB} |pre> / <post| e^{igB} |pre>.  The tolerance is
derived in :func:`fit_error_bound`.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from weakmeter.dynamics import kick_factors_from_terms, transfer_readouts  # noqa: E402
from weakmeter.hilbert import Ket, SpaceSignature  # noqa: E402
from weakmeter.meter import make_meter  # noqa: E402

METER = make_meter(16, 2.0)
SUPPORT = np.abs(METER.amplitudes) > 1e-8  # the fit's support threshold

# derandomized, so every run draws the same examples and writes no example database
PROPERTY = settings(max_examples=60, derandomize=True, deadline=None, database=None)


def fit_error_bound(g: float, weights: np.ndarray, a: np.ndarray) -> float:
    """Bound on |fit - A_w| from the cumulant expansion of log f(q).

    With c_i = <post|v_i> e^{i g b_i} <v_i|pre> and c = sum_i c_i, the
    post-selected pointer is f(q) phi(q) with

        f(q) = c M(s),  M(s) = sum_i w_i e^{s a_i},  s = i g q,  w_i = c_i / c,

    and log M(s) = sum_n kappa_n s^n / n!, where kappa_1 = sum_i w_i a_i = A_w.
    The fit is the weighted least-squares slope of log f against q, with
    weights phi(q)^2 even in q on a grid symmetric about 0.  So the constant
    and every even power of q drop out of the slope, and

        fit - A_w = sum_q phi^2 q r(q) / (i g sum_q phi^2 q^2),
        r(q) = sum_{n odd >= 3} kappa_n (i g q)^n / n!.

    The first correction is the kappa_3 term, O(g^2 m_4 / m_2) with
    m_j = sum_q phi^2 q^j / sum_q phi^2: the O(g) kappa_2 term, the source
    of the O(g |A_w|^2) corrections in the textbook linear-response
    analysis, is even in q and cancels.  To bound every term, let
    W = sum_i |w_i| and alpha = max_i |a_i|.  For |s| <= rho with
    rho = log(1 + 1/(2 W)) / alpha, |M(s) - 1| <= W (e^{|s| alpha} - 1) <= 1/2,
    so |log M| <= log 2 there, and Cauchy's estimate gives
    |kappa_n| / n! <= log 2 / rho^n.  With eps = g q_max < rho on the support,

        |fit - A_w| <= log 2 g^2 m_4 / (rho^3 m_2 (1 - (eps / rho)^2)).

    |M - 1| <= 1/2 also keeps f off zero and arg M within pi/6, so with
    <post|pre> real and positive the principal log the fit takes has no
    branch cut on the support.  Rounding adds an absolute floor: log f
    carries ~1e-15 of rounding, which the slope divides by g (times the
    q-spread, which is above 1 here), so 1e-13 / g leaves a 100x margin.
    """
    q = METER.q[SUPPORT]
    phi2 = METER.amplitudes[SUPPORT] ** 2
    m2, m4 = np.sum(phi2 * q**2), np.sum(phi2 * q**4)
    rho = math.log(1.0 + 1.0 / (2.0 * np.sum(np.abs(weights)))) / np.max(np.abs(a))
    eps = g * np.max(np.abs(q))
    assert eps < rho, "outside the expansion's radius; the draw ranges exclude this"
    return math.log(2.0) * g**2 * m4 / (rho**3 * m2 * (1.0 - (eps / rho) ** 2)) + 1e-13 / g


def unit(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


@PROPERTY
@given(d=st.integers(2, 5), seed=st.integers(0, 2**32 - 1),
       log_g=st.floats(-5.0, -3.0))
def test_pointer_fit_reads_the_weak_value(d, seed, log_g):
    rng = np.random.default_rng(seed)
    g = 10.0**log_g
    v, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    a, b = rng.uniform(-1.0, 1.0, size=(2, d))
    pre, post = unit(rng, d), unit(rng, d)
    overlap = np.vdot(post, pre)
    assume(abs(overlap) >= 0.2)
    post = post * overlap / abs(overlap)  # <post|pre> > 0; weak values ignore the phase
    system = SpaceSignature((("system", d),))
    A = (v * a) @ v.conj().T
    B = (v * b) @ v.conj().T
    factors = kick_factors_from_terms(system, g, A, B, np.zeros((d, d)))
    ((entry,),) = transfer_readouts(factors, METER, [Ket(system, pre)], [Ket(system, post)])
    _, fit = entry

    kick_b = (v * np.exp(1j * g * b)) @ v.conj().T
    a_w = np.vdot(post, A @ kick_b @ pre) / np.vdot(post, kick_b @ pre)
    c = (post.conj() @ v) * np.exp(1j * g * b) * (v.conj().T @ pre)
    assert abs(fit.value - a_w) <= fit_error_bound(g, c / c.sum(), a)
