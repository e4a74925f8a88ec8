"""System-meter couplings, exact and truncated evolution, and pointer fits.

Sign and ordering conventions (fixed once, used everywhere):

* A delta kick generated by -g delta(.) A (x) q_hat is applied as the
  unitary exp(+i g A (x) q_hat), so a post-selected meter acquires the
  factor exp(+i g q A_w) and the momentum mean shifts by +g Re(A_w).
  ``kick_sign=-1`` flips the kick exponent (only).  Where no static term
  acts on the states that are read, the fitted values come out negated;
  elsewhere it is the physical sign of the kick relative to g' S.
* ``kick_time`` places the instantaneous kick inside the static-noise
  window [0, t].  The default (kick_time = t) lets the noise act for the
  full window before the measurement kick; this is the ordering whose
  second-order cross term matches the retained g g' t term, and it is a
  physical choice, not bookkeeping: the fitted pointer response depends
  on it at first order in g' t.

Every coupling is diagonal in the pointer position (see ``COUPLINGS``), so
a post-selected pointer is the meter times the transfer amplitude
f(q) = <post| U(q) |pre>, and no joint system+meter operator is formed.
The kick's A and B commute, so U(q) = V diag(exp(i s g q a)) V^dagger
exp(i s g B) and f(q) = sum_i c_i exp(i s g a_i q): d coefficients and d
frequencies, free of any grid (:class:`KickFactors`), built in two steps: a
basis (the terms checked, one ``eigh`` of each nonzero term) and its cheap
application at a strength, g' and times.  ``kick_factors_from_terms`` takes
both steps on every call; ``kick_factors``, the catalog path, reads a row's
basis (S unscaled by g') from a per-process table keyed on the row and the
system signature, so its calls take no ``eigh``.
``_transfer_rows`` is the one grid reader: every pointer
(``pointer_readout``, sweeps) is read from it, and ``evolve_exact`` is its
joint-state view with the system basis as post-states.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    AnnihilationError,
    IllConditionedFitError,
    NumericalOverflowError,
    ParameterRangeError,
    SignatureError,
    UnknownIdError,
)
from .hilbert import Ket, Operator, SpaceSignature
from .meter import DiscreteGaussianMeter, MeterReadout, _readouts, q_grid
from .optics import METER
from .weakvalue import lifted_observable

__all__ = [
    "VARIANTS",
    "COUPLINGS",
    "Coupling",
    "CouplingSpec",
    "EffectiveWeakValueFit",
    "KickFactors",
    "coupling_terms",
    "kick_factors",
    "kick_factors_from_terms",
    "build_hamiltonian",
    "evolve_exact",
    "evolve_dyson2",
    "post_select_meter",
    "transfer_amplitudes",
    "transfer_readouts",
    "fit_effective_weak_value",
    "pointer_readout",
]


@dataclass(frozen=True)
class Coupling:
    """Catalog ids of kick strength * (A (x) q_hat + B (x) 1) and static g' S (x) 1.

    ``strength`` names the :class:`CouplingSpec` attribute scaling the kick;
    ``b`` and ``s`` are None where the term is absent.  ``orbital_dim`` is
    the orbital space of the row's states (the parallel rows need the triplet).
    """

    strength: str
    a: str
    b: str | None = None
    s: str | None = None
    orbital_dim: int = 2


# One row per (variant, measure_arm).  The three-body kick couples q_hat to
# sigma_z - L_x sigma_x, which the catalog holds as effective_three_body.
COUPLINGS = {
    ("noiseless_kick", None): Coupling("g", "sigma_z"),
    ("spin_orbit", None): Coupling("g", "sigma_z", s="Lx_sigma_x"),
    ("parallel_1", None): Coupling("g", "sigma_z", s="Lx_sigma_z", orbital_dim=3),
    ("parallel_1", "R"): Coupling("g", "sigma_z_R", "sigma_z_L", "Lx_sigma_z", orbital_dim=3),
    ("parallel_1", "L"): Coupling("g", "Lx_sigma_z_L", "Lx_sigma_z_R", "Lx_sigma_z", orbital_dim=3),
    ("parallel_2", None): Coupling("g", "sigma_z", s="Lz_sigma_z", orbital_dim=3),
    ("parallel_2", "R"): Coupling("g", "sigma_z_R", "sigma_z_L", "Lz_sigma_z", orbital_dim=3),
    ("parallel_2", "L"): Coupling("g", "Lz_sigma_z_L", "Lz_sigma_z_R", "Lz_sigma_z", orbital_dim=3),
    ("three_body", None): Coupling("g", "effective_three_body"),
    ("measure_sigma_zR", None): Coupling("g", "sigma_z_R", "sigma_z_L"),
    ("measure_sigma_zR_noisy", None): Coupling("g", "sigma_z_R", "sigma_z_L"),
    ("measure_LxSx_L", None): Coupling("gprime_t", "Lx_sigma_x_L", "Lx_sigma_x_R"),
    ("measure_LxSx_R", None): Coupling("gprime_t", "Lx_sigma_x_R", "Lx_sigma_x_L"),
}

VARIANTS = tuple(dict.fromkeys(variant for variant, _ in COUPLINGS))

# tolerance of the kick terms' Hermitian and commuting checks
TERM_ATOL = 1e-12

# grid entries (rows x 2N+1) one readout and fit of transfer_readouts stacks: 1 MiB
BLOCK_ENTRIES = 1 << 16

# the scenario field behind each Coupling.strength, as kick errors name it
_STRENGTH_FIELDS = {"g": "coupling.g", "gprime_t": "coupling.gprime * coupling.t"}


@dataclass(frozen=True)
class CouplingSpec:
    """Which coupling acts, how strongly, and where the kick sits in time.

    ``measure_arm`` applies to the parallel-noise variants only: 'R' reads
    the signal (sigma_z in the right arm) and 'L' reads the arm-resolved
    noise observable in the left arm; unset means the linear (no-path)
    arrangement.  Construction holds the only copy of the coupling rules
    (scenario validation builds a spec to apply them), so a bad value raises
    :class:`ParameterRangeError`, or :class:`UnknownIdError` for an unknown
    variant, with the scenario's ``coupling.*`` field in the message.
    """

    variant: str
    g: float = 1e-3
    gprime: float = 1e-3
    t: float = 1.0
    kick_time: float | None = None
    measure_arm: str | None = None
    kick_sign: int = 1

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise UnknownIdError(f"unknown coupling variant {self.variant!r}; valid: {VARIANTS}")
        numbers = (self.g, self.gprime, self.t, self.resolved_kick_time)
        if not all(map(math.isfinite, numbers)):
            raise ParameterRangeError(f"coupling parameters must be finite, got {numbers}")
        if self.g < 0 or self.gprime < 0:
            raise ParameterRangeError("coupling constants g, gprime must be nonnegative")
        if self.t <= 0:
            raise ParameterRangeError(f"coupling.t must be positive, got {self.t}")
        if not math.isfinite(self.gprime_t):
            # the catalog's effective observables and static factors take g' t
            raise ParameterRangeError(
                f"coupling.gprime * coupling.t must be finite, got {self.gprime} * {self.t}"
            )
        if self.kick_time is not None and not 0.0 <= self.kick_time <= self.t:
            raise ParameterRangeError(f"coupling.kick_time = {self.kick_time} outside [0, t={self.t}]")
        if self.measure_arm is not None:
            if (self.variant, "R") not in COUPLINGS:
                raise ParameterRangeError("coupling.measure_arm applies to the parallel variants only")
            if self.measure_arm not in ("L", "R"):
                raise ParameterRangeError(
                    f"coupling.measure_arm must be L or R, got {self.measure_arm!r}")
        # the int 1 or -1 only: True and 1.0 would reach the config hash as written
        integral = isinstance(self.kick_sign, (int, np.integer))
        if not integral or isinstance(self.kick_sign, bool) or self.kick_sign not in (1, -1):
            raise ParameterRangeError(f"coupling.kick_sign must be 1 or -1, got {self.kick_sign!r}")
        object.__setattr__(self, "kick_sign", int(self.kick_sign))  # a numpy integer as plain int

    @property
    def coupling(self) -> Coupling:
        return COUPLINGS[self.variant, self.measure_arm]

    @property
    def resolved_kick_time(self) -> float:
        return self.t if self.kick_time is None else self.kick_time

    @property
    def gprime_t(self) -> float:
        return self.gprime * self.t

    @property
    def in_regime(self) -> bool:
        """g/g' << t << sqrt(g)/g' with factor-of-10 margins on both sides."""
        if self.coupling.s is None or self.gprime == 0.0:
            return True
        if self.g <= 0.0:
            return False
        return (10.0 * self.g / self.gprime <= self.t
                and 10.0 * self.t <= np.sqrt(self.g) / self.gprime)


@dataclass(frozen=True)
class EffectiveWeakValueFit:
    """Least-squares fit of a post-selected meter to exp(a) exp(i g q A).

    ``value`` estimates the effective weak value A, ``offset`` the
    non-shifting prefactor a (overlap included), ``residual`` the weighted
    rms misfit of the log-ratios.
    """

    value: complex
    offset: complex
    residual: float


def _system_signature(joint: SpaceSignature) -> SpaceSignature:
    if joint.axis_of(METER) != len(joint.factors) - 1:
        raise SignatureError("joint state must carry the meter as its last factor")
    return joint.drop([METER])


def _term(obs_id: str | None, system: SpaceSignature) -> np.ndarray:
    """Catalog observable ``obs_id`` on ``system``, zeros for None (:func:`lifted_observable`)."""
    if obs_id is None:
        return np.zeros((system.dim, system.dim), dtype=complex)
    return lifted_observable(obs_id, system)


def coupling_terms(spec: CouplingSpec,
                   system: SpaceSignature) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """(strength, A, B, static) as matrices on the system signature.

    The kick generator is strength * (A (x) q_hat + B (x) 1); the static
    Hamiltonian is static (x) 1 with static = g' S.  Absent terms are zero.
    Catalog terms are lifted once per process, in the table the scenario
    observables share.
    """
    row = spec.coupling
    return (getattr(spec, row.strength), _term(row.a, system), _term(row.b, system),
            spec.gprime * _term(row.s, system))


def build_hamiltonian(spec: CouplingSpec, sig: SpaceSignature) -> tuple[Operator, Operator]:
    """(kick generator, static Hamiltonian) as dense operators on the joint signature.

    The kick generator carries its coupling strength and is exponentiated
    as exp(+i kick_sign * kick) at ``kick_time``; the static part is a
    per-unit-time Hamiltonian evolved as exp(-i static * duration).  For
    the three-body variant both couplings sit in the kick and static = 0.
    This is a reference view of :func:`coupling_terms` with the meter as the
    last factor; the evolution routines never build it.
    """
    strength, a, b, static = coupling_terms(spec, _system_signature(sig))
    size = sig.dimension_of(METER)
    eye = np.eye(size)
    kick = strength * (np.kron(a, np.diag(q_grid((size - 1) // 2))) + np.kron(b, eye))
    return Operator(sig, kick), Operator(sig, np.kron(static, eye))


@dataclass(frozen=True, eq=False)
class KickFactors:
    """The transfer amplitude's spectral form at one (kick terms, system) key.

    The kick's A and B commute, so with A = V diag(a) V^dagger, at pointer
    position q

        S_after U(q) S_before = post_map diag(exp(+i s strength q a)) pre_map,

    where ``pre_map`` = V^dagger exp(+i s strength B) S_before takes a
    pre-state into A's eigenbasis, ``post_map`` = S_after V takes it back,
    a are the ``eigenvalues`` and s is ``kick_sign`` (S_before/S_after the
    static factors exp(-i S time) on either side of the kick).  So
    <post| S_after U(q) S_before |pre> = sum_i c_i exp(i s strength a_i q),
    c_i = (<post| post_map)_i (pre_map |pre>)_i.  The pointer fit divides by
    ``strength``, the coupling in front of q, which errors call ``name``.  No
    array depends on the grid.
    """

    system: SpaceSignature
    strength: float
    name: str
    kick_sign: int
    eigenvalues: np.ndarray
    pre_map: np.ndarray
    post_map: np.ndarray


def _require_kick_terms(system: SpaceSignature, a: np.ndarray, b: np.ndarray, s: np.ndarray):
    if any(np.shape(term) != (system.dim, system.dim) for term in (a, b, s)):
        raise SignatureError(f"kick terms A, B, S must be {system.dim} x {system.dim} on {system}")
    terms = np.array((a, b, s))
    with np.errstate(invalid="ignore"):  # inf - inf is nan, which fails the check
        skew = float(np.max(np.abs(terms - terms.conj().transpose(0, 2, 1))))
    if not skew <= TERM_ATOL * max(1.0, float(np.max(np.abs(terms)))):
        raise ValueError(f"kick terms A, B, S must be finite and Hermitian "
                         f"(max |M - M^dagger| = {skew:.3e})")
    gap = float(np.max(np.abs(a @ b - b @ a)))
    if gap > TERM_ATOL:
        raise ValueError(f"A and B do not commute (max |AB - BA| = {gap:.3e}), "
                         "so the kick cannot be factored")


def _exp(eigenvalues: np.ndarray, vectors: np.ndarray, scale: complex) -> np.ndarray:
    """exp(scale * M) from M = vectors diag(eigenvalues) vectors^dagger."""
    return (vectors * np.exp(scale * eigenvalues)) @ vectors.conj().T


class _KickBasis(NamedTuple):
    """The (eigenvalues, vectors) of ``eigh`` of a kick's A, B and S; None for a zero B or S."""

    a: tuple
    b: tuple | None
    s: tuple | None


def _kick_basis(system: SpaceSignature, a: np.ndarray, b: np.ndarray,
                s: np.ndarray) -> _KickBasis:
    """Check the terms (:func:`_require_kick_terms`), then one ``eigh`` of each nonzero one."""
    _require_kick_terms(system, a, b, s)
    return _KickBasis(np.linalg.eigh(a), np.linalg.eigh(b) if np.any(b) else None,
                      np.linalg.eigh(s) if np.any(s) else None)


@functools.cache
def _catalog_basis(row: Coupling, system: SpaceSignature) -> _KickBasis:
    """:func:`_kick_basis` of a catalog row's terms, S unscaled by g'.

    Cached for the life of the process: the key holds no coupling strength,
    time or grid size, so it ranges over the ``COUPLINGS`` rows and system
    signatures in use only (as ``weakvalue._lifted``).  The arrays are
    read-only.  A row whose terms fail the checks raises on every call.
    """
    basis = _kick_basis(system, *(_term(obs_id, system) for obs_id in (row.a, row.b, row.s)))
    for pair in filter(None, basis):
        for array in pair:
            array.setflags(write=False)
    return basis


def _apply_kick(system: SpaceSignature, basis: _KickBasis, strength: float, gprime: float,
                kick_sign: int, before: float, after: float, name: str) -> KickFactors:
    """The factors of exp(-i g' S after) exp(+i s strength (A q + B)) exp(-i g' S before)."""
    eigenvalues, vectors = basis.a
    pre_map, post_map = vectors.conj().T, vectors
    if basis.b is not None:
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            kick_b = _exp(*basis.b, 1j * kick_sign * strength)
        if not np.isfinite(kick_b).all():
            raise NumericalOverflowError(
                f"kick offset exp(i {name} B) is not finite ({name} = {strength!r})")
        pre_map = pre_map @ kick_b
    if basis.s is not None and gprime:
        static_values, static_vectors = basis.s
        static_values = gprime * static_values
        if before:
            pre_map = pre_map @ _exp(static_values, static_vectors, -1j * before)
        if after:
            post_map = _exp(static_values, static_vectors, -1j * after) @ vectors
    factors = KickFactors(system=system, strength=strength, name=name, kick_sign=kick_sign,
                          eigenvalues=eigenvalues, pre_map=pre_map, post_map=post_map)
    for array in (factors.eigenvalues, factors.pre_map, factors.post_map):
        array.setflags(write=False)  # shared by every point at this key
    return factors


def kick_factors_from_terms(system: SpaceSignature, strength: float, a: np.ndarray,
                            b: np.ndarray, static: np.ndarray, *, kick_sign: int = 1,
                            before: float = 0.0, after: float = 0.0,
                            name: str = "strength") -> KickFactors:
    """Kick factors of exp(-i static after) exp(+i s strength (A q + B)) exp(-i static before).

    ``a``, ``b``, ``static``: d x d finite Hermitian matrices on ``system``
    (zeros where absent), A and B commuting, else ``ValueError`` (or
    :class:`SignatureError` off ``system``); s is ``kick_sign``.  The terms
    are checked and each nonzero one takes one ``eigh`` on every call, the
    static one serving both its factors.  An offset factor exp(i s strength B)
    leaving the float range raises :class:`NumericalOverflowError` naming the
    strength ``name``.
    """
    return _apply_kick(system, _kick_basis(system, a, b, static), strength, 1.0,
                       kick_sign, before, after, name)


def kick_factors(spec: CouplingSpec, system: SpaceSignature) -> KickFactors:
    """The kick factors of a catalog row: :func:`kick_factors_from_terms` on :func:`coupling_terms`.

    The row's terms are checked and decomposed once per process and system
    signature, S unscaled by g' (a per-process table keyed on the row and
    the signature only); a call scales those eigenvalues by its strength,
    g' and times and takes no ``eigh``.  So the factors equal those of
    :func:`kick_factors_from_terms` bit for bit where no static factor acts,
    and to rounding otherwise.  They depend on the coupling and the system
    signature only, so one set serves every pre-state and every meter grid
    at that key.  Errors name the strength by its scenario field, such as
    ``coupling.g``.
    """
    row = spec.coupling
    before = spec.resolved_kick_time
    return _apply_kick(system, _catalog_basis(row, system), getattr(spec, row.strength),
                       spec.gprime, spec.kick_sign, before, spec.t - before,
                       _STRENGTH_FIELDS[row.strength])


def evolve_exact(spec: CouplingSpec, pre_system: Ket, meter: DiscreteGaussianMeter) -> Ket:
    """Joint state after static noise, the kick, and the remaining noise.

    exp(-i static (t - kick_time)) exp(+i kick_sign kick) exp(-i static kick_time)
    applied to pre_system (x) meter.  Every coupling is diagonal in q, so the
    state is the meter times the transfer amplitudes onto each system basis
    state (:func:`transfer_amplitudes` with the identity as post-states, whose
    bras are the rows of ``post_map``); time and memory grow linearly in the
    grid size.
    """
    system = pre_system.signature
    (f,) = _transfer_rows(kick_factors(spec, system), meter, [pre_system])
    return Ket(system.concat(SpaceSignature(((METER, meter.size),))), f * meter.amplitudes)


def evolve_dyson2(spec: CouplingSpec, pre_system: Ket, meter: DiscreteGaussianMeter) -> Ket:
    """Second-order truncated evolution with the kick-squared term dropped.

    Keeps the linear terms, the kick-noise cross terms at the resolved kick
    placement, and the quadratic noise term; drops the O(g^2) kick square,
    so the result is slightly non-unitary.  Warns outside the measurement-
    time regime where that truncation is justified.
    """
    if not spec.in_regime:
        warnings.warn(
            f"couplings g={spec.g}, g'={spec.gprime}, t={spec.t} are outside the "
            "measurement-time regime; the truncation error is not controlled",
            stacklevel=2,
        )
    system = pre_system.signature
    strength, a, b, static = coupling_terms(spec, system)

    def kick(x: np.ndarray) -> np.ndarray:
        return strength * ((a @ x) * meter.q + b @ x)

    s = spec.kick_sign
    psi = pre_system.amplitudes[:, None] * meter.amplitudes  # (system, grid)
    k_psi = kick(psi)
    out = psi + 1j * s * k_psi
    if np.any(static):
        before = spec.resolved_kick_time
        after = spec.t - before
        n_psi = static @ psi
        out = out - 1j * spec.t * n_psi - 0.5 * spec.t**2 * (static @ n_psi)
        if before:
            out = out + s * before * kick(n_psi)
        if after:
            out = out + s * after * (static @ k_psi)
    return Ket(system.concat(SpaceSignature(((METER, meter.size),))), out)


def _require_system(post_system: Ket, system: SpaceSignature) -> None:
    if post_system.signature != system:
        raise SignatureError(
            f"post-selection on {post_system.signature} does not match system "
            f"factors {system}"
        )


def _require_survivor(norm: float, scale: float) -> None:
    if norm <= 1e-14 * max(scale, 1e-300):
        raise AnnihilationError(
            f"post-selection annihilated the state (residual norm {norm:.3e})"
        )


def post_select_meter(joint: Ket, post_system: Ket) -> Ket:
    """Partial inner product <post_system| joint>, an unnormalized meter ket.

    The squared norm of the result is the post-selection probability.
    """
    sig = joint.signature
    _require_system(post_system, _system_signature(sig))
    size = sig.dimension_of(METER)
    sys_dim = sig.dim // size
    meter_amps = post_system.amplitudes.conj() @ joint.amplitudes.reshape(sys_dim, size)
    _require_survivor(float(np.linalg.norm(meter_amps)), joint.norm() * post_system.norm())
    return Ket(SpaceSignature(((METER, size),)), meter_amps)


def _transfer_rows(factors: KickFactors, meter: DiscreteGaussianMeter, pres, posts=None):
    """Iterator over F[:, r, :] of :func:`transfer_amplitudes`, one pre-state at a time.

    Each row is one (posts, d) x (2N+1, d) contraction of its own, so
    :func:`transfer_readouts` may stack the rows of several pre-states.
    The one grid reader: it evaluates the phases exp(i s strength q_k a_i)
    on the meter's grid once per call.  ``posts`` None reads onto the system
    basis, whose bras are the rows of ``post_map``.  The grid's zone limit,
    the post-states and the pre-states are checked, in that order, before it
    returns.  On the grid q_k = k a phase is 2 pi-periodic in strength * a,
    so past pi per grid step the pointer aliases; its p-width 1/(2 delta)
    must fit below pi too.  A NaN or infinite strength fails the check.
    """
    phase = abs(float(factors.strength)) * float(np.max(np.abs(factors.eigenvalues)))
    if not phase + 0.5 / meter.width < math.pi:
        raise NumericalOverflowError(
            f"kick phase per grid step {phase:.6g} plus the p-width 1/(2 delta) = "
            f"{0.5 / meter.width:.6g} is not below pi, the grid's zone limit "
            f"({factors.name} = {factors.strength!r})")
    bras = factors.post_map if posts is None else _post_bras(factors, posts)
    for pre in pres:
        if pre.signature != factors.system:
            raise SignatureError(
                f"pre-state on {pre.signature} does not match the kick factors' "
                f"system {factors.system}"
            )
    phases = np.exp(1j * (factors.kick_sign * factors.strength
                          * (meter.q[:, None] * factors.eigenvalues)))

    def rows():
        for pre in pres:
            ket = factors.pre_map @ pre.amplitudes
            # F[p, k] = sum_i bras[p, i] phases[k, i] ket[i]
            yield np.einsum("pi,ki->pk", bras * ket, phases)

    return rows()


def _post_bras(factors: KickFactors, posts) -> np.ndarray:
    """Row p is <posts[p]| post_map, each computed on its own so no row sees the batch."""
    bras = np.empty((len(posts), factors.post_map.shape[1]), dtype=complex)
    for bra, post in zip(bras, posts):
        _require_system(post, factors.system)
        bra[...] = post.amplitudes.conj() @ factors.post_map
    return bras


def transfer_amplitudes(factors: KickFactors, meter: DiscreteGaussianMeter, pres,
                        posts) -> np.ndarray:
    """F[p, r, k] = <posts[p]| S_after U(q_k) S_before |pres[r]> on the meter grid.

    Every coupling is diagonal in q, so post-selecting the evolved
    pres[r] (x) meter on posts[p] leaves exactly F[p, r] * meter.amplitudes
    (:func:`evolve_exact` then :func:`post_select_meter`, without forming the
    joint state).  An entry's bits depend on its own pre- and post-state only,
    never on the rest of the batch.  A kick past the grid's zone limit raises
    :class:`NumericalOverflowError` (:func:`_transfer_rows`).
    """
    out = np.empty((len(posts), len(pres), meter.size), dtype=complex)
    for r, row in enumerate(_transfer_rows(factors, meter, pres, posts)):
        out[:, r] = row
    return out


def _weighted_line_fits(y: np.ndarray, w: np.ndarray, q: np.ndarray, g: float):
    """Closed-form weighted least squares of y = a + i g q A, row by row.

    ``y`` and ``w`` are (rows, K) log-ratios and weights at the grid points
    ``q``; a zero weight drops its point.  Returns the arrays (A, a, weighted
    rms residual, support size, weighted spread of q) with one entry per row.
    """
    # a g below 1/float max overflows the division by i g; _fit_row reports it
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s0 = w.sum(axis=-1)
        q_mean = (w * q).sum(axis=-1) / s0
        dq = q - q_mean[:, None]
        spread = (w * dq * dq).sum(axis=-1)
        y_mean = (w * y).sum(axis=-1) / s0
        dy = y - y_mean[:, None]
        slope = (w * dq * dy).sum(axis=-1) / spread
        resid = dy - slope[:, None] * dq
        residual = np.sqrt((w * np.abs(resid) ** 2).sum(axis=-1) / s0)
        return (slope / (1j * g), y_mean - slope * q_mean, residual,
                np.count_nonzero(w, axis=-1), spread)


def _unwrap_rows(logs: np.ndarray, live: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Unwrap each row's log phase over its live points, anchored at the point nearest q = 0.

    Zeros are skipped, so one neither hides a jump nor makes one.  A point
    moves by whole turns only where its row jumps by more than pi.
    """
    phase = logs.imag  # a view: the unwrap moves the imaginary parts in place
    # a row whose phases span at most pi (dead points' 0 included) has no such jump
    for row in np.flatnonzero(phase.max(axis=-1) - phase.min(axis=-1) > np.pi):
        points = np.flatnonzero(live[row])
        principal = phase[row, points]
        turns = np.round((np.unwrap(principal) - principal) / (2 * np.pi))
        phase[row, points] += 2 * np.pi * (turns - turns[np.argmin(np.abs(q[points]))])
    return logs


def _pointer_fitter(meter: DiscreteGaussianMeter, g: float):
    """Row fit of log(ratios) = a + i g q A, for rows of final / meter.amplitudes.

    Only the meter's fit support takes part, weighted by |meter|^2 (its
    ``weights``) so tail noise cannot dominate; zeros of a row have no
    usable log and are dropped.  The log is unwrapped (:func:`_unwrap_rows`), so
    no 2 pi jump from <post|pre>'s phase or the kick's reaches the fit.
    Returns :func:`_weighted_line_fits` per row.
    """
    support, weights = meter.support, meter.weights
    q = meter.q[support]

    def fit(ratios: np.ndarray):
        # C-ordered rows (``ratios[:, support]`` would be column-major), so
        # each row reduces in the order a row alone would
        ratios = ratios.take(support, axis=-1)
        live = ratios != 0.0
        logs = _unwrap_rows(np.log(np.where(live, ratios, 1.0)), live, q)
        return _weighted_line_fits(logs, np.where(live, weights, 0.0), q, g)

    return fit


def _require_coupling(g: float) -> None:
    if g <= 0:
        raise IllConditionedFitError(f"fit requires a positive coupling, got g={g}")


def _fit_row(fits, row: int) -> EffectiveWeakValueFit:
    value, offset, residual, support, spread = (part[row] for part in fits)
    if support < 2 or not spread > 0.0:
        raise IllConditionedFitError("all fit weight sits at a single grid point")
    value, offset = complex(value), complex(offset)
    if not (cmath.isfinite(value) and cmath.isfinite(offset)):
        raise IllConditionedFitError(f"fit is not finite: value {value}, offset {offset}")
    return EffectiveWeakValueFit(value=value, offset=offset, residual=float(residual))


def fit_effective_weak_value(final_meter, reference: DiscreteGaussianMeter,
                             g: float) -> EffectiveWeakValueFit:
    """Weighted least squares for log(final_k / reference_k) = a + i g q_k A.

    Grid points are weighted by |reference|^2 so tail noise cannot dominate;
    points off the reference meter's fit support are excluded.  The two-parameter
    fit is solved in closed form (weighted covariance of the log-ratio with q),
    by the same code as :func:`transfer_readouts`.
    """
    _require_coupling(g)
    final = np.asarray(final_meter.amplitudes if isinstance(final_meter, Ket) else final_meter,
                       dtype=complex).reshape(-1)
    ref = np.asarray(reference.amplitudes)
    if final.shape != ref.shape:
        raise SignatureError("final and reference meters live on different grids")
    if not np.any(final):
        raise AnnihilationError("final meter state is zero")
    with np.errstate(divide="ignore", invalid="ignore"):  # off-support tails may be 0
        ratio = final / ref
    return _fit_row(_pointer_fitter(reference, g)(ratio[None]), 0)


def transfer_readouts(factors: KickFactors, meter: DiscreteGaussianMeter, pres, posts):
    """Readout and pointer fit of each post-selected meter F[p, r] * meter.amplitudes.

    Yields one list per pre-state r with one entry per post-state p: the
    pair (:class:`MeterReadout`, :class:`EffectiveWeakValueFit`) that
    :func:`meter_readout` and :func:`fit_effective_weak_value` give for that
    meter, with the error the fit would raise in place of a failed fit, or
    the error post-selection would raise (errors are returned, not raised).
    A kick past the grid's zone limit raises, as in
    :func:`transfer_amplitudes`.  The fit takes log F directly.  The rows of
    as many pre-states as fit in ``BLOCK_ENTRIES`` grid entries (one at
    least) are stacked and read by one readout and one fit; every row
    reduces on its own, so no entry depends on the others.
    """
    g = factors.strength
    fit = _pointer_fitter(meter, g)
    post_norms = [post.norm() for post in posts]
    transfer = _transfer_rows(factors, meter, pres, posts)
    per_block = max(1, BLOCK_ENTRIES // max(1, len(posts) * meter.size))
    for start in range(0, len(pres), per_block):
        block = pres[start:start + per_block]
        f = np.concatenate([next(transfer) for _ in block])
        readouts = _readouts(meter.amplitudes * f, meter.q, meter.p_fft)
        fits = fit(f)
        for r, pre in enumerate(block):
            row, pre_norm = [], pre.norm()
            for i, post_norm in enumerate(post_norms, start=r * len(posts)):
                try:
                    _require_survivor(math.sqrt(readouts[i].success_probability),
                                      pre_norm * post_norm)
                except AnnihilationError as exc:
                    row.append(exc)
                    continue
                try:
                    _require_coupling(g)
                    row.append((readouts[i], _fit_row(fits, i)))
                except IllConditionedFitError as exc:
                    row.append((readouts[i], exc))
            yield row


def _fit_or_raise(entry) -> EffectiveWeakValueFit:
    """The pointer fit of one :func:`transfer_readouts` entry; an error in it is raised."""
    fit = entry if isinstance(entry, Exception) else entry[1]
    if isinstance(fit, Exception):
        raise fit
    return fit


def pointer_readout(spec: CouplingSpec, pre: Ket, post: Ket,
                    meter: DiscreteGaussianMeter) -> tuple[MeterReadout, EffectiveWeakValueFit]:
    """Readout and pointer fit of pre (x) meter evolved under ``spec``, post-selected on post.

    :func:`transfer_readouts` for one pair; its error, if any, is raised.
    """
    ((entry,),) = transfer_readouts(kick_factors(spec, pre.signature), meter, [pre], [post])
    _fit_or_raise(entry)
    return entry

