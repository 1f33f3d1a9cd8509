"""Classical-noise channels acting on qubit B of a two-qubit pair.

Four models: the two-phase random driving field (with optional Gaussian
broadening of the Rabi frequency), quasi-static Gaussian dephasing with an
optional echo pulse, its finite-correlation-time Ornstein-Uhlenbeck extension,
random telegraph noise, and the four-step stroboscopic dephasing channel.

Conventions used throughout:

* Local sigma_z free-Hamiltonian terms are dropped (rotating frame); every
  measure computed downstream is invariant under those local unitaries.
* The echo pulse is an instantaneous sigma_x inserted between propagation
  segments.
* Monte-Carlo trajectories are partitioned into fixed-size batches; batch b
  draws from an independent stream spawned from the scenario seed, and batch
  results are reduced in batch order, so results are independent of the
  thread count used to evaluate them.
"""
from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import kernels
from .linalg import DensityOperator, EYE2, SIGMA_X, NumericalError
from .measures import WeightedPureEnsemble
from .states import EWLParams, bell_state, ewl_state

MC_BATCH = 2048
OU_MIN_TRAJECTORIES = 1000
# most steps of one OU fine partition: each trajectory batch draws MC_BATCH
# normals per step, 512 MiB at the cap
OU_MAX_STEPS = 2**15
RNG_DESCRIPTION = "numpy-pcg64; SeedSequence.spawn per fixed-size trajectory batch"

FIELD_PHASES = (np.pi / 2.0, -np.pi / 2.0)


# ---------------------------------------------------------------------------
# parameter types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RandomFieldParams:
    """Two-phase random driving field: central Rabi frequency and Gaussian width."""

    rabi: float
    width: float = 0.0

    def __post_init__(self):
        if self.rabi <= 0.0:
            raise ValueError(f"rabi={self.rabi} must be > 0")
        if self.width < 0.0:
            raise ValueError(f"width={self.width} must be >= 0")


@dataclass(frozen=True)
class StaticNoiseParams:
    """Longitudinal Gaussian dephasing noise of strength sigma.

    ``correlation_time`` = inf selects the quasi-static regime (closed-form
    Gaussian average); a finite value selects the Ornstein-Uhlenbeck
    Monte-Carlo path. ``echo_time`` schedules an instantaneous sigma_x pulse.
    """

    sigma: float
    echo_time: float | None = None
    correlation_time: float = math.inf

    def __post_init__(self):
        if self.sigma < 0.0:
            raise ValueError(f"sigma={self.sigma} must be >= 0")
        if self.echo_time is not None and self.echo_time <= 0.0:
            raise ValueError(f"echo_time={self.echo_time} must be > 0 when present")
        if self.correlation_time <= 0.0:
            raise ValueError(f"correlation_time={self.correlation_time} must be > 0")

    @property
    def is_static(self) -> bool:
        return math.isinf(self.correlation_time)


@dataclass(frozen=True)
class RTNParams:
    """Random telegraph noise: switching rate gamma and coupling v.

    The telegraph signal flips sign at Poisson rate ``rate`` (autocorrelation
    exp(-2*rate*t)); g = coupling/rate marks the motional-narrowing crossover
    at g = 1. Zero coupling is the trivial noise-free edge.
    """

    rate: float
    coupling: float

    def __post_init__(self):
        if self.rate <= 0.0:
            raise ValueError(f"rate={self.rate} must be > 0")
        if self.coupling < 0.0:
            raise ValueError(f"coupling={self.coupling} must be >= 0")

    @property
    def g(self) -> float:
        return self.coupling / self.rate


@dataclass(frozen=True)
class StroboscopicParams:
    """Four-step stroboscopic dephasing with AR(1)-correlated Gaussian phases.

    Each step applies diag(1, exp(i x_k)) to qubit B; the x_k form a
    stationary Gaussian chain with variance phase_sigma^2 and lag-1
    autocorrelation ``autocorrelation``. Phases are not clamped to any
    hardware range. An optional bit flip is inserted after
    ``echo_after_step``.
    """

    phase_sigma: float
    autocorrelation: float
    sequences: int
    seed: int
    echo_after_step: int | None = None
    steps: int = 4

    def __post_init__(self):
        if self.phase_sigma < 0.0:
            raise ValueError(f"phase_sigma={self.phase_sigma} must be >= 0")
        if not 0.0 <= self.autocorrelation <= 1.0:
            raise ValueError(f"autocorrelation={self.autocorrelation} outside [0, 1]")
        if self.sequences <= 0:
            raise ValueError(f"sequences={self.sequences} must be > 0")
        if self.steps < 1:
            raise ValueError(f"steps={self.steps} must be >= 1")
        if self.echo_after_step is not None and not 1 <= self.echo_after_step < self.steps:
            raise ValueError(
                f"echo_after_step={self.echo_after_step} must lie in [1, {self.steps - 1}]"
            )


# ---------------------------------------------------------------------------
# random external field
# ---------------------------------------------------------------------------


def field_unitary(phase: float, rabi: float, t: float) -> np.ndarray:
    """Driving-field propagator [[cos, e^{-i phase} sin], [-e^{i phase} sin, cos]]
    with half-angle rabi*t/2, in the basis {|0>, |1>}."""
    half = 0.5 * rabi * t
    c, s = np.cos(half), np.sin(half)
    return np.array(
        [[c, np.exp(-1j * phase) * s], [-np.exp(1j * phase) * s, c]], dtype=complex
    )


def _field_unitaries(phase: float, rabi_values, t) -> np.ndarray:
    """field_unitary stacked over an array of Rabi frequencies, shape (n, 2, 2);
    an array ``t`` broadcasting against them adds its leading axes."""
    half = 0.5 * np.asarray(rabi_values, dtype=float) * t
    c, s = np.cos(half), np.sin(half)
    out = np.empty(half.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = c
    out[..., 1, 1] = c
    out[..., 0, 1] = np.exp(-1j * phase) * s
    out[..., 1, 0] = -np.exp(1j * phase) * s
    return out


@functools.lru_cache(maxsize=8)
def _gh_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights normalized against exp(-x^2)/sqrt(pi).

    Only the discrete ensembles (RandomUnitaryChannel.gaussian_field,
    random_field_ensemble, static_noise_state) use them; the averaged channels
    are closed forms. Computed once per order and process; the arrays are
    read-only because every caller shares them. numpy's rule turns non-finite
    at high orders (from 372 with numpy 2.4), which raises ValueError.
    """
    if order < 1:
        raise ValueError(f"quadrature order {order} must be >= 1")
    with np.errstate(all="ignore"):  # a non-finite rule raises below
        x, w = np.polynomial.hermite.hermgauss(order)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(w))):
        raise ValueError(f"Gauss-Hermite rule of order {order} is not finite; lower the order")
    w = w / np.sqrt(np.pi)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@dataclass(frozen=True)
class RandomUnitaryChannel:
    """Weighted finite mixture of unitaries acting on qubit B of a two-qubit
    pair: rho -> sum_k w_k (1 (x) U_k) rho (1 (x) U_k)^dag."""

    weights: np.ndarray
    unitaries: np.ndarray  # (n, 2, 2)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        u = np.asarray(self.unitaries, dtype=complex)
        if u.shape != (w.size, 2, 2):
            raise ValueError(f"unitaries shape {u.shape} does not match {w.size} weights")
        # negated checks: NaN weights or unitaries fail them too
        if not (np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-12):
            raise ValueError("channel weights must be nonnegative and sum to 1")
        dev = np.max(np.abs(np.einsum("nij,nkj->nik", u, u.conj()) - EYE2))
        if not dev <= 1e-12:
            raise ValueError(f"channel members are not unitary within 1e-12 (dev {dev:.3e})")
        w = w.copy()
        w.setflags(write=False)
        u = u.copy()
        u.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "unitaries", u)

    def _lifted(self) -> np.ndarray:
        """Members lifted to the two-qubit space as 1 (x) U (block diagonal)."""
        n = self.weights.size
        u4 = np.zeros((n, 4, 4), dtype=complex)
        u4[:, :2, :2] = self.unitaries
        u4[:, 2:, 2:] = self.unitaries
        return u4

    def apply(self, rho: DensityOperator) -> DensityOperator:
        if rho.dims != (2, 2):
            raise ValueError(f"channel acts on two-qubit states, got dims {rho.dims}")
        u4 = self._lifted()
        m = np.einsum("n,nij,jk,nlk->il", self.weights, u4, rho.matrix, u4.conj(), optimize=True)
        return DensityOperator(m, (2, 2))

    def pure_ensemble(self, psi0: np.ndarray) -> WeightedPureEnsemble:
        """Ensemble {(w_k, (1 (x) U_k)|psi0>)} generated from a pure input."""
        psi0 = np.asarray(psi0, dtype=complex).reshape(4)
        states = np.einsum("nij,j->ni", self._lifted(), psi0)
        return WeightedPureEnsemble(self.weights, states)

    @staticmethod
    def two_phase(rabi: float, t: float) -> "RandomUnitaryChannel":
        """Equal mixture of the +pi/2 and -pi/2 field propagators."""
        us = np.stack([field_unitary(ph, rabi, t) for ph in FIELD_PHASES])
        return RandomUnitaryChannel(np.array([0.5, 0.5]), us)

    @staticmethod
    def gaussian_field(rabi: float, width: float, t: float, order: int) -> "RandomUnitaryChannel":
        """Two-phase mixture Gauss-Hermite-averaged over the Rabi frequency.

        The Rabi frequency is normally distributed with mean ``rabi`` and
        variance 2*width^2, realized by nodes rabi + 2*width*x_k.
        """
        x, w = _gh_nodes(order)
        omegas = rabi + 2.0 * width * x
        us = np.empty((2 * order, 2, 2), dtype=complex)
        weights = np.empty(2 * order)
        for j, ph in enumerate(FIELD_PHASES):
            us[j::2] = _field_unitaries(ph, omegas, t)
            weights[j::2] = 0.5 * w
        return RandomUnitaryChannel(weights, us)


def field_mixture_grid(blocks0, p: RandomFieldParams, times, summed: bool = False) -> np.ndarray:
    """The two-phase field on qubit B over a time grid, averaged over the Rabi
    frequency Omega ~ N(rabi, 2 width^2), resolved by the register state e of the
    phase FIELD_PHASES[e]: out[t, e] = E[(1 (x) U_e(Omega t)) blocks0[e] (1 (x)
    U_e(Omega t))^dag], shape (T, 2, 4, 4); ``blocks0`` is (2, 4, 4) or one (4, 4)
    matrix for both. With blocks0 = rho0 / 2 the sum over e, returned (T, 4, 4)
    when ``summed``, is the two-qubit channel; the blocks of an A-B-E state give
    its dilation.

    U_e has half-angle entries, so each conjugated block is affine in cos and sin
    of theta = Omega t: F(theta) = M0 + cos(theta) Mc + sin(theta) Ms, read off
    from F(0) = blocks0, F(pi) and F(pi/2). The Gaussian average is then exact:
    E[exp(i Omega t)] = exp(-width^2 t^2) exp(i rabi t)."""
    times = np.asarray(times, dtype=float).reshape(-1)
    blocks0 = np.broadcast_to(np.asarray(blocks0, dtype=complex), (2, 4, 4))
    u = np.stack([_field_unitaries(ph, [np.pi, np.pi / 2.0], 1.0) for ph in FIELD_PHASES])
    turned = np.einsum("ekbc,eacAC,ekBC->keabAB", u, blocks0.reshape((2,) * 5), u.conj())
    turned = turned.reshape(2, 2, 4, 4)  # F(pi), F(pi/2)
    m0 = 0.5 * (blocks0 + turned[0])
    mc = 0.5 * (blocks0 - turned[0])
    ms = turned[1] - m0
    if summed:
        m0, mc, ms = m0.sum(axis=0), mc.sum(axis=0), ms.sum(axis=0)
    with np.errstate(over="ignore"):  # exp(-inf) = 0 is the limit
        damp = np.exp(-((p.width * times) ** 2))
    theta = p.rabi * times
    return m0 + np.multiply.outer(damp * np.cos(theta), mc) + np.multiply.outer(damp * np.sin(theta), ms)


def random_field_map(rho0: DensityOperator, p: RandomFieldParams, t: float) -> DensityOperator:
    """Evolved two-qubit state under the fixed-Rabi two-phase field."""
    if p.width != 0.0:
        raise ValueError("random_field_map requires width = 0; use gaussian_averaged_map")
    return DensityOperator(field_mixture_grid(0.5 * rho0.matrix, p, [t], summed=True)[0], (2, 2))


def gaussian_averaged_map(rho0: DensityOperator, p: RandomFieldParams, t: float) -> DensityOperator:
    """Rabi-broadened field channel at a single time t (field_mixture_grid's
    closed-form average)."""
    if p.width <= 0.0:
        raise ValueError("gaussian_averaged_map requires width > 0")
    m = field_mixture_grid(0.5 * rho0.matrix, p, [t], summed=True)[0]
    return DensityOperator(m, (2, 2))


def random_field_ensemble(
    psi0: np.ndarray, p: RandomFieldParams, t: float, order: int = 64
) -> WeightedPureEnsemble:
    """Pure-state ensemble generated by the field channel from a pure input,
    over ``order`` Gauss-Hermite nodes of the Rabi frequency when the width is
    nonzero; its mixture approximates field_mixture_grid's closed form."""
    if p.width == 0.0:
        ch = RandomUnitaryChannel.two_phase(p.rabi, t)
    else:
        ch = RandomUnitaryChannel.gaussian_field(p.rabi, p.width, t, order)
    return ch.pure_ensemble(psi0)


# ---------------------------------------------------------------------------
# dephasing machinery shared by the static, OU, RTN and stroboscopic channels
# ---------------------------------------------------------------------------

_X4 = np.kron(EYE2, SIGMA_X)


def apply_b_dephasing(mat4: np.ndarray, factor, echoed=False) -> np.ndarray:
    """Pure dephasing of qubit B: the |0><1|_B coherences pick up ``factor``
    (|factor| <= 1), followed by a sigma_x on B when ``echoed``. Arrays of
    factors and echo flags give a (..., 4, 4) stack, one matrix per factor."""
    f2 = np.ones(np.shape(factor) + (2, 2), dtype=complex)
    f2[..., 0, 1] = factor
    f2[..., 1, 0] = np.conj(factor)
    out = mat4 * np.tile(f2, (2, 2))  # kron(ones(2, 2), f2) on the last two axes
    echoed = np.asarray(echoed)
    if echoed.any():
        out = np.where(echoed[..., None, None], _X4 @ out @ _X4, out)
    return out


def dephased_state(rho0: DensityOperator, factor, echoed=False) -> DensityOperator:
    return DensityOperator(apply_b_dephasing(rho0.matrix, factor, echoed), (2, 2))


def _phase_partials(theta: np.ndarray) -> tuple:
    """Per-batch sums needed for the mean of exp(-i theta) and its errors."""
    c = np.cos(theta)
    s = np.sin(theta)
    return (
        c.sum(axis=0),
        s.sum(axis=0),
        (c * c).sum(axis=0),
        (s * s).sum(axis=0),
        (c * s).sum(axis=0),
        theta.shape[0],
    )


@dataclass(frozen=True)
class DephasingEstimate:
    """Monte-Carlo estimate of the dephasing factors <exp(-i theta(t))> with
    the standard error of the factor magnitude at each time."""

    factors: np.ndarray  # complex, one per time
    se_abs: np.ndarray  # standard error of |factor|
    trajectories: int


def _combine_phase_partials(partials: list[tuple]) -> DephasingEstimate:
    s_c = sum(p[0] for p in partials)
    s_s = sum(p[1] for p in partials)
    s_cc = sum(p[2] for p in partials)
    s_ss = sum(p[3] for p in partials)
    s_cs = sum(p[4] for p in partials)
    n = sum(p[5] for p in partials)
    mean_c = s_c / n
    mean_s = s_s / n
    factors = mean_c - 1j * mean_s
    if n > 1:
        var_c = np.maximum(0.0, (s_cc - n * mean_c**2) / (n - 1))
        var_s = np.maximum(0.0, (s_ss - n * mean_s**2) / (n - 1))
        cov = (s_cs - n * mean_c * mean_s) / (n - 1)
    else:
        var_c = var_s = cov = np.zeros_like(mean_c)
    mag = np.abs(factors)
    g_c = np.where(mag > 0.0, mean_c / np.where(mag > 0.0, mag, 1.0), 1.0)
    g_s = np.where(mag > 0.0, mean_s / np.where(mag > 0.0, mag, 1.0), 0.0)
    se = np.sqrt(np.maximum(0.0, g_c**2 * var_c + 2 * g_c * g_s * cov + g_s**2 * var_s) / n)
    return DephasingEstimate(factors=factors, se_abs=se, trajectories=n)


def _batch_sizes(n: int) -> list[int]:
    sizes = [MC_BATCH] * (n // MC_BATCH)
    if n % MC_BATCH:
        sizes.append(n % MC_BATCH)
    return sizes


@functools.cache
def _pool(threads: int) -> ThreadPoolExecutor:
    """One worker pool per thread count, kept for the life of the process."""
    return ThreadPoolExecutor(max_workers=threads)


def _map_ordered(fn, n_batches: int, threads: int) -> list:
    if threads <= 1 or n_batches <= 1:
        return [fn(i) for i in range(n_batches)]
    return list(_pool(threads).map(fn, range(n_batches)))


# ---------------------------------------------------------------------------
# quasi-static Gaussian dephasing with echo
# ---------------------------------------------------------------------------


def _echo_effective_duration(p: StaticNoiseParams, t):
    """Signed duration multiplying the static noise value, and the echo flag,
    as arrays over ``t``."""
    t = np.asarray(t, dtype=float)
    if p.echo_time is None:
        return t, np.zeros(t.shape, dtype=bool)
    echoed = t > p.echo_time
    return np.where(echoed, 2.0 * p.echo_time - t, t), echoed


def static_dephasing_factors(p: StaticNoiseParams, times) -> np.ndarray:
    """<exp(-i eps u)> = exp(-sigma^2 u^2 / 2) over the Gaussian noise amplitude
    eps ~ N(0, sigma^2) at every time of ``times``, u the effective
    (echo-refocused) duration."""
    u, _ = _echo_effective_duration(p, np.asarray(times, dtype=float).reshape(-1))
    with np.errstate(over="ignore"):  # exp(-inf) = 0 is the limit
        return np.exp(-0.5 * (p.sigma * u) ** 2)


def static_dephasing_factor(p: StaticNoiseParams, t: float) -> complex:
    """static_dephasing_factors at a single time t."""
    return complex(static_dephasing_factors(p, [t])[0])


def static_noise_state(
    bell_input: str, p: StaticNoiseParams, t: float, order: int = 64
) -> tuple[DensityOperator, WeightedPureEnsemble]:
    """Averaged state (closed-form dephasing factor) and the ensemble over
    ``order`` Gauss-Hermite nodes of the noise amplitude for a Bell input under
    quasi-static dephasing (with the echo pulse applied at echo_time if set)."""
    if not p.is_static:
        raise ValueError("static_noise_state requires correlation_time = inf; use ou_noise_state")
    psi0 = bell_state(bell_input)
    u, echoed = _echo_effective_duration(p, t)
    rho = dephased_state(DensityOperator(np.outer(psi0, psi0.conj()), (2, 2)),
                         static_dephasing_factor(p, t), echoed)
    x, w = _gh_nodes(order)
    thetas = np.sqrt(2.0) * p.sigma * x * u
    members = np.empty((order, 4), dtype=complex)
    for k, th in enumerate(thetas):
        u2 = np.diag([np.exp(-0.5j * th), np.exp(0.5j * th)])
        if echoed:
            u2 = SIGMA_X @ u2
        members[k] = np.kron(EYE2, u2) @ psi0
    return rho, WeightedPureEnsemble(w, members)


# ---------------------------------------------------------------------------
# Ornstein-Uhlenbeck extension (finite correlation time, Monte Carlo)
# ---------------------------------------------------------------------------

# Below this total duration a + b (in units of tau) ou_phase_variance sums the
# Taylor series; its terms up to _OU_SERIES_TERMS leave a relative truncation
# error below 1e-20, while the closed form loses about eps / (a + b).
_OU_SERIES_LIMIT = 0.25
_OU_SERIES_TERMS = 16


def ou_phase_variance(p: StaticNoiseParams, t):
    """Exact variance of the accumulated phase theta(t) under Ornstein-Uhlenbeck
    noise (autocorrelation sigma^2 exp(-|s - s'|/tau)), with the sign flip of
    the sigma_x echo pulse at echo_time.

    Without a pulse (or for t <= echo_time) this is the free variance
    F(t) = 2 sigma^2 tau^2 g(t/tau), g(x) = x - 1 + e^{-x}. After a pulse at
    tbar the phase is A - B, A and B the integrals before and after it, so
    Var = F(tbar) + F(t - tbar) - 2 sigma^2 tau^2 (1 - e^{-tbar/tau})(1 - e^{-(t-tbar)/tau})
        = 2 sigma^2 tau^2 [2 g(a) + 2 g(b) - g(a + b)],  a = tbar/tau, b = (t - tbar)/tau.
    At t = 2 tbar this is sigma^2 tau^2 [4x - 6 + 8 e^{-x} - 2 e^{-2x}], x = tbar/tau,
    whose leading order as tau -> inf is 4 sigma^2 tbar^3 / (3 tau). The bracket
    cancels to third order in that limit, so short durations (a + b below
    _OU_SERIES_LIMIT) use its Taylor series
    (a - b)^2 / 2 + sum_{n>=3} (-1)^n [2 (a^n + b^n) - (a + b)^n] / n!.
    Returns a float for scalar t, an array otherwise.
    """
    if p.is_static:
        raise ValueError("ou_phase_variance requires a finite correlation_time")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("times must be nonnegative")
    tau = p.correlation_time
    tbar = math.inf if p.echo_time is None else p.echo_time
    a = np.minimum(t, tbar) / tau
    b = np.maximum(t - tbar, 0.0) / tau
    small = a + b < _OU_SERIES_LIMIT
    sa, sb = np.where(small, a, 0.0), np.where(small, b, 0.0)
    series = 0.5 * (sa - sb) ** 2
    coeff = 0.5  # (-1)^n / n!
    for n in range(3, _OU_SERIES_TERMS + 1):
        coeff /= -n
        series = series + coeff * (2.0 * (sa**n + sb**n) - (sa + sb) ** n)

    def g(x):
        return x + np.expm1(-x)

    closed = 2.0 * g(a) + 2.0 * g(b) - g(a + b)
    var = 2.0 * p.sigma**2 * tau**2 * np.where(small, series, closed)
    return float(var) if var.ndim == 0 else var


def _ou_steps(p: StaticNoiseParams, times: np.ndarray):
    """Anchors of the fine partition (0, the grid times and the echo time) and
    the number of equal steps between each pair of them (a float array)."""
    t_max = float(times[-1])
    anchors = [0.0] + [float(t) for t in times]
    if p.echo_time is not None and p.echo_time < t_max:
        anchors.append(float(p.echo_time))
    anchors = np.unique(np.asarray(anchors))
    dt_max = p.correlation_time / 20.0
    if p.sigma > 0.0:
        dt_max = min(dt_max, 0.05 / p.sigma)
    return anchors, np.maximum(1.0, np.ceil(np.diff(anchors) / dt_max - 1e-12))


def ou_partition_steps(p: StaticNoiseParams, times) -> float:
    """Number of steps of the OU fine partition over the ascending grid
    ``times`` (inf when it overflows a float)."""
    return float(_ou_steps(p, np.asarray(times, dtype=float).reshape(-1))[1].sum())


def _ou_partition(p: StaticNoiseParams, times: np.ndarray):
    """Fine time partition (exact-update midpoint scheme) covering all
    requested times, with the echo time inserted as a boundary; refused above
    OU_MAX_STEPS steps, before it is built."""
    anchors, nsub = _ou_steps(p, times)
    if nsub.sum() > OU_MAX_STEPS:
        raise ValueError(f"correlation_time={p.correlation_time} needs {nsub.sum():.3g} OU steps, "
                         f"above the cap of {OU_MAX_STEPS}")
    fine = [anchors[0]]
    for b0, b1, n in zip(anchors[:-1], anchors[1:], nsub.astype(np.int64).tolist()):
        fine.extend(np.linspace(b0, b1, n + 1)[1:].tolist())
    fine = np.asarray(fine)
    durations = np.diff(fine)
    midpoints = 0.5 * (fine[:-1] + fine[1:])
    decay = np.empty_like(durations)
    decay[0] = 0.0
    decay[1:] = np.exp(-np.diff(midpoints) / p.correlation_time)
    diffuse = np.empty_like(durations)
    diffuse[0] = p.sigma
    diffuse[1:] = p.sigma * np.sqrt(1.0 - decay[1:] ** 2)
    if p.echo_time is not None:
        signs = np.where(midpoints < p.echo_time, 1.0, -1.0)
    else:
        signs = np.ones_like(durations)
    col_of = {float(t): j for j, t in enumerate(times)}
    write_idx = np.array([col_of.get(float(b), -1) for b in fine[1:]], dtype=np.int64)
    zero_col = col_of.get(0.0)
    # every output column must be written (the kernel leaves the others as
    # uninitialised memory): each grid time must be a fine boundary, or 0
    written = np.zeros(times.size, dtype=bool)
    written[write_idx[write_idx >= 0]] = True
    if zero_col is not None:
        written[zero_col] = True
    if not written.all():
        t_miss = float(times[np.argmin(written)])
        raise NumericalError(f"OU fine partition has no boundary at grid time t={t_miss!r}")
    return decay, diffuse, durations * signs, write_idx, zero_col


def ou_dephasing_factors(
    p: StaticNoiseParams, times, trajectories: int, seed: int, threads: int = 1
) -> DephasingEstimate:
    """Monte-Carlo dephasing factors for Ornstein-Uhlenbeck noise on an
    ascending time grid (exact conditional updates, midpoint phase rule)."""
    if p.is_static:
        raise ValueError("ou_dephasing_factors requires a finite correlation_time")
    if trajectories < OU_MIN_TRAJECTORIES:
        raise ValueError(f"trajectories={trajectories} below the minimum of {OU_MIN_TRAJECTORIES}")
    times = np.asarray(times, dtype=float).reshape(-1)
    if times.size == 0 or np.any(np.diff(times) <= 0.0) or times[0] < 0.0:
        raise ValueError("times must be a nonempty strictly increasing nonnegative grid")
    if times[-1] == 0.0:  # the grid is {0}: no phase accrues and the partition is empty
        return DephasingEstimate(np.ones(1, dtype=complex), np.zeros(1), trajectories)
    decay, diffuse, dur_sign, write_idx, zero_col = _ou_partition(p, times)
    sizes = _batch_sizes(trajectories)
    streams = np.random.SeedSequence(seed).spawn(len(sizes))

    def work(i):
        rng = np.random.default_rng(streams[i])
        normals = rng.standard_normal((sizes[i], dur_sign.size))
        theta = kernels.ou_phases(normals, decay, diffuse, dur_sign, write_idx, times.size)
        if zero_col is not None:
            theta[:, zero_col] = 0.0
        return _phase_partials(theta)

    return _combine_phase_partials(_map_ordered(work, len(sizes), threads))


def ou_noise_state(
    bell_input: str, p: StaticNoiseParams, t: float, trajectories: int, seed: int,
    threads: int = 1,
) -> DensityOperator:
    """Trajectory-averaged state for a Bell input under Ornstein-Uhlenbeck
    dephasing; deterministic for a fixed seed."""
    est = ou_dephasing_factors(p, [t], trajectories, seed, threads)
    psi0 = bell_state(bell_input)
    _, echoed = _echo_effective_duration(p, t)
    return dephased_state(
        DensityOperator(np.outer(psi0, psi0.conj()), (2, 2)), est.factors[0], echoed
    )


# ---------------------------------------------------------------------------
# random telegraph noise
# ---------------------------------------------------------------------------


def rtn_coherence(p: RTNParams, t):
    """Single-qubit coherence q(t) under telegraph dephasing.

    Below the crossover (g < 1) the decay is hyperbolic,
    exp(-gamma t) [cosh(d t) + (gamma/d) sinh(d t)] with d = sqrt(gamma^2 - v^2);
    above it (g > 1) the analytic continuation oscillates with
    mu = sqrt(v^2 - gamma^2); at g = 1 it is exp(-gamma t)(1 + gamma t).

    The hyperbolic form overflows (inf * 0 = NaN) once d t passes ~710, so it
    is evaluated as 1/2 (1 + gamma/d) e^{-(gamma-d)t} + 1/2 (1 - gamma/d) e^{-(gamma+d)t}
    = e^{-(gamma-d)t} [1 + 1/2 (1 - gamma/d) expm1(-2 d t)], gamma - d = v^2/(gamma + d),
    which stays finite and does not cancel as d -> 0 near the crossover. No rate
    or coupling is squared: d = gamma sqrt((gamma-v)/gamma (1 + v/gamma)) and
    v^2/(gamma + d) = v (v/gamma) / (1 + d/gamma) stay finite for any finite
    gamma and v (likewise mu), where gamma^2 overflows beyond ~1e154.
    """
    t = np.asarray(t, dtype=float)
    gamma, v = p.rate, p.coupling
    if np.isclose(v, gamma, rtol=1e-12, atol=0.0):
        q = np.exp(-gamma * t) * (1.0 + gamma * t)
    elif v < gamma:
        x = v / gamma
        r = math.sqrt((gamma - v) / gamma * (1.0 + x))  # d / gamma
        d = gamma * r
        q = np.exp(-(v * x / (1.0 + r)) * t) * (1.0 + 0.5 * (1.0 - 1.0 / r) * np.expm1(-2.0 * d * t))
    else:
        r = math.sqrt((v - gamma) / v * (1.0 + gamma / v))  # mu / v
        mu = v * r
        q = np.exp(-gamma * t) * (np.cos(mu * t) + (gamma / mu) * np.sin(mu * t))
    return float(q) if q.ndim == 0 else q


def rtn_mc_coherence_grid(
    p: RTNParams, times, trajectories: int, seed: int, threads: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo q(t) on an ascending grid: mean of cos(v * int_0^t xi) over
    telegraph trajectories (exponential inter-switch times at ``rate``,
    equiprobable initial sign). Returns (means, standard errors)."""
    if trajectories < 10_000:
        raise ValueError(f"trajectories={trajectories} below the minimum of 10000")
    times = np.asarray(times, dtype=float).reshape(-1)
    if times.size == 0 or np.any(np.diff(times) <= 0.0) or times[0] < 0.0:
        raise ValueError("times must be a nonempty strictly increasing nonnegative grid")
    t_max = float(times[-1])
    mean_flips = p.rate * t_max
    cap = int(np.ceil(mean_flips + 12.0 * np.sqrt(mean_flips) + 25.0))
    sizes = _batch_sizes(trajectories)
    streams = np.random.SeedSequence(seed).spawn(len(sizes))

    def work(i):
        rng = np.random.default_rng(streams[i])
        b = sizes[i]
        xi0 = rng.integers(0, 2, size=b) * 2.0 - 1.0
        switches = np.cumsum(rng.exponential(1.0 / p.rate, size=(b, cap)), axis=1)
        while switches[:, -1].min() <= t_max:  # pragma: no cover - ~1e-12 probability
            extra = np.cumsum(rng.exponential(1.0 / p.rate, size=(b, cap)), axis=1)
            switches = np.concatenate([switches, switches[:, -1:] + extra], axis=1)
        integrals = kernels.rtn_integrals(switches, times)
        c = np.cos(p.coupling * integrals * xi0[:, None])
        return c.sum(axis=0), (c * c).sum(axis=0), b

    parts = _map_ordered(work, len(sizes), threads)
    s1 = sum(q[0] for q in parts)
    s2 = sum(q[1] for q in parts)
    n = sum(q[2] for q in parts)
    mean = s1 / n
    var = np.maximum(0.0, (s2 - n * mean**2) / (n - 1))
    return mean, np.sqrt(var / n)


def rtn_mc_coherence(
    p: RTNParams, t: float, trajectories: int, seed: int, threads: int = 1
) -> tuple[float, float]:
    """Monte-Carlo q(t) at a single time, with its standard error."""
    if t == 0.0:
        return 1.0, 0.0
    mean, se = rtn_mc_coherence_grid(p, [t], trajectories, seed, threads)
    return float(mean[0]), float(se[0])


def rtn_concurrence(ewl: EWLParams, p: RTNParams, t):
    """Closed-form concurrence max{0, 2K(t)} of an extended Werner-like input
    under telegraph dephasing, K = r|a|b|q(t)| - (1-r)/4 (same for both
    excitation kinds)."""
    q = np.abs(rtn_coherence(p, t))
    k = ewl.r * abs(ewl.a) * ewl.b * q - (1.0 - ewl.r) / 4.0
    c = np.maximum(0.0, 2.0 * k)
    return float(c) if np.ndim(c) == 0 else c


def rtn_evolved_state(ewl: EWLParams, p: RTNParams, t) -> DensityOperator:
    """Evolved extended Werner-like state under telegraph dephasing of qubit B
    (a stack with one state per time when ``t`` is an array)."""
    return dephased_state(ewl_state(ewl), rtn_coherence(p, t))


# ---------------------------------------------------------------------------
# stroboscopic liquid-crystal-style dephasing channel
# ---------------------------------------------------------------------------


def stroboscopic_coherences(p, threads: int = 1):
    """Per-step dephasing factors <exp(-i Theta_k)> averaged over AR(1) phase
    sequences, Theta_k the accumulated (echo-sign-corrected) phase after step k.

    ``p`` is one StroboscopicParams (returns its DephasingEstimate) or a
    sequence of them sharing seed, sequences and steps (returns a list, one
    estimate per set). Each batch draws its normals once and runs every set's
    chain on them, so each estimate equals that of its set alone, bit for bit.
    """
    ps = [p] if isinstance(p, StroboscopicParams) else list(p)
    if not ps:
        raise ValueError("need at least one parameter set")
    first = ps[0]
    if any((q.seed, q.sequences, q.steps) != (first.seed, first.sequences, first.steps) for q in ps):
        raise ValueError("parameter sets must share seed, sequences and steps")
    chains = []
    for q in ps:
        mu, sigma = q.autocorrelation, q.phase_sigma
        signs = np.ones(q.steps)
        if q.echo_after_step is not None:
            signs[q.echo_after_step:] = -1.0
        chains.append((mu, sigma, sigma * np.sqrt(1.0 - mu * mu), signs))
    sizes = _batch_sizes(first.sequences)
    streams = np.random.SeedSequence(first.seed).spawn(len(sizes))

    def work(i):
        rng = np.random.default_rng(streams[i])
        z = rng.standard_normal((sizes[i], first.steps))
        partials = []
        for mu, sigma, innov, signs in chains:
            x = np.empty_like(z)
            x[:, 0] = sigma * z[:, 0]
            for k in range(1, first.steps):
                x[:, k] = mu * x[:, k - 1] + innov * z[:, k]
            partials.append(_phase_partials(np.cumsum(x * signs, axis=1)))
        return partials

    batches = _map_ordered(work, len(sizes), threads)
    estimates = [_combine_phase_partials([b[v] for b in batches]) for v in range(len(ps))]
    return estimates[0] if isinstance(p, StroboscopicParams) else estimates


def stroboscopic_state(bell_input: str, p: StroboscopicParams, step: int) -> DensityOperator:
    """Sequence-averaged state after ``step`` dephasing steps (1-based)."""
    if not 1 <= step <= p.steps:
        raise ValueError(f"step={step} outside 1..{p.steps}")
    est = stroboscopic_coherences(p)
    psi0 = bell_state(bell_input)
    echoed = p.echo_after_step is not None and step > p.echo_after_step
    return dephased_state(
        DensityOperator(np.outer(psi0, psi0.conj()), (2, 2)), est.factors[step - 1], echoed
    )
