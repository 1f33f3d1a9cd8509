"""Classical-noise channels acting on qubit B of a two-qubit pair.

Four models: the two-phase random driving field (with optional Gaussian
broadening of the Rabi frequency), Ornstein-Uhlenbeck dephasing with an
optional echo pulse (quasi-static at an infinite correlation time, by the same
law ``ou_phase_variance``), random telegraph noise, and the four-step
stroboscopic dephasing channel.
All have one shape, a random phase about a Pauli axis P of qubit B: its
average is the one-Pauli channel rho -> ((1 + f) rho + (1 - f) P rho P)/2 by a
closed-form factor f(t) (``apply_b_dephasing``), the phase flip (P = sigma_z)
for the noises and the bit flip (P = sigma_x) for the field. The Monte-Carlo
path samplers (``*_mc_*``) and the Gauss-Hermite ensembles are oracles that
check them.

Conventions used throughout:

* Local sigma_z free-Hamiltonian terms are dropped (rotating frame); every
  measure computed downstream is invariant under those local unitaries.
* The echo pulse is an instantaneous sigma_x inserted between propagation
  segments.
* Every Monte-Carlo oracle estimates its factor as the mean of cos theta over
  its trajectories, with the standard error of that mean (``_mean_and_se``):
  each phase theta is symmetric about 0, so E[sin theta] = 0 and
  E[exp(-i theta)] = E[cos theta]. Trajectories are partitioned into
  fixed-size batches; batch b draws from an independent stream spawned from
  the seed, and batch sums are reduced in batch order, so results are
  independent of the thread count used to evaluate them.
* The telegraph oracle draws each trajectory's flip count and flip times and
  sums its cosines once per flip, not once per (trajectory, time), so its
  work grows with the flips plus the grid times (``_rtn_cos_sums``). Each
  flip finds its grid bin, the first grid time at or after it, in a table of
  equal cells of the grid built once per call: it starts at the count of
  grid times below its cell and steps over those of its cell below it, which
  gives the integer np.searchsorted gives (``_grid_bins``).
"""
from __future__ import annotations

import functools
import math
import threading

import numpy as np

from .linalg import DensityOperator, EYE2, SIGMA_X, SIGMA_Z
from .measures import WeightedPureEnsemble
from .records import Record
from .states import EWLParams

MC_BATCH = 2048
RNG_DESCRIPTION = "numpy-pcg64; SeedSequence.spawn per fixed-size trajectory batch"

FIELD_PHASES = (np.pi / 2.0, -np.pi / 2.0)


# ---------------------------------------------------------------------------
# parameter types
# ---------------------------------------------------------------------------


class RandomFieldParams(Record):
    """Two-phase random driving field: central Rabi frequency and Gaussian width."""

    def __init__(self, rabi: float, width: float = 0.0):
        vars(self).update(rabi=rabi, width=width)
        self.__post_init__()

    def __post_init__(self):
        if self.rabi <= 0.0:
            raise ValueError(f"rabi={self.rabi} must be > 0")
        if self.width < 0.0:
            raise ValueError(f"width={self.width} must be >= 0")


class StaticNoiseParams(Record):
    """Longitudinal Gaussian dephasing noise of strength sigma.

    ``correlation_time`` = inf selects the quasi-static regime; a finite value
    selects Ornstein-Uhlenbeck noise; ou_phase_variance gives the phase variance of both.
    ``echo_time`` schedules an instantaneous sigma_x pulse.
    """

    def __init__(self, sigma: float, echo_time: float | None = None, correlation_time: float = math.inf):
        vars(self).update(sigma=sigma, echo_time=echo_time, correlation_time=correlation_time)
        self.__post_init__()

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


class RTNParams(Record):
    """Random telegraph noise: switching rate gamma and coupling v.

    The telegraph signal flips sign at Poisson rate ``rate`` (autocorrelation
    exp(-2*rate*t)); g = coupling/rate marks the motional-narrowing crossover
    at g = 1. Zero coupling is the trivial noise-free edge.
    """

    def __init__(self, rate: float, coupling: float):
        vars(self).update(rate=rate, coupling=coupling)
        self.__post_init__()

    def __post_init__(self):
        if self.rate <= 0.0:
            raise ValueError(f"rate={self.rate} must be > 0")
        if self.coupling < 0.0:
            raise ValueError(f"coupling={self.coupling} must be >= 0")

    @property
    def g(self) -> float:
        return self.coupling / self.rate


class StroboscopicParams(Record):
    """Four-step stroboscopic dephasing with AR(1)-correlated Gaussian phases.

    Each step applies diag(1, exp(i x_k)) to qubit B; the x_k form a
    stationary Gaussian chain with variance phase_sigma^2 and lag-1
    autocorrelation ``autocorrelation``. Phases are not clamped to any
    hardware range. An optional bit flip is inserted after
    ``echo_after_step``.
    """

    steps = 4

    def __init__(self, phase_sigma: float, autocorrelation: float, echo_after_step: int | None = None):
        vars(self).update(phase_sigma=phase_sigma, autocorrelation=autocorrelation, echo_after_step=echo_after_step)
        self.__post_init__()

    def __post_init__(self):
        if self.phase_sigma < 0.0:
            raise ValueError(f"phase_sigma={self.phase_sigma} must be >= 0")
        if not 0.0 <= self.autocorrelation <= 1.0:
            raise ValueError(f"autocorrelation={self.autocorrelation} outside [0, 1]")
        if self.echo_after_step is not None and not 1 <= self.echo_after_step < self.steps:
            raise ValueError(
                f"echo_after_step={self.echo_after_step} must lie in [1, {self.steps - 1}]"
            )


# ---------------------------------------------------------------------------
# random external field
# ---------------------------------------------------------------------------


def field_unitary(phase: float, rabi, t) -> np.ndarray:
    """Driving-field propagator [[cos, e^{-i phase} sin], [-e^{i phase} sin, cos]]
    with half-angle rabi*t/2, in the basis {|0>, |1>}; arrays ``rabi`` and ``t``
    broadcast to a (..., 2, 2) stack, one propagator per pair."""
    half = 0.5 * np.asarray(rabi, dtype=float) * t
    c, s = np.cos(half), np.sin(half)
    out = np.empty(np.shape(half) + (2, 2), dtype=complex)
    out[..., 0, 0] = c
    out[..., 1, 1] = c
    out[..., 0, 1] = np.exp(-1j * phase) * s
    out[..., 1, 0] = -np.exp(1j * phase) * s
    return out


@functools.lru_cache(maxsize=8)
def _gh_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights normalized against exp(-x^2)/sqrt(pi).

    Only the discrete ensembles (RandomUnitaryChannel.gaussian_field,
    random_field_ensemble, static_noise_ensemble) use them; the averaged channels
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


class RandomUnitaryChannel(Record):
    """Weighted finite mixture of unitaries acting on qubit B of a two-qubit
    pair: rho -> sum_k w_k (1 (x) U_k) rho (1 (x) U_k)^dag."""

    def __init__(self, weights: np.ndarray, unitaries: np.ndarray):  # unitaries (n, 2, 2)
        vars(self).update(weights=weights, unitaries=unitaries)
        self.__post_init__()

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
            us[j::2] = field_unitary(ph, omegas, t)
            weights[j::2] = 0.5 * w
        return RandomUnitaryChannel(weights, us)


def field_factors(p: RandomFieldParams, times) -> np.ndarray:
    """E[exp(-i Omega t)] = exp(-width^2 t^2) (cos(rabi t) - i sin(rabi t)) at
    every time of ``times``, over the Rabi frequency Omega ~ N(rabi, 2 width^2).

    Phase FIELD_PHASES[e] turns qubit B about -/+ x by Omega t: its |+><-|_B
    coherences pick up this factor (e = 0) or its conjugate (e = 1), and the
    two-phase mixture the real part."""
    times = np.asarray(times, dtype=float).reshape(-1)
    with np.errstate(over="ignore"):  # exp(-inf) = 0 is the limit
        damp = np.exp(-((p.width * times) ** 2))
    theta = p.rabi * times
    return damp * (np.cos(theta) - 1j * np.sin(theta))


def field_channel(rho0: DensityOperator, p: RandomFieldParams, times) -> DensityOperator:
    """The two-qubit field channel applied to ``rho0`` at every time of
    ``times``: a (T, 4, 4) DensityOperator stack, the bit flip of qubit B
    (dephasing about sigma_x) by the real part of field_factors."""
    return dephased_state(rho0, field_factors(p, times).real, axis=SIGMA_X)


def random_field_ensemble(
    psi0: np.ndarray, p: RandomFieldParams, t: float, order: int = 64
) -> WeightedPureEnsemble:
    """Pure-state ensemble generated by the field channel from a pure input,
    over ``order`` Gauss-Hermite nodes of the Rabi frequency when the width is
    nonzero; its mixture approximates field_channel's closed form."""
    if p.width == 0.0:
        ch = RandomUnitaryChannel.two_phase(p.rabi, t)
    else:
        ch = RandomUnitaryChannel.gaussian_field(p.rabi, p.width, t, order)
    return ch.pure_ensemble(psi0)


# ---------------------------------------------------------------------------
# dephasing of qubit B, the one shape of every channel
# ---------------------------------------------------------------------------

_X4 = np.kron(EYE2, SIGMA_X)


def apply_b_dephasing(mat4: np.ndarray, factor, echoed=False, axis=SIGMA_Z) -> np.ndarray:
    """Dephasing of qubit B about the Pauli ``axis`` P: the coherences from its
    +1 to its -1 eigenstate pick up ``factor`` f (|f| <= 1), followed by a
    sigma_x on B when ``echoed``. Arrays of factors and echo flags give a
    (..., 4, 4) stack, one matrix per factor.

    With rho_s, rho_a = (rho +/- P rho P)/2 on B, the output is
    rho_s + Re f rho_a - i Im f rho_a P; for a real f, the one-Pauli channel
    ((1 + f) rho + (1 - f) P rho P)/2."""
    p4 = np.zeros((4, 4), dtype=complex)
    p4[:2, :2] = p4[2:, 2:] = axis  # 1 (x) P
    flipped = p4 @ mat4 @ p4
    sym, anti = 0.5 * (mat4 + flipped), 0.5 * (mat4 - flipped)
    factor = np.asarray(factor)
    out = factor.real[..., None, None] * anti
    out += sym
    if np.iscomplexobj(factor):
        out -= (1j * factor.imag)[..., None, None] * (anti @ p4)
    echoed = np.asarray(echoed)
    if echoed.any():
        out = np.where(echoed[..., None, None], _X4 @ out @ _X4, out)
    return out


def dephased_state(rho0: DensityOperator, factor, echoed=False, axis=SIGMA_Z) -> DensityOperator:
    return DensityOperator(apply_b_dephasing(rho0.matrix, factor, echoed, axis), (2, 2))


def _batch_sizes(n: int) -> list[int]:
    sizes = [MC_BATCH] * (n // MC_BATCH)
    if n % MC_BATCH:
        sizes.append(n % MC_BATCH)
    return sizes


def _map_ordered(fn, n_batches: int, threads: int) -> list:
    """``[fn(i) for i in range(n_batches)]``, run on this thread and up to
    ``threads - 1`` worker threads, each taking the lowest batch not yet
    taken. Once a batch has failed no batch starts; when every thread has
    stopped, the exception of the lowest failing batch is raised. Every batch
    below a taken one was taken before it and runs, so which exception that
    is does not depend on the thread count."""
    results, errors = [None] * n_batches, {}
    pending, lock = iter(range(n_batches)), threading.Lock()

    def work():
        while not errors:
            with lock:
                i = next(pending, None)
            if i is None:
                return
            try:
                results[i] = fn(i)
            except Exception as exc:
                errors[i] = exc

    workers = [threading.Thread(target=work) for _ in range(min(threads, n_batches) - 1)]
    for worker in workers:
        worker.start()
    try:
        work()
    finally:
        with lock:  # so that no worker starts a batch, if this thread was interrupted
            for _ in pending:
                pass
        for worker in workers:
            worker.join()
    if errors:
        raise errors[min(errors)]
    return results


def _mc_batches(seed: int, trajectories: int, threads: int, draw) -> list:
    """``draw(rng, size)`` of each fixed-size batch of ``trajectories``, in batch
    order; batch i draws from the i-th stream spawned from ``seed``. A standard
    error needs at least two trajectories."""
    if trajectories < 2:
        raise ValueError(f"trajectories={trajectories} must be >= 2")
    sizes = _batch_sizes(trajectories)
    streams = np.random.SeedSequence(seed).spawn(len(sizes))

    def work(i):
        return draw(np.random.default_rng(streams[i]), sizes[i])

    return _map_ordered(work, len(sizes), threads)


def _mean_and_se(parts: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """The mean of cos theta over every trajectory and its standard error, from
    each batch's (sum of cos theta, sum of cos^2 theta, trajectories), summed
    in batch order."""
    s1 = sum(q[0] for q in parts)
    s2 = sum(q[1] for q in parts)
    n = sum(q[2] for q in parts)
    mean = s1 / n
    var = np.maximum(0.0, (s2 - n * mean**2) / (n - 1))
    return mean, np.sqrt(var / n)


# ---------------------------------------------------------------------------
# quasi-static Gaussian dephasing with echo: the node-ensemble oracle
# ---------------------------------------------------------------------------


def _echo_effective_duration(p: StaticNoiseParams, t):
    """Signed duration multiplying the static noise value, and the echo flag,
    as arrays over ``t``."""
    t = np.asarray(t, dtype=float)
    if p.echo_time is None:
        return t, np.zeros(t.shape, dtype=bool)
    echoed = t > p.echo_time
    # tbar - (t - tbar), not 2 tbar - t, which overflows for tbar > max/2; the
    # two agree bit for bit wherever t <= 2 tbar, where t - tbar is exact
    return np.where(echoed, p.echo_time - (t - p.echo_time), t), echoed


def static_noise_ensemble(
    psi0: np.ndarray, p: StaticNoiseParams, t: float, order: int = 64
) -> WeightedPureEnsemble:
    """Pure-state ensemble over ``order`` Gauss-Hermite nodes of the noise
    amplitude generated from a pure input under quasi-static dephasing (with
    the echo pulse applied at echo_time if set); its mixture approximates the
    state dephased by the closed form exp(-ou_phase_variance / 2) at tau = inf."""
    if not p.is_static:
        raise ValueError("static_noise_ensemble requires correlation_time = inf")
    psi0 = np.asarray(psi0, dtype=complex).reshape(2, 2)  # (A, B) components
    u, echoed = _echo_effective_duration(p, t)
    x, w = _gh_nodes(order)
    thetas = np.sqrt(2.0) * p.sigma * x * u
    # member k is (1 (x) diag(e^{-i theta_k/2}, e^{i theta_k/2})) |psi0>, then the
    # echo's sigma_x on B swaps the B components
    members = psi0 * np.exp(np.multiply.outer(thetas, [-0.5j, 0.5j]))[:, None, :]
    if echoed:
        members = members[..., ::-1]
    return WeightedPureEnsemble(w, members.reshape(order, 4))


# ---------------------------------------------------------------------------
# Ornstein-Uhlenbeck dephasing, quasi-static at correlation_time = inf
# ---------------------------------------------------------------------------

# Below this duration t / tau ou_phase_variance sums the Taylor series; its
# terms up to _OU_SERIES_TERMS leave a relative truncation error below 1e-20,
# while the closed form loses about eps / (t / tau).
_OU_SERIES_LIMIT = 0.25
_OU_SERIES_TERMS = 16


def _g_over(y):
    """g(y) / y, g(y) = y - 1 + e^{-y}, rising from 0 at y = 0 to 1 at y = inf."""
    with np.errstate(invalid="ignore"):  # 0 / 0 at y = 0, replaced below
        ratio = 1.0 + np.expm1(-y) / y
    return np.where(y > 0.0, ratio, 0.0)


def ou_phase_variance(p: StaticNoiseParams, t):
    """Exact variance of the accumulated phase theta(t) under Ornstein-Uhlenbeck
    noise (autocorrelation sigma^2 exp(-|s - s'|/tau)), with the sign flip of
    the sigma_x echo pulse at echo_time. Quasi-static noise is its tau = inf
    limit: there x = 0, so Var = sigma^2 u^2 exactly, u = t before the pulse
    and 2 tbar - t after it (the echo-refocused duration).

    Without a pulse (or for t <= echo_time) this is the free variance
    F(t) = 2 sigma^2 tau^2 g(t/tau), g(x) = x - 1 + e^{-x}. After a pulse at
    tbar the phase is A - B, A and B the integrals before and after it, so
    Var = F(tbar) + F(t - tbar) - 2 sigma^2 tau^2 (1 - e^{-tbar/tau})(1 - e^{-(t-tbar)/tau})
        = 2 sigma^2 tau^2 [2 g(a) + 2 g(b) - g(a + b)],  a = tbar/tau, b = (t - tbar)/tau.
    At t = 2 tbar this is sigma^2 tau^2 [4x - 6 + 8 e^{-x} - 2 e^{-2x}], x = tbar/tau,
    whose leading order as tau -> inf is 4 sigma^2 tbar^3 / (3 tau).

    It is evaluated as (sigma t sqrt(Q))^2 with the bounded shape factor
    Q = Var / (sigma t)^2 of u = min(t, tbar)/t, w = 1 - u and x = t/tau, so
    neither sigma nor tau is squared on its own and no product of an overflowed
    and a vanishing factor arises: a Var beyond the float range is inf, a
    vanishing one 0. For x at or above _OU_SERIES_LIMIT,
    Q = 2 [2 u g(a)/a + 2 w g(b)/b - g(x)/x] / x; below it the bracket cancels
    to third order and Q is its Taylor series
    (u - w)^2 + 2 sum_{n>=3} (-1)^n x^(n-2) [2 (u^n + w^n) - 1] / n!,
    summed only when some x is positive: at x = 0 it is (u - w)^2. Where x
    overflows, Var = 2 sigma^2 tau t B, B = 2 u g(a)/a + 2 w g(b)/b - 1 = x Q / 2.
    Returns a float for scalar t, an array otherwise.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("times must be nonnegative")
    tau = p.correlation_time
    tbar = math.inf if p.echo_time is None else p.echo_time
    before, after = np.minimum(t, tbar), np.maximum(t - tbar, 0.0)
    t_safe = np.where(t > 0.0, t, 1.0)  # t = 0 gives u = w = 0, x = 0: Var = 0
    u, w = before / t_safe, after / t_safe
    with np.errstate(over="ignore"):  # t / tau beyond the float range is inf
        x, a, b = t / tau, before / tau, after / tau
    small = x < _OU_SERIES_LIMIT
    sx, su, sw = np.where(small, x, 0.0), np.where(small, u, 0.0), np.where(small, w, 0.0)
    series = (su - sw) ** 2
    if sx.any():  # at x = 0 (t = 0 or tau = inf) every further term is 0
        coeff = 1.0  # 2 (-1)^n / n!
        for n in range(3, _OU_SERIES_TERMS + 1):
            coeff /= -n
            series = series + coeff * sx ** (n - 2) * (2.0 * (su**n + sw**n) - 1.0)
    q = series
    if not small.all():  # the closed form, only where some point takes it
        x_safe = np.where(small, 1.0, x)
        closed = 2.0 * (2.0 * u * _g_over(a) + 2.0 * w * _g_over(b) - _g_over(x_safe)) / x_safe
        q = np.where(small, series, closed)
    q = np.maximum(q, 0.0)
    with np.errstate(over="ignore"):  # a variance beyond the float range is inf
        var = (p.sigma * (t * np.sqrt(q))) ** 2
        beyond = np.isinf(x)
        if beyond.any():  # where Q = 2 [...] / x underflows to 0
            bracket = 2.0 * u * _g_over(a) + 2.0 * w * _g_over(b) - 1.0
            var = np.where(beyond, p.sigma * (p.sigma * (2.0 * (tau * t) * bracket)), var)
    return float(var) if var.ndim == 0 else var


def _ou_update(p: StaticNoiseParams, dt: np.ndarray):
    """Gillespie's exact update of the OU value X and its integral Y over steps
    ``dt`` (Phys. Rev. E 54, 2084 (1996)), from two standard normals n1, n2:
    X' = mu X + sd_x n1,  Y' = Y + drift X + cross n1 + cond n2,
    with mu = e^{-dt/tau}, sd_x^2 = sigma^2 (1 - mu^2), drift = tau (1 - mu),
    cross = Cov(X', Y' | X) / sd_x = sigma tau (1 - mu)^{3/2} / sqrt(1 + mu) and
    cond^2 = Var(Y' | X, X') = 2 sigma^2 tau^2 (x - 2 tanh(x/2)), x = dt/tau,
    whose cancellation at small x is replaced by its series x^3/12 - x^5/120 +
    17 x^7/20160."""
    tau, sigma = p.correlation_time, p.sigma
    x = dt / tau
    em = -np.expm1(-x)  # 1 - mu
    rest = np.where(x < 1e-2, x**3 / 12.0 - x**5 / 120.0 + 17.0 * x**7 / 20160.0,
                    x - 2.0 * np.tanh(0.5 * x))
    return (1.0 - em, sigma * np.sqrt(em * (2.0 - em)), tau * em,
            sigma * tau * em * np.sqrt(em / (2.0 - em)), sigma * tau * np.sqrt(2.0 * np.maximum(rest, 0.0)))


def _check_grid(times) -> np.ndarray:
    times = np.asarray(times, dtype=float).reshape(-1)
    # np.diff(times) <= 0 is False at a NaN, so finiteness is its own check
    if times.size == 0 or not np.all(np.isfinite(times)) or np.any(np.diff(times) <= 0.0) or times[0] < 0.0:
        raise ValueError("times must be a nonempty strictly increasing nonnegative finite grid")
    return times


def ou_mc_dephasing_factors(
    p: StaticNoiseParams, times, trajectories: int, seed: int, threads: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo oracle of exp(-ou_phase_variance / 2): the mean of
    cos theta(t) over stationary OU paths on an ascending grid, stepped
    exactly (_ou_update) from one anchor to the next (0, the grid times and the
    echo time), so no step size biases it. Returns (means, standard errors)."""
    if p.is_static:
        raise ValueError("ou_mc_dephasing_factors requires a finite correlation_time")
    times = _check_grid(times)
    echo = math.inf if p.echo_time is None else p.echo_time
    anchors = np.unique(np.concatenate([[0.0], times, [echo] if echo < times[-1] else []]))
    mu, sd_x, drift, cross, cond = _ou_update(p, np.diff(anchors))
    signs = np.where(anchors[1:] <= echo, 1.0, -1.0)
    cols = np.searchsorted(anchors, times)

    def draw(rng, size):
        normals = rng.standard_normal((size, 2 * anchors.size - 1))
        x = p.sigma * normals[:, 0]  # stationary start
        theta = np.zeros((size, anchors.size))
        for k in range(anchors.size - 1):
            n1, n2 = normals[:, 2 * k + 1], normals[:, 2 * k + 2]
            theta[:, k + 1] = theta[:, k] + signs[k] * (drift[k] * x + cross[k] * n1 + cond[k] * n2)
            x = mu[k] * x + sd_x[k] * n1
        cos = np.cos(theta[:, cols])
        return cos.sum(0), (cos * cos).sum(0), size

    return _mean_and_se(_mc_batches(seed, trajectories, threads, draw))


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
    # q is 0 where exp(-gamma t) underflows (the brackets are 1 + gamma t and at
    # most sqrt(1 + (gamma/mu)^2)), though there gamma t or mu t may be inf
    with np.errstate(over="ignore", invalid="ignore"):
        damp = np.exp(-gamma * t)
        # the crossover form only at the crossover itself: next to it the other
        # two forms are the more accurate (a snap within 1e-12 was 6e-10 off)
        if v == gamma:
            q = np.where(damp > 0.0, damp * (1.0 + gamma * t), 0.0)
        elif v < gamma:
            x = v / gamma
            r = math.sqrt((gamma - v) / gamma * (1.0 + x))  # d / gamma
            d = gamma * r
            q = np.exp(-(v * x / (1.0 + r)) * t) * (1.0 + 0.5 * (1.0 - 1.0 / r) * np.expm1(-2.0 * d * t))
        else:
            r = math.sqrt((v - gamma) / v * (1.0 + gamma / v))  # mu / v
            mu = v * r
            q = np.where(damp > 0.0, damp * (np.cos(mu * t) + (gamma / mu) * np.sin(mu * t)), 0.0)
    return float(q) if q.ndim == 0 else q


# compare passes per key (one on a uniform grid) beyond which _grid_bins hands
# the grid to np.searchsorted: on a batch of 16 000 flips (2-vCPU Xeon VM) each
# pass adds about 25 us to a 66 us lookup, against about 430 us for
# np.searchsorted, so eight passes still take about half as long
_MAX_BIN_PASSES = 8


def _grid_bins(times):
    """The function x -> np.searchsorted(times, x), integer for integer, for an
    ascending grid: the number of grid times below each key.

    [times[0], times[-1]] is cut into 2 len(times) equal cells, and keys and grid
    times go to cells by one formula, clip((x - times[0]) * scale). It is
    monotone in x even in floating point (a correctly rounded difference or
    product by a positive number keeps the order of its inputs), so the grid
    times in cells below a key's cell are below the key and those in cells above
    it above: only the grid times of its own cell are left open. A key starts at
    the count below its cell and takes one compare-and-step pass per grid time
    of the fullest cell (one pass on a uniform grid, whose cells hold at most one
    time each). A grid of zero span, such as the one-point grid [t], or one that
    crowds more than _MAX_BIN_PASSES times into a cell is searched with
    np.searchsorted instead.
    """
    n_cells = 2 * times.size
    span = float(times[-1] - times[0])
    scale = n_cells / span if span > 0.0 else 0.0
    if not 0.0 < scale < math.inf:
        return functools.partial(np.searchsorted, times)

    def cells(x):
        with np.errstate(over="ignore"):  # far keys scale to +/-inf and are clipped
            return np.clip((x - times[0]) * scale, 0, n_cells - 1).astype(np.intp)

    grid_cells = cells(times)
    passes = int(np.bincount(grid_cells).max())
    if passes > _MAX_BIN_PASSES:
        return functools.partial(np.searchsorted, times)
    below = np.searchsorted(grid_cells, np.arange(n_cells))  # grid times in lower cells
    # the first grid time past a key's cell exceeds the key, so no key steps
    # past its cell; the appended inf stops keys at or beyond the last time
    capped = np.append(times, np.inf)

    def bins(x):
        k = below[cells(x)]
        for _ in range(passes):
            k += capped[k] < x
        return k

    return bins


def _rtn_cos_sums(flips, counts, times, coupling, grid_bins) -> tuple[np.ndarray, np.ndarray]:
    """Sums over trajectories of cos(v I(t)) and cos^2(v I(t)) at each grid
    time, I(t) = int_0^t xi the integral of a +/-1 telegraph signal that starts
    at +1 and flips at each of its row's times.

    ``flips`` holds the rows' flip times one row after another, each row
    ascending; ``counts`` the number of flips per row; ``times`` is ascending
    and ``grid_bins`` is ``_grid_bins(times)``.

    After m flips I(t) = q_m + sigma_m t, with sigma_m = (-1)^m and
    q_m = 2 (s_1 - s_2 + s_3 - ...) over the first m flips, so
    cos(v I) = cos(v q_m) cos(v t) - sigma_m sin(v q_m) sin(v t). The
    trajectory sums of (cos v q, sigma sin v q) start at (rows, 0); each flip
    changes them by its own step, and each step is binned at the first grid
    time at or after its flip, so a cumulative sum over the bins gives them at
    every grid time. cos^2 = (1 + cos 2vI) / 2 takes the same sums at the
    double angle. The work is O(flips + times), with no (rows, times) array.
    """
    n_rows, n_t = counts.size, times.size
    starts = np.cumsum(counts) - counts
    first = starts[counts > 0]  # each row's first flip
    # sigma_{m-1} of the m-th flip of a row, flip i of the batch, is
    # (-1)^(i - start) = (-1)^start (-1)^i; q by one cumulative sum over all
    # rows, restarted per row by subtracting its value where the row starts.
    # The arrays are reused in place, which changes no value.
    sign_before = np.repeat(1.0 - 2.0 * (starts & 1), counts)
    sign_before[1::2] *= -1.0
    partial = np.multiply(2.0, sign_before)
    partial *= flips
    np.cumsum(partial, out=partial)
    q = partial - np.repeat(np.concatenate([[0.0], partial])[starts], counts)
    q *= coupling
    c, s = np.cos(q), np.sin(q)
    s *= np.negative(sign_before, out=sign_before)  # sigma_m sin(v q_m)
    cos_2q = np.multiply(c, c, out=q)  # and at the double angle
    cos_2q -= np.square(s, out=sign_before)
    sin_2q = np.multiply(2.0, c, out=partial)
    sin_2q *= s
    # a flip after times[-1] lands in the extra bin n_t, which is dropped
    bins = grid_bins(flips)
    step = np.empty_like(flips)
    sums = []
    # one bincount per quantity, from its value before any flip
    for value, before in ((c, 1.0), (s, 0.0), (cos_2q, 1.0), (sin_2q, 0.0)):
        np.subtract(value[1:], value[:-1], out=step[1:])
        step[first] = value[first] - before
        binned = np.bincount(bins, step, minlength=n_t + 1)[:n_t]
        sums.append(n_rows * before + np.cumsum(binned))
    cos_q, sin_q, cos_2q, sin_2q = sums
    vt = coupling * times
    cos_sum = np.cos(vt) * cos_q - np.sin(vt) * sin_q
    cos2_sum = 0.5 * (n_rows + np.cos(2.0 * vt) * cos_2q - np.sin(2.0 * vt) * sin_2q)
    return cos_sum, cos2_sum


def rtn_mc_coherence_grid(
    p: RTNParams, times, trajectories: int, seed: int, threads: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo q(t) on an ascending grid: mean of cos(v * int_0^t xi) over
    telegraph trajectories. Returns (means, standard errors).

    Each trajectory draws its flip count on [0, t_max] from Poisson(rate t_max)
    and its flip times uniform on [0, t_max), sorted: given their count, the
    arrival times of a Poisson process are uniform order statistics, so this
    is the telegraph law of exponential inter-switch times at ``rate``. The
    initial sign is not drawn: cos is even, so it changes no value."""
    if trajectories < 10_000:
        raise ValueError(f"trajectories={trajectories} below the minimum of 10000")
    times = _check_grid(times)
    t_max = float(times[-1])
    grid_bins = _grid_bins(times)

    def draw(rng, b):
        counts = rng.poisson(p.rate * t_max, size=b)
        padded = np.full((b, counts.max()), np.inf)
        flat = padded.reshape(-1)
        filled = np.flatnonzero(np.arange(padded.shape[1]) < counts[:, None])  # row by row
        flat[filled] = rng.uniform(0.0, t_max, size=counts.sum())
        padded.sort(axis=1)
        return (*_rtn_cos_sums(flat[filled], counts, times, p.coupling, grid_bins), b)

    return _mean_and_se(_mc_batches(seed, trajectories, threads, draw))


def rtn_concurrence(ewl: EWLParams, p: RTNParams, t):
    """Closed-form concurrence max{0, 2K(t)} of an extended Werner-like input
    under telegraph dephasing, K = r|a|b|q(t)| - (1-r)/4 (same for both
    excitation kinds)."""
    q = np.abs(rtn_coherence(p, t))
    k = ewl.r * abs(ewl.a) * ewl.b * q - (1.0 - ewl.r) / 4.0
    c = np.maximum(0.0, 2.0 * k)
    return float(c) if np.ndim(c) == 0 else c


# ---------------------------------------------------------------------------
# stroboscopic liquid-crystal-style dephasing channel
# ---------------------------------------------------------------------------


def _echo_signs(p: StroboscopicParams) -> np.ndarray:
    """Sign of each step's phase: -1 after the bit flip."""
    return np.where(np.arange(p.steps) < (p.steps if p.echo_after_step is None else p.echo_after_step), 1.0, -1.0)


def stroboscopic_phase_variance(p: StroboscopicParams, steps) -> np.ndarray:
    """Exact variance of the accumulated phase Theta_k after each step count k
    of ``steps`` (integers in [0, p.steps]): Var = sigma^2 s^T M s over the
    first k steps, with M_ij = mu^|i-j| the AR(1) correlation and s the echo
    signs. It is evaluated as (sigma sqrt(s^T M s))^2, so a perfect refocusing
    (s^T M s = 0, as at mu = 1) gives 0 for any finite sigma and a variance
    beyond the float range gives inf."""
    steps = np.asarray(steps)
    if not (np.issubdtype(steps.dtype, np.integer) and np.all((steps >= 0) & (steps <= p.steps))):
        raise ValueError(f"steps must be integers in [0, {p.steps}]")
    s = _echo_signs(p)
    lags = np.abs(np.subtract.outer(np.arange(p.steps), np.arange(p.steps)))
    prefix = np.cumsum(np.cumsum(np.outer(s, s) * p.autocorrelation**lags, axis=0), axis=1)
    quad = np.maximum(np.concatenate([[0.0], np.diagonal(prefix)]), 0.0)  # s^T M s after k steps
    with np.errstate(over="ignore"):
        return (p.phase_sigma * np.sqrt(quad[steps])) ** 2


def stroboscopic_mc_dephasing_factors(
    p: StroboscopicParams, sequences: int, seed: int, threads: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo oracle of exp(-stroboscopic_phase_variance / 2) after steps
    1..p.steps: the mean of cos Theta_k over phase sequences drawn by the
    AR(1) recursion x_k = mu x_{k-1} + sigma sqrt(1 - mu^2) z_k from a
    stationary x_1 = sigma z_1. Returns (means, standard errors)."""
    mu, sigma = p.autocorrelation, p.phase_sigma
    innov = sigma * np.sqrt(1.0 - mu * mu)
    signs = _echo_signs(p)

    def draw(rng, size):
        z = rng.standard_normal((size, p.steps))
        x = np.empty_like(z)
        x[:, 0] = sigma * z[:, 0]
        for k in range(1, p.steps):
            x[:, k] = mu * x[:, k - 1] + innov * z[:, k]
        cos = np.cos(np.cumsum(x * signs, axis=1))
        return cos.sum(0), (cos * cos).sum(0), size

    return _mean_and_se(_mc_batches(seed, sequences, threads, draw))
