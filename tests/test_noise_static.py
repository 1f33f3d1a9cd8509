import numpy as np
import pytest

from qrevivals.linalg import DensityOperator, NumericalError
from qrevivals.measures import average_entanglement, concurrence, eof_from_concurrence
from qrevivals.noise import (
    _OU_SERIES_LIMIT,
    OU_MAX_STEPS,
    StaticNoiseParams,
    _echo_effective_duration,
    dephased_state,
    ou_dephasing_factors,
    ou_partition_steps,
    ou_phase_variance,
    static_dephasing_factors,
    static_noise_ensemble,
)
from qrevivals.states import bell_state


def bell_density(label):
    psi = bell_state(label)
    return DensityOperator(np.outer(psi, psi.conj()), (2, 2))


def static_states(label, p, times):
    """The quasi-static dephasing channel on a Bell input at every time of ``times``."""
    times = np.asarray(times, dtype=float)
    return dephased_state(bell_density(label), static_dephasing_factors(p, times),
                          _echo_effective_duration(p, times)[1])


def _graded_rule(lo, hi, scale, toward_hi=False):
    """Composite Gauss-Legendre rule on [lo, hi] whose panels start at width
    ``scale`` at one end and double away from it, so a boundary layer
    e^{-d/scale} at that end is resolved for any ratio of scale to hi - lo."""
    x, w = np.polynomial.legendre.leggauss(20)
    edges, width = [0.0], scale
    while edges[-1] + width < hi - lo:
        edges.append(edges[-1] + width)
        width *= 2.0
    edges.append(hi - lo)
    edges = np.asarray(edges)
    half = 0.5 * np.diff(edges)
    dist = ((edges[:-1] + half)[:, None] + half[:, None] * x).ravel()
    weights = (half[:, None] * w).ravel()
    return (hi - dist if toward_hi else lo + dist), weights


def ensemble_mixture(ens):
    """sum_k w_k |psi_k><psi_k| of a pure-state ensemble."""
    return np.einsum("k,ki,kj->ij", ens.weights, ens.states, ens.states.conj())


def ou_variance_by_quadrature(sigma, tau, t, tbar=np.inf):
    """sigma^2 times the double integral of s(u) s(v) e^{-|u-v|/tau} over
    [0, t]^2, s = +1 before the pulse at tbar and -1 after it.

    Each block of the sign pattern is integrated by a product of graded
    Gauss-Legendre rules; diagonal blocks as twice their v <= u triangle,
    so the kink at u = v lies on the boundary. e^{-r/tau} is split as
    1 + expm1(-r/tau): the constant integrates to (int s)^2 and only the rest
    is summed, so the sum does not cancel as tau -> inf.
    """
    kernel = lambda r: np.expm1(-r / tau)
    segments = [(0.0, min(t, tbar), 1.0)] + ([(tbar, t, -1.0)] if t > tbar else [])
    total = 0.0
    for i, (lo, hi, s_i) in enumerate(segments):
        us, wu = _graded_rule(lo, hi, tau)
        for u, w in zip(us, wu):
            vs, wv = _graded_rule(lo, u, tau, toward_hi=True)
            total += 2.0 * w * (wv @ kernel(u - vs))
        for lo_j, hi_j, s_j in segments[i + 1:]:
            us, wu = _graded_rule(lo, hi, tau, toward_hi=True)
            vs, wv = _graded_rule(lo_j, hi_j, tau)
            total += 2.0 * s_i * s_j * (wu @ kernel(vs[None, :] - us[:, None]) @ wv)
    signed_length = sum(s * (hi - lo) for lo, hi, s in segments)
    return sigma**2 * (signed_length**2 + total)


class TestStaticNoise:
    def test_gaussian_free_decay(self):
        p = StaticNoiseParams(sigma=1.0)
        times = np.linspace(0.0, 8.0, 33)
        cs = concurrence(static_states("2+", p, times))
        assert np.max(np.abs(cs - np.exp(-0.5 * times * times))) < 1e-8

    def test_echo_branch(self):
        p = StaticNoiseParams(sigma=1.0, echo_time=4.0)
        times = np.linspace(4.01, 8.0, 17)
        cs = concurrence(static_states("2+", p, times))
        assert np.max(np.abs(cs - np.exp(-0.5 * (times - 8.0) ** 2))) < 1e-8

    def test_full_recovery_at_twice_echo_time(self):
        p = StaticNoiseParams(sigma=1.0, echo_time=4.0)
        c = concurrence(static_states("2+", p, [8.0]))[0]
        assert abs(eof_from_concurrence(c) - 1.0) < 1e-6

    def test_average_entanglement_stays_one(self):
        p = StaticNoiseParams(sigma=1.0, echo_time=4.0)
        for t in (0.0, 2.0, 4.0, 6.5, 8.0):
            ens = static_noise_ensemble(bell_state("2+"), p, t)
            assert abs(average_entanglement(ens) - 1.0) < 1e-9

    def test_no_echo_concurrence_monotone_nonincreasing(self):
        p = StaticNoiseParams(sigma=1.0)
        cs = concurrence(static_states("1-", p, np.linspace(0, 6, 61)))
        assert np.all(np.diff(cs) <= 1e-12)

    def test_all_bell_inputs_same_concurrence(self):
        p = StaticNoiseParams(sigma=1.0)
        values = [concurrence(static_states(label, p, [1.3]))[0] for label in ("1+", "1-", "2+", "2-")]
        assert np.max(np.abs(np.diff(values))) < 1e-12

    @pytest.mark.parametrize("order", [64, 128])
    def test_state_matches_node_ensemble(self, order):
        # the closed-form state against the mixture of its Gauss-Hermite ensemble
        p = StaticNoiseParams(sigma=1.0, echo_time=4.0)
        times = np.linspace(0.0, 8.0, 33)
        states = static_states("2+", p, times).matrix
        for k, t in enumerate(times):
            ens = static_noise_ensemble(bell_state("2+"), p, t, order)
            assert np.max(np.abs(states[k] - ensemble_mixture(ens))) < 1e-13

    def test_grid_factors_match_closed_form(self):
        # <exp(-i eps u)> = exp(-sigma^2 u^2 / 2), u = 2 tbar - t after the echo
        p = StaticNoiseParams(sigma=1.3, echo_time=2.0)
        times = np.linspace(0.0, 4.0, 37)
        factors = static_dephasing_factors(p, times)
        u = np.where(times > 2.0, 4.0 - times, times)
        assert np.max(np.abs(factors - np.exp(-0.5 * (1.3 * u) ** 2))) < 1e-12

    def test_no_limit_where_order_doubling_refused(self):
        # sigma = 3, echo at 2, t <= 10: order 64 -> 128 drifted by 2e-8 at t = 7.5;
        # the closed form holds on the whole grid, and a node ensemble of order 256
        # (which resolves exp(-i sqrt(2) sigma x u) for |sigma u| <= 18) agrees
        p = StaticNoiseParams(sigma=3.0, echo_time=2.0)
        times = np.linspace(0.0, 10.0, 41)
        u = np.where(times > 2.0, 4.0 - times, times)
        assert np.max(np.abs(static_dephasing_factors(p, times) - np.exp(-0.5 * (3.0 * u) ** 2))) <= 1e-15
        states = static_states("2+", p, times).matrix
        for k, t in enumerate(times):
            ens = static_noise_ensemble(bell_state("2+"), p, t, 256)
            assert np.max(np.abs(states[k] - ensemble_mixture(ens))) < 1e-13

    def test_requires_static_regime(self):
        p = StaticNoiseParams(sigma=1.0, correlation_time=5.0)
        with pytest.raises(ValueError):
            static_noise_ensemble(bell_state("2+"), p, 1.0)


class TestOUNoise:
    def test_free_decay_matches_exact_variance(self):
        sigma, tau = 1.0, 3.0
        p = StaticNoiseParams(sigma=sigma, correlation_time=tau)
        times = np.array([0.5, 1.0, 2.0, 4.0])
        est = ou_dephasing_factors(p, times, 20_000, 11)
        expected = np.exp(-0.5 * ou_phase_variance(p, times))
        assert np.all(np.abs(np.abs(est.factors) - expected) <= 3.5 * np.maximum(est.se_abs, 1e-12))

    def test_echo_recovery_matches_exact_variance(self):
        sigma, tbar = 1.0, 4.0
        for stau in (10.0, 1000.0):
            tau = stau / sigma
            p = StaticNoiseParams(sigma=sigma, echo_time=tbar, correlation_time=tau)
            est = ou_dephasing_factors(p, [2 * tbar], 20_000, 13)
            expected = np.exp(-0.5 * ou_phase_variance(p, 2 * tbar))
            assert abs(abs(est.factors[0]) - expected) <= 3.5 * max(est.se_abs[0], 1e-12)

    def test_static_limit_matches_quadrature(self):
        sigma, t = 1.0, 2.0
        p = StaticNoiseParams(sigma=sigma, correlation_time=5000.0)
        est = ou_dephasing_factors(p, [t], 20_000, 17)
        static = abs(static_dephasing_factors(StaticNoiseParams(sigma=sigma), [t])[0])
        assert abs(abs(est.factors[0]) - static) <= 3.5 * est.se_abs[0]

    def test_zero_sigma_no_decay(self):
        p = StaticNoiseParams(sigma=0.0, correlation_time=2.0)
        est = ou_dephasing_factors(p, [3.0], 1000, 5)
        assert abs(concurrence(dephased_state(bell_density("2+"), est.factors))[0] - 1.0) < 1e-12

    def test_deterministic_for_fixed_seed(self):
        p = StaticNoiseParams(sigma=1.0, echo_time=2.0, correlation_time=7.0)
        a = ou_dephasing_factors(p, [1.0, 3.0], 4096, 99)
        b = ou_dephasing_factors(p, [1.0, 3.0], 4096, 99)
        assert np.array_equal(a.factors, b.factors)
        c = ou_dephasing_factors(p, [1.0, 3.0], 4096, 100)
        assert not np.array_equal(a.factors, c.factors)

    def test_thread_count_invariance(self):
        p = StaticNoiseParams(sigma=1.0, correlation_time=3.0)
        a = ou_dephasing_factors(p, [0.5, 1.5, 2.5], 8192, 7, threads=1)
        b = ou_dephasing_factors(p, [0.5, 1.5, 2.5], 8192, 7, threads=8)
        assert np.array_equal(a.factors, b.factors)
        assert np.array_equal(a.se_abs, b.se_abs)

    def test_time_zero_factor_is_exactly_one(self):
        p = StaticNoiseParams(sigma=1.0, correlation_time=3.0)
        est = ou_dephasing_factors(p, [0.0, 1.0], 2048, 21)
        assert est.factors[0] == 1.0 + 0.0j
        assert est.se_abs[0] == 0.0

    def test_grid_of_time_zero_alone(self):
        p = StaticNoiseParams(sigma=1.0, echo_time=2.0, correlation_time=3.0)
        est = ou_dephasing_factors(p, [0.0], 2048, 21)
        assert est.factors.tolist() == [1.0 + 0.0j]
        assert est.se_abs.tolist() == [0.0]
        rho = dephased_state(bell_density("1-"), est.factors)
        psi = bell_state("1-")
        assert np.array_equal(rho.matrix[0], np.outer(psi, psi.conj()))

    def test_unwritten_output_column_raises(self, monkeypatch):
        # a grid time that is no fine boundary would leave its column as
        # uninitialised memory; nudge the partition's last boundary off it
        linspace = np.linspace

        def nudged(start, stop, num, **kwargs):
            out = linspace(start, stop, num, **kwargs)
            out[-1] = np.nextafter(out[-1], np.inf)
            return out

        p = StaticNoiseParams(sigma=1.0, correlation_time=2.0)
        monkeypatch.setattr(np, "linspace", nudged)
        with pytest.raises(NumericalError, match="no boundary at grid time"):
            ou_dephasing_factors(p, [0.5, 1.0], 1000, seed=1)

    def test_trajectory_floor_enforced(self):
        p = StaticNoiseParams(sigma=1.0, correlation_time=3.0)
        with pytest.raises(ValueError):
            ou_dephasing_factors(p, [1.0], 999, 1)

    def test_requires_finite_correlation_time(self):
        with pytest.raises(ValueError):
            ou_dephasing_factors(StaticNoiseParams(sigma=1.0), [1.0], 2000, 1)

    def test_partition_steps(self):
        # steps of at most 0.05 sigma-units (tau/20 = 50 is longer) on [0, 1] and [1, 2]
        p = StaticNoiseParams(sigma=1.0, correlation_time=1e3)
        assert ou_partition_steps(p, [1.0, 2.0]) == 40.0

    def test_partition_above_cap_refused_before_it_is_built(self, monkeypatch):
        # tau = 1e-300 asks for ~1e302 fine steps: refused before any partition or draw
        monkeypatch.setattr(np, "linspace", lambda *a, **k: pytest.fail("partition built"))
        p = StaticNoiseParams(sigma=1.0, correlation_time=1e-300)
        assert ou_partition_steps(p, [1.0]) > OU_MAX_STEPS
        with pytest.raises(ValueError, match="above the cap"):
            ou_dephasing_factors(p, [1.0], 2000, 1)

    def test_recovery_improves_with_correlation_time(self):
        sigma, tbar = 1.0, 4.0
        values = []
        for stau in (10.0, 100.0, 1000.0):
            p = StaticNoiseParams(sigma=sigma, echo_time=tbar, correlation_time=stau / sigma)
            est = ou_dephasing_factors(p, [2 * tbar], 10_000, 23)
            values.append(abs(est.factors[0]))
        assert values[0] < values[1] < values[2]


class TestOUPhaseVariance:
    def test_matches_double_integral(self):
        sigma, tbar = 1.3, 4.0
        for tau in np.geomspace(1e-2, 1e9, 12):
            for t in (1.0, 4.0, 5.5, 8.0, 11.0):
                p = StaticNoiseParams(sigma=sigma, echo_time=tbar, correlation_time=tau)
                exact = ou_variance_by_quadrature(sigma, tau, t, tbar)
                assert ou_phase_variance(p, t) == pytest.approx(exact, rel=1e-9), (tau, t)
            p_free = StaticNoiseParams(sigma=sigma, correlation_time=tau)
            exact = ou_variance_by_quadrature(sigma, tau, 2 * tbar)
            assert ou_phase_variance(p_free, 2 * tbar) == pytest.approx(exact, rel=1e-9), tau

    def test_echo_leading_order_limit(self):
        sigma, tbar = 1.0, 4.0
        for tau in (1e3, 1e4, 1e5, 1e6):
            x = tbar / tau
            p = StaticNoiseParams(sigma=sigma, echo_time=tbar, correlation_time=tau)
            ratio = ou_phase_variance(p, 2 * tbar) / (4.0 * sigma**2 * tbar**3 / (3.0 * tau))
            # next order: 4x^3/3 - x^4 + ..., so the ratio is 1 - 3x/4 + O(x^2)
            assert abs(ratio - (1.0 - 0.75 * x)) <= x * x, tau

    def test_equals_free_variance_before_the_pulse(self):
        tbar = 4.0
        times = np.linspace(0.0, tbar, 41)
        for tau in (1e-2, 1.0, 1e3, 1e9):
            echo = ou_phase_variance(StaticNoiseParams(1.0, echo_time=tbar, correlation_time=tau), times)
            free = ou_phase_variance(StaticNoiseParams(1.0, correlation_time=tau), times)
            assert np.array_equal(echo, free), tau

    def test_continuous_across_series_branch(self):
        # the duration t / tau lands just below, on and just above the series limit
        for echo_time, t in ((None, 1.0), (4.0, 8.0)):
            tau_edge = t / _OU_SERIES_LIMIT
            below, at, above = (
                ou_phase_variance(StaticNoiseParams(1.0, echo_time=echo_time, correlation_time=tau), t)
                for tau in (np.nextafter(tau_edge, np.inf), tau_edge, np.nextafter(tau_edge, 0.0))
            )
            assert below == pytest.approx(at, rel=1e-13)
            assert above == pytest.approx(at, rel=1e-13)

    def test_requires_finite_correlation_time(self):
        with pytest.raises(ValueError):
            ou_phase_variance(StaticNoiseParams(sigma=1.0, echo_time=1.0), 2.0)
