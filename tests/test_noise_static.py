import numpy as np
import pytest

from qrevivals import noise
from qrevivals.linalg import EYE2, SIGMA_X, DensityOperator
from qrevivals.measures import average_entanglement, concurrence, eof_from_concurrence
from qrevivals.noise import (
    _OU_SERIES_LIMIT,
    StaticNoiseParams,
    _echo_effective_duration,
    _gh_nodes,
    dephased_state,
    ou_mc_dephasing_factors,
    ou_phase_variance,
    static_noise_ensemble,
)
from qrevivals.states import bell_state


def bell_density(label):
    psi = bell_state(label)
    return DensityOperator(np.outer(psi, psi.conj()), (2, 2))


def static_factors(p, times):
    """The quasi-static dephasing factors: the OU law at correlation_time = inf."""
    return np.exp(-0.5 * ou_phase_variance(p, times))


def static_states(label, p, times):
    """The quasi-static dephasing channel on a Bell input at every time of ``times``."""
    times = np.asarray(times, dtype=float)
    return dephased_state(bell_density(label), static_factors(p, times), _echo_effective_duration(p, times)[1])


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
        factors = static_factors(p, times)
        u = np.where(times > 2.0, 4.0 - times, times)
        assert np.max(np.abs(factors - np.exp(-0.5 * (1.3 * u) ** 2))) < 1e-12

    def test_no_limit_where_order_doubling_refused(self):
        # sigma = 3, echo at 2, t <= 10: order 64 -> 128 drifted by 2e-8 at t = 7.5;
        # the closed form holds on the whole grid, and a node ensemble of order 256
        # (which resolves exp(-i sqrt(2) sigma x u) for |sigma u| <= 18) agrees
        p = StaticNoiseParams(sigma=3.0, echo_time=2.0)
        times = np.linspace(0.0, 10.0, 41)
        u = np.where(times > 2.0, 4.0 - times, times)
        assert np.max(np.abs(static_factors(p, times) - np.exp(-0.5 * (3.0 * u) ** 2))) <= 1e-15
        states = static_states("2+", p, times).matrix
        for k, t in enumerate(times):
            ens = static_noise_ensemble(bell_state("2+"), p, t, 256)
            assert np.max(np.abs(states[k] - ensemble_mixture(ens))) < 1e-13

    def test_echo_duration_near_the_float_limit(self):
        # 2 tbar overflows, tbar - (t - tbar) does not: the ensemble's mixture is
        # the closed form exp(-Var/2), Var = (sigma u)^2 = 0.81; a RuntimeWarning fails
        p = StaticNoiseParams(sigma=1e-308, echo_time=1.3e308)
        u, echoed = _echo_effective_duration(p, 1.7e308)
        assert echoed and u == 1.3e308 - (1.7e308 - 1.3e308)
        assert ou_phase_variance(p, 1.7e308) == pytest.approx(0.81, rel=1e-14)
        mixture = ensemble_mixture(static_noise_ensemble(bell_state("2+"), p, 1.7e308))
        assert np.max(np.abs(static_states("2+", p, [1.7e308]).matrix[0] - mixture)) < 1e-12

    def test_echo_duration_bits_up_to_twice_the_echo_time(self):
        # t - tbar is exact for tbar < t <= 2 tbar (Sterbenz), so u keeps the bits of 2 tbar - t
        rng = np.random.default_rng(11)
        for tbar in (1e-300, 0.37, 4.0, 1e300):
            t = tbar * (1.0 + rng.random(200))
            u, echoed = _echo_effective_duration(StaticNoiseParams(1.0, echo_time=tbar), t)
            assert echoed.all() and np.array_equal(u, 2.0 * tbar - t)

    def test_requires_static_regime(self):
        p = StaticNoiseParams(sigma=1.0, correlation_time=5.0)
        with pytest.raises(ValueError):
            static_noise_ensemble(bell_state("2+"), p, 1.0)

    @pytest.mark.parametrize("echo_time", [None, 1.5])
    def test_members_match_the_per_node_loop(self, echo_time):
        # the ensemble as built node by node: (1 (x) U_k)|psi0>, U_k the phase
        # diag(e^{-i theta_k/2}, e^{i theta_k/2}), then sigma_x on B after the echo
        rng = np.random.default_rng(5)
        psi0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi0 /= np.linalg.norm(psi0)
        p = StaticNoiseParams(sigma=1.3, echo_time=echo_time)
        for t, order in ((0.0, 64), (0.7, 64), (2.9, 128), (6.0, 17)):
            u, echoed = _echo_effective_duration(p, t)
            x, w = _gh_nodes(order)
            loop = []
            for th in np.sqrt(2.0) * p.sigma * x * u:
                u2 = np.diag([np.exp(-0.5j * th), np.exp(0.5j * th)])
                loop.append(np.kron(EYE2, SIGMA_X @ u2 if echoed else u2) @ psi0)
            ens = static_noise_ensemble(psi0, p, t, order)
            assert np.array_equal(ens.weights, w)
            assert np.max(np.abs(ens.states - np.array(loop))) <= 1e-14, (t, order)


class TestOUPathOracle:
    """Gillespie's exact OU update, path by path, against the closed form."""

    def test_free_decay_matches_exact_variance(self):
        p = StaticNoiseParams(sigma=1.0, correlation_time=3.0)
        times = np.array([0.5, 1.0, 2.0, 4.0])
        mean, se = ou_mc_dephasing_factors(p, times, 20_000, 11)
        expected = np.exp(-0.5 * ou_phase_variance(p, times))
        assert np.all(np.abs(mean - expected) <= 3.5 * np.maximum(se, 1e-12))

    @pytest.mark.parametrize("stau", [0.05, 1.0, 10.0, 1000.0])
    def test_echo_grid_matches_exact_variance(self, stau):
        # one step per grid interval whatever tau: the update has no step bias
        p = StaticNoiseParams(sigma=1.0, echo_time=4.0, correlation_time=stau)
        times = np.linspace(0.0, 8.0, 9)
        mean, se = ou_mc_dephasing_factors(p, times, 20_000, 13)
        expected = np.exp(-0.5 * ou_phase_variance(p, times))
        assert np.all(np.abs(mean - expected) <= 4.0 * np.maximum(se, 1e-12)), stau

    def test_echo_between_grid_times(self):
        # the echo at 1.3 is a step boundary of its own
        p = StaticNoiseParams(sigma=0.2, echo_time=1.3, correlation_time=2.0)
        mean, se = ou_mc_dephasing_factors(p, [1.0, 2.0, 2.6], 20_000, 29)
        expected = np.exp(-0.5 * ou_phase_variance(p, [1.0, 2.0, 2.6]))
        assert np.all(np.abs(mean - expected) <= 4.0 * se)

    def test_zero_sigma_and_time_zero(self):
        mean, se = ou_mc_dephasing_factors(StaticNoiseParams(sigma=0.0, correlation_time=2.0), [0.0, 3.0], 1000, 5)
        assert mean.tolist() == [1.0, 1.0] and se.tolist() == [0.0, 0.0]
        mean, se = ou_mc_dephasing_factors(StaticNoiseParams(sigma=1.0, correlation_time=2.0), [0.0, 3.0], 1000, 5)
        assert mean[0] == 1.0 and se[0] == 0.0

    def test_seed_and_thread_count(self):
        p = StaticNoiseParams(sigma=1.0, echo_time=2.0, correlation_time=7.0)
        a = ou_mc_dephasing_factors(p, [1.0, 3.0], 4097, 99, threads=1)
        b = ou_mc_dephasing_factors(p, [1.0, 3.0], 4097, 99, threads=8)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))
        assert not np.array_equal(a[0], ou_mc_dephasing_factors(p, [1.0, 3.0], 4097, 100)[0])

    @pytest.mark.parametrize("trajectories", [-5, 0, 1])
    def test_fewer_than_two_trajectories_are_refused(self, trajectories):
        # a standard error needs two; no count below that runs a batch
        with pytest.raises(ValueError, match=">= 2"):
            ou_mc_dephasing_factors(StaticNoiseParams(sigma=1.0, correlation_time=2.0), [1.0], trajectories, 1)

    def test_requires_finite_correlation_time_and_a_grid(self):
        with pytest.raises(ValueError):
            ou_mc_dephasing_factors(StaticNoiseParams(sigma=1.0), [1.0], 2000, 1)
        with pytest.raises(ValueError, match="strictly increasing"):
            ou_mc_dephasing_factors(StaticNoiseParams(sigma=1.0, correlation_time=1.0), [2.0, 1.0], 2000, 1)


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

    @pytest.mark.parametrize("echo_time, tau, closed_calls", [
        (None, np.inf, 0), (3.0, np.inf, 0),  # quasi-static: x = 0 everywhere
        (None, 40.0, 0), (3.0, 40.0, 0),  # t / tau <= 0.15: every point takes the series
        (3.0, 4.0, 3),  # t / tau up to 1.5: the closed form, three g(y)/y terms
    ])
    def test_closed_form_only_where_a_point_takes_it(self, monkeypatch, echo_time, tau, closed_calls):
        calls = []
        original = noise._g_over
        monkeypatch.setattr(noise, "_g_over", lambda y: calls.append(1) or original(y))
        p = StaticNoiseParams(1.0, echo_time=echo_time, correlation_time=tau)
        times = np.linspace(0.0, 6.0, 128)
        var = ou_phase_variance(p, times)
        assert len(calls) == closed_calls
        if np.isfinite(tau):  # the same bits with a point that takes the closed form appended
            assert np.array_equal(ou_phase_variance(p, np.append(times, 10.0 * tau))[:-1], var)

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

    @pytest.mark.parametrize("t_end", [8.0, 1e300, 1.7e308])
    @pytest.mark.parametrize("echo_fraction", [None, 0.3])
    def test_infinite_correlation_time_is_the_static_variance(self, t_end, echo_fraction):
        # tau = inf is quasi-static noise: x = t / tau = 0 on the whole grid, so
        # Var = (sigma u)^2, u = t before the pulse and tbar - (t - tbar) after
        # it, within a few ulps of (sigma t)^2 (u cancels near the refocus at
        # 2 tbar), from t = 0 to the grid end; a RuntimeWarning fails the test
        times = t_end * np.linspace(0.0, 1.0, 11)
        tbar = None if echo_fraction is None else echo_fraction * t_end
        sigma = 1.3 / t_end  # (sigma t)^2 stays finite up to the grid end
        var = ou_phase_variance(StaticNoiseParams(sigma, echo_time=tbar), times)
        u = times if tbar is None else np.where(times > tbar, tbar - (times - tbar), times)
        assert var[0] == 0.0
        assert np.all(np.abs(var - (sigma * u) ** 2) <= 4.0 * np.spacing((sigma * times) ** 2))
        if tbar is None:
            assert np.array_equal(var, (sigma * times) ** 2)
        # at sigma = 1 the variance overflows to inf exactly where (sigma u)^2 does
        with np.errstate(over="ignore"):
            want = u**2
        assert np.array_equal(ou_phase_variance(StaticNoiseParams(1.0, echo_time=tbar), times) == np.inf,
                              want == np.inf)

    def test_recovery_improves_with_correlation_time(self):
        tbar = 4.0
        values = [ou_phase_variance(StaticNoiseParams(1.0, echo_time=tbar, correlation_time=stau), 2 * tbar)
                  for stau in (10.0, 100.0, 1000.0)]
        assert values[0] > values[1] > values[2] > 0.0

    @pytest.mark.parametrize("tau", [1e154, 1e200, 1e300, 1.7e308])
    def test_huge_correlation_time_reaches_the_static_limit(self, tau):
        # tau^2 overflows: the variance must still be the static (sigma t_eff)^2
        # plus the leading echo residue 4 sigma^2 tbar^3 / (3 tau), never NaN
        times = np.array([0.0, 1.0, 4.0, 6.0, 8.0])
        var = ou_phase_variance(StaticNoiseParams(1.0, echo_time=4.0, correlation_time=tau), times)
        assert var[:4] == pytest.approx([0.0, 1.0, 16.0, 4.0], rel=1e-14)
        assert var[4] == pytest.approx(4.0 * 64.0 / (3.0 * tau), rel=1e-12)
        free = ou_phase_variance(StaticNoiseParams(2.5, correlation_time=tau), times)
        assert free == pytest.approx((2.5 * times) ** 2, rel=1e-14)
        assert ou_phase_variance(StaticNoiseParams(1e150, correlation_time=tau), 1e150) == np.inf

    @pytest.mark.parametrize("echo_time", [None, 1e-311, 1.0, 2.835e307])
    def test_overflowing_duration_is_white_noise(self, echo_time):
        # t / tau = inf: Var = 2 sigma^2 tau t, not the 0 of an underflowed shape factor,
        # while the points with a finite t / tau keep the bits they have on their own
        p = StaticNoiseParams(1.5, echo_time=echo_time, correlation_time=1e-310)
        times = np.array([0.0, 1e-300, 5.67e307])
        var = ou_phase_variance(p, times)
        assert var[2] == pytest.approx(2.0 * 1.5**2 * 1e-310 * 5.67e307, rel=1e-12)
        assert var[:2].tobytes() == ou_phase_variance(p, times[:2]).tobytes()

    def test_vanishing_correlation_time_is_white_noise(self):
        # tau -> 0 at fixed sigma: Var = 2 sigma^2 tau t -> 0, so the factor is 1;
        # t / tau overflows at t = 1e10
        p = StaticNoiseParams(1.0, echo_time=4.0, correlation_time=1e-300)
        var = ou_phase_variance(p, [0.0, 1.0, 8.0, 1e10])
        assert np.all(np.isfinite(var)) and var[1] == pytest.approx(2e-300, rel=1e-12)
        assert np.exp(-0.5 * var).tolist() == [1.0] * 4
