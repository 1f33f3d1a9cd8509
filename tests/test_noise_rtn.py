import hashlib
import sys
import threading
import time

import numpy as np
import pytest

from qrevivals.measures import concurrence
from qrevivals.noise import (
    RTNParams,
    _map_ordered,
    dephased_state,
    rtn_coherence,
    rtn_concurrence,
    rtn_mc_coherence_grid,
)
from qrevivals.states import EWLParams, ewl_state

EWL_EXP = EWLParams(r=0.91, a=1 / np.sqrt(2))
# 2K = 0 crossing: |q| = (1-r)/(4 r |a| b) = 0.0225/0.455
Q_THRESHOLD = 0.04945054945054945


class TestAnalyticCoherence:
    def test_unity_at_zero(self):
        for g in (0.5, 1.0, 5.0):
            assert rtn_coherence(RTNParams(rate=1.0, coupling=g), 0.0) == 1.0

    def test_weak_coupling_positive_and_decaying(self):
        p = RTNParams(rate=1.0, coupling=0.5)
        t = np.linspace(0.0, 10.0, 401)
        q = rtn_coherence(p, t)
        assert np.all(q > 0.0)
        assert np.all(np.diff(q) <= 1e-12)

    def test_strong_coupling_oscillates_with_zeros(self):
        p = RTNParams(rate=1.0, coupling=5.0)
        t = np.linspace(0.0, 10.0, 2001)
        q = rtn_coherence(p, t)
        assert np.any(q < 0.0)
        # extrema at mu*t = k*pi have magnitude exp(-gamma k pi / mu)
        mu = np.sqrt(25.0 - 1.0)
        for k in (1, 2, 3):
            tk = k * np.pi / mu
            assert abs(abs(rtn_coherence(p, tk)) - np.exp(-tk)) < 1e-12

    def test_crossover_form(self):
        p = RTNParams(rate=1.0, coupling=1.0)
        for t in (0.3, 1.0, 4.0):
            assert abs(rtn_coherence(p, t) - np.exp(-t) * (1 + t)) < 1e-12

    def test_continuous_across_crossover(self):
        t = 2.3
        below = rtn_coherence(RTNParams(rate=1.0, coupling=1.0 - 1e-8), t)
        at = rtn_coherence(RTNParams(rate=1.0, coupling=1.0), t)
        above = rtn_coherence(RTNParams(rate=1.0, coupling=1.0 + 1e-8), t)
        assert abs(below - at) < 1e-7
        assert abs(above - at) < 1e-7

    # the crossover branch is taken only where coupling == rate, equal
    # infinities included; next to it the hyperbolic and oscillating forms are
    # pinned as recorded
    @pytest.mark.parametrize("rate, coupling, expected", [
        (1.0, 1 + 1e-12, [1.0, 0.9097959895687732, 0.19914827347055955, 1.741825243695175e-16]),
        (1.0, 1 + 2e-12, [1.0, 0.9097959895685963, 0.19914827346966346, 1.741825242721016e-16]),
        (1.0, 1 - 2e-12, [1.0, 0.9097959895693039, 0.19914827347324807, 1.741825246618093e-16]),
        (1e12, 1e12 + 2, [1.0, 0.9097959895685963, 0.19914827346966346, 1.7418252427209725e-16]),
        (np.inf, np.inf, [0.0] * 4),
        (np.inf, 1.0, [np.nan] * 4),
        (1.0, np.inf, [np.nan] * 4),
    ])
    def test_crossover_branch_pinned(self, rate, coupling, expected):
        t = np.array([0.0, 0.5, 3.0, 40.0])
        with np.errstate(invalid="ignore"):
            q = rtn_coherence(RTNParams(rate=rate, coupling=coupling), t / rate if np.isfinite(rate) else t)
        np.testing.assert_array_equal(q, expected)

    # 1e-12 (relative) from the crossover on either side, where it was once snapped to
    # exp(-t)(1 + t), up to 6e-10 off: the 80-digit mpmath values of
    # exp(-gamma t)[cosh(d t) + (gamma/d) sinh(d t)] and its oscillating
    # continuation, correctly rounded
    @pytest.mark.parametrize("rate, coupling, expected", [
        (1.0, 1 - 1e-12, [1.0, 0.909795989569127, 0.19914827347235192, 1.7418252456438193e-16]),
        (1e12, 1e12 + 1, [1.0, 0.9097959895687733, 0.19914827347055958, 1.7418252436952663e-16]),
    ])
    def test_next_to_the_crossover_against_80_digits(self, rate, coupling, expected):
        t = np.array([0.0, 0.5, 3.0, 40.0]) / rate
        q = rtn_coherence(RTNParams(rate=rate, coupling=coupling), t)
        np.testing.assert_allclose(q, expected, rtol=4e-15, atol=0.0)

    def test_finite_where_the_hyperbolic_form_overflows(self):
        # the former form exp(-gamma t) [cosh(d t) + (gamma/d) sinh(d t)] gives
        # NaN once d t passes ~710; compare wherever it is finite
        t = np.linspace(0.0, 1000.0, 20001)
        overflowed = 0
        for g in (0.1, 0.5, 0.9, 0.975, 1.0 - 1e-6, 1.0 - 1e-9):
            q = rtn_coherence(RTNParams(rate=1.0, coupling=g), t)
            assert np.all(np.isfinite(q))
            assert np.all(q >= 0.0) and np.all(np.diff(q) <= 1e-300)  # subnormal dust
            d = np.sqrt(1.0 - g * g)
            with np.errstate(over="ignore", invalid="ignore"):
                hyperbolic = np.exp(-t) * (np.cosh(d * t) + np.sinh(d * t) / d)
            finite = np.isfinite(hyperbolic)
            overflowed += int(np.sum(~finite))
            assert np.max(np.abs(q[finite] - hyperbolic[finite])) < 1e-14
        assert overflowed > 0

    def test_stable_form_against_high_precision(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for g, t in ((0.01, 700.0), (0.5, 1000.0), (1.0 - 1e-9, 5.0), (0.1, 1e4)):
                d = mpmath.sqrt(1 - mpmath.mpf(g) ** 2)
                tm = mpmath.mpf(t)
                ref = float(mpmath.exp(-tm) * (mpmath.cosh(d * tm) + mpmath.sinh(d * tm) / d))
                q = rtn_coherence(RTNParams(rate=1.0, coupling=g), t)
                assert abs(q - ref) <= 1e-14 * ref

    # (rate, coupling, last time): products with t beyond the float range, on
    # either side of the crossover and at it
    @pytest.mark.parametrize("rate, coupling, t_max", [
        (1.0, 2.0, 1.7e308), (1.0, 1e9, 1e300), (1e10, 3e10, 1e300), (1e10, 1e10, 1e300), (1.0, 1.0, 1.7e308),
    ])
    def test_zero_where_the_decay_underflows(self, rate, coupling, t_max):
        # exp(-rate t) underflows to 0 long before rate t, coupling t or mu t
        # overflow to inf, where cos or 0 * inf gave NaN
        t = np.array([0.0, 1.0 / rate, t_max / 2, t_max])
        q = rtn_coherence(RTNParams(rate=rate, coupling=coupling), t)
        assert q[0] == 1.0 and 0.0 < abs(q[1]) < 1.0 and q[2:].tolist() == [0.0, 0.0]

    def test_near_zero_coupling_to_the_largest_time(self):
        # below the crossover 2 d t overflows; q stays at its limit 1
        q = rtn_coherence(RTNParams(rate=1.0, coupling=1e-310), np.array([0.0, 1e300, 1.7e308]))
        assert np.all(np.abs(q - 1.0) <= 1e-15)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            RTNParams(rate=0.0, coupling=1.0)
        with pytest.raises(ValueError):
            RTNParams(rate=1.0, coupling=-1.0)
        assert RTNParams(rate=2.0, coupling=5.0).g == 2.5

    def test_zero_coupling_keeps_full_coherence(self):
        p = RTNParams(rate=1.0, coupling=0.0)
        for t in (0.5, 3.0, 9.0):
            assert abs(rtn_coherence(p, t) - 1.0) < 1e-12
        q, se = rtn_mc_coherence_grid(p, [4.0], 10_000, 8)
        assert q.tolist() == [1.0] and se.tolist() == [0.0]


class TestMonteCarloOracle:
    def test_time_zero(self):
        q, se = rtn_mc_coherence_grid(RTNParams(rate=1.0, coupling=2.0), [0.0], 10_000, 1)
        assert (q.tolist(), se.tolist()) == ([1.0], [0.0])

    @pytest.mark.parametrize("g", [0.5, 1.1, 2.0, 5.0])
    def test_analytic_matches_mc_within_errors(self, g):
        p = RTNParams(rate=1.0, coupling=g)
        times = np.linspace(0.0, 10.0, 21)[1:]
        qm, se = rtn_mc_coherence_grid(p, times, 20_000, 2024)
        qa = rtn_coherence(p, times)
        assert np.max(np.abs(qa - qm) / se) < 4.0

    def test_deterministic_and_thread_invariant(self):
        p = RTNParams(rate=1.0, coupling=2.0)
        a = rtn_mc_coherence_grid(p, [1.0, 5.0], 10_000, 31, threads=1)
        b = rtn_mc_coherence_grid(p, [1.0, 5.0], 10_000, 31, threads=8)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    @pytest.mark.parametrize("times, trajectories, digest", [
        pytest.param(np.linspace(0.0, 12.0, 49), 10_001,
                     "8bf21edab66c37bae64b1e9995a79e03d9fbd40eacb88c9047f4e11625655eec", id="10001"),
        pytest.param(np.linspace(0.0, 12.0, 49), 12_000,
                     "f3357cf9006173df716992445978e60f825df9a52802472d22f28a63f209eef3", id="12000"),
        # five grid times share the first of 98 equal cells of [0, 12]
        pytest.param(12.0 * np.linspace(0.0, 1.0, 49) ** 2, 10_001,
                     "70325572754e5c63543f2643ba4614f99b3e24cabfffe00e3d373ae4ea4b5275", id="quadratic-10001"),
        # a sixth of the flips fall before the first grid time
        pytest.param(np.linspace(2.0, 12.0, 41), 10_001,
                     "147bba3470f465187c2d59e9112272e5d0b8a0f7a2171893f962723b2b5fb45d", id="from-2-10001"),
    ])
    @pytest.mark.parametrize("threads", [1, 2, 8])
    def test_bytes_pinned(self, times, trajectories, digest, threads):
        # SHA-256 of the means and standard errors of the Poisson-count draws
        # and per-flip cosine sums (numpy 2.4, x86-64), recorded once these
        # outputs agreed with the closed form within 4 SE at every time: a
        # rewrite that keeps the draws must not move a bit; 10 001 ends on a
        # batch of 1809 rows
        p = RTNParams(rate=1.0, coupling=2.5)
        mean, se = rtn_mc_coherence_grid(p, times, trajectories, 7, threads)
        assert np.all(np.abs(mean - rtn_coherence(p, times)) <= 4.0 * se)
        assert hashlib.sha256(mean.tobytes() + se.tobytes()).hexdigest() == digest

    def test_trajectory_floor(self):
        with pytest.raises(ValueError):
            rtn_mc_coherence_grid(RTNParams(rate=1.0, coupling=1.0), [1.0], 5000, 1)

    @pytest.mark.parametrize("times", [[0.0, np.nan, 1.0], [0.5, np.inf]])
    def test_non_finite_grid_time_is_refused(self, times):
        with pytest.raises(ValueError, match="finite grid"):
            rtn_mc_coherence_grid(RTNParams(rate=1.0, coupling=1.0), times, 10_000, 1)


class TestBatchMap:
    """_map_ordered runs batches on the calling thread and threads - 1 workers
    (at most 8 here) and hands back their results in batch order."""

    @pytest.mark.parametrize("threads", [1, 2, 8])
    def test_results_in_batch_order(self, threads):
        # later batches finish first where they run beside earlier ones
        def fn(i):
            time.sleep(0.002 * (5 - i % 5))
            return i * i, threading.get_ident()

        before = threading.active_count()
        out = _map_ordered(fn, 10, threads)
        assert [r for r, _ in out] == [i * i for i in range(10)]
        idents = {ident for _, ident in out}
        assert len(idents) <= threads and (threads > 1 or idents == {threading.get_ident()})
        assert threading.active_count() == before

    @pytest.mark.parametrize("threads", [1, 2])
    def test_lowest_failing_batch_is_raised(self, threads):
        # batch 1 fails after batch 3 has failed: its exception is the one raised
        started = []

        def fn(i):
            started.append(i)
            if i == 1:
                time.sleep(0.05)
                raise ValueError("batch 1")
            if i == 3:
                raise KeyError("batch 3")
            return i

        before = threading.active_count()
        with pytest.raises(ValueError, match="batch 1"):
            _map_ordered(fn, 8, threads)
        assert threading.active_count() == before
        # batches start in order, and none once one has failed
        assert sorted(started) == list(range(len(started)))
        assert len(started) == 2 if threads == 1 else len(started) <= 4

    def test_every_batch_runs_once_under_frequent_switches(self):
        # more threads than cores, switching every microsecond: a batch taken
        # twice or never would show in the calls
        calls = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = _map_ordered(lambda i: calls.append(i) or i, 2000, 8)
        finally:
            sys.setswitchinterval(interval)
        assert out == list(range(2000)) and sorted(calls) == list(range(2000))


class TestRTNConcurrence:
    def test_initial_value(self):
        # 2 (0.91 * 0.5 - 0.09/4) = 0.865
        assert abs(rtn_concurrence(EWL_EXP, RTNParams(rate=1.0, coupling=1.0), 0.0) - 0.865) < 1e-12

    def test_zero_exactly_when_coherence_below_threshold(self):
        p = RTNParams(rate=1.0, coupling=5.0)
        t = np.linspace(0.0, 10.0, 1001)
        c = rtn_concurrence(EWL_EXP, p, t)
        q = np.abs(rtn_coherence(p, t))
        assert np.array_equal(c > 0.0, q > Q_THRESHOLD + 1e-15) or np.all(
            (c > 0) == (q > Q_THRESHOLD - 1e-15)
        )

    def test_both_excitation_kinds_equal(self):
        p = RTNParams(rate=1.0, coupling=2.0)
        one = EWLParams(r=0.8, a=0.6)
        two = EWLParams(r=0.8, a=0.6, kind="two-excitation")
        t = np.array([0.5, 2.0, 7.0])
        assert np.max(np.abs(rtn_concurrence(one, p, t) - rtn_concurrence(two, p, t))) < 1e-15
        q = rtn_coherence(p, t)
        c_one, c_two = (concurrence(dephased_state(ewl_state(e), q)) for e in (one, two))
        assert np.max(np.abs(c_one - c_two)) < 1e-12

    def test_weak_coupling_monotone_no_revival(self):
        c = rtn_concurrence(EWL_EXP, RTNParams(rate=1.0, coupling=0.5), np.linspace(0, 10, 501))
        assert np.all(np.diff(c) <= 1e-12)

    def test_strong_coupling_revives_after_dark_period(self):
        c = rtn_concurrence(EWL_EXP, RTNParams(rate=1.0, coupling=5.0), np.linspace(0, 10, 2001))
        zero = np.flatnonzero(c <= 1e-15)
        assert zero.size > 0
        assert np.any(c[zero[0]:] > 0.01)

    def test_revival_count_grows_with_g(self):
        t = np.linspace(0.0, 10.0, 4001)
        counts = []
        for g in (1.1, 2.0, 5.0):
            c = rtn_concurrence(EWL_EXP, RTNParams(rate=1.0, coupling=g), t)
            starts = np.flatnonzero((c[1:] > 0) & (c[:-1] == 0.0))
            counts.append(starts.size)
        assert counts[0] <= counts[1] <= counts[2]
        assert counts[-1] > 0

    def test_wootters_path_matches_closed_form(self):
        p = RTNParams(rate=1.0, coupling=5.0)
        t = np.linspace(0.0, 10.0, 41)
        general = concurrence(dephased_state(ewl_state(EWL_EXP), rtn_coherence(p, t)))
        assert np.max(np.abs(general - rtn_concurrence(EWL_EXP, p, t))) < 1e-9
