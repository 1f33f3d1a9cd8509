import hashlib

import numpy as np
import pytest

from qrevivals.measures import concurrence
from qrevivals.noise import (
    RTNParams,
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

    @pytest.mark.parametrize("trajectories, digest", [
        (10_001, "3a4cab784deef6cccf3eb79f8f199f18b73f73e4f4e60b2bcec4a655c835b0b7"),
        (12_000, "c815c9526c262eec98667917086fe68b695e4e269a764a494af40ce30273827a"),
    ])
    @pytest.mark.parametrize("threads", [1, 2, 8])
    def test_bytes_pinned(self, trajectories, digest, threads):
        # SHA-256 of the means and standard errors as recorded with the
        # min/diff/gemv integral kernel (numpy 2.4, OpenBLAS, x86-64): a kernel
        # rewrite must not move a bit; 10 001 ends on a batch of 1809 rows
        p = RTNParams(rate=1.0, coupling=2.5)
        mean, se = rtn_mc_coherence_grid(p, np.linspace(0.0, 12.0, 49), trajectories, 7, threads)
        assert hashlib.sha256(mean.tobytes() + se.tobytes()).hexdigest() == digest

    def test_trajectory_floor(self):
        with pytest.raises(ValueError):
            rtn_mc_coherence_grid(RTNParams(rate=1.0, coupling=1.0), [1.0], 5000, 1)


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
