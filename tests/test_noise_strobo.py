import numpy as np
import pytest

from qrevivals import noise
from qrevivals.linalg import DensityOperator
from qrevivals.measures import concurrence, eof_from_concurrence
from qrevivals.noise import (
    StroboscopicParams,
    dephased_state,
    stroboscopic_mc_dephasing_factors,
    stroboscopic_phase_variance,
)
from qrevivals.states import bell_state

STEPS = np.arange(1, 5)


def params(**kw):
    base = dict(phase_sigma=0.6, autocorrelation=1.0)
    base.update(kw)
    return StroboscopicParams(**base)


def factors(p):
    """The exact dephasing factors after steps 1..p.steps."""
    return np.exp(-0.5 * stroboscopic_phase_variance(p, np.arange(1, p.steps + 1)))


def strobo_states(label, p):
    """The sequence-averaged states of a Bell input after steps 1..p.steps."""
    psi = bell_state(label)
    steps = np.arange(1, p.steps + 1)
    echoed = steps > (np.inf if p.echo_after_step is None else p.echo_after_step)
    rho0 = DensityOperator(np.outer(psi, psi.conj()), (2, 2))
    return dephased_state(rho0, factors(p), echoed)


def variance_by_sum(p, k):
    """sigma^2 sum_ij s_i s_j mu^|i-j| over the first k steps, term by term."""
    s = [1.0 if p.echo_after_step is None or j < p.echo_after_step else -1.0 for j in range(k)]
    return p.phase_sigma**2 * sum(s[i] * s[j] * p.autocorrelation ** abs(i - j) for i in range(k) for j in range(k))


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            params(phase_sigma=-0.1)
        with pytest.raises(ValueError):
            params(autocorrelation=1.5)
        with pytest.raises(ValueError):
            params(echo_after_step=4)


class TestPhaseVariance:
    @pytest.mark.parametrize("mu", [0.0, 0.3, 0.5, 0.999, 1.0])
    @pytest.mark.parametrize("echo", [None, 1, 2, 3])
    def test_matches_the_double_sum(self, mu, echo):
        p = params(autocorrelation=mu, echo_after_step=echo)
        got = stroboscopic_phase_variance(p, np.arange(5))
        assert got[0] == 0.0
        assert got == pytest.approx([variance_by_sum(p, k) for k in range(5)], rel=1e-14, abs=1e-15)

    def test_static_phases_grow_quadratically(self):
        # mu = 1: every step carries the same phase, so Var_k = (k sigma)^2
        assert stroboscopic_phase_variance(params(), STEPS) == pytest.approx((STEPS * 0.6) ** 2, rel=1e-15)

    def test_uncorrelated_phases_grow_linearly(self):
        assert stroboscopic_phase_variance(params(autocorrelation=0.0), STEPS) == pytest.approx(
            STEPS * 0.36, rel=1e-15)

    def test_refocused_step_is_exactly_zero_for_any_sigma(self):
        # s^T M s = 0 at step 4 (mu = 1, flip after step 2): sigma^2 * 0 must not become inf * 0
        for sigma in (0.6, 1e200, 1.7e308):
            var = stroboscopic_phase_variance(params(phase_sigma=sigma, echo_after_step=2), np.arange(5))
            assert var[0] == var[4] == 0.0
            assert np.all(var[1:4] > 0.0)
        huge = stroboscopic_phase_variance(params(phase_sigma=1e200, echo_after_step=2), np.arange(5))
        assert np.isinf(huge[1:4]).all()

    @pytest.mark.parametrize("steps", [[-1], [5], [1.0]])
    def test_steps_must_be_integers_in_range(self, steps):
        with pytest.raises(ValueError, match="steps must be integers"):
            stroboscopic_phase_variance(params(), np.asarray(steps))


class TestStaticPhases:
    """mu = 1 reduces every sequence to one shared Gaussian phase."""

    def test_zero_sigma_keeps_concurrence_one(self):
        p = params(phase_sigma=0.0)
        assert np.max(np.abs(concurrence(strobo_states("1-", p)) - 1.0)) < 1e-12

    def test_monotone_decay_without_echo(self):
        efs = eof_from_concurrence(concurrence(strobo_states("1-", params())))
        assert np.all(np.diff(efs) < 0.0)

    def test_echo_recovers_exactly_at_step_four(self):
        p = params(echo_after_step=2)
        c4 = concurrence(strobo_states("1-", p))[3]
        assert abs(c4 - 1.0) < 1e-12
        mean, se = stroboscopic_mc_dephasing_factors(p, 10_000, 404)
        assert mean[3] == 1.0 and se[3] == 0.0  # every sequence refocuses identically

    def test_echo_intermediate_step_still_dephased(self):
        p = params(echo_after_step=2)
        c3 = concurrence(strobo_states("1-", p))[2]
        assert c3 < 1.0 - 1e-3


class TestRecursionOracle:
    """The AR(1) recursion, sequence by sequence, against the closed form."""

    @pytest.mark.parametrize("kw", [dict(), dict(autocorrelation=0.0), dict(autocorrelation=0.4, echo_after_step=2),
                                    dict(autocorrelation=0.9, echo_after_step=1)])
    def test_matches_closed_form(self, kw):
        p = params(**kw)
        mean, se = stroboscopic_mc_dephasing_factors(p, 50_000, 404)
        assert np.all(np.abs(mean - factors(p)) <= 4.0 * np.maximum(se, 1e-12))

    def test_lag_one_autocorrelation_realized(self):
        # direct check of the AR(1) phase stream statistics
        p, n = params(autocorrelation=0.4), 50_000
        rng = np.random.default_rng(404)
        z = rng.standard_normal((n, p.steps))
        x = np.empty_like(z)
        x[:, 0] = p.phase_sigma * z[:, 0]
        innov = p.phase_sigma * np.sqrt(1 - p.autocorrelation**2)
        for k in range(1, p.steps):
            x[:, k] = p.autocorrelation * x[:, k - 1] + innov * z[:, k]
        for k in range(p.steps):
            assert abs(x[:, k].std() - p.phase_sigma) < 0.01
        lag1 = np.mean(x[:, :-1] * x[:, 1:]) / p.phase_sigma**2
        assert abs(lag1 - p.autocorrelation) < 0.02

    def test_seed_and_thread_count(self):
        p = params(autocorrelation=0.5, echo_after_step=2)
        a = stroboscopic_mc_dephasing_factors(p, 8192, 1, threads=1)
        b = stroboscopic_mc_dephasing_factors(p, 8192, 1, threads=8)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))
        assert not np.array_equal(a[0], stroboscopic_mc_dephasing_factors(p, 8192, 2)[0])

    @pytest.mark.parametrize("sequences", [-5, 0, 1])
    def test_fewer_than_two_sequences_are_refused(self, sequences):
        # a standard error needs two; no count below that runs a batch
        with pytest.raises(ValueError, match=">= 2"):
            stroboscopic_mc_dephasing_factors(params(), sequences, 1)


@pytest.mark.parametrize("threads", [1, 3])
def test_mc_batches_draw_each_batch_from_its_own_stream(threads):
    # every Monte-Carlo oracle draws through _mc_batches: batch i of the fixed
    # size gets the i-th stream spawned from the seed, results in batch order
    n = 2 * noise.MC_BATCH + 3
    got = noise._mc_batches(77, n, threads, lambda rng, size: (size, rng.random()))
    streams = np.random.SeedSequence(77).spawn(3)
    sizes = (noise.MC_BATCH, noise.MC_BATCH, 3)
    assert got == [(size, np.random.default_rng(s).random()) for size, s in zip(sizes, streams)]


def test_state_is_valid_density_operator():
    rho = strobo_states("2+", params(autocorrelation=0.3, echo_after_step=1))
    assert isinstance(rho, DensityOperator)
    assert np.max(np.abs(np.trace(rho.matrix, axis1=1, axis2=2) - 1.0)) < 1e-12
