import numpy as np
import pytest

from qrevivals import noise
from qrevivals.linalg import DensityOperator
from qrevivals.measures import concurrence, eof_from_concurrence
from qrevivals.noise import StroboscopicParams, dephased_state, stroboscopic_coherences
from qrevivals.states import bell_state


def params(**kw):
    base = dict(phase_sigma=0.6, autocorrelation=1.0, sequences=10_000, seed=404)
    base.update(kw)
    return StroboscopicParams(**base)


def strobo_states(label, p):
    """The sequence-averaged states of a Bell input after steps 1..p.steps."""
    psi = bell_state(label)
    steps = np.arange(1, p.steps + 1)
    echoed = steps > (np.inf if p.echo_after_step is None else p.echo_after_step)
    rho0 = DensityOperator(np.outer(psi, psi.conj()), (2, 2))
    return dephased_state(rho0, stroboscopic_coherences(p).factors, echoed)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            params(phase_sigma=-0.1)
        with pytest.raises(ValueError):
            params(autocorrelation=1.5)
        with pytest.raises(ValueError):
            params(sequences=0)
        with pytest.raises(ValueError):
            params(echo_after_step=4)


class TestStaticPhases:
    """mu = 1 reduces every sequence to one shared Gaussian phase."""

    def test_zero_sigma_keeps_concurrence_one(self):
        p = params(phase_sigma=0.0)
        assert np.max(np.abs(concurrence(strobo_states("1-", p)) - 1.0)) < 1e-12

    def test_stepwise_decay_matches_accumulated_variance(self):
        # with all phases equal, step k carries phase variance (k sigma)^2,
        # so C_k = exp(-k^2 sigma^2 / 2) like the static model at sigma*t = k*sigma
        p = params()
        est = stroboscopic_coherences(p)
        sigma = p.phase_sigma
        for k in range(1, 5):
            target = np.exp(-0.5 * (k * sigma) ** 2)
            assert abs(abs(est.factors[k - 1]) - target) <= 4.0 * max(est.se_abs[k - 1], 1e-12)

    def test_monotone_decay_without_echo(self):
        efs = eof_from_concurrence(concurrence(strobo_states("1-", params())))
        assert np.all(np.diff(efs) < 0.0)

    def test_echo_recovers_exactly_at_step_four(self):
        p = params(echo_after_step=2)
        c4 = concurrence(strobo_states("1-", p))[3]
        assert abs(c4 - 1.0) < 1e-12
        est = stroboscopic_coherences(p)
        assert est.se_abs[3] < 1e-15  # every sequence refocuses identically

    def test_echo_intermediate_step_still_dephased(self):
        p = params(echo_after_step=2)
        c3 = concurrence(strobo_states("1-", p))[2]
        assert c3 < 1.0 - 1e-3


class TestCorrelatedPhases:
    def test_lag_one_autocorrelation_realized(self):
        # direct check of the AR(1) phase stream statistics
        p = params(autocorrelation=0.4, sequences=50_000)
        rng = np.random.default_rng(p.seed)
        z = rng.standard_normal((p.sequences, p.steps))
        x = np.empty_like(z)
        x[:, 0] = p.phase_sigma * z[:, 0]
        innov = p.phase_sigma * np.sqrt(1 - p.autocorrelation**2)
        for k in range(1, p.steps):
            x[:, k] = p.autocorrelation * x[:, k - 1] + innov * z[:, k]
        for k in range(p.steps):
            assert abs(x[:, k].std() - p.phase_sigma) < 0.01
        lag1 = np.mean(x[:, :-1] * x[:, 1:]) / p.phase_sigma**2
        assert abs(lag1 - p.autocorrelation) < 0.02

    def test_uncorrelated_phases_decay_linearly_in_variance(self):
        # mu = 0: Theta_k is a sum of k independent phases -> C_k = exp(-k sigma^2/2)
        p = params(autocorrelation=0.0, sequences=100_000)
        est = stroboscopic_coherences(p)
        for k in range(1, 5):
            target = np.exp(-0.5 * k * p.phase_sigma**2)
            assert abs(abs(est.factors[k - 1]) - target) <= 4.0 * max(est.se_abs[k - 1], 1e-12)


class TestDeterminism:
    def test_same_seed_same_factors(self):
        a = stroboscopic_coherences(params(sequences=4096))
        b = stroboscopic_coherences(params(sequences=4096))
        assert np.array_equal(a.factors, b.factors)

    def test_thread_invariance(self):
        p = params(sequences=8192)
        a = stroboscopic_coherences(p, threads=1)
        b = stroboscopic_coherences(p, threads=8)
        assert np.array_equal(a.factors, b.factors)

    def test_different_seed_differs(self):
        a = stroboscopic_coherences(params(sequences=4096, seed=1))
        b = stroboscopic_coherences(params(sequences=4096, seed=2))
        assert not np.array_equal(a.factors, b.factors)


@pytest.mark.parametrize("threads", [1, 3])
def test_mc_batches_draw_each_batch_from_its_own_stream(threads):
    # every Monte-Carlo channel draws through _mc_batches: batch i of the fixed
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


class TestParameterSetSequence:
    """One call over V parameter sets draws each batch's normals once and must
    equal V single-set calls bit for bit."""

    SETS = (
        dict(autocorrelation=0.0),
        dict(autocorrelation=1.0),
        dict(autocorrelation=0.5, echo_after_step=2),
        dict(autocorrelation=1.0, echo_after_step=1),
        dict(autocorrelation=0.0, phase_sigma=0.0, echo_after_step=3),
    )

    @pytest.mark.parametrize("threads", [1, 2, 8])
    def test_equals_single_set_calls(self, threads):
        ps = [params(sequences=5000, **kw) for kw in self.SETS]  # the last batch is partial
        stacked = stroboscopic_coherences(ps, threads)
        assert len(stacked) == len(ps)
        for p, est in zip(ps, stacked):
            single = stroboscopic_coherences(p, threads)
            assert np.array_equal(est.factors.view(np.int64), single.factors.view(np.int64))
            assert np.array_equal(est.se_abs.view(np.int64), single.se_abs.view(np.int64))
            assert est.trajectories == single.trajectories == 5000

    @pytest.mark.parametrize("other", [dict(seed=405), dict(sequences=4096)])
    def test_sets_must_share_seed_and_sequences(self, other):
        with pytest.raises(ValueError, match="share seed, sequences and steps"):
            stroboscopic_coherences([params(sequences=5000), params(**{"sequences": 5000, **other})])

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            stroboscopic_coherences([])
