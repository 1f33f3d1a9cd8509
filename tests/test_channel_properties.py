"""Trace preservation, positivity and unitality across every implemented
channel, on a seeded random-state corpus."""
import numpy as np
import pytest

from qrevivals.linalg import DensityOperator
from qrevivals.noise import (
    RTNParams,
    RandomFieldParams,
    StaticNoiseParams,
    StroboscopicParams,
    apply_b_dephasing,
    field_channel,
    ou_phase_variance,
    rtn_coherence,
    stroboscopic_phase_variance,
)

MIXED = np.eye(4, dtype=complex) / 4.0


def corpus(n=40, seed=1234):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = g @ g.conj().T
        out.append(m / np.trace(m).real)
    return out


def channel_cases():
    ou_factor = np.exp(-0.5 * ou_phase_variance(StaticNoiseParams(sigma=1.0, echo_time=0.9, correlation_time=4.0), 1.5))
    strobo_factor = np.exp(-0.5 * stroboscopic_phase_variance(
        StroboscopicParams(phase_sigma=0.5, autocorrelation=0.6, echo_after_step=1), 3))
    static_factor = np.exp(-0.5 * ou_phase_variance(StaticNoiseParams(sigma=1.0, echo_time=1.0), 1.8))
    rtn_factor = rtn_coherence(RTNParams(rate=1.0, coupling=3.0), 0.8)
    return [
        (
            "random-field",
            lambda m: field_channel(DensityOperator(m, (2, 2)), RandomFieldParams(1.0), [0.9]).matrix[0],
        ),
        (
            "gaussian-field",
            lambda m: field_channel(DensityOperator(m, (2, 2)), RandomFieldParams(1.0, 0.15), [0.9]).matrix[0],
        ),
        ("static-dephasing-echoed", lambda m: apply_b_dephasing(m, static_factor, True)),
        ("ou-dephasing-echoed", lambda m: apply_b_dephasing(m, ou_factor, True)),
        ("rtn-dephasing", lambda m: apply_b_dephasing(m, rtn_factor, False)),
        ("stroboscopic-echoed", lambda m: apply_b_dephasing(m, strobo_factor, True)),
    ]


@pytest.mark.parametrize("name,chan", channel_cases(), ids=lambda c: c if isinstance(c, str) else "")
class TestChannelProperties:
    def test_trace_preserving(self, name, chan):
        for m in corpus():
            tr = np.trace(chan(m))
            assert abs(tr - 1.0) < 1e-10

    def test_positivity_preserving(self, name, chan):
        for m in corpus():
            assert np.linalg.eigvalsh(chan(m)).min() > -1e-9

    def test_hermiticity_preserving(self, name, chan):
        for m in corpus(10):
            out = chan(m)
            assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_unital(self, name, chan):
        assert np.max(np.abs(chan(MIXED) - MIXED)) < 1e-10


def test_dephasing_factor_magnitudes_bounded():
    # every averaged coherence factor lies in the closed unit disk
    var = ou_phase_variance(StaticNoiseParams(sigma=1.0, correlation_time=2.0), [0.5, 2.0])
    assert np.all((var >= 0.0) & (np.exp(-0.5 * var) <= 1.0))
    var = stroboscopic_phase_variance(StroboscopicParams(phase_sigma=0.5, autocorrelation=0.3), np.arange(5))
    assert np.all((var >= 0.0) & (np.exp(-0.5 * var) <= 1.0))
    f = np.exp(-0.5 * ou_phase_variance(StaticNoiseParams(sigma=1.0), 2.5))
    assert abs(f) <= 1.0 + 1e-12
    assert abs(rtn_coherence(RTNParams(rate=1.0, coupling=5.0), 1.7)) <= 1.0
