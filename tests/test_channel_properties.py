"""Trace preservation, positivity and unitality across every implemented
channel, on a seeded random-state corpus."""
import numpy as np
import pytest

from qrevivals.linalg import DensityOperator, EYE2, SIGMA_X
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


X4 = np.kron(EYE2, SIGMA_X)


def scaled_coherences(mat4, factor):
    """``mat4`` with its |0><1|_B coherences times ``factor`` and its |1><0|_B
    coherences times the conjugate, one matrix per factor."""
    f2 = np.ones(np.shape(factor) + (2, 2), dtype=complex)
    f2[..., 0, 1] = factor
    f2[..., 1, 0] = np.conj(factor)
    return mat4 * np.tile(f2, (2, 2))


class TestPauliChannel:
    """apply_b_dephasing about a Pauli P of qubit B is rho_s + Re f rho_a -
    i Im f rho_a P, with rho_s, rho_a = (rho +/- P rho P)/2."""

    FACTORS = np.array([[-1.0, -0.37, 0.0, 0.25, 1.0], [0.9, -0.6, 1e-300, -5e-324, 0.5], [0.3, 0.1, -0.8, 0.7, -0.2]])

    def test_real_factors_about_z_scale_the_coherences_bit_for_bit(self):
        # exact equality; a product that is zero (factor 0 or -5e-324) may
        # differ only in the sign of that zero
        for m in corpus(10):
            for f in (0.37, -0.81, self.FACTORS[1, :3], self.FACTORS):  # single, (T,) and (V, T) stacks
                out, want = apply_b_dephasing(m, f), scaled_coherences(m, f)
                assert np.array_equal(out, want)
                if np.all(f != 0.0):
                    assert out.tobytes() == want.tobytes()

    def test_complex_factors_about_z_scale_the_coherences(self):
        f = self.FACTORS * np.exp(1j * np.linspace(0.0, 6.0, self.FACTORS.size)).reshape(self.FACTORS.shape)
        for m in corpus(10):
            assert np.max(np.abs(apply_b_dephasing(m, f) - scaled_coherences(m, f))) <= 1e-16

    def test_real_factors_about_x_are_the_bit_flip(self):
        r = self.FACTORS[..., None, None]
        for m in corpus(10):
            want = 0.5 * ((1.0 + r) * m + (1.0 - r) * (X4 @ m @ X4))
            assert np.max(np.abs(apply_b_dephasing(m, self.FACTORS, axis=SIGMA_X) - want)) <= 1e-15

    @pytest.mark.parametrize("axis", [None, SIGMA_X], ids=["z", "x"])
    def test_echo_applies_sigma_x_on_b_afterwards(self, axis):
        kw = {} if axis is None else {"axis": axis}
        flags = np.arange(self.FACTORS.size).reshape(self.FACTORS.shape) % 2 == 1
        for m in corpus(5):
            plain = apply_b_dephasing(m, self.FACTORS, **kw)
            echoed = apply_b_dephasing(m, self.FACTORS, flags, **kw)
            assert echoed.tobytes() == np.where(flags[..., None, None], X4 @ plain @ X4, plain).tobytes()
            one = apply_b_dephasing(m, 0.4, **kw)
            assert apply_b_dephasing(m, 0.4, True, **kw).tobytes() == (X4 @ one @ X4).tobytes()
