import numpy as np
import pytest

from qrevivals.linalg import DensityOperator, EYE2, SIGMA_X, tensor_product
from qrevivals.measures import concurrence
from qrevivals.noise import (
    RandomFieldParams,
    RandomUnitaryChannel,
    _gh_nodes,
    field_channel,
    field_mixture_grid,
    field_unitary,
)
from qrevivals.states import XYZParams, xyz_state

X4 = tensor_product(EYE2, SIGMA_X)


def fig2_state():
    return xyz_state(XYZParams(1.0, 0.9, 1.0))


def characteristic_function_oracle(rho0, p, t):
    """Closed form for the phase-averaged, Rabi-averaged channel.

    Averaging the two phases leaves cos^2 rho + sin^2 X rho X; the Gaussian
    Rabi average replaces cos(w t) by exp(-width^2 t^2) cos(rabi t).
    """
    sym = 0.5 * (rho0.matrix + X4 @ rho0.matrix @ X4)
    anti = 0.5 * (rho0.matrix - X4 @ rho0.matrix @ X4)
    damp = np.exp(-((p.width * t) ** 2)) if p.width > 0 else 1.0
    return sym + damp * np.cos(p.rabi * t) * anti


class TestFieldUnitary:
    def test_identity_at_zero(self):
        assert np.allclose(field_unitary(np.pi / 2, 1.0, 0.0), EYE2, atol=1e-15)

    def test_sigma_x_at_pi(self):
        # at rabi*t = pi the two phase branches give -i sigma_x and +i sigma_x
        u_plus = field_unitary(np.pi / 2, 1.0, np.pi)
        u_minus = field_unitary(-np.pi / 2, 1.0, np.pi)
        assert np.allclose(u_plus, -1j * SIGMA_X, atol=1e-15)
        assert np.allclose(u_minus, 1j * SIGMA_X, atol=1e-15)

    def test_minus_identity_at_two_pi(self):
        assert np.allclose(field_unitary(np.pi / 2, 1.0, 2 * np.pi), -EYE2, atol=1e-14)

    def test_unitary_everywhere(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            u = field_unitary(rng.uniform(-np.pi, np.pi), rng.uniform(0.1, 3.0), rng.uniform(0, 20))
            assert np.max(np.abs(u @ u.conj().T - EYE2)) < 1e-12

    def test_stack_equals_elementwise_calls(self):
        # arrays of Rabi frequencies and times broadcast to one propagator per pair, bit for bit
        omegas = np.array([0.7, 1.0, 1.8])
        times = np.array([0.0, 0.4, 1.3, 7.9])
        for ph in (np.pi / 2, -np.pi / 2, 0.3):
            stack = field_unitary(ph, omegas, times[:, None])
            assert stack.shape == (4, 3, 2, 2)
            for j, t in enumerate(times):
                for k, om in enumerate(omegas):
                    assert np.array_equal(stack[j, k], field_unitary(ph, om, t))


class TestRandomUnitaryChannel:
    def test_nan_weights_or_members_rejected(self):
        us = np.stack([EYE2, SIGMA_X])
        with pytest.raises(ValueError, match="weights"):
            RandomUnitaryChannel(np.array([np.nan, 1.0]), us)
        bad = us.copy()
        bad[1, 0, 1] = np.nan
        with pytest.raises(ValueError, match="unitary"):
            RandomUnitaryChannel(np.array([0.5, 0.5]), bad)

    def test_weights_validated(self):
        us = np.stack([EYE2, EYE2])
        with pytest.raises(ValueError):
            RandomUnitaryChannel(np.array([0.7, 0.7]), us)

    def test_members_must_be_unitary(self):
        bad = np.stack([EYE2, 0.5 * EYE2])
        with pytest.raises(ValueError):
            RandomUnitaryChannel(np.array([0.5, 0.5]), bad)

    def test_identity_channel(self):
        ch = RandomUnitaryChannel(np.array([1.0]), EYE2[None])
        rho = fig2_state()
        assert np.allclose(ch.apply(rho).matrix, rho.matrix, atol=1e-15)


class TestGaussHermiteNodes:
    def test_matches_hermgauss_normalized(self):
        for order in (1, 8, 64, 128):
            x, w = _gh_nodes(order)
            x_ref, w_ref = np.polynomial.hermite.hermgauss(order)
            assert np.array_equal(x, x_ref)
            assert np.array_equal(w, w_ref / np.sqrt(np.pi))

    def test_shared_arrays_are_read_only(self):
        x, w = _gh_nodes(16)
        assert _gh_nodes(16)[0] is x
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0
        assert np.array_equal(x, np.polynomial.hermite.hermgauss(16)[0])

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError, match="order"):
            _gh_nodes(0)

    def test_non_finite_rule_is_a_value_error(self):
        # numpy's rule is NaN from order ~372 on; no NaN may reach an ensemble
        with np.errstate(all="ignore"):
            x, w = np.polynomial.hermite.hermgauss(400)
        assert not np.all(np.isfinite(w))
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="order 400 is not finite"):
            _gh_nodes(400)


class TestRandomFieldMap:
    def test_identity_at_zero(self):
        rho0 = fig2_state()
        assert np.allclose(field_channel(rho0, RandomFieldParams(1.0), [0.0]).matrix[0], rho0.matrix)

    def test_full_revival_at_pi(self):
        rho0 = fig2_state()
        assert abs(concurrence(field_channel(rho0, RandomFieldParams(1.0), [np.pi]))[0] - 0.8) < 1e-9

    def test_dark_period_at_half_pi(self):
        rho0 = fig2_state()
        assert concurrence(field_channel(rho0, RandomFieldParams(1.0), [np.pi / 2]))[0] < 1e-9

    def test_trace_preserving_and_unital(self):
        p = RandomFieldParams(rabi=1.0)
        rng = np.random.default_rng(5)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = g @ g.conj().T
        rho = DensityOperator(m / np.trace(m).real, (2, 2))
        out = field_channel(rho, p, [1.7])
        assert abs(np.trace(out.matrix[0]) - 1.0) < 1e-12
        mixed = DensityOperator(np.eye(4, dtype=complex) / 4, (2, 2))
        assert np.max(np.abs(field_channel(mixed, p, [1.7]).matrix - mixed.matrix)) < 1e-12

    def test_two_pi_periodicity_statewise(self):
        rho0 = fig2_state()
        p = RandomFieldParams(rabi=1.0)
        times = np.array([0.0, 0.9, 2.2, np.pi])
        a = field_channel(rho0, p, times).matrix
        b = field_channel(rho0, p, times + 2 * np.pi).matrix
        assert np.max(np.abs(a - b)) < 1e-10

    def test_matches_oracle_closed_form(self):
        rho0 = fig2_state()
        p = RandomFieldParams(rabi=1.3)
        times = np.linspace(0, 7, 29)
        out = field_channel(rho0, p, times).matrix
        for k, t in enumerate(times):
            assert np.max(np.abs(out[k] - characteristic_function_oracle(rho0, p, t))) < 1e-12


class TestGaussianAveragedMap:
    def test_small_width_approaches_sharp_map(self):
        rho0 = fig2_state()
        sharp = field_channel(rho0, RandomFieldParams(1.0), [2.1]).matrix
        soft = field_channel(rho0, RandomFieldParams(1.0, 1e-7), [2.1]).matrix
        assert np.max(np.abs(sharp - soft)) < 1e-8

    def test_matches_characteristic_function_oracle(self):
        rho0 = fig2_state()
        p = RandomFieldParams(rabi=1.0, width=0.1)
        times = np.linspace(0.0, 8 * np.pi, 65)
        out = field_channel(rho0, p, times).matrix
        for k, t in enumerate(times):
            assert np.max(np.abs(out[k] - characteristic_function_oracle(rho0, p, t))) < 1e-8

    def test_revival_maxima_decay(self):
        rho0 = fig2_state()
        p = RandomFieldParams(rabi=1.0, width=0.1)
        peaks = concurrence(field_channel(rho0, p, np.pi * np.arange(5)))
        assert np.all(np.diff(peaks) < 0.0)

    # (width, grid end, Gauss-Hermite order of the oracle): the oracle needs an
    # order that resolves exp(i 2 width x t) over the grid; width 0.3 at t = 40
    # takes more than 128 nodes (order 8 used to raise there)
    @pytest.mark.parametrize("width, t_stop, order", [
        (0.0, 9.0, None), (0.15, 9.0, 64), (0.15, 9.0, 128), (0.3, 20.0, 64), (0.3, 40.0, 256),
    ])
    def test_grid_matches_channel_oracle(self, width, t_stop, order):
        # the closed-form (T, 2, 4, 4) register stack against the Gauss-Hermite
        # ensemble of RandomUnitaryChannel, point by point
        rho0 = fig2_state()
        p = RandomFieldParams(1.0, width)
        times = np.linspace(0.0, t_stop, 37)
        blocks = field_mixture_grid(0.5 * rho0.matrix, p, times)
        summed = field_mixture_grid(0.5 * rho0.matrix, p, times, summed=True)
        assert blocks.shape == (37, 2, 4, 4) and summed.shape == (37, 4, 4)
        for k, t in enumerate(times):
            if width == 0.0:
                ch = RandomUnitaryChannel.two_phase(1.0, t)
            else:
                ch = RandomUnitaryChannel.gaussian_field(1.0, width, t, order)
            assert np.max(np.abs(summed[k] - ch.apply(rho0).matrix)) < 1e-14
            for e in (0, 1):  # members alternate between the two phases
                member = RandomUnitaryChannel(2 * ch.weights[e::2], ch.unitaries[e::2])
                assert np.max(np.abs(blocks[k, e] - 0.5 * member.apply(rho0).matrix)) < 1e-14
        assert np.max(np.abs(blocks.sum(axis=1) - summed)) < 1e-15

    def test_trace_preserved(self):
        out = field_channel(fig2_state(), RandomFieldParams(1.0, 0.2), [3.0])
        assert out.matrix.shape == (1, 4, 4)
        assert abs(np.trace(out.matrix[0]) - 1.0) < 1e-10


def test_revival_witness_nonmonotonic_concurrence():
    # width = 0: a strict local minimum followed by an increase must exist
    rho0 = fig2_state()
    p = RandomFieldParams(rabi=1.0)
    cs = concurrence(field_channel(rho0, p, np.linspace(0, 2 * np.pi, 201)))
    drops = np.flatnonzero(np.diff(cs) < -1e-12)
    rises = np.flatnonzero(np.diff(cs) > 1e-12)
    assert drops.size > 0 and rises.size > 0 and rises.max() > drops.min()
