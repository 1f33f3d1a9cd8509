"""The RTN integral kernel against a brute-force reference computation, and
bit for bit against the formula it replaced."""
import numpy as np
import pytest

from qrevivals import kernels


def rtn_integral_bruteforce(switch_cumsum, times):
    """Direct per-(trajectory, time) evaluation of int_0^t xi(s) ds."""
    n_traj, _ = switch_cumsum.shape
    out = np.zeros((n_traj, len(times)))
    for b in range(n_traj):
        for j, t in enumerate(times):
            acc, prev, sign = 0.0, 0.0, 1.0
            for s in switch_cumsum[b]:
                if s >= t:
                    break
                acc += sign * (s - prev)
                prev, sign = s, -sign
            out[b, j] = acc + sign * (t - prev)
    return out


def make_rtn_inputs(seed, n_traj=64, rate=1.3, t_max=8.0):
    rng = np.random.default_rng(seed)
    cap = 40
    switches = np.cumsum(rng.exponential(1 / rate, (n_traj, cap)), axis=1)
    assert switches[:, -1].min() > t_max
    times = np.linspace(0.0, t_max, 17)
    return switches, times


def rtn_integrals_reference(switch_cumsum, times):
    """The min/diff/gemv formula: d @ signs, d the clipped interval lengths."""
    n_traj, n_switch = switch_cumsum.shape
    padded = np.concatenate([np.zeros((n_traj, 1)), switch_cumsum], axis=1)
    signs = (-1.0) ** np.arange(n_switch)
    out = np.empty((n_traj, times.shape[0]))
    for j, t in enumerate(times):
        out[:, j] = np.diff(np.minimum(padded, t), axis=1) @ signs
    return out


def assert_bit_equal(new, old):
    assert new.shape == old.shape
    assert np.array_equal(new.view(np.int64), old.view(np.int64))


class TestRTNIntegrals:
    def test_matches_bruteforce(self):
        switches, times = make_rtn_inputs(1)
        expected = rtn_integral_bruteforce(switches, times)
        assert np.allclose(kernels.rtn_integrals(switches, times), expected, atol=1e-12)

    def test_no_switches_before_t(self):
        switches = np.array([[5.0, 9.0, 14.0, 20.0]])
        times = np.array([0.0, 1.0, 4.0])
        out = kernels.rtn_integrals(switches, times)
        assert np.allclose(out, [[0.0, 1.0, 4.0]])

    def test_last_switch_must_pass_the_grid(self):
        with pytest.raises(ValueError, match="beyond"):
            kernels.rtn_integrals(np.array([[1.0, 4.0]]), np.array([0.5, 4.0]))


class TestRTNIntegralsBitIdentity:
    """The kernel builds the reference's interval vector in place and keeps
    its (B, cap) @ (cap,) product, so every output bit must match."""

    @pytest.mark.parametrize("cap", [40, 67])
    @pytest.mark.parametrize("n_traj", [2048, 1809, 7, 1])
    def test_random_switches(self, cap, n_traj):
        rng = np.random.default_rng(cap * 10_000 + n_traj)
        rate, t_max = 1.7, 10.0
        switches = np.cumsum(rng.exponential(1 / rate, (n_traj, cap)), axis=1)
        assert switches[:, -1].min() > t_max
        times = np.linspace(0.0, t_max, 49)  # starts at t = 0
        assert_bit_equal(kernels.rtn_integrals(switches, times), rtn_integrals_reference(switches, times))

    def test_time_equal_to_a_switch(self):
        switches, times = make_rtn_inputs(5)
        times = np.unique(np.concatenate([times, switches[:3, :4].ravel()]))
        times = times[times < switches[:, -1].min()]
        assert_bit_equal(kernels.rtn_integrals(switches, times), rtn_integrals_reference(switches, times))

    @pytest.mark.parametrize("t", [0.0, 3.3, 7.99])
    def test_single_time(self, t):
        switches, _ = make_rtn_inputs(6)
        times = np.array([t])
        assert_bit_equal(kernels.rtn_integrals(switches, times), rtn_integrals_reference(switches, times))

    def test_rows_with_no_switch_before_the_last_time(self):
        switches, times = make_rtn_inputs(7)
        switches[::3] += times[-1]  # every third row first flips after the grid
        assert_bit_equal(kernels.rtn_integrals(switches, times), rtn_integrals_reference(switches, times))

    def test_widened_switch_array(self):
        # the Monte-Carlo oracle appends a further block of flips when a row
        # has not passed t_max; the kernel must handle the wider array alike
        rng = np.random.default_rng(8)
        rate, cap, t_max = 2.0, 40, 30.0
        switches = np.cumsum(rng.exponential(1 / rate, size=(301, cap)), axis=1)
        while switches[:, -1].min() <= t_max:
            extra = np.cumsum(rng.exponential(1 / rate, size=(301, cap)), axis=1)
            switches = np.concatenate([switches, switches[:, -1:] + extra], axis=1)
        assert switches.shape[1] > cap
        times = np.linspace(0.0, t_max, 33)
        assert_bit_equal(kernels.rtn_integrals(switches, times), rtn_integrals_reference(switches, times))


class TestBackendSelection:
    def test_backend_reported(self):
        assert kernels.backend_name() == "numpy"
