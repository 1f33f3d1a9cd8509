"""The telegraph oracle's per-flip cosine sums against a brute-force
per-(trajectory, time) evaluation of the same flips, and its grid-bin lookup
against np.searchsorted."""
import numpy as np
import pytest

from qrevivals.noise import MC_BATCH, RTNParams, _grid_bins, _rtn_cos_sums, rtn_mc_coherence_grid


def rtn_integral_bruteforce(rows, times):
    """Direct per-(trajectory, time) evaluation of int_0^t xi(s) ds, xi = +1
    until the first flip of its row."""
    out = np.zeros((len(rows), len(times)))
    for b, row in enumerate(rows):
        for j, t in enumerate(times):
            acc, prev, sign = 0.0, 0.0, 1.0
            for s in row:
                if s >= t:
                    break
                acc += sign * (s - prev)
                prev, sign = s, -sign
            out[b, j] = acc + sign * (t - prev)
    return out


def assert_sums_agree(rows, times, coupling):
    times = np.asarray(times, dtype=float)
    counts = np.array([len(row) for row in rows], dtype=np.intp)
    flips = np.concatenate([np.asarray(row, dtype=float) for row in rows])
    cos_sum, cos2_sum = _rtn_cos_sums(flips, counts, times, coupling, _grid_bins(times))
    c = np.cos(coupling * rtn_integral_bruteforce(rows, times))
    tol = 1e-12 * len(rows)  # 1e-12 per trajectory
    assert np.max(np.abs(cos_sum - c.sum(axis=0))) <= tol
    assert np.max(np.abs(cos2_sum - (c * c).sum(axis=0))) <= tol


def random_rows(seed, n_rows, rate, t_max):
    rng = np.random.default_rng(seed)
    return [np.sort(rng.uniform(0.0, t_max, n)) for n in rng.poisson(rate * t_max, n_rows)]


@pytest.mark.parametrize("coupling", [0.7, 2.5])
def test_rows_with_no_flip(coupling):
    rows = [[], [1.0, 2.5], [], [0.3], []]
    assert_sums_agree(rows, np.linspace(0.0, 4.0, 9), coupling)


def test_no_flip_at_all():
    assert_sums_agree([[], [], []], [0.0, 1.0, 5.0], 3.0)


def test_flip_exactly_on_a_grid_time():
    rows = [[1.0, 2.0], [0.5, 1.5, 3.0], [0.0, 2.5]]
    assert_sums_agree(rows, [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0], 2.0)


def test_grid_not_starting_at_zero():
    rows = random_rows(11, 40, 1.3, 6.0)
    assert_sums_agree(rows, [2.0, 2.7, 4.1, 6.0], 1.9)


def test_flips_after_the_last_time_are_ignored():
    assert_sums_agree([[1.0, 9.0], [7.5]], [0.0, 2.0, 4.0], 2.0)


def test_rows_whose_first_flip_is_after_the_grid():
    times = np.linspace(0.0, 5.0, 11)
    rows = random_rows(17, 60, 1.2, 5.0)
    rows[::3] = [row + times[-1] for row in rows[::3]]  # every third row first flips after the grid
    assert_sums_agree(rows, times, 2.2)


def test_non_uniform_grid():
    rng = np.random.default_rng(12)
    times = np.cumsum(rng.exponential(0.4, 25))
    assert_sums_agree(random_rows(13, 60, 1.0, times[-1]), times, 2.5)


@pytest.mark.parametrize("t", [0.0, 3.3])
def test_single_time(t):
    assert_sums_agree(random_rows(14, 50, 1.0, 5.0), [t], 2.0)


def test_partial_batch_of_1809_rows():
    # the last batch of 10 001 trajectories, at the pinned oracle's grid
    rows = random_rows(15, 1809, 1.0, 12.0)
    assert_sums_agree(rows, np.linspace(0.0, 12.0, 49), 2.5)


def test_zero_coupling_keeps_every_cosine_at_one():
    rows = random_rows(16, 30, 1.0, 4.0)
    counts = np.array([len(row) for row in rows])
    times = np.linspace(0.0, 4.0, 5)
    cos_sum, cos2_sum = _rtn_cos_sums(np.concatenate(rows), counts, times, 0.0, _grid_bins(times))
    assert cos_sum.tolist() == [30.0] * 5 and cos2_sum.tolist() == [30.0] * 5


def test_oracle_with_no_flip_in_any_trajectory():
    # at rate * t_max ~ 1e-9 no trajectory flips, so every cosine is cos(v t);
    # 5 full batches and a last batch of one row
    p = RTNParams(rate=1e-9, coupling=2.0)
    times = np.linspace(0.0, 3.0, 7)
    mean, se = rtn_mc_coherence_grid(p, times, 5 * MC_BATCH + 1, 3, threads=2)
    assert np.max(np.abs(mean - np.cos(p.coupling * times))) <= 1e-12
    assert np.all(np.isfinite(se)) and np.max(se) <= 1e-7


def assert_bins_exact(times, seed):
    times = np.asarray(times, dtype=float)
    rng = np.random.default_rng(seed)
    lo, hi = times[0], times[-1]
    pad = 0.25 * (hi - lo) + 1.0
    keys = np.concatenate([
        rng.uniform(lo - pad, hi + pad, 4000),  # across and beyond the grid
        times, np.nextafter(times, -np.inf), np.nextafter(times, np.inf),
        [0.0, -1e308, 1e308, -np.inf, np.inf],
    ])
    for x in (keys, rng.permutation(keys), keys[:0]):
        got = _grid_bins(times)(x)
        assert got.dtype == np.intp and np.array_equal(got, np.searchsorted(times, x))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 49, 101, 200])
def test_grid_bins_on_uniform_grids(n):
    times = np.linspace(0.0, 8.0, n)
    if n > 1:  # a cell of half the spacing holds at most one time: no np.searchsorted fallback
        assert getattr(_grid_bins(times), "func", None) is not np.searchsorted
    assert_bins_exact(times, n)


@pytest.mark.parametrize("seed", range(5))
def test_grid_bins_on_non_uniform_grids(seed):
    rng = np.random.default_rng(100 + seed)
    assert_bins_exact(np.cumsum(rng.exponential(0.3, rng.integers(2, 120))), seed)


@pytest.mark.parametrize("times", [
    np.linspace(2.0, 12.0, 41),
    np.linspace(1e6, 1e6 + 3.0, 25),
    12.0 * np.linspace(0.0, 1.0, 49) ** 2,
    np.geomspace(1e-9, 10.0, 60),  # crowds its first cell: np.searchsorted
    np.array([1.0, np.nextafter(1.0, 2.0)]),
    np.array([0.0, 5e-324]),  # 4 cells per subnormal span overflow: np.searchsorted
], ids=["from-2", "from-1e6", "quadratic", "geometric", "one-ulp", "subnormal"])
def test_grid_bins_on_grids_above_zero_and_crowded_grids(times):
    assert_bins_exact(times, 7)


@pytest.mark.parametrize("t", [0.0, 3.3])
def test_grid_bins_on_one_point_grids(t):
    assert_bins_exact([t], 8)
