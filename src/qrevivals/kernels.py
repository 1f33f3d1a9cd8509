"""The Monte-Carlo inner loop of the telegraph-noise oracle, in numpy.

The kernel consumes pre-generated random arrays; all random number
generation stays outside it. It keeps the floating-point operations, and
their order, of the reference formula it replaces, so its output is
bit-for-bit that formula's and the oracle's output stays byte-identical.
"""
from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def rtn_integrals(switch_cumsum, times):
    """Per-trajectory time integral int_0^t xi(s) ds of a +/-1 telegraph signal
    starting at +1.

    ``switch_cumsum[b, k]`` is the time of the (k+1)-th sign flip of trajectory
    b (nondecreasing, last entry beyond times[-1]); ``times`` is ascending.
    Returns the (B, T) array of integrals.

    The reference formula is d @ signs with d = diff(min([0, s_1, ..., s_cap], t))
    per row: the signed lengths of the intervals between flips, clipped at t.
    Row b's d at time t is [s_1 - 0, ..., s_m - s_{m-1}, t - s_m, 0, ...], m the
    number of flips at or before t. It is built in place in one (B, cap) buffer:
    each full interval is written once, at the first output time at or after
    its end, the one straddling interval per row is rewritten at every time,
    and the cells to its right stay +0.0 (what t - t gives). The buffer then goes
    through the same (B, cap) @ (cap,) product, so the result is bit-for-bit
    the reference's, at O(B) element writes per time instead of the O(B * cap)
    min and diff passes.
    """
    n_traj, n_switch = switch_cumsum.shape
    n_t = times.shape[0]
    if not switch_cumsum[:, -1].min() > times[-1]:
        raise ValueError("the last switch of every trajectory must lie beyond times[-1]")
    hi = switch_cumsum.ravel()
    lo = np.zeros((n_traj, n_switch))
    lo[:, 1:] = switch_cumsum[:, :-1]
    lo = lo.ravel()
    # flat cells that turn full within the grid, grouped by the time index at
    # which they do; a small unsigned key lets the stable sort use radix sort
    cells = np.flatnonzero(hi <= times[-1])
    turns_full = np.searchsorted(times, hi[cells], side="left").astype(np.min_scalar_type(n_t))
    stops = np.cumsum(np.bincount(turns_full, minlength=n_t))
    cells = cells[np.argsort(turns_full, kind="stable")]
    del turns_full
    full = hi[cells] - lo[cells]

    signs = (-1.0) ** np.arange(n_switch)
    row_start = np.arange(n_traj) * n_switch
    n_full = np.zeros(n_traj, dtype=np.intp)
    d = np.zeros(n_traj * n_switch)
    rows = d.reshape(n_traj, n_switch)
    out = np.empty((n_traj, n_t))
    start = 0
    for j, t in enumerate(times):
        now = cells[start:stops[j]]
        d[now] = full[start:stops[j]]
        n_full += np.bincount(now // n_switch, minlength=n_traj)
        start = stops[j]
        at = row_start + n_full
        d[at] = t - lo[at]
        out[:, j] = rows @ signs
    return out


def backend_name() -> str:
    return BACKEND
