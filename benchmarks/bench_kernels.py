#!/usr/bin/env python3
"""Benchmark the Monte-Carlo kernels: numba-compiled loop vs numpy fallback.

Run directly::

    PYTHONPATH=src python3 benchmarks/bench_kernels.py

The workloads mirror the heaviest production use in its production shape:
the runner hands each kernel one batch of ``noise.MC_BATCH`` (2048)
trajectories at a time, so each workload is timed as its sequence of batch
calls: telegraph-noise integrals (1e5 trajectories x 50 grid points, 49
batches) and Ornstein-Uhlenbeck phase accumulation (1e4 trajectories x 320
fine steps, 5 batches).
"""
import time

import numpy as np

from qrevivals import kernels
from qrevivals.noise import MC_BATCH


def timeit(fn, *args, repeat=3):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def batched(kernel):
    """``kernel`` applied to consecutive MC_BATCH-trajectory slices of its
    first argument, as the Monte-Carlo runners call it."""

    def run(per_traj, *rest):
        for lo in range(0, per_traj.shape[0], MC_BATCH):
            kernel(per_traj[lo:lo + MC_BATCH], *rest)

    return run


def rtn_workload(n_traj=100_000, n_times=50, rate=1.0, t_max=10.0, seed=0):
    rng = np.random.default_rng(seed)
    cap = int(rate * t_max + 12 * np.sqrt(rate * t_max) + 25)
    switches = np.cumsum(rng.exponential(1 / rate, (n_traj, cap)), axis=1)
    times = np.linspace(0.0, t_max, n_times)
    return switches, times


def ou_workload(n_traj=10_000, n_steps=320, seed=0):
    rng = np.random.default_rng(seed)
    normals = rng.standard_normal((n_traj, n_steps))
    decay = np.concatenate([[0.0], np.full(n_steps - 1, np.exp(-0.01))])
    diffuse = np.concatenate([[1.0], np.full(n_steps - 1, np.sqrt(1 - np.exp(-0.02)))])
    dur_sign = np.full(n_steps, 0.05)
    dur_sign[n_steps // 2:] *= -1.0
    write_idx = np.full(n_steps, -1, dtype=np.int64)
    write_idx[19::20] = np.arange(n_steps // 20)
    return normals, decay, diffuse, dur_sign, write_idx, n_steps // 20


def main():
    print(f"active backend: {kernels.backend_name()}")
    have_numba = kernels.BACKEND == "numba"

    rtn_args = rtn_workload()
    ou_args = ou_workload()

    if have_numba:
        # trigger compilation outside the timed region
        kernels._rtn_integrals_numba(rtn_args[0][:16], rtn_args[1])
        kernels._ou_phases_numba(ou_args[0][:16], *ou_args[1:])

    rows = []
    for name, args, numpy_kernel, numba_kernel in (
        ("rtn_integrals (1e5 x 50)", rtn_args, kernels._rtn_integrals_numpy,
         getattr(kernels, "_rtn_integrals_numba", None)),
        ("ou_phases (1e4 x 320)", ou_args, kernels._ou_phases_numpy,
         getattr(kernels, "_ou_phases_numba", None)),
    ):
        t_np = timeit(batched(numpy_kernel), *args)
        rows.append((name, "numpy", t_np, 1.0))
        if have_numba:
            t_nb = timeit(batched(numba_kernel), *args)
            rows.append((name, "numba", t_nb, t_np / t_nb))

    print(f"batches of {MC_BATCH} trajectories per kernel call")
    print(f"{'workload':<28} {'backend':<8} {'best (s)':>10} {'speedup':>9}")
    for name, backend, seconds, speedup in rows:
        print(f"{name:<28} {backend:<8} {seconds:>10.4f} {speedup:>8.1f}x")


if __name__ == "__main__":
    main()
