"""Information flows of the random-field channel between the two qubits A, B
and a two-state classical register E whose basis states label the field phase.

The joint state is classical-quantum, rho_ABE = 1/2 sum_e rho_e (x) |e><e|:
register block rho_e is rho0 with qubit B turned by phase FIELD_PHASES[e],
averaged over the Rabi frequency, which is rho0 dephased about sigma_x on B by
f = field_factors (e = 0) or conj f (e = 1). Knowing the sign of the phase
leaves only the spread of Omega: rho_e is rho0 dephased by |f| = e^{-width^2
t^2}, then turned about sigma_x on B. So by the joint entropy theorem S(XE) =
ln 2 + S(D_|f|(rho0)^X) for X = AB, A, B, S(E) = ln 2, and S(AB), S(A) =
S(rho0^A), S(B) are those of the field channel's output, rho0 dephased by Re f.
At width 0, S(ABE) = ln 2 + S(rho0) at every time. No state is built.
"""
from __future__ import annotations

import numpy as np

from .linalg import DensityOperator, SIGMA_X
from .measures import DephasingKernel, InformationDecomposition, concurrence_kernel, decomposition_from_entropies
from .noise import RandomFieldParams, field_factors


def register_decomposition(kernel: DephasingKernel, f) -> InformationDecomposition:
    """The information decomposition of rho_ABE = 1/2 sum_e rho_e (x) |e><e|, rho_e
    the kernel's rho0 dephased about its axis on B by ``f`` (e = 0) or conj f (e
    = 1), at every factor of the array ``f``: rho_AB at Re f, rho_e at |f|."""
    ln2 = np.log(2.0)
    (s_ab, s_abe), (s_b, s_be), s_a = kernel.entropies(np.stack([f.real, np.abs(f)]))
    s_a = np.full(np.shape(f), s_a)
    return decomposition_from_entropies(ln2 + s_abe, [s_a, s_b, ln2], [s_ab, ln2 + s_a, ln2 + s_be])


def flow_measures(
    rho_ab0: DensityOperator, p: RandomFieldParams | list[RandomFieldParams], grid
) -> tuple[np.ndarray, InformationDecomposition]:
    """Concurrence of rho_AB and the information decomposition of rho_ABE at
    every point of a nonempty time grid, as (T,) arrays; for a sequence of V
    params, as (V, T) arrays, one row per value. The decomposition's tau is the
    genuine tripartite correlation.

    Both come from one measures.concurrence_kernel of rho_ab0, whose check of
    the factors names a bad one by its (value, time)."""
    grid = np.asarray(grid, dtype=float).reshape(-1)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    if isinstance(p, RandomFieldParams):
        f = field_factors(p, grid)
    else:
        f = np.stack([field_factors(q, grid) for q in p])
    kernel = concurrence_kernel(rho_ab0, SIGMA_X)
    return kernel(f.real), register_decomposition(kernel, f)
