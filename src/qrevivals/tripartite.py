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
At width 0, S(ABE) = ln 2 + S(rho0) at every time. No (8, 8) matrix is built.
"""
from __future__ import annotations

import numpy as np

from .linalg import DensityOperator, SIGMA_X, partial_trace, von_neumann_entropy
from .measures import InformationDecomposition, decomposition_from_entropies, dephased_concurrence
from .noise import RandomFieldParams, dephased_state, field_factors


def register_decomposition(rho0: DensityOperator, f, axis) -> InformationDecomposition:
    """The information decomposition of rho_ABE = 1/2 sum_e rho_e (x) |e><e|, rho_e
    rho0 dephased about the Pauli ``axis`` on B by ``f`` (e = 0) or conj f (e = 1),
    at every factor of the array ``f``. Their mean rho_AB is rho0 dephased by Re f."""
    ln2 = np.log(2.0)
    rho_ab = dephased_state(rho0, f.real, axis=axis)
    blocks = dephased_state(rho0, np.abs(f), axis=axis)  # each rho_e up to a local unitary on B
    s_a = np.full(np.shape(f), von_neumann_entropy(partial_trace(rho0, (0,))))
    singles = [s_a, von_neumann_entropy(partial_trace(rho_ab, (1,))), ln2]
    pairs = [von_neumann_entropy(rho_ab), ln2 + s_a, ln2 + von_neumann_entropy(partial_trace(blocks, (1,)))]
    return decomposition_from_entropies(ln2 + von_neumann_entropy(blocks), singles, pairs)


def flow_measures(
    rho_ab0: DensityOperator, p: RandomFieldParams | list[RandomFieldParams], grid
) -> tuple[np.ndarray, InformationDecomposition]:
    """Concurrence of rho_AB and the information decomposition of rho_ABE at
    every point of a nonempty time grid, as (T,) arrays; for a sequence of V
    params, as (V, T) arrays, one row per value. The decomposition's tau is the
    genuine tripartite correlation.

    The concurrence comes from measures.dephased_concurrence, which checks
    the factors first, so a factor that makes no state raises a
    NumericalError naming its (value, time)."""
    grid = np.asarray(grid, dtype=float).reshape(-1)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    if isinstance(p, RandomFieldParams):
        f = field_factors(p, grid)
    else:
        f = np.stack([field_factors(q, grid) for q in p])
    conc = dephased_concurrence(rho_ab0, f.real, SIGMA_X)
    return conc, register_decomposition(rho_ab0, f, SIGMA_X)
