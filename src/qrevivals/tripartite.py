"""Information flows of the random-field channel between the two qubits A, B
and a two-state classical register E whose basis states label the field phase.

The joint state is classical-quantum, rho_ABE = 1/2 sum_e rho_e (x) |e><e|:
register block rho_e is rho0 with qubit B turned by phase FIELD_PHASES[e],
averaged over the Rabi frequency, which is rho0 dephased about sigma_x on B by
field_factors (e = 0) or their conjugate (e = 1). By the joint entropy theorem
every entropy of the decomposition comes from 4x4 and 2x2 spectra:
S(XE) = ln 2 + 1/2 sum_e S(rho_e^X) for X = AB, A, B, S(E) = ln 2, and S(AB),
S(A), S(B) are those of 1/2 (rho_0 + rho_1), the two-qubit field channel's
output. No (8, 8) matrix is built.
"""
from __future__ import annotations

import numpy as np

from .linalg import DensityOperator, SIGMA_X, partial_trace, von_neumann_entropy
from .measures import InformationDecomposition, concurrence, decomposition_from_entropies
from .noise import RandomFieldParams, dephased_state, field_factors


def register_decomposition(rho_ab: DensityOperator, blocks: DensityOperator) -> InformationDecomposition:
    """The information decomposition of rho_ABE = 1/2 sum_e rho_e (x) |e><e| from
    its (..., 4, 4) two-qubit states and (2, ..., 4, 4) register blocks rho_e."""
    ln2 = np.log(2.0)

    def with_register(rho):  # S(XE) from the register blocks rho_e^X, stacked on the first axis
        return ln2 + von_neumann_entropy(rho).mean(axis=0)

    singles = [von_neumann_entropy(partial_trace(rho_ab, (k,))) for k in (0, 1)] + [ln2]
    pairs = [von_neumann_entropy(rho_ab)] + [with_register(partial_trace(blocks, (k,))) for k in (0, 1)]
    return decomposition_from_entropies(with_register(blocks), singles, pairs)


def flow_measures(
    rho_ab0: DensityOperator, p: RandomFieldParams | list[RandomFieldParams], grid
) -> tuple[np.ndarray, InformationDecomposition]:
    """Concurrence of rho_AB and the information decomposition of rho_ABE at
    every point of a nonempty time grid, as (T,) arrays; for a sequence of V
    params, as (V, T) arrays, one row per value. The decomposition's tau is the
    genuine tripartite correlation.

    The AB state is checked before the register blocks, so a factor that makes
    no state raises a NumericalError naming its (value, time)."""
    grid = np.asarray(grid, dtype=float).reshape(-1)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    if isinstance(p, RandomFieldParams):
        f = field_factors(p, grid)
    else:
        f = np.stack([field_factors(q, grid) for q in p])
    rho_ab = dephased_state(rho_ab0, f.real, axis=SIGMA_X)  # field_channel's output
    blocks = dephased_state(rho_ab0, np.stack([f, f.conj()]), axis=SIGMA_X)
    return concurrence(rho_ab), register_decomposition(rho_ab, blocks)
