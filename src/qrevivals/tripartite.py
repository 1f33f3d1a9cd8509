"""Explicit quantum-classical tripartite representation of the random-field
channel: the two qubits A, B plus a two-state classical register E whose basis
states label the field phase. The joint state stays block-diagonal in E, and
tracing E out reproduces the two-qubit channel exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DensityOperator, EYE2, partial_trace, tensor_product
from .measures import InformationDecomposition, concurrence, information_decomposition
from .noise import FIELD_PHASES, RandomFieldParams, _x_frame, apply_b_dephasing, field_factors, field_unitary

_P_ENV = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))


@dataclass(frozen=True)
class HybridTripartiteState:
    """Three-qubit state ordered (A, B, E) with a classical (diagonal) E register,
    or a stack of them (a time grid).

    Invariants checked at construction: no coherences between the E basis
    states, and the E marginal is maximally mixed.
    """

    rho: DensityOperator

    def __post_init__(self):
        if self.rho.dims != (2, 2, 2):
            raise ValueError(f"expected dims (2, 2, 2), got {self.rho.dims}")
        m = self.rho.matrix
        blocks = m.reshape(m.shape[:-2] + (2,) * 6)
        off = max(np.max(np.abs(blocks[..., 0, :, :, 1])), np.max(np.abs(blocks[..., 1, :, :, 0])))
        if not off <= 1e-10:
            raise ValueError(f"environment-register coherences present (max {off:.3e})")
        env = partial_trace(self.rho, (2,)).matrix
        if not np.max(np.abs(env - EYE2 / 2.0)) <= 1e-12:
            raise ValueError("environment marginal differs from I/2 beyond 1e-12")


def embed_initial(rho_ab: DensityOperator) -> HybridTripartiteState:
    """rho_AB (x) I_E/2: the field register starts maximally mixed and
    uncorrelated from the qubits."""
    if rho_ab.dims != (2, 2):
        raise ValueError(f"expected a two-qubit state, got dims {rho_ab.dims}")
    m = tensor_product(rho_ab.matrix, EYE2 / 2.0)
    return HybridTripartiteState(DensityOperator(m, (2, 2, 2)))


def ube_unitary(p: RandomFieldParams, t: float) -> np.ndarray:
    """Controlled propagator on (B, E): sum_phi U_phi (x) |phi><phi|,
    block-diagonal in the register basis."""
    out = np.zeros((4, 4), dtype=complex)
    for ph, proj in zip(FIELD_PHASES, _P_ENV):
        out += tensor_product(field_unitary(ph, p.rabi, t), proj)
    return out


def evolve_abe_grid(s0: HybridTripartiteState, p: RandomFieldParams, times) -> np.ndarray:
    """(1_A (x) U_BE) rho (1_A (x) U_BE)^dag at every time of ``times``, as a
    (T, 8, 8) array, averaged over the Gaussian Rabi frequency when the field
    width is nonzero. The state has no register coherences, so each register
    block evolves under its own field phase: in the frame of a Hadamard on B,
    block e is dephased by field_factors (e = 0) or their conjugate (e = 1)."""
    m0 = s0.rho.matrix.reshape((2,) * 6)  # [a, b, e, a', b', e']
    f = field_factors(p, times)
    out = np.zeros((f.size,) + (2,) * 6, dtype=complex)
    for e, factor in enumerate((f, f.conj())):
        block = _x_frame(apply_b_dephasing(_x_frame(m0[:, :, e, :, :, e].reshape(4, 4)), factor))
        out[:, :, :, e, :, :, e] = block.reshape((-1,) + (2,) * 4)
    return out.reshape(-1, 8, 8)


def flow_measures(
    rho_ab0: DensityOperator, p: RandomFieldParams, grid
) -> tuple[np.ndarray, InformationDecomposition]:
    """Concurrence of rho_AB and the information decomposition of rho_ABE at
    every point of a nonempty time grid, as (T,) arrays. The whole grid is one
    (T, 8, 8) stack, validated once; the decomposition's tau is the genuine
    tripartite correlation."""
    grid = np.asarray(grid, dtype=float).reshape(-1)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    st = HybridTripartiteState(
        DensityOperator(evolve_abe_grid(embed_initial(rho_ab0), p, grid), (2, 2, 2))
    )
    return concurrence(partial_trace(st.rho, (0, 1))), information_decomposition(st.rho)

