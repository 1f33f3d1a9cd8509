"""The explicit (8, 8) dilation of the random-field channel, the oracle of the
tripartite flows: qubits A, B plus a two-state classical register E whose
basis states label the field phase. The joint state stays block-diagonal in
E, and tracing E out reproduces the two-qubit channel exactly.
``qrevivals.tripartite.flow_measures`` computes the same flows from the
k x k pieces of rho0 in its concurrence kernel (k <= 4), at Re f and at |f|,
without building this state or any other.
"""
from dataclasses import dataclass

import numpy as np

from qrevivals.linalg import DensityOperator, EYE2, SIGMA_X, partial_trace, tensor_product
from qrevivals.measures import concurrence, information_decomposition
from qrevivals.noise import FIELD_PHASES, RandomFieldParams, apply_b_dephasing, field_factors, field_unitary

P_ENV = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))


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
    for ph, proj in zip(FIELD_PHASES, P_ENV):
        out += tensor_product(field_unitary(ph, p.rabi, t), proj)
    return out


def evolve_abe_grid(s0: HybridTripartiteState, p: RandomFieldParams, times) -> np.ndarray:
    """(1_A (x) U_BE) rho (1_A (x) U_BE)^dag at every time of ``times``, as a
    (T, 8, 8) array, averaged over the Gaussian Rabi frequency when the field
    width is nonzero. The state has no register coherences, so each register
    block evolves under its own field phase: block e is dephased about sigma_x
    on B by field_factors (e = 0) or their conjugate (e = 1)."""
    m0 = s0.rho.matrix.reshape((2,) * 6)  # [a, b, e, a', b', e']
    f = field_factors(p, times)
    out = np.zeros((f.size,) + (2,) * 6, dtype=complex)
    for e, factor in enumerate((f, f.conj())):
        block = apply_b_dephasing(m0[:, :, e, :, :, e].reshape(4, 4), factor, axis=SIGMA_X)
        out[:, :, :, e, :, :, e] = block.reshape((-1,) + (2,) * 4)
    return out.reshape(-1, 8, 8)


def evolve(s0: HybridTripartiteState, p: RandomFieldParams, times) -> HybridTripartiteState:
    """The evolved dilations at every time of ``times``, checked as a state stack."""
    return HybridTripartiteState(DensityOperator(evolve_abe_grid(s0, p, times), (2, 2, 2)))


def dilation_flow_measures(rho_ab0: DensityOperator, p: RandomFieldParams, grid):
    """Concurrence of rho_AB and the information decomposition of rho_ABE,
    from the whole (T, 8, 8) dilation and its marginals."""
    st = evolve(embed_initial(rho_ab0), p, np.asarray(grid, dtype=float).reshape(-1))
    return concurrence(partial_trace(st.rho, (0, 1))), information_decomposition(st.rho)
