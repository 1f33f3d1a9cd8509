"""Correlation quantifiers: concurrence, entanglement of formation, mutual
information, genuine tripartite correlations, the total-information
decomposition, and average/hidden entanglement of pure-state ensembles.

Concurrence, mutual information, tripartite correlations and the
decomposition take a DensityOperator holding one matrix (and return floats)
or a stack of them (and return one value per matrix, as arrays).

Entropy units: natural log (nats) for every mutual-information/decomposition
quantity; base 2 only inside the binary entropy of the entanglement of
formation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DensityOperator,
    SIGMA_Y,
    clip_positive_spectrum,
    hermitian_eigenvalues,
    matrix_sqrt_psd,
    partial_trace,
    tensor_product,
    von_neumann_entropy,
)

_YY = tensor_product(SIGMA_Y, SIGMA_Y)


def _require_two_qubits(rho: DensityOperator):
    if rho.dims != (2, 2):
        raise ValueError(f"expected a two-qubit state with dims (2, 2), got {rho.dims}")


def _value(x):
    """A float for a single matrix, the array itself for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def concurrence(rho: DensityOperator):
    """Wootters concurrence of a two-qubit state (or of each state of a stack).

    Computed from the Hermitian form sqrt(rho) (sy(x)sy) rho* (sy(x)sy) sqrt(rho),
    whose spectrum equals that of rho (sy(x)sy) rho* (sy(x)sy); complex
    conjugation is taken in the canonical basis. Eigenvalues below 1e-13 of
    the largest are rank dust and zeroed, otherwise their square roots would
    pollute the result at the 1e-8 level for rank-deficient states.
    """
    _require_two_qubits(rho)
    s = matrix_sqrt_psd(rho.matrix)
    flipped = _YY @ rho.matrix.conj() @ _YY
    chi = clip_positive_spectrum(hermitian_eigenvalues(s @ flipped @ s))
    chi = np.where(chi < 1e-13 * chi[..., :1], 0.0, chi)
    roots = np.sqrt(chi)
    c = roots[..., 0] - roots[..., 1] - roots[..., 2] - roots[..., 3]
    # rounding can carry a maximally entangled state a few ulps past 1
    return _value(np.where(c > 0.0, np.minimum(c, 1.0), 0.0))


def concurrence_pure(psi) -> float:
    """Concurrence of a pure two-qubit state vector: 2 |psi0 psi3 - psi1 psi2|."""
    psi = np.asarray(psi, dtype=complex).reshape(4)
    return float(2.0 * abs(psi[0] * psi[3] - psi[1] * psi[2]))


def binary_entropy(x):
    """h(x) = -x log2 x - (1-x) log2(1-x), with h(0)=h(1)=0 (elementwise on an array)."""
    x = np.asarray(x, dtype=float)
    edge = (x <= 0.0) | (x >= 1.0)
    x = np.where(edge, 0.5, x)
    return _value(np.where(edge, 0.0, -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x)))


def eof_from_concurrence(c):
    """Entanglement of formation h((1 + sqrt(1-c^2))/2) from a concurrence c
    (elementwise on an array)."""
    c = np.asarray(c, dtype=float)
    bad = ~((c >= -1e-9) & (c <= 1.0 + 1e-9))
    if bad.any():
        raise ValueError(f"concurrence {c[bad][0]} outside [0, 1]")
    c = np.clip(c, 0.0, 1.0)
    return binary_entropy((1.0 + np.sqrt(1.0 - c * c)) / 2.0)


def eof_stderr(c, se_c):
    """Standard error of E_f(c) from that of a concurrence estimate c: half the
    spread of E_f over c -/+ se_c, 0 where se_c is 0 (elementwise on arrays)."""
    hi = eof_from_concurrence(np.minimum(1.0, c + se_c))
    lo = eof_from_concurrence(np.maximum(0.0, c - se_c))
    return _value(np.where(se_c == 0.0, 0.0, 0.5 * (hi - lo)))


def _validate_bipartition(rho: DensityOperator, bipartition):
    part_i, part_j = (tuple(sorted(int(i) for i in part)) for part in bipartition)
    n = len(rho.dims)
    combined = sorted(part_i + part_j)
    if combined != list(range(n)) or not part_i or not part_j:
        raise ValueError(
            f"bipartition {bipartition} must split subsystems 0..{n - 1} into two nonempty parts"
        )
    return part_i, part_j


def mutual_information(rho: DensityOperator, bipartition):
    """Quantum mutual information S(rho_I) + S(rho_J) - S(rho) in nats across
    a bipartition ((i, ...), (j, ...)) of the declared subsystems."""
    part_i, part_j = _validate_bipartition(rho, bipartition)
    s_i = von_neumann_entropy(partial_trace(rho, part_i))
    s_j = von_neumann_entropy(partial_trace(rho, part_j))
    return s_i + s_j - von_neumann_entropy(rho)


def _require_three_qubits(rho: DensityOperator):
    if rho.dims != (2, 2, 2):
        raise ValueError(f"expected a three-qubit state with dims (2, 2, 2), got {rho.dims}")


def tripartite_correlations(rho_abe: DensityOperator):
    """Genuine tripartite correlations: the minimum mutual information over the
    three bipartitions (AB|E), (AE|B), (BE|A) (the decomposition's tau)."""
    return information_decomposition(rho_abe).tripartite


@dataclass(frozen=True)
class InformationDecomposition:
    """Split of the total state information into local, genuine-tripartite and
    maximal-bipartite parts, plus the residual of the bookkeeping identity
    (floats, or arrays with one value per state of a stack)."""

    total: float | np.ndarray
    local: float | np.ndarray
    tripartite: float | np.ndarray
    bipartite_max: float | np.ndarray
    residual: float | np.ndarray


def information_decomposition(rho_abe: DensityOperator) -> InformationDecomposition:
    """Decompose I = ln 8 - S(rho_ABE) into local information
    sum_i (ln 2 - S(rho_i)), genuine tripartite correlations, and the maximal
    pairwise mutual information; the residual records the identity mismatch.

    tau is the minimum over the three bipartitions of S(pair) + S(single) -
    S(rho_ABE), the mutual information across each cut."""
    _require_three_qubits(rho_abe)
    s_full = von_neumann_entropy(rho_abe)
    singles = [von_neumann_entropy(partial_trace(rho_abe, (k,))) for k in range(3)]
    pairs = {
        (0, 1): von_neumann_entropy(partial_trace(rho_abe, (0, 1))),
        (0, 2): von_neumann_entropy(partial_trace(rho_abe, (0, 2))),
        (1, 2): von_neumann_entropy(partial_trace(rho_abe, (1, 2))),
    }
    ln2 = np.log(2.0)
    total = 3.0 * ln2 - s_full
    local = (ln2 - singles[0]) + (ln2 - singles[1]) + (ln2 - singles[2])
    tau = np.minimum.reduce([
        pairs[(0, 1)] + singles[2] - s_full,
        pairs[(0, 2)] + singles[1] - s_full,
        pairs[(1, 2)] + singles[0] - s_full,
    ])
    mu2 = np.maximum.reduce([
        singles[0] + singles[1] - pairs[(0, 1)],
        singles[0] + singles[2] - pairs[(0, 2)],
        singles[1] + singles[2] - pairs[(1, 2)],
    ])
    return InformationDecomposition(
        total=_value(total),
        local=_value(local),
        tripartite=_value(tau),
        bipartite_max=_value(mu2),
        residual=_value(total - local - tau - mu2),
    )


@dataclass(frozen=True)
class WeightedPureEnsemble:
    """Probability-weighted set of two-qubit pure states.

    ``weights`` has shape (n,), ``states`` shape (n, 4); weights must be
    nonnegative and sum to 1, states unit-norm (both within 1e-9).
    """

    weights: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        s = np.asarray(self.states, dtype=complex)
        if s.ndim != 2 or s.shape != (w.size, 4):
            raise ValueError(f"states shape {s.shape} does not match {w.size} weights of 4-vectors")
        if np.any(w < -1e-12):
            raise ValueError(f"negative ensemble weight {w.min():.3e}")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ValueError(f"ensemble weights sum to {w.sum():.12g}, not 1 within 1e-9")
        norms = np.linalg.norm(s, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-9:
            raise ValueError("ensemble contains non-normalized states (beyond 1e-9)")
        w = w.copy()
        w.setflags(write=False)
        s = s.copy()
        s.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "states", s)

    def average_state(self) -> DensityOperator:
        """The mixture sum_i p_i |psi_i><psi_i|."""
        m = np.einsum("n,ni,nj->ij", self.weights, self.states, self.states.conj())
        return DensityOperator(m, (2, 2))


def average_entanglement(ens: WeightedPureEnsemble) -> float:
    """Weighted mean entanglement of formation of the ensemble members."""
    return float(
        sum(
            w * eof_from_concurrence(concurrence_pure(psi))
            for w, psi in zip(ens.weights, ens.states)
        )
    )


def hidden_entanglement(ens: WeightedPureEnsemble) -> float:
    """Average member entanglement minus the entanglement of the averaged state.

    Nonnegative (up to numerical dust) by convexity of the entanglement of
    formation.
    """
    e_mix = eof_from_concurrence(concurrence(ens.average_state()))
    return average_entanglement(ens) - e_mix
