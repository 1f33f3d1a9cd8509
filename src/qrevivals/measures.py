"""Correlation quantifiers: concurrence, entanglement of formation, mutual
information, genuine tripartite correlations, the total-information
decomposition, and average/hidden entanglement of pure-state ensembles.

Concurrence, mutual information, tripartite correlations and the
decomposition take a DensityOperator holding one matrix (and return floats)
or a stack of them (and return one value per matrix, as arrays). The
concurrence and the entropies of a state dephased on qubit B, the output of
every channel, need no state: concurrence_kernel reduces rho0 and the Pauli
axis to k x k pieces (k <= 4) once, a DephasingKernel, which takes the real
factors (a float for a scalar, an array for an array).

Entropy units: natural log (nats) for every mutual-information/decomposition
quantity; base 2 only inside the binary entropy of the entanglement of
formation.
"""
from __future__ import annotations

import numpy as np

from .linalg import (
    EIG_DUST,
    DensityOperator,
    NumericalError,
    SIGMA_Y,
    SIGMA_Z,
    _entropy,
    _first_failure,
    partial_trace,
    tensor_product,
    von_neumann_entropy,
)
from .records import Record

_YY = tensor_product(SIGMA_Y, SIGMA_Y)


def _require_two_qubits(rho: DensityOperator):
    if rho.dims != (2, 2):
        raise ValueError(f"expected a two-qubit state with dims (2, 2), got {rho.dims}")


def _value(x):
    """A float for a single matrix, the array itself for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def _from_lambdas(lam) -> np.ndarray:
    """max(0, lambda_1 - lambda_2 - ...) from descending singular values."""
    c = lam[..., 0] - lam[..., 1:].sum(axis=-1)
    # rounding can carry a maximally entangled state a few ulps past 1
    return np.where(c > 0.0, np.minimum(c, 1.0), 0.0)


def concurrence(rho: DensityOperator):
    """Wootters concurrence of a two-qubit state (or of each state of a stack).

    For any factor rho = W W^dagger, the lambda_i are the singular values of
    the symmetric W^T (sy(x)sy) W (Wootters, PRL 80, 2245 (1998)); here W =
    V sqrt(p) from one eigh. No square root of a product is taken, so a small
    lambda_i of a rank-deficient state keeps its value to rounding instead of
    the square root of its rounding.
    """
    _require_two_qubits(rho)
    p, v = np.linalg.eigh(rho.matrix)
    w = v * np.sqrt(np.maximum(p, 0.0))[..., None, :]
    return _value(_from_lambdas(np.linalg.svd(np.swapaxes(w, -1, -2) @ _YY @ w, compute_uv=False)))


def _check_factors(f):
    idx, where = _first_failure(np.abs(f) <= 1.0 + EIG_DUST)  # negated: a NaN fails
    if idx is not None:
        raise NumericalError(f"dephasing factor {f[idx]:.17g}{where} not in the unit disc within {EIG_DUST:g}", idx)


class DephasingKernel:
    """rho(f) = ((1 + f) rho0 + (1 - f) P rho0 P)/2, rho0 dephased about the Pauli
    P = 1 (x) axis on B by a real factor f, from k x k pieces of rho0: its call
    is the concurrence of rho(f) (a float for a scalar f), and ``entropies``
    gives S(rho(f)), S(rho(f)^B) and S(rho0^A), which no map on B moves.

    With A = V sqrt(p) from one eigh of rho0 (weights at or below 1e-13 of the
    largest dropped), W(f) = W0 D(f) factors the output, W0 = [A, PA] and D(f)
    = diag(sqrt((1 + f)/2) 1_r, sqrt((1 - f)/2) 1_r). One QR, W0^T = Q0 R0, and
    one eigh of Q0^dagger diag(1_r, -1_r) Q0 = V0 diag(z) V0^dagger then give
    the lambda_i as the singular values of E K0 E, with K0 = V0^dagger R0
    (sy(x)sy) R0^T conj(V0) and E = diag(sqrt((1 + f z)/2)), since D(f)^2 =
    (1 + f diag(1_r, -1_r))/2 is affine in f. K0 is k x k, k = min(2r, 4), so
    each factor costs one k x k SVD, and (1 - f)/2 enters as written, exact as
    |f| -> 1.

    The same pieces factor the state, rho(f) = B E^2 B^dagger, B = R0^T conj(V0),
    so ``entropies`` takes its nonzero spectrum from E G0 E, G0 = B^dagger B =
    V0^T conj(R0) R0^T conj(V0), one k x k eigvalsh per factor. A dropped
    weight p moves S(rho(f)) by at most p (ln 2 - ln p), 3.1e-12 at the cut.
    A factor must be finite with |f| <= 1 within EIG_DUST, else a NumericalError
    names the first bad one (its stack index); it is then clipped into [-1, 1].
    """

    def __init__(self, rho0: np.ndarray, axis):
        p, v = np.linalg.eigh(rho0)
        keep = p > 1e-13 * p[-1]
        a = v[:, keep] * np.sqrt(p[keep])
        w0 = np.concatenate([a, (axis @ a.reshape(2, 2, -1)).reshape(4, -1)], axis=1)  # [A, (1 (x) axis) A]
        q0, r0 = np.linalg.qr(w0.T)
        signs = np.repeat([1.0, -1.0], a.shape[1])
        z, v0 = np.linalg.eigh((q0.conj().T * signs) @ q0)
        self.z = np.clip(z, -1.0, 1.0)
        self.k0 = v0.conj().T @ r0 @ _YY @ r0.T @ v0.conj()
        self.b = r0.T @ v0.conj()  # rho(f) = B E^2 B^dagger
        self.rho0, self.axis = rho0, axis

    def _sandwich(self, m, f):
        """E m E for each real factor of ``f``, checked and clipped into [-1, 1]."""
        f = np.asarray(f)
        if np.iscomplexobj(f):
            raise ValueError("dephasing factors must be real")
        _check_factors(f)
        e = np.sqrt(0.5 * (1.0 + np.clip(f, -1.0, 1.0)[..., None] * self.z))
        return e[..., :, None] * m * e[..., None, :]

    def __call__(self, f):
        return _value(_from_lambdas(np.linalg.svd(self._sandwich(self.k0, f), compute_uv=False)))

    def entropies(self, f) -> tuple[np.ndarray, np.ndarray, float]:
        """S(rho(f)) and S(rho(f)^B) for each real factor of ``f``, and S(rho0^A), in nats."""
        s_ab = _entropy(np.linalg.eigvalsh(self._sandwich(self.b.conj().T @ self.b, f)))  # E G0 E
        m, p = self.rho0.reshape(2, 2, 2, 2), self.axis
        rho_b = np.trace(m, axis1=0, axis2=2)
        # the Bloch vector of rho0^B keeps its part along the axis, r_par, and f scales the rest, r_perp
        r_par2, r_perp2 = np.trace(rho_b @ p).real ** 2, 0.5 * np.sum(np.abs(rho_b - p @ rho_b @ p) ** 2)
        r = np.sqrt(r_par2 + np.minimum(np.square(f), 1.0) * r_perp2)
        s_b = _entropy(np.stack([0.5 * (1.0 + r), 0.5 * (1.0 - r)], axis=-1))
        return s_ab, s_b, float(_entropy(np.linalg.eigvalsh(np.trace(m, axis1=1, axis2=3))))


def concurrence_kernel(rho0: DensityOperator, axis=SIGMA_Z) -> DephasingKernel:
    """The DephasingKernel of the two-qubit state rho0 about the Pauli ``axis`` on B."""
    _require_two_qubits(rho0)
    if rho0.matrix.ndim != 2:
        raise ValueError(f"expected one state, got a stack of shape {rho0.matrix.shape}")
    return DephasingKernel(rho0.matrix, axis)


def dephased_concurrence(rho0: DensityOperator, f, axis=SIGMA_Z):
    """Concurrence of rho0 dephased about the Pauli ``axis`` on B by each real
    factor of ``f``: ``concurrence_kernel(rho0, axis)(f)``."""
    return concurrence_kernel(rho0, axis)(f)


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


class InformationDecomposition(Record):
    """Split of the total state information into local, genuine-tripartite and
    maximal-bipartite parts, plus the residual of the bookkeeping identity
    (floats, or arrays with one value per state of a stack)."""

    def __init__(self, total: float | np.ndarray, local: float | np.ndarray, tripartite: float | np.ndarray,
                 bipartite_max: float | np.ndarray, residual: float | np.ndarray):
        vars(self).update(total=total, local=local, tripartite=tripartite, bipartite_max=bipartite_max,
                          residual=residual)


def information_decomposition(rho_abe: DensityOperator) -> InformationDecomposition:
    """Decompose I = ln 8 - S(rho_ABE) into local information
    sum_i (ln 2 - S(rho_i)), genuine tripartite correlations, and the maximal
    pairwise mutual information; the residual records the identity mismatch.

    tau is the minimum over the three bipartitions of S(pair) + S(single) -
    S(rho_ABE), the mutual information across each cut."""
    _require_three_qubits(rho_abe)
    return decomposition_from_entropies(
        von_neumann_entropy(rho_abe),
        [von_neumann_entropy(partial_trace(rho_abe, (k,))) for k in range(3)],
        [von_neumann_entropy(partial_trace(rho_abe, pair)) for pair in ((0, 1), (0, 2), (1, 2))],
    )


def decomposition_from_entropies(s_full, singles, pairs) -> InformationDecomposition:
    """The information decomposition of a three-qubit state from its entropies:
    ``s_full`` of the whole, ``singles`` of the marginals (0,), (1,), (2,) and
    ``pairs`` of the marginals (0, 1), (0, 2), (1, 2) (floats, or arrays of
    one shape)."""
    ln2 = np.log(2.0)
    total = 3.0 * ln2 - s_full
    local = (ln2 - singles[0]) + (ln2 - singles[1]) + (ln2 - singles[2])
    tau = np.minimum.reduce([
        pairs[0] + singles[2] - s_full,
        pairs[1] + singles[1] - s_full,
        pairs[2] + singles[0] - s_full,
    ])
    mu2 = np.maximum.reduce([
        singles[0] + singles[1] - pairs[0],
        singles[0] + singles[2] - pairs[1],
        singles[1] + singles[2] - pairs[2],
    ])
    return InformationDecomposition(
        total=_value(total),
        local=_value(local),
        tripartite=_value(tau),
        bipartite_max=_value(mu2),
        residual=_value(total - local - tau - mu2),
    )


class WeightedPureEnsemble(Record):
    """Probability-weighted set of two-qubit pure states.

    ``weights`` has shape (n,), ``states`` shape (n, 4); weights must be
    nonnegative and sum to 1, states unit-norm (both within 1e-9).
    """

    def __init__(self, weights: np.ndarray, states: np.ndarray):
        vars(self).update(weights=weights, states=states)
        self.__post_init__()

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
