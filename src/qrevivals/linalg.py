"""Dense complex linear algebra for small multi-qubit Hilbert spaces (dims 2, 4, 8).

All operations are pure functions on immutable values: inputs are never
mutated and density operators are validated once at construction time.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SUPPORTED_DIMS = (2, 4, 8)

# Negative eigenvalues above this window are treated as numerical dust and
# clipped to zero; anything below it is a genuine positivity violation.
EIG_DUST = 1e-10
TRACE_TOL = 1e-10
HERM_TOL = 1e-10


class PositivityError(ValueError):
    """An operator that must be positive semidefinite has a real negative eigenvalue."""


# Pauli matrices in the canonical basis {|0>, |1>}.
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
EYE2 = np.eye(2, dtype=complex)


def _as_square(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product a (x) b with row-major index convention
    (a(x)b)[i*db+k, j*db+l] = a[i,j] * b[k,l]."""
    return np.kron(_as_square(a), _as_square(b))


def hermitian_eigenvalues(m, herm_tol: float = 1e-8) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, sorted in descending order.

    Values inside the dust window (-EIG_DUST, 0) are clipped to exactly 0;
    more negative values are returned as-is (the matrix need not be positive).
    """
    m = _as_square(m)
    dev = np.max(np.abs(m - m.conj().T)) if m.size else 0.0
    if not dev <= herm_tol:  # negated so that a NaN deviation also raises
        raise ValueError(f"matrix is not Hermitian within {herm_tol:g} (max deviation {dev:.3e})")
    vals = np.linalg.eigvalsh(m)[::-1].copy()
    vals[(vals < 0.0) & (vals > -EIG_DUST)] = 0.0
    return vals


def clip_positive_spectrum(values, dust: float = EIG_DUST) -> np.ndarray:
    """Clip eigenvalue dust in (-dust, 0) to zero; raise for anything lower."""
    values = np.asarray(values, dtype=float)
    if np.any(values <= -dust):
        raise PositivityError(
            f"negative eigenvalue {values.min():.3e} below the -{dust:g} dust window"
        )
    out = values.copy()
    out[out < 0.0] = 0.0
    return out


@dataclass(frozen=True)
class DensityOperator:
    """Trace-one Hermitian positive-semidefinite matrix with subsystem metadata.

    ``dims`` lists the tensor-factor dimensions in order; their product must
    equal the matrix dimension. The matrix is copied and frozen on input.
    """

    matrix: np.ndarray
    dims: tuple[int, ...] = (2,)

    def __post_init__(self):
        m = _as_square(self.matrix).copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if int(np.prod(self.dims)) != m.shape[0]:
            raise ValueError(f"dims {self.dims} do not multiply to matrix dim {m.shape[0]}")
        if m.shape[0] not in SUPPORTED_DIMS:
            raise ValueError(f"dimension {m.shape[0]} unsupported (expected one of {SUPPORTED_DIMS})")
        # negated checks: a non-finite entry makes the trace or the deviation
        # NaN or inf, and every comparison with NaN is False
        tr = np.trace(m)
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise ValueError(f"trace {tr:.12g} differs from 1 by more than {TRACE_TOL:g}")
        herm_dev = np.max(np.abs(m - m.conj().T))
        if not herm_dev <= HERM_TOL:
            raise ValueError(f"not Hermitian within {HERM_TOL:g} (max deviation {herm_dev:.3e})")
        vals = np.linalg.eigvalsh(m)
        if vals[0] < -EIG_DUST:
            raise PositivityError(f"negative eigenvalue {vals[0]:.3e} below the dust window")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """Spectrum in descending order with dust clipped to zero."""
        return clip_positive_spectrum(hermitian_eigenvalues(self.matrix))


def pure_state_density(psi, dims: tuple[int, ...]) -> DensityOperator:
    """|psi><psi| as a DensityOperator (psi is normalized if slightly off)."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"state vector norm {nrm:.12g} is not 1 within 1e-9")
    return DensityOperator(np.outer(psi, psi.conj()) / nrm**2, dims)


def partial_trace(rho: DensityOperator, keep) -> DensityOperator:
    """Trace out every subsystem not listed in ``keep`` (indices into rho.dims)."""
    keep = tuple(sorted(set(int(k) for k in keep)))
    n = len(rho.dims)
    if not keep:
        raise ValueError("keep must be a nonempty subset of subsystem indices")
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"subsystem indices {keep} out of range for dims {rho.dims}")
    dims = list(rho.dims)
    reshaped = rho.matrix.reshape(dims + dims)
    traced = [i for i in range(n) if i not in keep]
    for idx in sorted(traced, reverse=True):
        reshaped = np.trace(reshaped, axis1=idx, axis2=idx + len(dims))
        dims.pop(idx)
    d = int(np.prod(dims))
    return DensityOperator(reshaped.reshape(d, d), tuple(dims))


def von_neumann_entropy(rho: DensityOperator, base: str = "natural") -> float:
    """S(rho) = -sum_i p_i log p_i with 0 log 0 := 0.

    base "natural" gives nats, base "two" gives bits.
    """
    if base not in ("natural", "two"):
        raise ValueError(f"base must be 'natural' or 'two', got {base!r}")
    p = rho.eigenvalues()
    p = p[p > 0.0]
    s = float(-np.sum(p * np.log(p)))
    if base == "two":
        s /= np.log(2.0)
    # -0.0 guard for pure states
    return abs(s) if s == 0.0 else s


def matrix_sqrt_psd(m) -> np.ndarray:
    """Principal square root of a Hermitian PSD matrix via eigendecomposition."""
    m = _as_square(m)
    vals, vecs = np.linalg.eigh(m)
    vals = clip_positive_spectrum(vals)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T
