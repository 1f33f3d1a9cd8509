"""Dense complex linear algebra for small multi-qubit Hilbert spaces (dims 2, 4, 8).

All operations are pure functions on immutable values: inputs are never
mutated and density operators are validated once at construction time.
Density operators, partial traces, spectra and entropies also take stacks
(..., d, d) of matrices, such as a whole time grid, so that one LAPACK call
serves every matrix of the stack; a single matrix is the stack of one.
"""
from __future__ import annotations

import numpy as np

from .records import Record

SUPPORTED_DIMS = (2, 4, 8)

# Negative eigenvalues above this window are treated as numerical dust and
# clipped to zero; anything below it is a genuine positivity violation.
EIG_DUST = 1e-10
TRACE_TOL = 1e-10
HERM_TOL = 1e-10


class NumericalError(ValueError):
    """A matrix failed a numerical validity check (trace, Hermiticity,
    positivity, finiteness) that valid inputs cannot fail.

    ``index`` is the stack index of the first failing matrix, the one the
    message names; it is empty for a single matrix or where none applies.
    """

    def __init__(self, message="", index=()):
        super().__init__(message)
        self.index = tuple(index)


class PositivityError(NumericalError):
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


def _as_stack(m) -> np.ndarray:
    """A square matrix or a stack (..., d, d) of them, as a complex array."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    return m


def _first_failure(ok: np.ndarray):
    """Index of the first False entry of ``ok`` (None if all hold), and its
    " at stack index ..." suffix for messages (empty for a single matrix)."""
    if ok.all():
        return None, ""
    idx = tuple(int(i) for i in np.unravel_index(int(np.argmin(ok)), ok.shape))
    return idx, f" at stack index {idx[0] if len(idx) == 1 else idx}" if idx else ""


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product a (x) b with row-major index convention
    (a(x)b)[i*db+k, j*db+l] = a[i,j] * b[k,l]."""
    return np.kron(_as_square(a), _as_square(b))


def hermitian_eigenvalues(m, herm_tol: float = 1e-8) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix (or of each matrix of a stack),
    sorted in descending order along the last axis.

    Values inside the dust window (-EIG_DUST, 0) are clipped to exactly 0;
    more negative values are returned as-is (the matrix need not be positive).
    """
    m = _as_stack(m)
    dev = np.max(np.abs(m - np.swapaxes(m, -1, -2).conj()), axis=(-2, -1), initial=0.0)
    idx, where = _first_failure(dev <= herm_tol)  # negated: a NaN deviation fails
    if idx is not None:
        raise NumericalError(
            f"matrix is not Hermitian within {herm_tol:g}{where} (max deviation {dev[idx]:.3e})",
            idx,
        )
    vals = np.linalg.eigvalsh(m)[..., ::-1]
    return np.where((vals < 0.0) & (vals > -EIG_DUST), 0.0, vals)


def _density_spectrum(m) -> np.ndarray:
    """Validate a density matrix, or each matrix of a stack (..., d, d), and
    return the spectra in descending order with eigenvalue dust clipped to 0.

    Trace one, Hermiticity and positivity are tested with negated comparisons,
    so a NaN or inf entry fails them too (every comparison with NaN is False).
    One eigvalsh call serves the positivity check of the whole stack, and its
    eigenvalues are the returned spectra.
    """
    tr = np.trace(m, axis1=-2, axis2=-1)
    idx, where = _first_failure(np.abs(tr - 1.0) <= TRACE_TOL)
    if idx is not None:
        raise NumericalError(f"trace {tr[idx]:.12g}{where} differs from 1 by more than {TRACE_TOL:g}", idx)
    vals = hermitian_eigenvalues(m, HERM_TOL)
    low = vals[..., -1]
    idx, where = _first_failure(low >= 0.0)  # dust is already 0
    if idx is not None:
        raise PositivityError(
            f"negative eigenvalue {low[idx]:.3e}{where} below the -{EIG_DUST:g} dust window", idx
        )
    return vals


class DensityOperator(Record):
    """Trace-one Hermitian positive-semidefinite matrix with subsystem metadata,
    or a stack (..., d, d) of such matrices sharing the metadata.

    ``dims`` lists the tensor-factor dimensions in order; their product must
    equal the matrix dimension. The matrix is copied and frozen on input and
    validated once by ``_density_spectrum``, whose spectra are kept, so
    ``eigenvalues`` needs no further eigendecomposition.
    """

    def __init__(self, matrix: np.ndarray, dims: tuple[int, ...] = (2,)):
        vars(self).update(matrix=matrix, dims=dims)
        self.__post_init__()

    def __post_init__(self):
        m = _as_stack(self.matrix).copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if int(np.prod(self.dims)) != m.shape[-1]:
            raise ValueError(f"dims {self.dims} do not multiply to matrix dim {m.shape[-1]}")
        if m.shape[-1] not in SUPPORTED_DIMS:
            raise ValueError(f"dimension {m.shape[-1]} unsupported (expected one of {SUPPORTED_DIMS})")
        spectrum = _density_spectrum(m)
        spectrum.setflags(write=False)
        object.__setattr__(self, "_spectrum", spectrum)

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    def eigenvalues(self) -> np.ndarray:
        """Spectrum in descending order with dust clipped to zero (one row per
        matrix of a stack)."""
        return self._spectrum.copy()


def partial_trace(rho: DensityOperator, keep) -> DensityOperator:
    """Trace out every subsystem not listed in ``keep`` (indices into rho.dims),
    from every matrix of a stack."""
    keep = tuple(sorted(set(int(k) for k in keep)))
    n = len(rho.dims)
    if not keep:
        raise ValueError("keep must be a nonempty subset of subsystem indices")
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"subsystem indices {keep} out of range for dims {rho.dims}")
    lead = rho.matrix.shape[:-2]
    dims = list(rho.dims)
    reshaped = rho.matrix.reshape(lead + tuple(dims + dims))
    traced = [i for i in range(n) if i not in keep]
    for idx in sorted(traced, reverse=True):
        axis = len(lead) + idx
        reshaped = np.trace(reshaped, axis1=axis, axis2=axis + len(dims))
        dims.pop(idx)
    d = int(np.prod(dims))
    return DensityOperator(reshaped.reshape(lead + (d, d)), tuple(dims))


def von_neumann_entropy(rho: DensityOperator):
    """S(rho) = -sum_i p_i ln p_i in nats, with 0 ln 0 := 0; a float, or an
    array with one entropy per matrix of a stack."""
    s = _entropy(rho.eigenvalues())
    return float(s) if s.ndim == 0 else s


def _entropy(p) -> np.ndarray:
    """-sum p ln p in nats along the last axis, never -0.0; a weight <= 0 adds nothing."""
    return -np.sum(p * np.log(np.where(p > 0.0, p, 1.0)), axis=-1) + 0.0
