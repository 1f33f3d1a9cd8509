import numpy as np
import pytest

from qrevivals.linalg import (
    DensityOperator,
    EYE2,
    PositivityError,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    hermitian_eigenvalues,
    partial_trace,
    tensor_product,
    von_neumann_entropy,
)
from qrevivals.states import XYZParams, bell_state, xyz_state


def pure_state_density(psi, dims):
    """|psi><psi| / <psi|psi> as a DensityOperator."""
    return DensityOperator(np.outer(psi, psi.conj()) / np.linalg.norm(psi) ** 2, dims)


def kron_oracle(a, b):
    """Brute-force index expansion (a(x)b)[i*db+k, j*db+l] = a[i,j] b[k,l]."""
    da, db = a.shape[0], b.shape[0]
    out = np.zeros((da * db, da * db), dtype=complex)
    for i in range(da):
        for j in range(da):
            for k in range(db):
                for l in range(db):
                    out[i * db + k, j * db + l] = a[i, j] * b[k, l]
    return out


def partial_trace_oracle_first_of_two(mat, d1, d2):
    """Keep the first factor of a (d1*d2)-dim bipartite matrix by explicit sums."""
    out = np.zeros((d1, d1), dtype=complex)
    for i in range(d1):
        for j in range(d1):
            for b in range(d2):
                out[i, j] += mat[i * d2 + b, j * d2 + b]
    return out


def random_unitary(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, dims):
    d = int(np.prod(dims))
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real, dims)


class TestTensorProduct:
    def test_identity_case(self):
        assert np.array_equal(tensor_product(EYE2, EYE2), np.eye(4))

    def test_basis_action(self):
        ket00 = np.array([1, 0, 0, 0], dtype=complex)
        ket10 = np.array([0, 0, 1, 0], dtype=complex)
        assert np.allclose(tensor_product(SIGMA_X, EYE2) @ ket00, ket10)

    def test_sigma_y_pair_against_index_expansion(self):
        assert np.array_equal(tensor_product(SIGMA_Y, SIGMA_Y), kron_oracle(SIGMA_Y, SIGMA_Y))

    def test_random_pairs_against_index_expansion(self):
        # ufunc complex multiply may differ from the scalar product by one ulp
        rng = np.random.default_rng(3)
        for _ in range(5):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            assert np.allclose(tensor_product(a, b), kron_oracle(a, b), rtol=0, atol=1e-14)

    def test_associative(self):
        # integer-valued entries make both association orders exactly equal
        rng = np.random.default_rng(5)
        a, b, c = (rng.integers(-3, 4, (2, 2)) + 1j * rng.integers(-3, 4, (2, 2)) for _ in range(3))
        left = tensor_product(tensor_product(a, b), c)
        right = tensor_product(a, tensor_product(b, c))
        assert np.array_equal(left, right)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            tensor_product(np.ones((2, 3)), EYE2)


class TestHermitianEigenvalues:
    def test_maximally_mixed(self):
        assert np.allclose(hermitian_eigenvalues(EYE2 / 2), [0.5, 0.5])

    def test_sigma_z_keeps_genuine_negative(self):
        assert np.allclose(hermitian_eigenvalues(SIGMA_Z), [1.0, -1.0])

    def test_xyz_state_spectrum(self):
        # rho(1, 0.9, 1) is an explicit two-term Bell mixture
        vals = hermitian_eigenvalues(xyz_state(XYZParams(1.0, 0.9, 1.0)).matrix)
        assert np.allclose(vals, [0.9, 0.1, 0.0, 0.0], atol=1e-12)

    def test_descending_and_sum_matches_trace(self):
        rng = np.random.default_rng(11)
        for dims in ((2,), (2, 2), (2, 2, 2)):
            rho = random_density(rng, dims)
            vals = hermitian_eigenvalues(rho.matrix)
            assert np.all(np.diff(vals) <= 0)
            assert abs(vals.sum() - 1.0) < 1e-9

    def test_dust_clipped_to_exact_zero(self):
        m = np.diag([1.0, -1e-12]).astype(complex)
        vals = hermitian_eigenvalues(m)
        assert vals[1] == 0.0

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eigenvalues(np.diag([np.nan, 1.0]))

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))


class TestDensityOperator:
    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(np.eye(2, dtype=complex), (2,))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityOperator(m, (2,))

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(PositivityError):
            DensityOperator(m, (2,))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_rejects_non_finite_entries(self, bad, where):
        m = np.eye(2, dtype=complex) / 2
        m[where] = bad
        m[where[::-1]] = np.conj(bad)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            DensityOperator(m, (2,))

    def test_rejects_mismatched_dims(self):
        with pytest.raises(ValueError, match="dims"):
            DensityOperator(np.eye(4, dtype=complex) / 4, (2,))

    def test_matrix_is_frozen(self):
        rho = DensityOperator(np.eye(2, dtype=complex) / 2, (2,))
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.3


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        rho = pure_state_density(bell_state("2+"), (2, 2))
        for keep in ((0,), (1,)):
            red = partial_trace(rho, keep)
            assert np.allclose(red.matrix, EYE2 / 2, atol=1e-12)

    def test_product_state_marginal(self):
        rho_ab = xyz_state(XYZParams(0.6, 0.8, 0.3))
        joint = DensityOperator(tensor_product(rho_ab.matrix, EYE2 / 2), (2, 2, 2))
        red = partial_trace(joint, (0, 1))
        assert np.allclose(red.matrix, rho_ab.matrix, atol=1e-13)

    def test_against_explicit_sum(self):
        rng = np.random.default_rng(7)
        rho = random_density(rng, (2, 2))
        expected = partial_trace_oracle_first_of_two(rho.matrix, 2, 2)
        assert np.allclose(partial_trace(rho, (0,)).matrix, expected, atol=1e-14)

    def test_composition_over_complements(self):
        rng = np.random.default_rng(13)
        rho = random_density(rng, (2, 2, 2))
        stepwise = partial_trace(partial_trace(rho, (0, 1)), (0,))
        direct = partial_trace(rho, (0,))
        assert np.max(np.abs(stepwise.matrix - direct.matrix)) < 1e-12

    def test_trace_preserved(self):
        rng = np.random.default_rng(17)
        rho = random_density(rng, (2, 2, 2))
        assert abs(np.trace(partial_trace(rho, (1,)).matrix) - 1.0) < 1e-12

    def test_invalid_subsystem_rejected(self):
        rho = pure_state_density(bell_state("1+"), (2, 2))
        with pytest.raises(ValueError):
            partial_trace(rho, (2,))
        with pytest.raises(ValueError):
            partial_trace(rho, ())


class TestEntropy:
    def test_pure_state_zero(self):
        rho = pure_state_density(bell_state("1-"), (2, 2))
        assert von_neumann_entropy(rho) == 0.0

    def test_maximally_mixed_qubit(self):
        rho = DensityOperator(EYE2 / 2, (2,))
        assert abs(von_neumann_entropy(rho) - np.log(2)) < 1e-12

    def test_two_term_mixture_closed_form(self):
        rho = xyz_state(XYZParams(1.0, 0.9, 1.0))
        expected = -0.9 * np.log(0.9) - 0.1 * np.log(0.1)  # = 0.32508297339144825
        assert abs(von_neumann_entropy(rho) - expected) < 1e-12
        assert abs(expected - 0.32508297339144825) < 1e-15

    def test_unitary_invariance(self):
        rng = np.random.default_rng(23)
        for dims in ((2,), (2, 2), (2, 2, 2)):
            rho = random_density(rng, dims)
            u = random_unitary(rng, rho.dim)
            rotated = DensityOperator(u @ rho.matrix @ u.conj().T, dims)
            assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) < 1e-9
