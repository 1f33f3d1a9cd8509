import numpy as np
import pytest

from qrevivals.linalg import EYE2, hermitian_eigenvalues, partial_trace
from qrevivals.measures import concurrence, concurrence_pure
from qrevivals.noise import RandomFieldParams, field_channel
from qrevivals.states import (
    BELL_LABELS,
    EWLParams,
    XYZParams,
    bell_basis_matrix,
    bell_state,
    ewl_state,
    xyz_state,
)

SQ2 = np.sqrt(2.0)


class TestBellStates:
    def test_two_plus(self):
        assert np.allclose(bell_state("2+"), np.array([1, 0, 0, 1]) / SQ2)

    def test_one_minus(self):
        assert np.allclose(bell_state("1-"), np.array([0, 1, -1, 0]) / SQ2)

    def test_all_unit_norm_and_maximally_entangled(self):
        for label in BELL_LABELS:
            psi = bell_state(label)
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-15
            assert abs(concurrence_pure(psi) - 1.0) < 1e-12

    def test_orthonormal_basis(self):
        b = bell_basis_matrix()
        assert np.allclose(b.conj().T @ b, np.eye(4), atol=1e-15)

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            bell_state("3+")


class TestXYZState:
    def test_fig2_initial_state(self):
        rho = xyz_state(XYZParams(1.0, 0.9, 1.0))
        two_plus, two_minus = bell_state("2+"), bell_state("2-")
        expected = 0.9 * np.outer(two_plus, two_plus.conj()) + 0.1 * np.outer(two_minus, two_minus.conj())
        assert np.allclose(rho.matrix, expected, atol=1e-15)
        assert abs(concurrence(rho) - 0.8) < 1e-9

    def test_y_one_is_pure_bell(self):
        rho = xyz_state(XYZParams(1.0, 1.0, 0.4))
        psi = bell_state("2+")
        assert np.allclose(rho.matrix, np.outer(psi, psi.conj()), atol=1e-15)

    def test_generic_point_spectrum(self):
        # two orthogonal pure terms -> eigenvalues {y, 1-y, 0, 0}
        vals = hermitian_eigenvalues(xyz_state(XYZParams(0.6, 0.8, 0.3)).matrix)
        assert np.allclose(vals, [0.8, 0.2, 0.0, 0.0], atol=1e-12)

    def test_parameter_range_checked(self):
        with pytest.raises(ValueError):
            XYZParams(1.2, 0.5, 0.5)
        with pytest.raises(ValueError):
            XYZParams(0.5, -0.1, 0.5)

    @pytest.mark.parametrize("x", [0.0, 1.0])
    def test_bell_diagonal_marginals_maximally_mixed(self, x):
        rho = xyz_state(XYZParams(x, 0.7, x))
        for k in (0, 1):
            assert np.allclose(partial_trace(rho, (k,)).matrix, EYE2 / 2, atol=1e-12)


class TestEWLState:
    def test_r_one_is_pure_bell_like(self):
        rho = ewl_state(EWLParams(r=1.0, a=1 / SQ2))
        psi = bell_state("1+")
        assert np.allclose(rho.matrix, np.outer(psi, psi.conj()), atol=1e-14)

    def test_r_zero_is_maximally_mixed(self):
        rho = ewl_state(EWLParams(r=0.0, a=0.3 + 0.4j, kind="two-excitation"))
        assert np.allclose(rho.matrix, np.eye(4) / 4, atol=1e-15)

    def test_experimental_purity_concurrence(self):
        # closed form 2(r|a|b - (1-r)/4) = 2(0.455 - 0.0225) = 0.865
        rho = ewl_state(EWLParams(r=0.91, a=1 / SQ2))
        assert abs(concurrence(rho) - 0.865) < 1e-9

    def test_x_shape_in_canonical_basis(self):
        rho = ewl_state(EWLParams(r=0.7, a=0.6, kind="two-excitation")).matrix
        zeros = [(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)]
        # two-excitation: only the outer anti-diagonal coherence is populated
        for i, j in zeros:
            assert abs(rho[i, j]) < 1e-15
        assert abs(rho[0, 3]) > 0

    def test_balanced_amplitude_marginals_maximally_mixed(self):
        for kind in ("one-excitation", "two-excitation"):
            rho = ewl_state(EWLParams(r=0.5, a=1 / SQ2, kind=kind))
            for k in (0, 1):
                assert np.allclose(partial_trace(rho, (k,)).matrix, EYE2 / 2, atol=1e-12)

    def test_complex_amplitude_normalization(self):
        p = EWLParams(r=0.5, a=0.6 + 0.48j)
        assert abs(abs(p.a) ** 2 + p.b**2 - 1.0) < 1e-12

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            EWLParams(r=1.1, a=0.5)
        with pytest.raises(ValueError):
            EWLParams(r=0.5, a=1.2)
        with pytest.raises(ValueError):
            EWLParams(r=0.5, a=0.5, kind="three-excitation")


def test_bell_diagonal_stays_bell_diagonal_under_field_channel():
    rho0 = xyz_state(XYZParams(1.0, 0.9, 1.0))
    p = RandomFieldParams(rabi=1.0)
    basis = bell_basis_matrix()
    evolved = field_channel(rho0, p, np.linspace(0.0, 2 * np.pi, 41))
    in_bell_basis = basis.conj().T @ evolved.matrix @ basis
    off = in_bell_basis * (1.0 - np.eye(4))
    assert np.max(np.abs(off)) < 1e-10
