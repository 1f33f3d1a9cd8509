import numpy as np
import pytest

from qrevivals.linalg import DensityOperator, EYE2, tensor_product
from qrevivals.measures import (
    InformationDecomposition,
    WeightedPureEnsemble,
    average_entanglement,
    binary_entropy,
    concurrence,
    concurrence_pure,
    eof_from_concurrence,
    eof_stderr,
    hidden_entanglement,
    information_decomposition,
    mutual_information,
    tripartite_correlations,
)
from qrevivals.noise import RandomFieldParams, random_field_ensemble, static_noise_ensemble, StaticNoiseParams
from qrevivals.states import BELL_LABELS, EWLParams, XYZParams, bell_basis_matrix, bell_state, ewl_state, xyz_state

LN2 = np.log(2.0)
# -0.9 ln 0.9 - 0.1 ln 0.1, the mixing entropy of rho(1, 0.9, 1)
S_MIX = 0.32508297339144825


def density(mat, dims=(2, 2)):
    return DensityOperator(mat, dims)


def pure(psi, dims=(2, 2)):
    psi = np.asarray(psi, dtype=complex)
    return DensityOperator(np.outer(psi, psi.conj()), dims)


def random_single_qubit_unitary(rng):
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def bell_diagonal_concurrence_oracle(rho):
    """max{0, 2 max(lambda) - 1} from the Bell-basis populations."""
    basis = bell_basis_matrix()
    pops = np.real(np.diag(basis.conj().T @ rho.matrix @ basis))
    return max(0.0, 2.0 * pops.max() - 1.0)


class TestConcurrence:
    def test_bell_states(self):
        for label in BELL_LABELS:
            assert abs(concurrence(pure(bell_state(label))) - 1.0) < 1e-12

    def test_maximally_mixed_separable(self):
        assert concurrence(density(np.eye(4) / 4)) == 0.0

    def test_fig2_initial_value(self):
        assert abs(concurrence(xyz_state(XYZParams(1.0, 0.9, 1.0))) - 0.8) < 1e-9

    def test_product_state_zero(self):
        psi = np.kron([1, 0], [np.sqrt(0.3), np.sqrt(0.7)])
        assert concurrence(pure(psi)) < 1e-12

    def test_matches_pure_state_shortcut(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            psi /= np.linalg.norm(psi)
            assert abs(concurrence(pure(psi)) - concurrence_pure(psi)) < 1e-10

    def test_bell_diagonal_closed_form(self):
        rng = np.random.default_rng(37)
        basis = bell_basis_matrix()
        for _ in range(10):
            lam = rng.dirichlet(np.ones(4))
            rho = density(basis @ np.diag(lam).astype(complex) @ basis.conj().T)
            assert abs(concurrence(rho) - bell_diagonal_concurrence_oracle(rho)) < 1e-9

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(41)
        rho = xyz_state(XYZParams(0.6, 0.8, 0.3))
        for _ in range(10):
            u = tensor_product(random_single_qubit_unitary(rng), random_single_qubit_unitary(rng))
            rotated = density(u @ rho.matrix @ u.conj().T)
            assert abs(concurrence(rotated) - concurrence(rho)) < 1e-9

    def test_rejects_wrong_dims(self):
        with pytest.raises(ValueError):
            concurrence(DensityOperator(np.eye(8) / 8, (2, 2, 2)))


class TestEntanglementOfFormation:
    def test_endpoints(self):
        assert eof_from_concurrence(0.0) == 0.0
        assert eof_from_concurrence(1.0) == 1.0

    def test_value_at_08(self):
        # h((1 + 0.6)/2) = h(0.8)
        expected = -(0.8 * np.log2(0.8) + 0.2 * np.log2(0.2))  # = 0.7219280948873623
        assert abs(eof_from_concurrence(0.8) - expected) < 1e-12
        assert abs(expected - 0.7219280948873623) < 1e-15

    def test_monotone(self):
        cs = np.linspace(0.0, 1.0, 101)
        efs = [eof_from_concurrence(c) for c in cs]
        assert np.all(np.diff(efs) >= 0.0)

    @pytest.mark.parametrize("bad", [1.1, -0.1, np.nan])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError, match="outside"):
            eof_from_concurrence(bad)
        with pytest.raises(ValueError, match="outside"):
            eof_from_concurrence(np.array([0.2, bad, 0.5]))

    def test_array_matches_elementwise(self):
        # the scenario runner takes E_f of a whole column at once; every
        # element must equal the single-value call bit for bit
        rng = np.random.default_rng(4)
        cs = np.concatenate([rng.uniform(0.0, 1.0, 2000), rng.uniform(0.0, 1e-7, 200),
                             1.0 - rng.uniform(0.0, 1e-7, 200), [-1e-9, 0.0, 1.0, 1.0 + 1e-9]])
        efs = eof_from_concurrence(cs)
        assert efs.shape == cs.shape and isinstance(eof_from_concurrence(0.3), float)
        one_by_one = np.array([eof_from_concurrence(float(c)) for c in cs])
        assert np.array_equal(efs.view(np.int64), one_by_one.view(np.int64))

    def test_stderr_half_spread_clipped_to_unit_interval(self):
        # half the spread of E_f over c -/+ se, the ends clipped to [0, 1]; exactly 0 at se = 0
        assert eof_stderr(0.5, 0.0) == 0.0 and isinstance(eof_stderr(0.5, 0.01), float)
        assert eof_stderr(0.95, 0.1) == 0.5 * (1.0 - eof_from_concurrence(0.85))
        assert eof_stderr(0.05, 0.1) == 0.5 * eof_from_concurrence(0.15)
        c, se = np.array([0.05, 0.5, 0.95, 1.0]), np.array([0.1, 0.01, 0.1, 0.0])
        assert eof_stderr(c, se).tolist() == [eof_stderr(x, s) for x, s in zip(c, se)]

    def test_binary_entropy_symmetry(self):
        assert abs(binary_entropy(0.3) - binary_entropy(0.7)) < 1e-15
        assert binary_entropy(0.5) == 1.0


class TestMutualInformation:
    def test_product_state_zero(self):
        rho_ab = xyz_state(XYZParams(1.0, 0.9, 1.0))
        joint = density(tensor_product(rho_ab.matrix, EYE2 / 2), (2, 2, 2))
        assert abs(mutual_information(joint, ((0, 1), (2,)))) < 1e-12

    def test_bell_state_two_ln_two(self):
        rho = pure(bell_state("2+"))
        assert abs(mutual_information(rho, ((0,), (1,))) - 2 * LN2) < 1e-12

    def test_fig2_state_value(self):
        rho = xyz_state(XYZParams(1.0, 0.9, 1.0))
        expected = 2 * LN2 - S_MIX  # = 1.0612113877284423
        assert abs(mutual_information(rho, ((0,), (1,))) - expected) < 1e-12

    def test_invalid_partition_rejected(self):
        rho = pure(bell_state("2+"))
        with pytest.raises(ValueError):
            mutual_information(rho, ((0,), (0,)))
        with pytest.raises(ValueError):
            mutual_information(rho, ((0, 1), ()))


class TestTripartiteCorrelations:
    def test_product_across_e_is_zero(self):
        rho_ab = xyz_state(XYZParams(0.6, 0.8, 0.3))
        joint = density(tensor_product(rho_ab.matrix, EYE2 / 2), (2, 2, 2))
        assert abs(tripartite_correlations(joint)) < 1e-12

    def test_ghz_value(self):
        # every GHZ bipartition has S_ij + S_k - S_ijk = ln2 + ln2 - 0
        psi = np.zeros(8, dtype=complex)
        psi[0] = psi[7] = 1 / np.sqrt(2)
        rho = DensityOperator(np.outer(psi, psi.conj()), (2, 2, 2))
        assert abs(tripartite_correlations(rho) - 2 * LN2) < 1e-12

    def test_rejects_wrong_dims(self):
        with pytest.raises(ValueError):
            tripartite_correlations(pure(bell_state("2+")))


class TestInformationDecomposition:
    def test_fig2_embedding_values(self):
        rho_ab = xyz_state(XYZParams(1.0, 0.9, 1.0))
        joint = density(tensor_product(rho_ab.matrix, EYE2 / 2), (2, 2, 2))
        d = information_decomposition(joint)
        expected_total = 2 * LN2 - S_MIX
        assert abs(d.total - expected_total) < 1e-10
        assert abs(d.local) < 1e-12
        assert abs(d.tripartite) < 1e-12
        assert abs(d.bipartite_max - expected_total) < 1e-10
        assert abs(d.residual) < 1e-10

    def test_fully_mixed_all_zero(self):
        joint = DensityOperator(np.eye(8, dtype=complex) / 8, (2, 2, 2))
        d = information_decomposition(joint)
        for value in (d.total, d.local, d.tripartite, d.bipartite_max, d.residual):
            assert abs(value) < 1e-12

    def test_components_nonnegative_on_random_states(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            m = g @ g.conj().T
            d = information_decomposition(DensityOperator(m / np.trace(m).real, (2, 2, 2)))
            assert d.total >= -1e-9
            assert d.local >= -1e-9
            assert d.tripartite >= -1e-9
            assert d.bipartite_max >= -1e-9
            # the bookkeeping closes exactly: the bipartition minimized by the
            # tripartite term and the pair maximizing the bipartite term always
            # coincide, because their objectives sum to S_A + S_B + S_E
            assert abs(d.residual) < 1e-10

    def test_is_dataclass_with_residual(self):
        d = InformationDecomposition(1.0, 0.2, 0.3, 0.4, 0.1)
        assert d.residual == 0.1


class TestEnsembles:
    def test_weight_validation(self):
        psi = bell_state("2+")
        with pytest.raises(ValueError):
            WeightedPureEnsemble(np.array([0.5, 0.6]), np.stack([psi, psi]))
        with pytest.raises(ValueError):
            WeightedPureEnsemble(np.array([1.0]), psi.reshape(1, 4) * 2.0)

    def test_single_bell_member(self):
        ens = WeightedPureEnsemble(np.array([1.0]), bell_state("1+").reshape(1, 4))
        assert abs(average_entanglement(ens) - 1.0) < 1e-12
        assert abs(hidden_entanglement(ens)) < 1e-12

    def test_product_members_zero(self):
        states = np.array([[1, 0, 0, 0], [0, 0, 0, 1]], dtype=complex)
        ens = WeightedPureEnsemble(np.array([0.5, 0.5]), states)
        assert average_entanglement(ens) == 0.0

    def test_random_field_ensemble_average_is_constant_one(self):
        p = RandomFieldParams(rabi=1.0)
        for t in (0.3, np.pi / 2, 2.1, np.pi):
            ens = random_field_ensemble(bell_state("2+"), p, t)
            assert abs(average_entanglement(ens) - 1.0) < 1e-12

    def test_hidden_entanglement_dark_point(self):
        p = RandomFieldParams(rabi=1.0)
        ens = random_field_ensemble(bell_state("2+"), p, np.pi / 2)
        assert abs(hidden_entanglement(ens) - 1.0) < 1e-6

    def test_static_noise_hidden_entanglement_near_one(self):
        # with sigma*tbar = 4 the averaged state carries E_f(exp(-8)) ~ 1e-6
        p = StaticNoiseParams(sigma=1.0, echo_time=4.0)
        ens = static_noise_ensemble(bell_state("2+"), p, 4.0)
        eh = hidden_entanglement(ens)
        assert abs(eh - (1.0 - eof_from_concurrence(np.exp(-8.0)))) < 1e-6
        assert eh > 0.999

    def test_hidden_entanglement_nonnegative_random_ensembles(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            n = rng.integers(2, 6)
            states = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
            states /= np.linalg.norm(states, axis=1, keepdims=True)
            weights = rng.dirichlet(np.ones(n))
            ens = WeightedPureEnsemble(weights, states)
            assert hidden_entanglement(ens) >= -1e-9

    def test_average_state_matches_members(self):
        p = RandomFieldParams(rabi=1.0)
        ens = random_field_ensemble(bell_state("2+"), p, 0.7)
        direct = sum(
            w * np.outer(s, s.conj()) for w, s in zip(ens.weights, ens.states)
        )
        assert np.allclose(ens.average_state().matrix, direct, atol=1e-14)


def test_ewl_wootters_matches_closed_form_under_dephasing():
    # X-shaped states: general concurrence path vs max{0, 2K} for both kinds
    from qrevivals.noise import dephased_state

    rng = np.random.default_rng(53)
    for kind in ("one-excitation", "two-excitation"):
        for _ in range(8):
            r = rng.uniform(0.0, 1.0)
            a = rng.uniform(0.1, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            q = rng.uniform(-1.0, 1.0)
            params = EWLParams(r=r, a=a, kind=kind)
            rho_t = dephased_state(ewl_state(params), q)
            k = r * abs(a) * params.b * abs(q) - (1 - r) / 4
            assert abs(concurrence(rho_t) - max(0.0, 2 * k)) < 1e-9
