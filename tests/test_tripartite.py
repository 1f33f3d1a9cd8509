from pathlib import Path

import numpy as np
import pytest

from qrevivals import linalg
from qrevivals.acceptance import find_local_extrema
from qrevivals.linalg import DensityOperator, EYE2, SIGMA_X, partial_trace, von_neumann_entropy
from qrevivals.measures import concurrence, mutual_information, tripartite_correlations
from qrevivals.noise import FIELD_PHASES, RandomFieldParams, field_channel, field_unitary
from qrevivals.scenarios import parse_config, run_scenario
from qrevivals.states import EWLParams, XYZParams, bell_state, ewl_state, xyz_state
from qrevivals.tripartite import flow_measures

from abe_dilation import HybridTripartiteState, dilation_flow_measures, embed_initial, evolve, ube_unitary

LN2 = np.log(2.0)


def fig2_state():
    return xyz_state(XYZParams(1.0, 0.9, 1.0))


class TestEmbedInitial:
    def test_partial_trace_returns_input(self):
        rho_ab = xyz_state(XYZParams(0.6, 0.8, 0.3))
        s = embed_initial(rho_ab)
        assert np.allclose(partial_trace(s.rho, (0, 1)).matrix, rho_ab.matrix, atol=1e-14)

    def test_no_initial_tripartite_correlations(self):
        assert abs(tripartite_correlations(embed_initial(fig2_state()).rho)) < 1e-12

    def test_entropy_additivity(self):
        rho_ab = fig2_state()
        s = embed_initial(rho_ab)
        assert abs(von_neumann_entropy(s.rho) - (von_neumann_entropy(rho_ab) + LN2)) < 1e-10

    def test_block_structure_enforced(self):
        psi = np.zeros(8, dtype=complex)
        psi[0] = psi[7] = 1 / np.sqrt(2)  # E-coherent GHZ violates the classical-register structure
        with pytest.raises(ValueError, match="coherences"):
            HybridTripartiteState(DensityOperator(np.outer(psi, psi.conj()), (2, 2, 2)))


class TestUbeUnitary:
    def test_identity_at_zero(self):
        assert np.allclose(ube_unitary(RandomFieldParams(1.0), 0.0), np.eye(4), atol=1e-15)

    def test_blocks_at_pi(self):
        u = ube_unitary(RandomFieldParams(1.0), np.pi)
        # register |+phase> block is -i sigma_x, |-phase> block +i sigma_x
        plus_block = u[np.ix_((0, 2), (0, 2))]
        minus_block = u[np.ix_((1, 3), (1, 3))]
        assert np.allclose(plus_block, -1j * SIGMA_X, atol=1e-14)
        assert np.allclose(minus_block, 1j * SIGMA_X, atol=1e-14)

    def test_unitary_and_block_diagonal(self):
        for t in (0.4, 1.9, 5.0):
            u = ube_unitary(RandomFieldParams(1.0), t)
            assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-12
            # no matrix elements connecting different register states
            assert abs(u[0, 1]) + abs(u[2, 3]) + abs(u[0, 3]) + abs(u[2, 1]) < 1e-15

    def test_unital_on_maximally_mixed(self):
        u = ube_unitary(RandomFieldParams(1.0), 2.3)
        mixed = np.eye(4) / 4
        assert np.max(np.abs(u @ mixed @ u.conj().T - mixed)) < 1e-12

    def test_batched_construction_matches_scalar(self):
        # the grid evaluator's per-register propagators are the blocks of ube_unitary
        omegas = np.array([0.7, 1.0, 1.8])
        times = np.array([0.4, 1.3])
        for e, ph in enumerate(FIELD_PHASES):
            batch = field_unitary(ph, omegas, times[:, None])
            assert batch.shape == (2, 3, 2, 2)
            for j, t in enumerate(times):
                for k, om in enumerate(omegas):
                    # register state e owns the rows/columns 2b + e
                    block = ube_unitary(RandomFieldParams(om), t)[e::2, e::2]
                    assert np.max(np.abs(batch[j, k] - block)) < 1e-15


class TestEvolveAbe:
    def test_reduction_matches_direct_channel_sharp(self):
        rho0 = fig2_state()
        p = RandomFieldParams(rabi=1.0)
        times = np.linspace(0.0, 2 * np.pi, 17)
        reduced = partial_trace(evolve(embed_initial(rho0), p, times).rho, (0, 1))
        direct = field_channel(rho0, p, times)
        assert np.max(np.abs(reduced.matrix - direct.matrix)) < 1e-10

    def test_reduction_matches_direct_channel_gaussian(self):
        rho0 = fig2_state()
        p = RandomFieldParams(rabi=1.0, width=0.1)
        times = [0.5, np.pi, 2 * np.pi]
        reduced = partial_trace(evolve(embed_initial(rho0), p, times).rho, (0, 1))
        direct = field_channel(rho0, p, times)
        assert np.max(np.abs(reduced.matrix - direct.matrix)) < 1e-10

    def test_b_e_marginal_stays_uncorrelated_for_bell_diagonal_input(self):
        p = RandomFieldParams(rabi=1.0)
        be = partial_trace(evolve(embed_initial(fig2_state()), p, np.linspace(0.0, 2 * np.pi, 9)).rho, (1, 2))
        assert np.max(np.abs(be.matrix - np.eye(4) / 4)) < 1e-12

    def test_b_e_mutual_information_invariant(self):
        # U_BE is a local unitary of the (B, E) pair, so I(B:E) cannot change
        psi = bell_state("2+")
        rho0 = DensityOperator(np.outer(psi, psi.conj()), (2, 2))
        p = RandomFieldParams(rabi=1.0)
        s0 = embed_initial(rho0)
        i0 = mutual_information(partial_trace(s0.rho, (1, 2)), ((0,), (1,)))
        be = partial_trace(evolve(s0, p, [0.7, 2.1, 4.4]).rho, (1, 2))
        assert np.max(np.abs(mutual_information(be, ((0,), (1,))) - i0)) < 1e-9

    def test_register_cannot_decohere(self):
        s0 = embed_initial(fig2_state())
        st = evolve(s0, RandomFieldParams(1.0, 0.1), [3.0])
        env = partial_trace(st.rho, (2,))
        assert np.max(np.abs(env.matrix - EYE2 / 2)) < 1e-12


class TestFlowMeasures:
    def test_one_value_per_grid_point(self):
        conc, dec = flow_measures(fig2_state(), RandomFieldParams(1.0), np.linspace(0, 1, 5))
        assert conc.shape == dec.total.shape == dec.tripartite.shape == (5,)

    def test_total_information_constant_without_broadening(self):
        _, dec = flow_measures(fig2_state(), RandomFieldParams(1.0), np.linspace(0, 2 * np.pi, 64))
        assert np.max(np.abs(dec.total - dec.total[0])) < 1e-9

    def test_local_information_zero_for_bell_diagonal(self):
        _, dec = flow_measures(fig2_state(), RandomFieldParams(1.0), np.linspace(0, 2 * np.pi, 64))
        assert np.max(np.abs(dec.local)) < 1e-9

    def test_tau_nonnegative(self):
        _, dec = flow_measures(fig2_state(), RandomFieldParams(1.0, 0.1), np.linspace(0, np.pi, 16))
        assert np.min(dec.tripartite) > -1e-9

    def test_concurrence_column_matches_direct(self):
        rho0 = fig2_state()
        p = RandomFieldParams(1.0)
        grid = [0.3, 1.1, 2.9]
        conc, _ = flow_measures(rho0, p, grid)
        assert np.max(np.abs(conc - concurrence(field_channel(rho0, p, grid)))) < 1e-10

    def test_tripartite_correlations_vanish_at_revival(self):
        # at rabi*t = pi both field branches act as the same bit flip, so the
        # joint state returns to a product across the register cut
        _, dec = flow_measures(fig2_state(), RandomFieldParams(1.0), [np.pi / 2, np.pi])
        assert dec.tripartite[0] > 0.5  # near ln2 at the dark point
        assert abs(dec.tripartite[1]) < 1e-9

    def test_extrema_positions_on_one_period(self):
        grid = np.linspace(0.0, 2 * np.pi, 512)
        cs, dec = flow_measures(fig2_state(), RandomFieldParams(1.0), grid)
        step = grid[1] - grid[0]
        tau_peaks = grid[find_local_extrema(dec.tripartite, "max")]
        assert np.allclose(tau_peaks, [np.pi / 2, 3 * np.pi / 2], atol=step)
        c_peaks = grid[find_local_extrema(cs, "max", include_edges=True)]
        assert np.allclose(c_peaks, [0.0, np.pi, 2 * np.pi], atol=step)

    def test_total_information_decays_with_broadening(self):
        _, dec = flow_measures(fig2_state(), RandomFieldParams(1.0, 0.1), [0.0, np.pi, 2 * np.pi])
        assert dec.total[0] > dec.total[1] > dec.total[2]

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            flow_measures(fig2_state(), RandomFieldParams(1.0), [])
        # each time is evaluated on its own, so a grid that repeats one is no error
        cs, dec = flow_measures(fig2_state(), RandomFieldParams(1.0), [0.0, 0.0, 1.0])
        assert cs[0] == cs[1] and dec.total[0] == dec.total[1] and cs.shape == (3,)


def _density(psi):
    return DensityOperator(np.outer(psi, psi.conj()), (2, 2))


FLOW_INPUTS = {
    "bell-2+": lambda: _density(bell_state("2+")),
    "bell-1-": lambda: _density(bell_state("1-")),
    "xyz-rank-deficient": fig2_state,  # spectrum (0.9, 0.1, 0, 0)
    "xyz-mixed": lambda: xyz_state(XYZParams(0.6, 0.8, 0.3)),
    "xyz-pure": lambda: xyz_state(XYZParams(0.6, 1.0, 1.0)),
    "ewl-complex-pure": lambda: ewl_state(EWLParams(r=1.0, a=0.6 + 0.3j, kind="two-excitation")),
    "ewl-complex-mixed": lambda: ewl_state(EWLParams(r=0.8, a=0.6 + 0.3j, kind="one-excitation")),
}
FLOW_GRIDS = {
    "period": np.linspace(0.0, 4 * np.pi, 37),  # starts at t = 0
    "subnormal": np.array([0.0, 5e-324, 5e-324, 1e-320, 1e-320, 2.2e-308]),  # repeated times
    "huge": np.array([0.0, 1.0, 1e299, 9.9e299, 1e300]),
}


class TestBlockFormAgainstDilation:
    """The flows from the AB stack and one stack dephased by |f| against the
    (8, 8) dilation, and the constants that form takes from rho0."""

    @pytest.mark.parametrize("grid", FLOW_GRIDS.values(), ids=FLOW_GRIDS.keys())
    @pytest.mark.parametrize("width", [0.0, 0.3])
    @pytest.mark.parametrize("state", FLOW_INPUTS.values(), ids=FLOW_INPUTS.keys())
    def test_rows_match_the_dilation(self, state, width, grid):
        rho0, p = state(), RandomFieldParams(1.0, width)
        conc, dec = flow_measures(rho0, p, grid)
        conc_8, dec_8 = dilation_flow_measures(rho0, p, grid)
        assert conc.shape == dec.total.shape == grid.shape
        assert np.max(np.abs(conc - conc_8)) < 1e-12
        for name, value in vars(dec).items():
            assert np.max(np.abs(value - getattr(dec_8, name))) < 1e-12, name
        # S(A) = S(rho0^A) and S(AE) = ln 2 + S(rho0^A) at every time; at
        # width 0 each register block is rho0 turned by a local unitary
        rho = evolve(embed_initial(rho0), p, grid).rho
        s_a0 = von_neumann_entropy(partial_trace(rho0, (0,)))
        assert np.max(np.abs(von_neumann_entropy(partial_trace(rho, (0,))) - s_a0)) < 1e-12
        assert np.max(np.abs(von_neumann_entropy(partial_trace(rho, (0, 2))) - (LN2 + s_a0))) < 1e-12
        if width == 0.0:
            assert np.max(np.abs(von_neumann_entropy(rho) - (LN2 + von_neumann_entropy(rho0)))) < 1e-12

    def test_a_list_of_params_gives_one_row_per_value(self):
        ps = [RandomFieldParams(1.0, w) for w in (0.0, 0.1, 0.3)]
        grid = np.linspace(0.0, 9.0, 11)
        conc, dec = flow_measures(fig2_state(), ps, grid)
        assert conc.shape == dec.tripartite.shape == (3, 11)
        for v, p in enumerate(ps):
            conc_v, dec_v = flow_measures(fig2_state(), p, grid)
            assert np.array_equal(conc[v], conc_v)
            assert all(np.array_equal(getattr(dec, k)[v], value) for k, value in vars(dec_v).items())


def test_no_eight_by_eight_state_on_the_cli_path(monkeypatch):
    dims = []
    original = linalg._density_spectrum
    monkeypatch.setattr(linalg, "_density_spectrum", lambda m: dims.append(m.shape[-1]) or original(m))
    run_scenario(parse_config(Path(__file__).parent / "golden" / "tripartite-flows.cfg"))
    assert max(dims) == 4


class TestFindLocalExtrema:
    def test_simple_peak_and_trough(self):
        y = [0.0, 1.0, 0.0, -1.0, 0.0]
        assert find_local_extrema(y, "max") == [1]
        assert find_local_extrema(y, "min") == [3]

    def test_plateau_collapsed_to_midpoint(self):
        y = [3.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 3.0]
        assert find_local_extrema(y, "min") == [4]

    def test_edge_maxima_only_with_flag(self):
        y = [2.0, 1.0, 0.5, 1.5, 0.2]
        assert find_local_extrema(y, "max") == [3]
        assert find_local_extrema(y, "max", include_edges=True) == [0, 3]

    def test_phase_opposition_on_flow_series(self):
        grid = np.linspace(0.0, 2 * np.pi, 512)
        cs, dec = flow_measures(fig2_state(), RandomFieldParams(1.0), grid)
        tau_max = find_local_extrema(dec.tripartite, "max")
        c_min = find_local_extrema(cs, "min")
        assert tau_max and c_min
        assert all(min(abs(i - j) for j in c_min) <= 1 for i in tau_max)
        assert all(min(abs(i - j) for j in tau_max) <= 1 for i in c_min)


def test_gaussian_averaging_commutes_with_embedding():
    # averaging evolved dilations over the Rabi nodes equals embedding the
    # averaged two-qubit state (linearity); assert once at a representative point
    rho0 = fig2_state()
    p = RandomFieldParams(rabi=1.0, width=0.15)
    reduced = partial_trace(evolve(embed_initial(rho0), p, [2.2]).rho, (0, 1)).matrix
    direct = field_channel(rho0, p, [2.2]).matrix
    assert np.max(np.abs(reduced - direct)) < 1e-10
