"""The grid-batched (stacked) layer: stacks of density operators, their
measures, the flows pipeline and its (T, 8, 8) dilation oracle, and the
batched runners, each checked against per-point evaluation with single
matrices."""
import numpy as np
import pytest

from qrevivals import noise
from qrevivals.linalg import (
    DensityOperator,
    EYE2,
    NumericalError,
    PositivityError,
    hermitian_eigenvalues,
    partial_trace,
    von_neumann_entropy,
)
from qrevivals.measures import concurrence, dephased_concurrence, eof_from_concurrence, information_decomposition
from qrevivals.noise import (
    FIELD_PHASES,
    RTNParams,
    RandomFieldParams,
    _gh_nodes,
    dephased_state,
    field_unitary,
    rtn_coherence,
)
from qrevivals.scenarios import parse_config_text, run_scenario
from qrevivals.states import EWLParams, XYZParams, bell_state, ewl_state, xyz_state
from qrevivals.tripartite import flow_measures

from abe_dilation import embed_initial, evolve_abe_grid


def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def bell_density(label):
    psi = bell_state(label)
    return DensityOperator(np.outer(psi, psi.conj()), (2, 2))


def conjugated_abe(m0, p, t, order):
    """sum_n w_n V_n rho0 V_n^dag with V_n = 1_A (x) U_BE(n), built matrix by
    matrix, and the largest entry moved by doubling the order (0 at width 0)."""

    def average(n):
        if p.width == 0.0:
            x, w = np.zeros(1), np.ones(1)
        else:
            x, w = _gh_nodes(n)
        out = np.zeros((8, 8), dtype=complex)
        for xk, wk in zip(x, w):
            om = p.rabi + 2.0 * p.width * xk
            u = sum(np.kron(field_unitary(ph, om, t), np.diag(np.eye(2)[e]))
                    for e, ph in enumerate(FIELD_PHASES))
            v = np.kron(EYE2, u)
            out += wk * (v @ m0 @ v.conj().T)
        return out

    base = average(order)
    return base, np.max(np.abs(base - average(2 * order)))


def scalar_flow_oracle(rho_ab0, p, grid, order=64):
    """Per-point rows (C, tau, total, local, mu2, residual) from single
    matrices: the conjugated dilation, then DensityOperator, partial_trace,
    von_neumann_entropy and concurrence one state at a time."""
    m0 = np.kron(rho_ab0.matrix, EYE2 / 2.0)
    rows = []
    for t in grid:
        rho = DensityOperator(conjugated_abe(m0, p, t, order)[0], (2, 2, 2))
        s = von_neumann_entropy(rho)
        single = [von_neumann_entropy(partial_trace(rho, (k,))) for k in range(3)]
        pair = {k: von_neumann_entropy(partial_trace(rho, k)) for k in ((0, 1), (0, 2), (1, 2))}
        tau = min(pair[(0, 1)] + single[2] - s, pair[(0, 2)] + single[1] - s,
                  pair[(1, 2)] + single[0] - s)
        mu2 = max(single[0] + single[1] - pair[(0, 1)], single[0] + single[2] - pair[(0, 2)],
                  single[1] + single[2] - pair[(1, 2)])
        total = 3 * np.log(2.0) - s
        local = sum(np.log(2.0) - x for x in single)
        c = concurrence(partial_trace(rho, (0, 1)))
        rows.append([c, tau, total, local, mu2, total - local - tau - mu2])
    return np.array(rows)


class TestStackedLinalg:
    def test_stack_validates_like_each_matrix(self):
        rng = np.random.default_rng(3)
        mats = np.stack([random_density(rng, 8) for _ in range(5)])
        stack = DensityOperator(mats, (2, 2, 2))
        assert stack.dim == 8
        for k in range(5):
            single = DensityOperator(mats[k], (2, 2, 2))
            assert np.array_equal(stack.eigenvalues()[k], single.eigenvalues())
            for keep in ((0,), (1, 2), (0, 2)):
                assert np.array_equal(partial_trace(stack, keep).matrix[k],
                                      partial_trace(single, keep).matrix)
        entropies = von_neumann_entropy(stack)
        assert entropies.shape == (5,)
        for k in range(5):
            assert abs(entropies[k] - von_neumann_entropy(DensityOperator(mats[k], (2, 2, 2)))) < 1e-15

    def test_hermitian_eigenvalues_of_a_stack(self):
        rng = np.random.default_rng(4)
        mats = np.stack([random_density(rng, 4) for _ in range(3)])
        vals = hermitian_eigenvalues(mats)
        assert vals.shape == (3, 4)
        for k in range(3):
            assert np.array_equal(vals[k], hermitian_eigenvalues(mats[k]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_stack_with_a_non_finite_matrix_rejected(self, bad):
        mats = np.stack([np.eye(4, dtype=complex) / 4] * 4)
        mats[2, 0, 1] = bad
        mats[2, 1, 0] = np.conj(bad)
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="stack index 2"):
            DensityOperator(mats, (2, 2))
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="stack index 2"):
            hermitian_eigenvalues(mats)

    def test_stack_with_a_negative_eigenvalue_rejected(self):
        mats = np.stack([np.eye(2, dtype=complex) / 2] * 3)
        mats[1] = np.diag([1.2, -0.2])
        with pytest.raises(PositivityError, match="stack index 1"):
            DensityOperator(mats, (2,))

    def test_stack_with_a_bad_trace_rejected(self):
        mats = np.stack([np.eye(2, dtype=complex) / 2] * 3)
        mats[0] = np.eye(2)
        with pytest.raises(NumericalError, match="trace"):
            DensityOperator(mats, (2,))

    def test_eigenvalues_are_a_fresh_copy(self):
        rho = DensityOperator(np.eye(2, dtype=complex) / 2, (2,))
        vals = rho.eigenvalues()
        vals[0] = 7.0
        assert rho.eigenvalues()[0] == 0.5


class TestStackedMeasures:
    def test_concurrence_of_a_stack_equals_each_state(self):
        rng = np.random.default_rng(5)
        mats = [random_density(rng, 4) for _ in range(6)]
        mats.append(bell_density("1-").matrix)
        mats.append(xyz_state(XYZParams(1.0, 0.9, 1.0)).matrix)
        stacked = concurrence(DensityOperator(np.stack(mats), (2, 2)))
        single = [concurrence(DensityOperator(m, (2, 2))) for m in mats]
        assert np.array_equal(stacked, single)

    def test_decomposition_of_a_stack_equals_each_state(self):
        rng = np.random.default_rng(6)
        mats = np.stack([random_density(rng, 8) for _ in range(4)])
        dec = information_decomposition(DensityOperator(mats, (2, 2, 2)))
        for k in range(4):
            one = information_decomposition(DensityOperator(mats[k], (2, 2, 2)))
            for name in ("total", "local", "tripartite", "bipartite_max", "residual"):
                assert abs(getattr(dec, name)[k] - getattr(one, name)) < 1e-14


class TestFlowPipeline:
    @pytest.mark.parametrize("width", [0.0, 0.1])
    @pytest.mark.parametrize("state", ["xyz", "bell"])
    def test_rows_match_scalar_oracle(self, width, state):
        rho0 = xyz_state(XYZParams(1.0, 0.9, 1.0)) if state == "xyz" else bell_density("2+")
        p = RandomFieldParams(rabi=1.0, width=width)
        grid = np.linspace(0.0, 4 * np.pi, 23)
        conc, dec = flow_measures(rho0, p, grid)
        got = np.stack([conc, dec.tripartite, dec.total, dec.local, dec.bipartite_max, dec.residual], axis=1)
        assert np.max(np.abs(got - scalar_flow_oracle(rho0, p, grid))) < 1e-12

    def test_grid_not_a_multiple_of_the_block(self):
        n = 37
        p = RandomFieldParams(rabi=1.0, width=0.1)
        s0 = embed_initial(xyz_state(XYZParams(0.6, 0.8, 0.3)))
        grid = np.linspace(0.1, 9.0, n)
        batch = evolve_abe_grid(s0, p, grid)
        assert batch.shape == (n, 8, 8)
        for k, t in enumerate(grid):
            assert np.max(np.abs(batch[k] - conjugated_abe(s0.rho.matrix, p, t, 64)[0])) < 1e-14

    def test_long_grid_matches_converged_oracle(self):
        # to t = 60 at width 0.1, where order 16 used to fail its doubling check:
        # the closed form against an oracle that itself moves by < 1e-13 from order 64 to 128
        p = RandomFieldParams(rabi=1.0, width=0.1)
        s0 = embed_initial(xyz_state(XYZParams(1.0, 0.9, 1.0)))
        grid = np.linspace(0.0, 60.0, 55)
        batch = evolve_abe_grid(s0, p, grid)
        for k, t in enumerate(grid):
            oracle, drift = conjugated_abe(s0.rho.matrix, p, t, 64)
            assert drift < 1e-13
            assert np.max(np.abs(batch[k] - oracle)) < 1e-13

    def test_needs_no_quadrature_rule(self, monkeypatch):
        rho0 = bell_density("2+")
        p = RandomFieldParams(1.0, 0.1)
        conc, dec = flow_measures(rho0, p, [0.0, 1.0])

        def no_rule(order):
            raise AssertionError("the flows read a Gauss-Hermite rule")

        monkeypatch.setattr(noise, "_gh_nodes", no_rule)
        conc_again, dec_again = flow_measures(rho0, p, [0.0, 1.0])
        assert np.array_equal(conc_again, conc)
        assert all(np.array_equal(vars(dec_again)[k], v) for k, v in vars(dec).items())


def test_rtn_rows_equal_per_point_evaluation():
    text = """
[scenario]
model = rtn
measures = concurrence, eof
time-start = 0.0
time-stop = 10.0
time-points = 41
seed = 1

[initial-state]
kind = ewl
r = 0.8
a = 0.6+0.3j
excitation = two

[rtn]
rate = 1.0
g = 0.9
"""
    cfg = parse_config_text(text)
    rows = run_scenario(cfg).rows
    p = RTNParams(rate=1.0, coupling=0.9)
    ewl = EWLParams(r=0.8, a=0.6 + 0.3j, kind="two-excitation")
    for row in rows:
        c = dephased_concurrence(ewl_state(ewl), rtn_coherence(p, [row[0]]))[0]
        assert row[1] == c and row[2] == eof_from_concurrence(c)
