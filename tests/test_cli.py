import errno
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qrevivals
from qrevivals import cli, scenarios
from qrevivals.cli import main
from qrevivals.linalg import SIGMA_X, DensityOperator, NumericalError, PositivityError
from qrevivals.records import replace
from qrevivals.measures import (
    WeightedPureEnsemble,
    average_entanglement,
    concurrence,
    dephased_concurrence,
    eof_from_concurrence,
    hidden_entanglement,
)
from qrevivals.noise import (
    RandomFieldParams,
    RandomUnitaryChannel,
    RTNParams,
    StaticNoiseParams,
    StroboscopicParams,
    dephased_state,
    field_channel,
    field_factors,
    ou_phase_variance,
    random_field_ensemble,
    rtn_coherence,
    static_noise_ensemble,
    stroboscopic_phase_variance,
)
from qrevivals.scenarios import (
    MAX_TIME_POINTS,
    ConfigError,
    parse_config_text,
    run_scenario,
    sweep,
)
from qrevivals.states import bell_state
from qrevivals.tripartite import flow_measures

FIELD_CFG = """
[scenario]
model = random-field
measures = concurrence, eof
time-start = 0.0
time-stop = 6.2831853071795865
time-points = 17
seed = 4242

[initial-state]
kind = xyz
x = 1.0
y = 0.9
z = 1.0

[random-field]
rabi = 1.0
width = 0.0
"""

OU_CFG = """
[scenario]
model = ou-noise
measures = concurrence, eof
time-start = 0.0
time-stop = 8.0
time-points = 9
seed = 31337
trajectories = 2048

[initial-state]
kind = bell
label = 2+

[ou-noise]
sigma = 1.0
echo-time = 4.0
correlation-time = 100.0
"""

RTN_CFG = """
[scenario]
model = rtn
measures = concurrence
time-start = 0.0
time-stop = 10.0
time-points = 11
seed = 5

[initial-state]
kind = ewl
r = 0.91
a = 0.7071067811865476
excitation = one

[rtn]
rate = 1.0
g = 5.0
"""


class TestConfigParsing:
    def test_field_config_roundtrip(self):
        cfg = parse_config_text(FIELD_CFG)
        assert cfg.model == "random-field"
        assert cfg.measures == ("concurrence", "eof")
        assert cfg.time_points == 17
        assert cfg.seed == 4242

    def test_unknown_scenario_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text(FIELD_CFG.replace("seed = 4242", "seed = 4242\nturbo = yes"))

    def test_unknown_model_key_rejected(self):
        with pytest.raises(ConfigError, match=r"\[random-field\] unknown key"):
            parse_config_text(FIELD_CFG + "omega = 3\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config_text(FIELD_CFG + "\n[rtn]\nrate = 1.0\ncoupling = 1.0\n")

    def test_unknown_measure_rejected(self):
        with pytest.raises(ConfigError, match="unknown measure"):
            parse_config_text(FIELD_CFG.replace("concurrence, eof", "concurrence, discord"))

    def test_measure_model_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="not available for model"):
            parse_config_text(FIELD_CFG.replace("concurrence, eof", "tripartite"))

    @pytest.mark.parametrize("model", ["ou-noise", "stroboscopic"])
    def test_trajectories_optional_checked_and_inert(self, model):
        # the closed forms draw nothing: the key is range-checked and echoed only
        text = OU_CFG if model == "ou-noise" else STROBO_CFG
        with_n = lambda n: re.sub(r"trajectories = \d+", f"trajectories = {n}", text)
        with_key = run_scenario(parse_config_text(with_n(1)))  # below the former floor of 1000
        without = run_scenario(parse_config_text(re.sub(r"trajectories = \d+\n", "", text)))
        assert dict(with_key.metadata)["config.scenario.trajectories"] == "1"
        assert "config.scenario.trajectories" not in dict(without.metadata)
        assert with_key.rows.tobytes() == without.rows.tobytes()
        for bad in ("0", "-3"):
            with pytest.raises(ConfigError, match=r"\[scenario\] trajectories: must be >= 1"):
                parse_config_text(with_n(bad))

    def test_trajectories_rejected_for_deterministic_model(self):
        bad = FIELD_CFG.replace("seed = 4242", "seed = 4242\ntrajectories = 100")
        with pytest.raises(ConfigError, match="trajectories"):
            parse_config_text(bad)

    def test_bad_grid_rejected(self):
        with pytest.raises(ConfigError, match="time-points"):
            parse_config_text(FIELD_CFG.replace("time-points = 17", "time-points = 1"))
        with pytest.raises(ConfigError, match="time-stop"):
            parse_config_text(FIELD_CFG.replace("time-stop = 6.2831853071795865", "time-stop = -1"))

    def test_width_must_be_zero_for_sharp_model(self):
        with pytest.raises(ConfigError, match="width"):
            parse_config_text(FIELD_CFG.replace("width = 0.0", "width = 0.2"))

    def test_rtn_requires_exactly_one_coupling_spec(self):
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config_text(RTN_CFG.replace("g = 5.0", "g = 5.0\ncoupling = 5.0"))
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config_text(RTN_CFG.replace("g = 5.0\n", ""))

    def test_ensemble_measures_take_a_mixed_state(self):
        # each Gauss-Hermite member of the field turns qubit B of the mixed rho0
        # by a local unitary, so it keeps E_f(rho0): the members' weighted mean
        # E_f is the average entanglement, less E_f of their mixture the hidden
        cfg = scenarios.parse_config(GOLDEN / "random-field-gaussian-mixed-xyz.cfg")
        assert np.allclose(cfg.rho0.eigenvalues(), [0.7, 0.3, 0.0, 0.0])
        rows = run_scenario(cfg).rows  # time, concurrence, eof, hidden, average
        for t, _, _, hidden, average in rows:
            ch = RandomUnitaryChannel.gaussian_field(1.0, cfg.param("width"), t, cfg.quadrature_order)
            u4 = ch._lifted()
            members = DensityOperator(u4 @ cfg.rho0.matrix @ u4.conj().swapaxes(-1, -2), (2, 2))
            mean = ch.weights @ eof_from_concurrence(concurrence(members))
            assert abs(average - mean) < 1e-14
            assert abs(hidden - (mean - eof_from_concurrence(concurrence(ch.apply(cfg.rho0))))) < 1e-12
        assert np.ptp(rows[:, 3]) > 0.2  # the grid crosses entangled and dark times

    def test_bell_label_validated(self):
        bad = OU_CFG.replace("label = 2+", "label = 9+")
        with pytest.raises(ConfigError, match="label"):
            parse_config_text(bad)


class TestRunScenario:
    def test_field_scenario_values(self):
        res = run_scenario(parse_config_text(FIELD_CFG))
        assert res.columns == ("time", "concurrence", "eof")
        assert res.rows.shape == (17, 3)
        assert abs(res.rows[0, 1] - 0.8) < 1e-9  # C(0)
        assert abs(res.rows[8, 1] - 0.8) < 1e-9  # C(pi)
        assert res.rows[4, 1] < 1e-9  # dark period at pi/2

    @pytest.mark.parametrize("initial", [
        "kind = xyz\nx = 0.2\ny = 0.5\nz = 0.9",
        "kind = ewl\nr = 0.9\na = 0.6+0.3j\nexcitation = two",
    ])
    def test_field_runner_is_the_library_channel(self, initial):
        # the runner dephases the input about sigma_x on B by the call the
        # library makes, at the unit-scale params (rabi 1, width/rabi) on the
        # grid as written: dephased_concurrence by Re field_factors and
        # flow_measures' rows, bit for bit, and the former is the concurrence
        # of field_channel's states
        text = FIELD_CFG.replace("kind = xyz\nx = 1.0\ny = 0.9\nz = 1.0", initial).replace("rabi = 1.0", "rabi = 2.0")
        text = text.replace("random-field", "random-field-gaussian").replace("width = 0.0", "width = 0.2")
        cfg = parse_config_text(text)
        assert cfg.params == RandomFieldParams(rabi=1.0, width=0.1)
        grid = np.linspace(0.0, 2 * np.pi, 17)
        want = dephased_concurrence(cfg.rho0, field_factors(cfg.params, grid).real, SIGMA_X)
        assert run_scenario(cfg).rows[:, 1].tobytes() == want.tobytes() and np.ptp(want) > 0.1
        assert np.max(np.abs(want - concurrence(field_channel(cfg.rho0, cfg.params, grid)))) < 1e-14
        flows = parse_config_text(text.replace("random-field-gaussian", "tripartite-flows").replace(
            "concurrence, eof", "concurrence, eof, tripartite, info-decomposition"))
        conc, dec = flow_measures(flows.rho0, flows.params, grid)
        want = np.stack([grid, conc, eof_from_concurrence(conc), dec.tripartite, dec.total, dec.local,
                         dec.tripartite, dec.bipartite_max, dec.residual], axis=-1)
        assert run_scenario(flows).rows.tobytes() == want.tobytes()

    def test_csv_shape_and_metadata(self):
        res = run_scenario(parse_config_text(FIELD_CFG))
        text = res.to_csv()
        body = [l for l in text.splitlines() if not l.startswith("#")]
        assert body[0] == "time,concurrence,eof"
        assert len(body) == 18
        meta = dict(
            l[2:].split(" = ", 1) for l in text.splitlines() if l.startswith("# ")
        )
        assert meta["config.scenario.model"] == "random-field"
        assert meta["columns"] == "time,concurrence,eof"
        assert meta["config-hash"].startswith("sha256:")
        assert "kernel-backend" in meta

    @pytest.mark.parametrize("rows", [
        [[-0.0, 5e-324, 1.7976931348623157e308], [1.0 / 3.0, 0.0, -1e-300], [2.0**53, -2.5, 1e16]],
        [[-0.0], [5e-324], [1.7976931348623157e308], [1.0 / 3.0]],  # one column
    ])
    def test_rows_format_as_each_float(self, rows):
        res = scenarios.ScenarioResult(metadata=(("format", "x"),), columns=("a", "b", "c")[:len(rows[0])],
                                       rows=np.array(rows))
        per_float = "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in rows)
        head = f"# format = x\n{','.join(res.columns)}\n"
        assert res.to_csv() == head + per_float

    def test_byte_identical_rerun(self):
        cfg = parse_config_text(OU_CFG)
        assert run_scenario(cfg).to_csv() == run_scenario(cfg).to_csv()

    def test_ou_scenario_is_the_closed_form(self):
        res = run_scenario(parse_config_text(OU_CFG))
        assert res.columns == ("time", "concurrence", "eof")
        c = res.rows[:, 1]
        # a Bell input keeps concurrence |f| = exp(-Var/2), sigma = 1: times in sigma*t units
        exact = np.exp(-0.5 * ou_phase_variance(StaticNoiseParams(1.0, echo_time=4.0, correlation_time=100.0),
                                                res.rows[:, 0]))
        assert np.max(np.abs(c - exact)) < 1e-12
        assert c[4] < 0.001  # dephased at sigma*t = 4
        assert c[-1] > 0.5  # substantial echo recovery at 2*tbar

    def test_rtn_scenario_matches_closed_form(self):
        from qrevivals.noise import RTNParams, rtn_concurrence
        from qrevivals.states import EWLParams

        res = run_scenario(parse_config_text(RTN_CFG))
        expected = rtn_concurrence(
            EWLParams(r=0.91, a=1 / np.sqrt(2)), RTNParams(1.0, 5.0), res.rows[:, 0]
        )
        assert np.max(np.abs(res.rows[:, 1] - expected)) < 1e-9

    def test_static_noise_scenario_echo_dip_and_recovery(self):
        cfg_text = """
[scenario]
model = static-noise
measures = concurrence, eof, average-entanglement, hidden-entanglement
time-start = 0.0
time-stop = 8.0
time-points = 33
seed = 6
quadrature-order = 128

[initial-state]
kind = bell
label = 2+

[static-noise]
sigma = 1.0
echo-time = 4.0
"""
        res = run_scenario(parse_config_text(cfg_text))
        assert res.columns == ("time", "concurrence", "eof", "average_entanglement", "hidden_entanglement")
        eof = res.rows[:, 2]
        assert eof[16] < 1e-5  # dip at sigma*t = 4
        assert abs(eof[-1] - 1.0) < 1e-6  # recovery at 2*tbar
        assert np.max(np.abs(res.rows[:, 3] - 1.0)) < 1e-9  # E_av = 1 throughout
        # hidden entanglement is what the mixture lost: E_av - E_f
        assert np.max(np.abs(res.rows[:, 4] - (res.rows[:, 3] - eof))) < 1e-9

    def test_stroboscopic_scenario(self):
        cfg_text = """
[scenario]
model = stroboscopic
measures = concurrence, eof
time-start = 0
time-stop = 4
time-points = 5
seed = 2718
trajectories = 4096

[initial-state]
kind = bell
label = 1-

[stroboscopic]
phase-sigma = 0.6
autocorrelation = 1.0
echo-after-step = 2
"""
        res = run_scenario(parse_config_text(cfg_text))
        assert res.columns == ("time", "concurrence", "eof")
        assert abs(res.rows[0, 1] - 1.0) < 1e-12  # step 0 = initial Bell state
        assert abs(res.rows[4, 1] - 1.0) < 1e-12  # exact refocus at step 4
        exact = np.exp(-0.5 * stroboscopic_phase_variance(
            StroboscopicParams(phase_sigma=0.6, autocorrelation=1.0, echo_after_step=2), np.arange(5)))
        assert np.max(np.abs(res.rows[:, 1] - exact)) < 1e-12

    def test_tripartite_scenario_columns(self):
        cfg_text = """
[scenario]
model = tripartite-flows
measures = concurrence, tripartite, info-decomposition
time-start = 0
time-stop = 3.141592653589793
time-points = 9
seed = 1

[initial-state]
kind = xyz
x = 1.0
y = 0.9
z = 1.0

[tripartite-flows]
rabi = 1.0
width = 0.0
"""
        res = run_scenario(parse_config_text(cfg_text))
        assert res.columns == (
            "time", "concurrence", "tripartite",
            "info_total", "info_local", "info_tripartite", "info_bipartite_max", "info_residual",
        )
        assert np.max(np.abs(res.rows[:, 4])) < 1e-9  # local information zero


def _gaussian_phase_ensemble(psi0, variance, echoed, order):
    """|psi0> under a Gaussian phase theta of ``variance`` on qubit B, on Gauss-Hermite
    nodes: member k is (1 (x) diag(e^{-i theta_k/2}, e^{i theta_k/2})) |psi0>, then B's
    components swapped if the echo's sigma_x has acted."""
    x, w = np.polynomial.hermite.hermgauss(order)
    thetas = np.sqrt(2.0 * variance) * x
    members = psi0.reshape(2, 2) * np.exp(np.multiply.outer(thetas, [-0.5j, 0.5j]))[:, None, :]
    if echoed:
        members = members[..., ::-1]
    return WeightedPureEnsemble(w / np.sqrt(np.pi), members.reshape(order, 4))


def _ensemble_oracle(cfg):
    """Average and hidden entanglement from the pure ensemble each channel
    member makes of |psi0>, one WeightedPureEnsemble per grid value."""
    values = np.linspace(cfg.time_start, cfg.time_stop, cfg.time_points)
    psi0 = np.linalg.eigh(cfg.rho0.matrix)[1][:, -1]  # the top eigenvector of the pure input
    if cfg.model == "static-noise":
        sigma, echo = cfg.param("sigma"), cfg.param("echo-time")
        p = StaticNoiseParams(sigma=sigma, echo_time=None if echo is None else echo / sigma)
        ensembles = [static_noise_ensemble(psi0, p, v / sigma, cfg.quadrature_order) for v in values]
    elif cfg.model == "ou-noise":  # in units of 1/sigma, as the noise params define them
        sigma, echo = cfg.param("sigma"), cfg.param("echo-time")
        p = StaticNoiseParams(sigma=sigma, echo_time=None if echo is None else echo / sigma,
                              correlation_time=cfg.param("correlation-time") / sigma)
        variances = ou_phase_variance(p, values / sigma)
        echoed = values > (np.inf if echo is None else echo)
        ensembles = [_gaussian_phase_ensemble(psi0, *ve, cfg.quadrature_order) for ve in zip(variances, echoed)]
    elif cfg.model == "stroboscopic":
        p = StroboscopicParams(phase_sigma=cfg.param("phase-sigma"), autocorrelation=cfg.param("autocorrelation"),
                               echo_after_step=cfg.param("echo-after-step"))
        steps = np.rint(values).astype(int)
        echoed = steps > (np.inf if p.echo_after_step is None else p.echo_after_step)
        ensembles = [_gaussian_phase_ensemble(psi0, *ve, cfg.quadrature_order)
                     for ve in zip(stroboscopic_phase_variance(p, steps), echoed)]
    else:
        p = RandomFieldParams(rabi=cfg.param("rabi"), width=cfg.param("width", 0.0))
        ensembles = [
            random_field_ensemble(psi0, p, v / p.rabi, cfg.quadrature_order) for v in values
        ]
    return (
        np.array([average_entanglement(e) for e in ensembles]),
        np.array([hidden_entanglement(e) for e in ensembles]),
    )


GOLDEN = Path(__file__).parent / "golden"


def _golden_columns(name):
    """The data columns of the golden CSV ``name``, by header name."""
    lines = [l for l in (GOLDEN / f"{name}.csv").read_text().splitlines() if not l.startswith("#")]
    rows = np.array([[float(x) for x in l.split(",")] for l in lines[1:]])
    return dict(zip(lines[0].split(","), rows.T))


INVARIANT_MEASURES = "concurrence, average-entanglement, hidden-entanglement"


def _field_text(model, width, initial):
    text = FIELD_CFG.replace("concurrence, eof", INVARIANT_MEASURES)
    text = text.replace("kind = xyz\nx = 1.0\ny = 0.9\nz = 1.0", initial)
    text = text.replace("time-stop = 6.2831853071795865", "time-stop = 12.566370614359172")
    text = text.replace("time-points = 17", "time-points = 41")
    return text.replace("model = random-field", f"model = {model}").replace(
        "[random-field]", f"[{model}]").replace("width = 0.0", f"width = {width}")


STATIC_TEXT = """
[scenario]
model = static-noise
measures = concurrence, average-entanglement, hidden-entanglement
time-start = 0.0
time-stop = 8.0
time-points = 41
seed = 6

[initial-state]
kind = bell
label = 1-

[static-noise]
sigma = 1.3
"""

BELL = "kind = bell\nlabel = 2+"
PURE_XYZ = "kind = xyz\nx = 0.6\ny = 1.0\nz = 1.0"  # 0.6|2+> + 0.8|1+>, C = 0.28


class TestEntanglementInvariant:
    """The runner takes average/hidden entanglement from E_f(psi0); the
    per-member ensemble loop is the oracle."""

    @pytest.mark.parametrize(
        "text",
        [
            _field_text("random-field", 0.0, BELL),
            _field_text("random-field", 0.0, PURE_XYZ),
            _field_text("random-field-gaussian", 0.0, BELL),
            _field_text("random-field-gaussian", 0.1, BELL),
            _field_text("random-field-gaussian", 0.1, PURE_XYZ),
            STATIC_TEXT,
            STATIC_TEXT.replace("sigma = 1.3", "sigma = 1.3\necho-time = 4.0"),
        ],
        ids=[
            "field-bell", "field-pure-xyz", "gaussian-width0", "gaussian-bell",
            "gaussian-pure-xyz", "static", "static-echo",
        ],
    )
    def test_matches_ensemble_oracle(self, text):
        cfg = parse_config_text(text)
        res = run_scenario(cfg)
        assert res.columns == ("time", "concurrence", "average_entanglement", "hidden_entanglement")
        e_av, e_h = _ensemble_oracle(cfg)
        assert np.max(np.abs(res.rows[:, 2] - e_av)) < 1e-12
        assert np.max(np.abs(res.rows[:, 3] - e_h)) < 1e-12
        assert np.ptp(res.rows[:, 3]) > 0.1  # the grid crosses entangled and dark times

    @pytest.mark.parametrize("name", ["static-noise-pure-xyz", "ou-noise-hidden", "stroboscopic-hidden"])
    def test_golden_matches_ensemble_oracle(self, name):
        # the golden files of the inputs and measures every dephasing model takes
        cfg = scenarios.parse_config(GOLDEN / f"{name}.cfg")
        col = _golden_columns(name)
        e_av, e_h = _ensemble_oracle(cfg)
        assert np.max(np.abs(col["average_entanglement"] - e_av)) < 1e-12
        assert np.max(np.abs(col["hidden_entanglement"] - e_h)) < 1e-12
        assert np.ptp(col["hidden_entanglement"]) > 0.1

    def test_rtn_bell_golden_matches_closed_form(self):
        # a Bell state keeps C = |q(t)|, so hidden = E_f(Bell) - E_f(|q|) with E_f(Bell) = 1
        col = _golden_columns("rtn-bell")
        conc = np.abs(rtn_coherence(RTNParams(rate=1.0, coupling=2.5), col["time"]))
        assert np.max(np.abs(col["concurrence"] - conc)) < 1e-12
        assert np.max(np.abs(col["hidden_entanglement"] - (1.0 - eof_from_concurrence(conc)))) < 1e-12
        assert np.max(np.abs(col["average_entanglement"] - 1.0)) < 1e-12
        assert np.min(col["concurrence"]) < 0.1 and np.ptp(col["hidden_entanglement"]) > 0.5

    def test_pure_xyz_average_is_its_initial_entanglement(self):
        # psi0 = (0.6, 0.8, 0.8, 0.6)/sqrt2, C = 2 |0.18 - 0.32| = 0.28
        res = run_scenario(parse_config_text(_field_text("random-field", 0.0, PURE_XYZ)))
        assert np.max(np.abs(res.rows[:, 2] - eof_from_concurrence(0.28))) < 1e-12
        assert abs(res.rows[0, 1] - 0.28) < 1e-12
        assert abs(res.rows[0, 3]) < 1e-12  # nothing hidden at t = 0


class TestEchoFlags:
    """The factors of each dephasing model's runner, fed to dephased_state with
    echo flags built here, give the state of its Gaussian phase ensemble, with
    the echo's sigma_x on B after the echo. No measure sees that sigma_x, so
    the runner leaves it out and the state is read here: on a Bell input it
    moves the weight from |00>, |11> to |01>, |10>."""

    PSI0 = bell_state("2+")
    BELL = DensityOperator(np.outer(PSI0, PSI0.conj()), (2, 2))

    def assert_states_match(self, model, p, grid, variances, echoed):
        channel = scenarios._MODEL_TABLE[model].channel  # the row's (params, grid) -> factors
        factors = channel(p, grid)
        assert factors.shape == grid.shape and np.any(echoed) and not np.all(echoed)
        for factor, flag, variance in zip(factors, echoed, variances):
            want = _gaussian_phase_ensemble(self.PSI0, variance, flag, 64).average_state().matrix
            assert np.max(np.abs(dephased_state(self.BELL, factor, flag).matrix - want)) < 1e-12

    def test_static_noise_channel(self):
        p = StaticNoiseParams(sigma=1.0, echo_time=1.5)
        times = np.array([0.5, 1.0, 1.5, 1.8, 2.4, 2.9])
        refocused = np.where(times > p.echo_time, 2.0 * p.echo_time - times, times)
        self.assert_states_match("static-noise", p, times, (p.sigma * refocused) ** 2, times > p.echo_time)

    def test_ou_channel(self):
        p = StaticNoiseParams(sigma=1.0, echo_time=1.2, correlation_time=3.0)
        times = np.array([0.4, 1.2, 1.6, 2.2, 3.0])
        self.assert_states_match("ou-noise", p, times, ou_phase_variance(p, times), times > p.echo_time)

    @pytest.mark.parametrize("echo_after_step", [1, 2, 3])
    def test_strobo_channel(self, echo_after_step):
        p = StroboscopicParams(phase_sigma=0.6, autocorrelation=0.5, echo_after_step=echo_after_step)
        steps = np.arange(5)
        self.assert_states_match("stroboscopic", p, steps.astype(float), stroboscopic_phase_variance(p, steps),
                                 steps > echo_after_step)


class TestSweep:
    def test_rtn_g_sweep(self):
        cfg = parse_config_text(RTN_CFG)
        results = sweep(cfg, "g", [0.5, 1.1, 2.0, 5.0])
        assert [v for v, _ in results] == [0.5, 1.1, 2.0, 5.0]
        # revival count (dark-to-bright transitions) nondecreasing in g
        counts = []
        for _, res in results:
            c = res.rows[:, 1]
            counts.append(int(np.sum((c[1:] > 0) & (c[:-1] == 0.0))))
        assert counts == sorted(counts)

    def test_width_sweep_down_to_zero(self):
        cfg_text = FIELD_CFG.replace("model = random-field", "model = random-field-gaussian")
        cfg_text = cfg_text.replace("[random-field]", "[random-field-gaussian]")
        cfg_text = cfg_text.replace("time-stop = 6.2831853071795865", "time-stop = 12.566370614359172")
        cfg_text = cfg_text.replace("time-points = 17", "time-points = 33")
        cfg = parse_config_text(cfg_text.replace("width = 0.0", "width = 0.05"))
        results = sweep(cfg, "width", [0.0, 0.05, 0.1])
        # concurrence at the second revival (rabi*t = 2pi, row 16) drops with width
        revival = [res.rows[16, 1] for _, res in results]
        assert abs(revival[0] - 0.8) < 1e-9
        assert revival[0] > revival[1] > revival[2]

    def test_empty_values(self):
        assert sweep(parse_config_text(RTN_CFG), "g", []) == []

    def test_unknown_parameter(self):
        with pytest.raises(ConfigError, match="unknown sweep parameter"):
            sweep(parse_config_text(RTN_CFG), "bogus", [1.0])

    def test_sweep_metadata_labels(self):
        results = sweep(parse_config_text(RTN_CFG), "g", [2.0])
        meta = dict(results[0][1].metadata)
        assert meta["sweep.parameter"] == "g"
        assert meta["sweep.value"] == "2"


class TestCLI:
    def write(self, tmp_path, text, name="scenario.cfg"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_simulate_to_file(self, tmp_path):
        cfg = self.write(tmp_path, FIELD_CFG)
        out = tmp_path / "out.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("# format = qrevivals-scenario-csv-v1")
        assert "time,concurrence,eof" in text

    def test_simulate_stdout(self, tmp_path, capsys):
        cfg = self.write(tmp_path, FIELD_CFG)
        assert main(["simulate", "--config", cfg]) == 0
        assert "time,concurrence,eof" in capsys.readouterr().out

    def test_seed_override_changes_hash(self, tmp_path):
        cfg = self.write(tmp_path, OU_CFG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2), "--seed", "777"]) == 0
        assert out1.read_text() != out2.read_text()

    def test_seed_override_is_echoed_only(self, tmp_path):
        # every model is a closed form, so --seed changes the echo and hash, not the rows
        for text in (OU_CFG, STROBO_CFG):
            cfg = self.write(tmp_path, text)
            out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
            assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
            assert main(["simulate", "--config", cfg, "--out", str(out2), "--seed", "777"]) == 0
            assert "# config.scenario.seed = 777" in out2.read_text().splitlines()
            rows = [[l for l in p.read_text().splitlines() if not l.startswith("#")]
                    for p in (out1, out2)]
            assert rows[0] == rows[1]

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = self.write(tmp_path, "[scenario]\nmodel = nope\n")
        assert main(["simulate", "--config", cfg]) == 1
        assert "config error" in capsys.readouterr().err

    def test_static_echo_beyond_former_quadrature_limit(self, tmp_path, capsys):
        # sigma = 3, echo at sigma*t = 6 (t = 2), to sigma*t = 30 (t = 10): order
        # doubling used to stop this run at t = 7.5 with exit 2
        text = STATIC_CFG.replace("time-stop = 8.0", "time-stop = 30.0").replace("time-points = 5", "time-points = 41")
        text = text.replace("sigma = 1.0", "sigma = 3.0").replace("echo-time = 4.0", "echo-time = 6.0")
        out = tmp_path / "static.csv"
        assert main(["simulate", "--config", self.write(tmp_path, text), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        rows = np.array([[float(x) for x in l.split(",")] for l in body[1:]])
        u = np.where(rows[:, 0] > 6.0, 12.0 - rows[:, 0], rows[:, 0])  # sigma * u, echo-refocused
        assert np.max(np.abs(rows[:, 1] - np.exp(-0.5 * u**2))) <= 1e-12

    def test_sweep_files(self, tmp_path):
        cfg = self.write(tmp_path, RTN_CFG)
        out = tmp_path / "rtn.csv"
        assert main(["sweep", "--config", cfg, "--param", "g", "--values", "0.5,5", "--out", str(out)]) == 0
        assert (tmp_path / "rtn__g=0.5.csv").exists()
        assert (tmp_path / "rtn__g=5.csv").exists()

    def test_sweep_refuses_colliding_file_names(self, tmp_path, capsys):
        cfg = self.write(tmp_path, RTN_CFG)
        out = tmp_path / "rtn.csv"
        argv = ["sweep", "--config", cfg, "--param", "g", "--values", "0.5,1.0000001,1.0000002",
                "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "rtn__g=1.csv" in err
        assert len(err.strip().splitlines()) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.cfg"]  # nothing written

    def test_sweep_collision_quotes_the_values_as_written(self, tmp_path, capsys):
        cfg = self.write(tmp_path, RTN_CFG)
        argv = ["sweep", "--config", cfg, "--param", "g", "--values", "1, 1.0", "--out", str(tmp_path / "s.csv")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"config error: --values: '1' and '1.0' would both write {tmp_path}/s__g=1.csv\n"

    def test_sweep_to_stdout_keeps_close_values(self, tmp_path, capsys):
        cfg = self.write(tmp_path, RTN_CFG)
        assert main(["sweep", "--config", cfg, "--param", "g", "--values", "1.0000001,1.0000002"]) == 0
        assert capsys.readouterr().out.count("# sweep.value = ") == 2

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_config_is_a_config_error(self, tmp_path, capsys, kind):
        path = tmp_path / "scenario.cfg"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b"[scenario]\nmodel = \xff\xfe\n")
        for command in (["simulate"], ["sweep", "--param", "g", "--values", "1"]):
            assert main(command + ["--config", str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("config error: cannot read config file")
            assert len(err.strip().splitlines()) == 1

    def test_rtn_long_time_below_crossover(self, tmp_path):
        text = RTN_CFG.replace("g = 5.0", "g = 0.5").replace("time-stop = 10.0", "time-stop = 1000")
        cfg = self.write(tmp_path, text)
        out = tmp_path / "rtn.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert body[0] == "time,concurrence"
        rows = np.array([[float(x) for x in l.split(",")] for l in body[1:]])
        assert rows.shape == (11, 2)
        assert np.all(np.isfinite(rows)) and np.all((rows[:, 1] >= 0) & (rows[:, 1] <= 1))

    def test_sweep_empty_values_success(self, tmp_path, capsys):
        cfg = self.write(tmp_path, RTN_CFG)
        assert main(["sweep", "--config", cfg, "--param", "g", "--values", ""]) == 0
        assert capsys.readouterr().out == ""

    def test_sweep_bad_values_exit(self, tmp_path):
        cfg = self.write(tmp_path, RTN_CFG)
        assert main(["sweep", "--config", cfg, "--param", "g", "--values", "a,b"]) == 1

    @pytest.mark.parametrize("argv", [
        ["sweep", "--config", "CFG", "--param", "g", "--values", "-1,2"],  # -1,2 reads as an option
        ["simulate", "--config", "CFG", "--out"],
        ["simulate", "--config", "CFG", "--threads", "two"],
        ["simulate", "--config", "CFG", "--unknown"],
        [],
        ["nope", "--config", "CFG"],
        ["simulate"],
        ["simulate", "--config", "CFG", "--param", "g"],
        ["simulate", "--config", "CFG", "stray"],
        ["selftest", "--threads", "two"],
    ])
    def test_usage_error_is_a_one_line_config_error(self, tmp_path, capsys, argv):
        cfg = self.write(tmp_path, RTN_CFG)
        assert main([cfg if a == "CFG" else a for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: qrevivals") and len(err.strip().splitlines()) == 1
        if "-1,2" in argv:
            assert "--values=-1,2" in err
            assert main(["sweep", "--config", cfg, "--param", "g", "--values=-1,2"]) == 1
            assert capsys.readouterr().err == "config error: [rtn] g=-1.0 must be >= 0\n"

    def test_abbreviated_and_repeated_options(self, tmp_path, capsys):
        cfg = self.write(tmp_path, RTN_CFG)
        assert main(["simulate", "--config", cfg]) == 0
        full = capsys.readouterr().out
        assert main(["simulate", "--conf", str(tmp_path / "missing.cfg"), "--co=" + cfg]) == 0
        assert capsys.readouterr().out == full

    @pytest.mark.parametrize("argv", [
        ["-h"], ["--help"], ["--version"], ["simulate", "-h"], ["sweep", "--config", "x.cfg", "--he"], ["selftest", "-h"],
    ])
    def test_help_and_version_print_to_stdout(self, capsys, argv):
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        if argv == ["--version"]:
            assert out == f"qrevivals {qrevivals.__version__}\n"
        elif argv[0] in cli._COMMANDS:  # every option of the command's table, with its help
            assert out.startswith(f"usage: qrevivals {argv[0]} [-h]")
            assert all(f"  {name} {name[2:].upper()}  " in out and help_ in out
                       for name, (_, _, help_) in cli._COMMANDS[argv[0]][1].items())
        else:
            assert out.startswith("usage: qrevivals [-h] [--version]")
            assert all(f"  {name}  " in out for name in cli._COMMANDS)

    def test_cli_threads_byte_identical(self, tmp_path):
        cfg = self.write(tmp_path, OU_CFG)
        out1, out8 = tmp_path / "t1.csv", tmp_path / "t8.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out1), "--threads", "1"]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out8), "--threads", "8"]) == 0
        assert out1.read_bytes() == out8.read_bytes()


STATIC_CFG = """
[scenario]
model = static-noise
measures = concurrence
time-start = 0.0
time-stop = 8.0
time-points = 5
seed = 1

[initial-state]
kind = bell
label = 2+

[static-noise]
sigma = 1.0
echo-time = 4.0
"""


class TestNumericalExitCodes:
    def write(self, tmp_path, text):
        path = tmp_path / "scenario.cfg"
        path.write_text(text, encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("model", ["static-noise", "random-field-gaussian", "tripartite-flows"])
    def test_quadrature_order_has_no_effect(self, tmp_path, capsys, model):
        # the averages are closed forms: the key is range-checked and echoed only,
        # even at order 400, where numpy's Gauss-Hermite rule is not finite
        if model == "static-noise":
            text = STATIC_CFG
        else:
            text = FIELD_CFG.replace("model = random-field", f"model = {model}")
            text = text.replace("[random-field]", f"[{model}]").replace("width = 0.0", "width = 0.1")
        bodies = []
        for order in (1, 64, 400):
            out = tmp_path / f"order{order}.csv"
            cfg = self.write(tmp_path, text.replace("seed = ", f"quadrature-order = {order}\nseed = ", 1))
            assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
            lines = out.read_text().splitlines()
            assert f"# config.scenario.quadrature-order = {order}" in lines
            bodies.append([l for l in lines if not l.startswith("#")])
        assert capsys.readouterr().err == ""
        assert bodies[0] == bodies[1] == bodies[2]

    @pytest.mark.parametrize("exc", [
        PositivityError("negative eigenvalue -1e-3 below the -1e-10 dust window"),
        NumericalError("trace nan differs from 1 by more than 1e-10"),
        np.linalg.LinAlgError("Eigenvalues did not converge\nsecond line"),
    ])
    def test_numerical_failure_exits_3(self, tmp_path, capsys, monkeypatch, exc):
        def failing_run(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "run_scenario", failing_run)
        assert main(["simulate", "--config", self.write(tmp_path, FIELD_CFG)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: ")
        assert len(err.strip().splitlines()) == 1

    def test_config_error_stays_exit_1(self, tmp_path, capsys):
        text = FIELD_CFG.replace("seed = 4242", "seed = 4242\nquadrature-order = 0")
        assert main(["simulate", "--config", self.write(tmp_path, text)]) == 1
        assert capsys.readouterr().err.startswith("config error:")


STROBO_CFG = """
[scenario]
model = stroboscopic
measures = concurrence, eof
time-start = 0
time-stop = 4
time-points = 5
seed = 2718
trajectories = 4096

[initial-state]
kind = bell
label = 1-

[stroboscopic]
phase-sigma = 0.6
autocorrelation = 0.5
echo-after-step = 2
"""

GAUSSIAN_CFG = FIELD_CFG.replace("model = random-field", "model = random-field-gaussian").replace(
    "[random-field]", "[random-field-gaussian]").replace("width = 0.0", "width = 0.1")
FLOWS_CFG = FIELD_CFG.replace("model = random-field", "model = tripartite-flows").replace(
    "[random-field]", "[tripartite-flows]")


def _set(text, key, value):
    """``text`` with ``key = value`` in its model section (replaced or added)."""
    lines = [l for l in text.splitlines() if not l.startswith(f"{key} =")]
    return "\n".join(lines) + f"\n{key} = {value}\n"


class TestModelParameterRanges:
    """Every out-of-range model parameter is one config error naming the
    section and the key (the params classes hold the range checks)."""

    @pytest.mark.parametrize("text, section, key", [
        (_set(FIELD_CFG, "rabi", "0.0"), "random-field", "rabi"),
        (_set(GAUSSIAN_CFG, "rabi", "-1.0"), "random-field-gaussian", "rabi"),
        (_set(FLOWS_CFG, "rabi", "0"), "tripartite-flows", "rabi"),
        (_set(GAUSSIAN_CFG, "width", "-0.1"), "random-field-gaussian", "width"),
        (_set(FLOWS_CFG, "width", "-0.1"), "tripartite-flows", "width"),
        (_set(STATIC_CFG, "sigma", "0.0"), "static-noise", "sigma"),
        (_set(OU_CFG, "sigma", "-1.0"), "ou-noise", "sigma"),
        (_set(STATIC_CFG, "echo-time", "0.0"), "static-noise", "echo-time"),
        (_set(OU_CFG, "echo-time", "-2.0"), "ou-noise", "echo-time"),
        (_set(OU_CFG, "correlation-time", "0.0"), "ou-noise", "correlation-time"),
        (_set(RTN_CFG, "rate", "0.0"), "rtn", "rate"),
        (_set(RTN_CFG.replace("g = 5.0\n", ""), "coupling", "-1.0"), "rtn", "coupling"),
        (_set(STROBO_CFG, "phase-sigma", "-0.1"), "stroboscopic", "phase-sigma"),
        (_set(STROBO_CFG, "autocorrelation", "1.5"), "stroboscopic", "autocorrelation"),
        (_set(STROBO_CFG, "autocorrelation", "-0.5"), "stroboscopic", "autocorrelation"),
        (_set(STROBO_CFG, "echo-after-step", "0"), "stroboscopic", "echo-after-step"),
        (_set(STROBO_CFG, "echo-after-step", "4"), "stroboscopic", "echo-after-step"),
        (STROBO_CFG.replace("time-points = 5", "time-points = 9"), "scenario", "time grid"),
    ])
    def test_out_of_range_is_one_config_error(self, tmp_path, capsys, text, section, key):
        path = tmp_path / "scenario.cfg"
        path.write_text(text, encoding="utf-8")
        assert main(["simulate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith(f"config error: [{section}] ") and key in err

    def test_negative_g_names_g_as_written(self, tmp_path, capsys):
        # the coupling built from g (g * rate = -2) is not a key of the config
        path = tmp_path / "scenario.cfg"
        path.write_text(_set(_set(RTN_CFG, "rate", "2.0"), "g", "-1.0"), encoding="utf-8")
        assert main(["simulate", "--config", str(path)]) == 1
        assert capsys.readouterr().err == "config error: [rtn] g=-1.0 must be >= 0\n"

    @pytest.mark.parametrize("g", ["1e-200", "0.5", "5.0", "1e200"])
    def test_huge_rate_runs_as_rate_one(self, tmp_path, capsys, g):
        # q depends on g and rate * t only, and the grid is in units of 1/rate,
        # so the noise runs at rate 1 with g as written: no coupling g * rate is
        # formed (at g = rate = 1e200 it would overflow), nor is rate squared
        rows = []
        for rate in ("1.0", "1e200"):
            path = tmp_path / "scenario.cfg"
            path.write_text(_set(_set(RTN_CFG, "rate", rate), "g", g), encoding="utf-8")
            out = tmp_path / f"rtn-{rate}.csv"
            assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
            body = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
            rows.append(np.array([[float(x) for x in l.split(",")] for l in body]))
        assert capsys.readouterr().err == ""
        assert np.all(np.isfinite(rows[1])) and np.max(np.abs(rows[1] - rows[0])) < 1e-12


class TestOutputFiles:
    def write(self, tmp_path, text):
        path = tmp_path / "scenario.cfg"
        path.write_text(text, encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("command", [
        ["simulate"], ["sweep", "--param", "g", "--values", "0.5,5"],
    ])
    def test_missing_output_directory_is_a_config_error(self, tmp_path, capsys, monkeypatch, command):
        ran = []
        monkeypatch.setattr(cli, "run_scenario", lambda *a, **k: ran.append(1))
        monkeypatch.setattr(cli, "sweep", lambda *a, **k: ran.append(1))
        out = tmp_path / "nodir" / "x.csv"
        argv = command + ["--config", self.write(tmp_path, RTN_CFG), "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write output file")
        assert len(err.strip().splitlines()) == 1
        assert not ran  # refused before anything ran
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.cfg"]

    @pytest.mark.parametrize("command", [["simulate"], ["sweep", "--param", "g", "--values", "5"]])
    def test_unwritable_output_is_a_config_error(self, tmp_path, capsys, command):
        # a directory where the output file should go makes open() fail
        out = tmp_path / "taken.csv"
        (tmp_path / ("taken__g=5.csv" if command[0] == "sweep" else "taken.csv")).mkdir()
        argv = command + ["--config", self.write(tmp_path, RTN_CFG), "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write output file")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("config, argv", [
        ("t.cfg", ["simulate", "--out", "t.cfg"]),
        ("t.cfg", ["simulate", "--out", "./t.cfg"]),
        ("s__g=1.cfg", ["sweep", "--param", "g", "--values", "2,1", "--out", "s.cfg"]),
    ])
    def test_output_naming_the_config_is_refused(self, tmp_path, capsys, monkeypatch, config, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / config).write_text(RTN_CFG, encoding="utf-8")
        assert main(argv + ["--config", config]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: output file") and "is the config file" in err
        assert len(err.strip().splitlines()) == 1
        assert (tmp_path / config).read_text(encoding="utf-8") == RTN_CFG
        assert sorted(p.name for p in tmp_path.iterdir()) == [config]  # nothing written

    @pytest.mark.parametrize("out", [".", "/", ""])
    def test_sweep_output_without_a_file_name_is_a_config_error(self, tmp_path, capsys, out):
        argv = ["sweep", "--config", self.write(tmp_path, RTN_CFG), "--param", "g", "--values", "5", "--out", out]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"config error: cannot write output file {out!r}: not a file name\n"

    @pytest.mark.parametrize("out", ["results", "results/", "nodir/"])
    def test_sweep_output_naming_a_directory_is_refused(self, tmp_path, capsys, monkeypatch, out):
        # as simulate refuses it: one line, exit 1, and no file beside the directory
        monkeypatch.chdir(tmp_path)
        (tmp_path / "results").mkdir()
        argv = ["sweep", "--config", self.write(tmp_path, RTN_CFG), "--param", "g", "--values", "1,2", "--out", out]
        assert main(argv) == 1
        reason = "no such directory" if out == "nodir/" else "Is a directory"
        assert capsys.readouterr().err == f"config error: cannot write output file {out!r}: {reason}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["results", "scenario.cfg"]
        assert not any((tmp_path / "results").iterdir())

    STDOUT_COMMANDS = [["simulate", "--config", str(GOLDEN / "rtn.cfg")],
                       ["sweep", "--config", str(GOLDEN / "rtn.cfg"), "--param", "g", "--values", "1,2"],
                       ["--version"], ["-h"], ["simulate", "-h"]]

    @pytest.mark.parametrize("fails", ["write", "flush"])
    @pytest.mark.parametrize("argv", STDOUT_COMMANDS, ids=["simulate", "sweep", "version", "help", "simulate-help"])
    def test_unwritable_stdout_is_a_config_error(self, capsys, monkeypatch, argv, fails):
        # a full disk behind stdout, raised by the write or, for buffered
        # text, by the flush; the stream has no descriptor to point elsewhere
        class FullStdout(io.StringIO):
            def full(self, *args):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        stdout = FullStdout()
        setattr(stdout, fails, stdout.full)
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(argv) == 1
        assert capsys.readouterr().err == f"config error: cannot write output: {os.strerror(errno.ENOSPC)}\n"

    def test_closed_pipe_prints_one_line(self):
        # nothing more at interpreter exit, where Python flushes stdout again
        src = str(Path(qrevivals.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.Popen([sys.executable, "-m", "qrevivals.cli", "simulate", "--config", str(GOLDEN / "rtn.cfg")],
                                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        proc.stdout.close()  # long before the process writes its rows
        err = proc.stderr.read()
        assert proc.wait() == 1
        assert err == f"config error: cannot write output: {os.strerror(errno.EPIPE)}\n"

    def test_sweep_rejects_non_integer_value_of_integer_key(self, tmp_path, capsys):
        out = tmp_path / "strobo.csv"
        argv = ["sweep", "--config", self.write(tmp_path, STROBO_CFG), "--param", "echo-after-step",
                "--values", "2,2.5", "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: [stroboscopic] echo-after-step:")
        assert len(err.strip().splitlines()) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.cfg"]  # nothing written

    def test_sweep_integer_key_values_run(self, tmp_path):
        out = tmp_path / "strobo.csv"
        argv = ["sweep", "--config", self.write(tmp_path, STROBO_CFG), "--param", "echo-after-step",
                "--values", "1,3", "--out", str(out)]
        assert main(argv) == 0
        one = (tmp_path / "strobo__echo-after-step=1.csv").read_text()
        three = (tmp_path / "strobo__echo-after-step=3.csv").read_text()
        assert "# config.stroboscopic.echo-after-step = 1\n" in one
        assert "# sweep.value = 3\n" in three
        body = lambda t: [l for l in t.splitlines() if not l.startswith("#")]
        assert body(one) != body(three)


def _cli_error(tmp_path, capsys, text, *args):
    """Exit code and stderr (checked to be one line) of the command ``args``,
    ``simulate`` by default, on a config file holding ``text``."""
    path = tmp_path / "scenario.cfg"
    path.write_text(text, encoding="utf-8")
    code = main(list(args or ["simulate"]) + ["--config", str(path)])
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    return code, err


HUGE = "1" * 400  # an integer literal too large for a float


def _case(text, section, key):
    return pytest.param(text, section, key, id=f"{section}-{key}")


class TestValuesBeyondFloats:
    """Values that overflow a float, or whose ratio to a unit scale does
    (width/rabi, coupling/rate), are one config error naming their key."""

    @pytest.mark.parametrize("text, section, key", [
        _case(OU_CFG.replace("seed = 31337", f"seed = {HUGE}"), "scenario", "seed"),
        _case(OU_CFG.replace("time-points = 9", f"time-points = {HUGE}"), "scenario", "time-points"),
        _case(OU_CFG.replace("trajectories = 2048", f"trajectories = {HUGE}"), "scenario", "trajectories"),
        _case(OU_CFG.replace("seed = 31337", f"seed = 31337\nquadrature-order = {HUGE}"), "scenario",
              "quadrature-order"),
        _case(_set(STROBO_CFG, "echo-after-step", HUGE), "stroboscopic", "echo-after-step"),
    ])
    def test_huge_integer_is_one_config_error(self, tmp_path, capsys, text, section, key):
        code, err = _cli_error(tmp_path, capsys, text)
        assert code == 1 and err.startswith(f"config error: [{section}] {key}:")

    def test_huge_integer_sweep_value_is_one_config_error(self, tmp_path, capsys):
        code, err = _cli_error(tmp_path, capsys, STROBO_CFG, "sweep", "--param", "echo-after-step",
                               "--values", f"1,{HUGE}")
        assert code == 1 and err.startswith("config error: [stroboscopic] echo-after-step:")

    @pytest.mark.parametrize("value", ["nan", "nanj", "nan+1j"])
    def test_complex_nan_is_one_config_error(self, tmp_path, capsys, value):
        code, err = _cli_error(tmp_path, capsys, RTN_CFG.replace("a = 0.7071067811865476", f"a = {value}"))
        assert code == 1 and err.startswith("config error: [initial-state] a: value must be finite")

    @pytest.mark.parametrize("text, section, key", [
        # the params are built at unit scale, from width/rabi and coupling/rate
        _case(_set(RTN_CFG.replace("g = 5.0\n", "coupling = 5.0\n"), "rate", "1e-310"), "rtn", "rate"),
        _case(_set(GAUSSIAN_CFG, "rabi", "1e-310"), "random-field-gaussian", "rabi"),
    ])
    def test_subnormal_unit_scale_is_one_config_error(self, tmp_path, capsys, text, section, key):
        code, err = _cli_error(tmp_path, capsys, text)
        assert code == 1 and err.startswith(f"config error: [{section}] {key}:") and "overflows" in err


    def test_overflowing_rtn_phase_is_one_config_error(self, tmp_path, capsys):
        # at g = 1e307 the phase g*rate*t is inf from t = 10 on, where exp(-t) > 0
        text = _set(RTN_CFG.replace("time-stop = 10.0", "time-stop = 100.0"), "g", "1e307")
        want = ("config error: [rtn] g: the phase g*rate*t overflows at g = 1e+307 where exp(-rate*t) > 0 "
                "(time-stop = 100)\n")
        assert _cli_error(tmp_path, capsys, text) == (1, want)
        code, err = _cli_error(tmp_path, capsys, text, "sweep", "--param", "g", "--values", "5,1e307")
        assert code == 1 and err.startswith("config error: [rtn] g: the phase g*rate*t overflows")
        # where exp(-rate*t) underflows first the coherence is 0, and the run exits 0
        for g, stop in (("2.0", "1.7e308"), ("1e9", "1e300")):
            path = tmp_path / "scenario.cfg"
            path.write_text(_set(RTN_CFG.replace("time-stop = 10.0", f"time-stop = {stop}"), "g", g),
                            encoding="utf-8")
            assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 0
            assert capsys.readouterr().err == "" and np.all(np.isfinite(_data_rows(tmp_path / "out.csv")))

    @pytest.mark.parametrize("rate, coupling", [("1.0", "1e307"), ("2.0", "2e307")])
    def test_overflowing_rtn_phase_names_the_coupling(self, tmp_path, capsys, rate, coupling):
        # given coupling, not g: the error names the key and the value written
        text = _set(_set(RTN_CFG.replace("time-stop = 10.0", "time-stop = 100.0").replace("g = 5.0\n", ""),
                         "rate", rate), "coupling", coupling)
        want = (f"config error: [rtn] coupling: the phase coupling*t overflows at coupling = {float(coupling):g} "
                "where exp(-rate*t) > 0 (time-stop = 100)\n")
        assert _cli_error(tmp_path, capsys, text) == (1, want)

    def test_time_points_beyond_cap_is_one_config_error(self, tmp_path, capsys):
        # 2**62 points fit in 64 bits but not in memory: refused before the grid is built
        code, err = _cli_error(tmp_path, capsys, RTN_CFG.replace("time-points = 11", f"time-points = {2**62}"))
        assert (code, err) == (1, f"config error: [scenario] time-points: at most {MAX_TIME_POINTS}, got {2**62}\n")
        cfg = parse_config_text(RTN_CFG.replace("time-points = 11", f"time-points = {MAX_TIME_POINTS}"))
        assert cfg.time_points == MAX_TIME_POINTS

    def test_seed_override_is_checked_as_the_config_seed(self, tmp_path, capsys):
        code, err = _cli_error(tmp_path, capsys, OU_CFG, "simulate", "--seed", "-1")
        assert (code, err) == (1, "config error: [scenario] seed: must fit in 64 bits, got -1\n")


GOLDEN_CONFIGS = sorted(GOLDEN.glob("*.cfg"))


def _echo_text(cfg):
    """A config file made of ``cfg``'s metadata echo lines."""
    sections = {}
    for key, value in scenarios._config_echo_lines(cfg):
        section, name = key[len("config."):].split(".", 1)
        sections.setdefault(section, []).append(f"{name} = {value}")
    return "".join(f"[{s}]\n" + "\n".join(lines) + "\n" for s, lines in sections.items())


class TestConfigTables:
    """The section tables read, check and echo a config alike."""

    @pytest.mark.parametrize("path", GOLDEN_CONFIGS, ids=[p.stem for p in GOLDEN_CONFIGS])
    def test_echo_parses_back_to_the_same_config(self, path):
        cfg = scenarios.parse_config(path)
        again = parse_config_text(_echo_text(cfg))
        assert again == cfg
        assert dict(scenarios._metadata(again, ()))["config-hash"] == dict(scenarios._metadata(cfg, ()))["config-hash"]

    def test_model_tables_are_sorted(self):
        # a sweep writes its value into sorted model_params; a parse reads them in table order
        for row in scenarios._MODEL_TABLE.values():
            assert list(row.keys) == sorted(row.keys)

    @pytest.mark.parametrize("text, key", [
        (FIELD_CFG.replace("y = 0.9\n", ""), "y"),
        (RTN_CFG.replace("r = 0.91\n", ""), "r"),
        (OU_CFG.replace("label = 2+\n", ""), "label"),
    ])
    def test_missing_initial_state_key_is_named(self, text, key):
        with pytest.raises(ConfigError, match=rf"^\[initial-state\] missing required key '{key}'$"):
            parse_config_text(text)

    def test_absent_keys_take_their_defaults(self):
        cfg = parse_config_text(RTN_CFG.replace("excitation = one\n", ""))
        assert cfg.quadrature_order == 64 and cfg.trajectories is None
        assert dict(cfg.initial_params)["excitation"] == "one"
        assert cfg == parse_config_text(RTN_CFG)

    def test_replace_checks_like_a_parse(self):
        cfg = parse_config_text(RTN_CFG)
        with pytest.raises(ConfigError, match=r"\[scenario\] seed"):
            replace(cfg, seed=2**64)
        with pytest.raises(ConfigError, match=r"\[rtn\] rate"):
            replace(cfg, model_params=(("g", 5.0), ("rate", -1.0)))
        with pytest.raises(ConfigError, match=r"\[initial-state\] excitation"):
            replace(cfg, initial_params=(("r", 0.9), ("a", 0.5 + 0j), ("excitation", "three")))

    def test_model_params_built_once_per_config(self, monkeypatch):
        calls = []
        row = scenarios._MODEL_TABLE["rtn"]
        monkeypatch.setitem(scenarios._MODEL_TABLE, "rtn", replace(
            row, params=lambda cfg: calls.append(cfg) or row.params(cfg)))
        run_scenario(parse_config_text(RTN_CFG))
        assert len(calls) == 1
        sweep(parse_config_text(RTN_CFG), "g", [0.5, 2.0])
        assert len(calls) == 4  # the parse, then one per value


class TestConfigSyntaxErrors:
    """A config that is no INI text is one config error in configparser's
    words: the line number, and the line itself where there is one."""

    @pytest.mark.parametrize("text, message", [
        pytest.param(FIELD_CFG.replace("rabi = 1.0\n", "rabi = 1.0\nRabi = 2.0\n"),
                     "While reading from '<string>' [line 18]: option 'rabi' in section 'random-field' already exists",
                     id="duplicate-key"),
        pytest.param(FIELD_CFG + "[Scenario]\n[scenario]\n",
                     "While reading from '<string>' [line 20]: section 'scenario' already exists",
                     id="duplicate-section"),
        pytest.param("# a scenario\nmodel = rtn\n" + FIELD_CFG,
                     r"File contains no section headers. file: '<string>', line: 2 'model = rtn\n'",
                     id="missing-section-header"),
        pytest.param(FIELD_CFG.replace("x = 1.0\n", "x = 1.0\nx 1.0\n").replace("z = 1.0", "z  1.0 ; z"),
                     r"Source contains parsing errors: '<string>' [line 13]: 'x 1.0\n' [line 15]: 'z 1.0 ; z\n'",
                     id="no-delimiter"),
    ])
    def test_one_line_in_configparser_words(self, tmp_path, capsys, text, message):
        code, err = _cli_error(tmp_path, capsys, text)
        assert code == 1 and err == f"config error: config syntax error: {message}\n"


MIXTURE_MEASURES = "concurrence, eof, hidden-entanglement, average-entanglement"
TWO_QUBIT_CFGS = {"random-field": FIELD_CFG, "random-field-gaussian": GAUSSIAN_CFG, "static-noise": STATIC_CFG,
                  "ou-noise": OU_CFG, "rtn": RTN_CFG, "stroboscopic": STROBO_CFG}
# pure inputs and their concurrence C0, so E_f(psi0) = E_f(C0)
PURE_INPUTS = {"bell": (BELL, 1.0), "pure-xyz": (PURE_XYZ, 0.28),
               "ewl-r1": ("kind = ewl\nr = 1.0\na = 0.6\nexcitation = two", 2 * 0.6 * 0.8)}


def _with_input(text, initial):
    """``text`` with all four mixture measures and ``initial`` as its [initial-state] section."""
    text = re.sub(r"measures = .*", f"measures = {MIXTURE_MEASURES}", text)
    return re.sub(r"\[initial-state\]\n(?:\w.*\n)*", f"[initial-state]\n{initial}\n", text)


class TestEveryTwoQubitModelIsAMixture:
    """Each realisation of every two-qubit model's noise is a local unitary on
    qubit B, so every model takes any input kind, and a pure input keeps
    E_av = E_f(psi0) and E_h = E_av - E_f(rho(t)) >= 0."""

    @pytest.mark.parametrize("initial", sorted(PURE_INPUTS))
    @pytest.mark.parametrize("model", sorted(TWO_QUBIT_CFGS))
    def test_pure_input_keeps_the_mixture_identities(self, tmp_path, capsys, model, initial):
        state, c0 = PURE_INPUTS[initial]
        path, out = tmp_path / "scenario.cfg", tmp_path / "out.csv"
        path.write_text(_with_input(TWO_QUBIT_CFGS[model], state), encoding="utf-8")
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = _data_rows(out)  # time, concurrence, eof, hidden, average
        assert rows.shape[1] == 5 and np.all(np.isfinite(rows))
        eof, hidden, average = rows[:, 2], rows[:, 3], rows[:, 4]
        assert np.all(average == average[0]) and abs(average[0] - eof_from_concurrence(c0)) < 1e-12
        assert np.max(np.abs(hidden + eof - average)) <= 1e-12
        assert np.all(hidden >= -1e-12)


class TestFlowsAreTheField:
    """tripartite-flows is the field read with the register of its phase: on one
    input, grid and rabi/width its time, concurrence and eof columns are those
    of random-field-gaussian, and of random-field at width 0, bit for bit."""

    @staticmethod
    def columns(text, model, measures, initial):
        text = re.sub(r"measures = .*", f"measures = {measures}", text.replace("tripartite-flows", model))
        text = re.sub(r"\[initial-state\]\n(?:\w.*\n)*", f"[initial-state]\n{initial}\n", text)
        return run_scenario(parse_config_text(text)).rows[:, :3]

    @pytest.mark.parametrize("initial", [BELL, PURE_XYZ, "kind = xyz\nx = 1.0\ny = 0.9\nz = 0.5",
                                         "kind = ewl\nr = 0.91\na = 0.6+0.3j\nexcitation = two"],
                             ids=["bell", "pure-xyz", "mixed-xyz", "ewl-two"])
    @pytest.mark.parametrize("width", ["0.0", "0.3"])
    def test_two_qubit_columns_are_the_fields(self, initial, width):
        text = _set(FLOWS_CFG.replace("time-points = 17", "time-points = 101").replace(
            "time-stop = 6.2831853071795865", "time-stop = 12.0"), "width", width)
        flows = self.columns(text, "tripartite-flows", "concurrence, eof, tripartite, info-decomposition", initial)
        fields = ["random-field-gaussian"] + (["random-field"] if width == "0.0" else [])
        for model in fields:
            assert self.columns(text, model, "concurrence, eof", initial).tobytes() == flows.tobytes()


class TestFieldConcurrenceIsExact:
    """The field is the bit flip of qubit B by r = exp(-(width t / rabi)^2) cos t
    (t in rabi*t units). It keeps an xyz input with x = z = 1 Bell-diagonal,
    with C = max(0, max(y, 1 - y)(1 + |r|) - 1), and gives a Bell input
    C = |r|. On the benchmark's flows config (xyz (1, 0.9, 1), width 0.1,
    160 points to 4 pi) both field concurrence columns keep to that within 1e-13."""

    @pytest.mark.parametrize("initial, exact", [
        ("kind = xyz\nx = 1.0\ny = 0.9\nz = 1.0", lambda r: np.maximum(0.0, 0.9 * (1.0 + np.abs(r)) - 1.0)),
        (BELL, np.abs),
    ], ids=["xyz", "bell"])
    @pytest.mark.parametrize("model, measures", [
        ("random-field-gaussian", "concurrence, eof"),
        ("tripartite-flows", "concurrence, eof, tripartite, info-decomposition"),
    ])
    def test_concurrence_column(self, model, measures, initial, exact):
        text = _set(FLOWS_CFG.replace("time-stop = 6.2831853071795865", "time-stop = 12.566370614359172").replace(
            "time-points = 17", "time-points = 160"), "width", "0.1")
        text = re.sub(r"measures = .*", f"measures = {measures}", text.replace("tripartite-flows", model))
        text = re.sub(r"\[initial-state\]\n(?:\w.*\n)*", f"[initial-state]\n{initial}\n", text)
        rows = run_scenario(parse_config_text(text)).rows
        t = rows[:, 0]
        r = np.exp(-((0.1 * t) ** 2)) * np.cos(t)
        assert np.max(np.abs(rows[:, 1] - exact(r))) <= 1e-13


def _data_rows(path):
    """The numeric rows of a CSV file: its lines after the metadata and the header."""
    body = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return np.array([[float(x) for x in line.split(",")] for line in body[1:]])


def test_params_are_at_unit_scale():
    # rabi, sigma and rate only name the unit of the times, so each model's
    # params are built with them at 1, from width/rabi and g = coupling/rate
    for text, key in ((FIELD_CFG, "rabi"), (GAUSSIAN_CFG, "rabi"), (FLOWS_CFG, "rabi"), (STATIC_CFG, "sigma"),
                      (OU_CFG, "sigma"), (RTN_CFG, "rate")):
        assert getattr(parse_config_text(_set(text, key, "4.0")).params, key) == 1.0
    assert parse_config_text(_set(GAUSSIAN_CFG, "rabi", "4.0")).params == RandomFieldParams(rabi=1.0, width=0.025)
    rtn = _set(_set(RTN_CFG.replace("g = 5.0\n", ""), "coupling", "10.0"), "rate", "4.0")
    assert parse_config_text(rtn).params == RTNParams(rate=1.0, coupling=2.5)
    assert parse_config_text(_set(RTN_CFG, "rate", "4.0")).params == RTNParams(rate=1.0, coupling=5.0)


# near |f| = 1 the true lambda_2 = (1 - |f|)/2 of a dephased Bell state is
# below 1e-6 of lambda_1; the concurrence must keep it, C = |Re f|
SHORT_TIME_MODELS = {
    "static-noise": {"sigma": 1.0},
    "ou-noise": {"sigma": 1.0, "correlation-time": 1.0},
    "random-field": {"rabi": 1.0},
    "random-field-gaussian": {"rabi": 1.0, "width": 0.5},
    "rtn": {"rate": 1.0, "g": 0.5},
}


@pytest.mark.parametrize("model", SHORT_TIME_MODELS)
def test_short_time_bell_concurrence_is_the_factor(model):
    params = "".join(f"{k} = {v}\n" for k, v in SHORT_TIME_MODELS[model].items())
    cfg = parse_config_text(
        f"[scenario]\nmodel = {model}\nmeasures = concurrence\ntime-start = 0.0\ntime-stop = 0.002\n"
        f"time-points = 11\n[initial-state]\nkind = bell\nlabel = 2+\n[{model}]\n{params}")
    f = scenarios._MODEL_TABLE[model].channel(cfg.params, np.linspace(0.0, 0.002, 11)).real
    assert 1.0 - f[-1] > 1e-7  # the grid reaches the factors the former cut lost
    assert np.max(np.abs(run_scenario(cfg).rows[:, 1] - np.abs(f))) <= 1e-15


class TestClosedFormExtremes:
    """Configs whose closed forms would square an overflowing scale: each runs
    to a finite CSV with every concurrence in [0, 1]."""

    def run(self, tmp_path, capsys, text):
        path, out = tmp_path / "scenario.cfg", tmp_path / "out.csv"
        path.write_text(text, encoding="utf-8")
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = _data_rows(out)
        assert np.all(np.isfinite(rows)) and np.all((rows[:, 1] >= 0.0) & (rows[:, 1] <= 1.0))
        return rows

    def test_ou_huge_correlation_time_is_the_static_curve(self, tmp_path, capsys):
        rows = self.run(tmp_path, capsys, _set(OU_CFG, "correlation-time", "1e300"))
        static = self.run(tmp_path, capsys, OU_CFG.replace("model = ou-noise", "model = static-noise").replace(
            "trajectories = 2048\n", "").replace("[ou-noise]", "[static-noise]").replace(
            "correlation-time = 100.0\n", ""))
        assert np.max(np.abs(rows - static)) < 1e-12

    def test_ou_vanishing_correlation_time_keeps_factor_one(self, tmp_path, capsys):
        # white noise of vanishing strength: Var = 2 sigma^2 tau t ~ 1e-299
        rows = self.run(tmp_path, capsys, _set(OU_CFG, "correlation-time", "1e-300"))
        psi = qrevivals.bell_state("2+")
        c_bell = qrevivals.dephased_concurrence(qrevivals.DensityOperator(np.outer(psi, psi.conj()), (2, 2)), 1.0)
        assert rows[:, 1].tolist() == [c_bell] * len(rows) and abs(c_bell - 1.0) <= 1e-15

    @pytest.mark.parametrize("stop", ["1e290", "1e300"])
    def test_ou_overflowing_duration_dephases(self, tmp_path, capsys, stop):
        # Var = 2 sigma^2 tau t = 2e-10 t past t = 0; at time-stop 1e300, t / tau overflows
        text = OU_CFG.replace("time-stop = 8.0", f"time-stop = {stop}").replace(
            "time-points = 9", "time-points = 3").replace("echo-time = 4.0\n", "")
        rows = self.run(tmp_path, capsys, _set(text, "correlation-time", "1e-10"))
        assert rows[1:, 1].tolist() == [0.0, 0.0]

    SCALES = ("1", "1e-310", "1e-300", "1e100")

    @pytest.mark.parametrize("text, key, scales", [
        pytest.param(STATIC_CFG, "sigma", SCALES, id="static-noise-sigma"),
        pytest.param(OU_CFG, "sigma", SCALES, id="ou-noise-sigma"),
        pytest.param(_set(STATIC_CFG.replace("time-stop = 8.0", "time-stop = 1e-9"), "echo-time", "1e10"),
                     "sigma", SCALES, id="static-noise-echo-time"),
        pytest.param(_set(OU_CFG, "correlation-time", "1e-310"), "sigma", SCALES,
                     id="ou-noise-subnormal-correlation-time"),
        pytest.param(_set(STATIC_CFG, "echo-time", "1e-310"), "sigma", SCALES, id="static-noise-subnormal-echo-time"),
        pytest.param(RTN_CFG, "rate", ("1", "1e-310", "1e200"), id="rtn-rate-given-g"),
        pytest.param(FIELD_CFG, "rabi", SCALES, id="random-field-rabi"),
        pytest.param(FLOWS_CFG, "rabi", SCALES, id="tripartite-flows-rabi-width-0"),
    ])
    def test_sigma_only_names_the_unit(self, tmp_path, capsys, text, key, scales):
        # the grid, echo-time and correlation-time are in units of the scale (sigma*t,
        # rate*t, rabi*t) and no time is divided by it, so a tiny or huge scale writes
        # the rows of scale 1; a division would underflow a subnormal time at
        # scale 1e100 and overflow a time at scale 1e-310
        rows = [self.run(tmp_path, capsys, _set(text, key, s)) for s in scales]
        assert all(r.tobytes() == rows[0].tobytes() for r in rows[1:])

    def test_stroboscopic_huge_sigma_refocuses_at_step_four(self, tmp_path, capsys):
        text = _set(_set(STROBO_CFG, "phase-sigma", "1e200"), "autocorrelation", "1")
        rows = self.run(tmp_path, capsys, text)
        assert rows[1:4, 1].tolist() == [0.0, 0.0, 0.0]
        assert rows[4, 1] == rows[0, 1] and abs(rows[4, 1] - 1.0) < 1e-15


def test_every_exported_name_resolves():
    missing = [name for name in qrevivals.__all__ if not hasattr(qrevivals, name)]
    assert missing == [] and len(set(qrevivals.__all__)) == len(qrevivals.__all__)


def test_names_the_benchmark_runner_calls_resolve():
    # perfbench/child.py reaches these by module path; losing one fails every
    # benchmark iteration, so each is called the way the runner calls it
    from qrevivals import kernels, noise

    assert kernels.backend_name() == "numpy"
    times = np.linspace(0.0, 8.0, 5)
    mean, se = noise.rtn_mc_coherence_grid(noise.RTNParams(rate=1.0, coupling=2.0), times, 10_000, 3, threads=2)
    assert mean.shape == se.shape == times.shape


def _loaded_after(code, *args):
    """Whether each module of the tuple ``mods`` that ``code`` defines is
    loaded once ``code`` has run in a fresh interpreter, with ``args`` as
    sys.argv[1:]."""
    src = str(Path(qrevivals.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code += "\nprint(*(m in sys.modules for m in mods))"
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True)
    return out.stdout.split()


def test_cli_import_leaves_the_acceptance_suite_out():
    # simulate and sweep never load the selftest code; selftest imports it
    # itself. The command line is read without argparse (nor its gettext and
    # locale), which cost more than a small simulate's rows; the config
    # without configparser, the records without dataclasses, which compiles
    # their methods at every import, and no thread pool is built
    code = (
        "import os, sys, qrevivals.cli\n"
        "assert qrevivals.cli.main(['simulate', '--config', sys.argv[1], '--out', os.devnull]) == 0\n"
        "sys.stdout = open(os.devnull, 'w')\n"
        "assert qrevivals.cli.main(['sweep', '--config', sys.argv[1], '--param', 'g', '--values', '1,2']) == 0\n"
        "sys.stdout = sys.__stdout__\n"
        "mods = ('qrevivals.cli', 'qrevivals.acceptance', 'argparse', 'gettext', 'locale', 'concurrent.futures',\n"
        "        'dataclasses', 'configparser', 'cmath')"
    )
    assert _loaded_after(code, str(GOLDEN / "rtn.cfg")) == ["True"] + ["False"] * 8


def test_threaded_oracle_loads_no_executor():
    # the Monte-Carlo batches run on plain threads
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from qrevivals import noise\n"
        "noise.rtn_mc_coherence_grid(noise.RTNParams(rate=1.0, coupling=2.0), np.linspace(0.0, 8.0, 5), 10_000, 3, 2)\n"
        "mods = ('qrevivals.noise', 'concurrent')"
    )
    assert _loaded_after(code) == ["True", "False"]
