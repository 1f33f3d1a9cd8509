"""A sweep is one stacked evaluation of its values; each of its files must
equal ``simulate`` on the config with that value written in, byte for byte,
apart from the two ``sweep.*`` metadata lines."""
import dataclasses

import numpy as np
import pytest

from qrevivals import scenarios, tripartite
from qrevivals.cli import main
from qrevivals.linalg import NumericalError
from qrevivals.scenarios import parse_config_text, sweep

BELL = "[initial-state]\nkind = bell\nlabel = 2+\n"
PURE_XYZ = "[initial-state]\nkind = xyz\nx = 0.6\ny = 1.0\nz = 1.0\n"
EWL = "[initial-state]\nkind = ewl\nr = 0.91\na = 0.7071067811865476\nexcitation = one\n"


def _cfg(model, measures, stop, points, initial, params, trajectories=None):
    lines = ["[scenario]", f"model = {model}", f"measures = {measures}", "time-start = 0.0",
             f"time-stop = {stop}", f"time-points = {points}", "seed = 20261018"]
    if trajectories is not None:
        lines.append(f"trajectories = {trajectories}")
    section = [f"[{model}]"] + [f"{k} = {v}" for k, v in params.items()]
    return "\n".join(lines) + "\n" + initial + "\n".join(section) + "\n"


MIXTURE = "concurrence, eof, hidden-entanglement, average-entanglement"
# (case id, config text, swept key, values)
CASES = [
    ("random-field-rabi", _cfg("random-field", MIXTURE, 12.0, 17, BELL, {"rabi": 1.0}), "rabi", "0.5,1,2"),
    ("random-field-gaussian-width", _cfg("random-field-gaussian", MIXTURE, 12.0, 17, PURE_XYZ,
                                         {"rabi": 1.0, "width": 0.1}), "width", "0,0.1,0.3"),
    ("static-noise-echo-time", _cfg("static-noise", MIXTURE, 8.0, 33, BELL, {"sigma": 1.0, "echo-time": 4.0}),
     "echo-time", "1,3,50"),
    ("ou-noise-correlation-time", _cfg("ou-noise", "concurrence, eof", 8.0, 9, BELL,
                                       {"sigma": 1.0, "echo-time": 4.0, "correlation-time": 20.0}, 1000),
     "correlation-time", "5,20,100"),
    ("rtn-g", _cfg("rtn", "concurrence, eof", 10.0, 21, EWL, {"rate": 1.0, "g": 2.5}), "g", "0.5,1,2"),
    # 200 points: blocks of two values, the last one partial
    ("rtn-g-blocks", _cfg("rtn", "concurrence, eof", 10.0, 200, EWL, {"rate": 1.0, "g": 2.5}), "g",
     "0.9,1,1.1,4,0"),
    ("stroboscopic-autocorrelation", _cfg("stroboscopic", "concurrence, eof", 4, 5, BELL,
                                          {"phase-sigma": 0.6, "autocorrelation": 0.5, "echo-after-step": 2},
                                          5000), "autocorrelation", "0,0.5,1"),
    ("stroboscopic-echo-after-step", _cfg("stroboscopic", "concurrence, eof", 4, 5, BELL,
                                          {"phase-sigma": 0.6, "autocorrelation": 0.5}, 5000),
     "echo-after-step", "1,2,3"),
    ("tripartite-flows-width", _cfg("tripartite-flows", "concurrence, eof, tripartite, info-decomposition",
                                    12.0, 17, PURE_XYZ, {"rabi": 1.0, "width": 0.1}), "width", "0,0.1,0.2"),
]


def _with_value(text, key, value):
    """The config text with ``key`` of the model section (its last section)
    set to ``value``; for rtn, g and coupling displace each other."""
    drop = ("g", "coupling") if key in ("g", "coupling") else (key,)
    lines = [l for l in text.splitlines() if l.split(" = ")[0] not in drop]
    return "\n".join(lines) + f"\n{key} = {value}\n"


def _without_sweep_lines(text):
    return [l for l in text.splitlines() if not l.startswith("# sweep.")]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("text, key, values", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_sweep_file_equals_its_simulate(tmp_path, text, key, values, threads):
    cfg = tmp_path / "base.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--param", key, "--values", values, "--out", str(out),
                 "--threads", str(threads)]) == 0
    for value in values.split(","):
        one = tmp_path / f"{value}.cfg"
        one.write_text(_with_value(text, key, value), encoding="utf-8")
        sim = tmp_path / f"{value}.csv"
        assert main(["simulate", "--config", str(one), "--out", str(sim), "--threads", str(threads)]) == 0
        swept = (tmp_path / f"sweep__{key}={float(value):g}.csv").read_text(encoding="utf-8")
        assert f"# sweep.parameter = {key}" in swept.splitlines()
        assert _without_sweep_lines(swept) == _without_sweep_lines(sim.read_text(encoding="utf-8"))


def test_one_concurrence_kernel_per_evaluation(monkeypatch):
    kernels, stacks = [], []
    original = scenarios.concurrence_kernel
    monkeypatch.setattr(scenarios, "concurrence_kernel", lambda *a, **k: kernels.append(1) or original(*a, **k))
    # every state stack of a scenario is built in tripartite.register_decomposition
    monkeypatch.setattr(tripartite, "dephased_state", lambda *a, **k: stacks.append(1))
    rtn = dict((c[0], c[1:]) for c in CASES)["rtn-g-blocks"]
    assert len(sweep(parse_config_text(rtn[0]), "g", rtn[2].split(","))) == 5
    assert len(kernels) == 1  # 200 points: three blocks of two values, one kernel
    strobo = dict((c[0], c[1:]) for c in CASES)["stroboscopic-autocorrelation"]
    sweep(parse_config_text(strobo[0]), "autocorrelation", [0.0, 0.25, 0.5, 0.75, 1.0])
    assert len(kernels) == 2
    field = _cfg("random-field-gaussian", "concurrence, eof", 12.0, 17, PURE_XYZ, {"rabi": 1.0, "width": 0.1})
    sweep(parse_config_text(field), "width", [0.0, 0.1, 0.3])
    assert len(kernels) == 3
    # the hidden and average entanglement read E_f(rho0) off the same kernel, at f = 1
    hidden = _cfg("random-field", "concurrence, eof, hidden-entanglement", 12.0, 17, PURE_XYZ, {"rabi": 1.0})
    scenarios.run_scenario(parse_config_text(hidden))
    assert len(kernels) == 4
    assert stacks == []  # the two-qubit measures build no state stack


# 200 points: the flows of a width sweep run in blocks of two values, the last one partial
FLOWS_BLOCKS = _cfg("tripartite-flows", "concurrence, eof, tripartite, info-decomposition", 12.0, 200, PURE_XYZ,
                    {"rabi": 1.0, "width": 0.1})


def _stack_shapes(monkeypatch) -> list:
    """The factor shape of each dephased_state stack the runner builds from now
    on: (V, T) for rho_AB and for the register stack; every factor must be
    real."""
    shapes = []
    original = tripartite.dephased_state

    def recorded(rho, f, **kw):
        assert np.isrealobj(f), "a complex-factor stack"
        shapes.append(np.shape(f))
        return original(rho, f, **kw)

    monkeypatch.setattr(tripartite, "dephased_state", recorded)
    return shapes


def test_one_flows_block_stack_per_block(monkeypatch):
    shapes = _stack_shapes(monkeypatch)
    assert len(sweep(parse_config_text(FLOWS_BLOCKS), "width", [0.0, 0.1, 0.2, 0.3, 0.4])) == 5
    assert shapes == [(2, 200), (2, 200), (2, 200), (2, 200), (1, 200), (1, 200)]
    flows = dict((c[0], c[1:]) for c in CASES)["tripartite-flows-width"]
    sweep(parse_config_text(flows[0]), "width", flows[2].split(","))
    assert shapes[6:] == [(3, 17), (3, 17)]  # 3 values x 17 times fit one block


def test_two_qubit_flows_build_no_register_blocks(monkeypatch):
    shapes = _stack_shapes(monkeypatch)
    values = [0.0, 0.1, 0.2, 0.3, 0.4]
    two = sweep(parse_config_text(FLOWS_BLOCKS.replace(", tripartite, info-decomposition", "")), "width", values)
    assert shapes == []  # the concurrence kernel needs no state stack
    four = sweep(parse_config_text(FLOWS_BLOCKS), "width", values)
    for (_, a), (_, b) in zip(two, four):
        rows = [line for line in a.to_csv().splitlines() if not line.startswith("#")]
        assert rows == [",".join(line.split(",")[:3]) for line in b.to_csv().splitlines() if not line.startswith("#")]


def _channel_nan_at(monkeypatch, model, key, value, time_index):
    """The row of ``model`` with a channel whose factor is NaN at ``time_index`` where param ``key`` is ``value``."""
    row = scenarios._MODEL_TABLE[model]

    def channel(p, grid):
        f = row.channel(p, grid)
        if getattr(p, key) == value:
            f = f.copy()
            f[time_index] = np.nan
        return f

    monkeypatch.setitem(scenarios._MODEL_TABLE, model, dataclasses.replace(row, channel=channel))


def test_flows_numerical_error_in_a_later_block_names_the_value(monkeypatch):
    _channel_nan_at(monkeypatch, "tripartite-flows", "width", 0.3, 7)
    # value 3 of the sweep is the second of the block that starts at value 2
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match=r"stack index \(3, 7\)") as info:
        sweep(parse_config_text(FLOWS_BLOCKS), "width", [0.0, 0.1, 0.2, 0.3, 0.4])
    assert info.value.index == (3, 7)


def test_initial_state_built_once_per_sweep(monkeypatch):
    calls = []
    kind = scenarios._INITIAL_KINDS["xyz"]
    monkeypatch.setitem(scenarios._INITIAL_KINDS, "xyz", scenarios._InitialKind(
        kind.keys, kind.params, lambda p: calls.append(p) or kind.state(p)))
    flows = dict((c[0], c[1:]) for c in CASES)["tripartite-flows-width"]
    assert len(sweep(parse_config_text(flows[0]), "width", flows[2].split(","))) == 3
    assert len(calls) == 1
    # separate runs of configs that differ only in the model section share one state
    pure = "[initial-state]\nkind = xyz\nx = 0.8\ny = 1.0\nz = 0.5\n"
    for model, params in (("random-field-gaussian", {"rabi": 1.0, "width": 0.1}), ("static-noise", {"sigma": 1.0}),
                          ("rtn", {"rate": 1.0, "g": 2.5})):
        scenarios.run_scenario(parse_config_text(_cfg(model, "concurrence, hidden-entanglement", 12.0, 17, pure,
                                                      params)))
    assert len(calls) == 2


def test_numerical_error_names_the_value_and_the_time(monkeypatch):
    text = dict((c[0], c[1:]) for c in CASES)["rtn-g-blocks"][0]
    _channel_nan_at(monkeypatch, "rtn", "g", 3.0, 7)
    # value 3 of the sweep is the second of the block that starts at value 2
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match=r"stack index \(3, 7\)") as info:
        sweep(parse_config_text(text), "g", [0.5, 1.0, 2.0, 3.0, 4.0])
    assert info.value.index == (3, 7)


def test_flows_numerical_error_names_the_value_and_the_time(monkeypatch):
    text = dict((c[0], c[1:]) for c in CASES)["tripartite-flows-width"][0]
    _channel_nan_at(monkeypatch, "tripartite-flows", "width", 0.1, 5)
    # each block of values' flows is one stack; its error names the value too
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match=r"stack index \(1, 5\)") as info:
        sweep(parse_config_text(text), "width", [0.0, 0.1, 0.2])
    assert info.value.index == (1, 5)
