"""A sweep is one stacked evaluation of its values; each of its files must
equal ``simulate`` on the config with that value written in, byte for byte,
apart from the two ``sweep.*`` metadata lines."""
import dataclasses
import functools

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


def test_one_dephased_stack_per_block(monkeypatch):
    calls = []
    original = scenarios.dephased_state
    monkeypatch.setattr(scenarios, "dephased_state", lambda *a, **k: calls.append(1) or original(*a, **k))
    rtn = dict((c[0], c[1:]) for c in CASES)["rtn-g-blocks"]
    assert len(sweep(parse_config_text(rtn[0]), "g", rtn[2].split(","))) == 5
    assert len(calls) == 3  # 200 points: two values per block
    strobo = dict((c[0], c[1:]) for c in CASES)["stroboscopic-autocorrelation"]
    sweep(parse_config_text(strobo[0]), "autocorrelation", [0.0, 0.25, 0.5, 0.75, 1.0])
    assert len(calls) == 4  # 5 values x 5 steps fit one block
    # the field is dephasing too: its values stack like every other model's
    field = _cfg("random-field-gaussian", "concurrence, eof", 12.0, 17, PURE_XYZ, {"rabi": 1.0, "width": 0.1})
    sweep(parse_config_text(field), "width", [0.0, 0.1, 0.3])
    assert len(calls) == 5  # 3 values x 17 times fit one block
    # the hidden and average entanglement are read off the eof column of that one stack
    hidden = _cfg("random-field", "concurrence, eof, hidden-entanglement", 12.0, 17, PURE_XYZ, {"rabi": 1.0})
    scenarios.run_scenario(parse_config_text(hidden))
    assert len(calls) == 6


def test_initial_state_built_once_per_sweep(monkeypatch):
    calls = []
    kind = scenarios._INITIAL_KINDS["xyz"]
    monkeypatch.setitem(scenarios._INITIAL_KINDS, "xyz", scenarios._InitialKind(
        kind.keys, kind.params, lambda p: calls.append(p) or kind.state(p)))
    flows = dict((c[0], c[1:]) for c in CASES)["tripartite-flows-width"]
    assert len(sweep(parse_config_text(flows[0]), "width", flows[2].split(","))) == 3
    assert len(calls) == 1
    # the purity check of the hidden entanglement reads the state of every value's
    # config, and configs that differ only in the model section share one state
    pure = "[initial-state]\nkind = xyz\nx = 0.8\ny = 1.0\nz = 0.5\n"
    field = _cfg("random-field-gaussian", "concurrence, hidden-entanglement", 12.0, 17, pure,
                 {"rabi": 1.0, "width": 0.1})
    assert len(sweep(parse_config_text(field), "width", [0.0, 0.05, 0.1, 0.3])) == 4
    assert len(calls) == 2


def test_numerical_error_names_the_value_and_the_time(monkeypatch):
    text = dict((c[0], c[1:]) for c in CASES)["rtn-g-blocks"][0]
    values = [0.5, 1.0, 2.0, 3.0, 4.0]
    row = scenarios._MODEL_TABLE["rtn"]

    def nan_at_g3(p, t):
        q = scenarios.rtn_coherence(p, t)
        if p.g == 3.0:
            q = q.copy()
            q[7] = np.nan
        return q

    # the row names its channel, rtn_coherence, so the channel is replaced in the row
    monkeypatch.setitem(scenarios._MODEL_TABLE, "rtn", dataclasses.replace(
        row, evaluate=functools.partial(scenarios._dephasing_columns, nan_at_g3)))
    # value 3 of the sweep is the second of the block that starts at value 2
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match=r"stack index \(3, 7\)") as info:
        sweep(parse_config_text(text), "g", values)
    assert info.value.index == (3, 7)


def test_flows_numerical_error_names_the_value_and_the_time(monkeypatch):
    text = dict((c[0], c[1:]) for c in CASES)["tripartite-flows-width"][0]
    original = tripartite.field_factors

    def nan_at_width_01(p, times):
        f = original(p, times)
        if p.width == 0.1:
            f = f.copy()
            f[5] = np.nan
        return f

    monkeypatch.setattr(tripartite, "field_factors", nan_at_width_01)
    # each value's flows are one (T, 8, 8) stack; its error names the value too
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match=r"stack index \(1, 5\)") as info:
        sweep(parse_config_text(text), "width", [0.0, 0.1, 0.2])
    assert info.value.index == (1, 5)
