"""Property test of the CLI contract: every config, however extreme, ends with
exit 0 and a finite CSV whose concurrences lie in [0, 1], or with a documented
exit code (1 config, 3 numerical) and one line on stderr; so does a sweep of
one of its model keys, each file of which keeps the same contract. A run's
hidden and average entanglement keep the identities of a local-unitary
mixture."""
import contextlib
import io
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from qrevivals.cli import main

MIXTURE = ("concurrence", "eof", "hidden-entanglement", "average-entanglement")
MEASURES = {
    "random-field": MIXTURE,
    "random-field-gaussian": MIXTURE,
    "static-noise": MIXTURE,
    "ou-noise": MIXTURE,
    "rtn": MIXTURE,
    "stroboscopic": MIXTURE,
    "tripartite-flows": ("concurrence", "eof", "tripartite", "info-decomposition"),
}

# extreme magnitudes next to ordinary ones
POSITIVE = st.sampled_from([1e-310, 1e-9, 1e-3, 0.3, 1.0, 2.5, 40.0, 1e4, 1e9])
UNIT = st.sampled_from([0.0, 1e-6, 0.25, 0.5, 0.9, 1.0])
# what one broken value of a config may be: out of range, not finite (1e400 as
# a float, nan+1j as a complex), unparsable, or an integer too large for a float
BAD = st.sampled_from(["-1.0", "0.0", "1.2", "2.5", "nan", "1e400", "nan+1j", "x", "1" * 400])


# grid ends, up to the largest finite float
STOPS = st.sampled_from([1e-9, 0.5, 6.0, 100.0, 1e4, 1e300, 1.7e308])
# the values of each model-section key, which its sweeps draw from too
VALUES = {
    "rabi": POSITIVE,
    "width": st.sampled_from([0.0, 1e-6, 0.05, 0.3, 2.0]),
    "sigma": POSITIVE,
    "echo-time": POSITIVE,
    "correlation-time": st.sampled_from([1e-300, 1e-3, 0.5, 3.0, 1e3, 1e9, 1e300]),
    "rate": POSITIVE,
    "g": POSITIVE,
    "coupling": POSITIVE,
    "phase-sigma": st.one_of(POSITIVE, st.just(1e200)),
    "autocorrelation": UNIT,
    "echo-after-step": st.sampled_from(["1", "2", "3"]),
}


def _fmt(v):
    return v if isinstance(v, str) else repr(float(v))


@st.composite
def model_section(draw, model):
    """A valid parameter section of ``model``, and a grid (start, stop, points)."""
    if model in ("random-field", "random-field-gaussian", "tripartite-flows"):
        keys = ["rabi"] + ([] if model == "random-field" else ["width"])
    elif model in ("static-noise", "ou-noise"):
        keys = ["sigma"] + (["echo-time"] if draw(st.booleans()) else [])
        if model == "ou-noise":  # a closed form, so any correlation time and grid end
            keys.append("correlation-time")
    elif model == "rtn":
        keys = ["rate", draw(st.sampled_from(["g", "coupling"]))]
    else:
        keys = ["phase-sigma", "autocorrelation"] + (["echo-after-step"] if draw(st.booleans()) else [])
    section = {key: draw(VALUES[key]) for key in keys}
    if model == "stroboscopic":  # whole steps in [0, 4], or a grid it refuses
        grid = draw(st.sampled_from([(0.0, 4.0, "5"), (2.0, 4.0, "3"), (1.0, 4.0, "5"), (0.0, 1.7e308, "5")]))
    else:
        stop = draw(STOPS)
        grid = (stop * draw(st.sampled_from([0.0, 0.0, 0.5, 0.9])), stop,
                draw(st.sampled_from(["2", "3", "9"])))
    return section, grid


@st.composite
def configs(draw):
    """A config text, and a sweep of one of its model keys: (key, values)."""
    model = draw(st.sampled_from(sorted(MEASURES)))
    keys, (start, stop, points) = draw(model_section(model))
    key = draw(st.sampled_from(sorted(keys)))
    other = draw(VALUES[key])
    allowed = MEASURES[model]
    measures = draw(st.lists(st.sampled_from(allowed), min_size=1, max_size=len(allowed)))
    scenario = {
        "model": model,
        "measures": ", ".join(measures),
        "time-start": start,
        "time-stop": stop,
        "time-points": points,
        "quadrature-order": str(draw(st.sampled_from([1, 4, 16, 64, 400]))),
    }
    if draw(st.booleans()):  # optional, and echoed only
        scenario["seed"] = str(draw(st.integers(0, 2**64 - 1)))
    if model in ("ou-noise", "stroboscopic"):
        scenario["trajectories"] = str(draw(st.sampled_from([1, 2, 999, 1000, 2500])))
    kind = draw(st.sampled_from(["bell", "xyz", "ewl"]))
    if kind == "bell":
        initial = {"kind": kind, "label": draw(st.sampled_from(["1+", "1-", "2+", "2-"]))}
    elif kind == "xyz":
        initial = {"kind": kind, "x": draw(UNIT), "y": draw(UNIT), "z": draw(UNIT)}
    else:
        a = draw(UNIT) * complex(draw(st.sampled_from([1.0, 1j, (0.6 + 0.8j)])))
        initial = {"kind": kind, "r": draw(UNIT), "a": f"{a.real!r}+{a.imag!r}j",
                   "excitation": draw(st.sampled_from(["one", "two"]))}
    sections = {"scenario": scenario, "initial-state": initial, model: keys}
    if draw(st.integers(0, 5)) == 0:  # one value out of range or unparsable
        section = draw(st.sampled_from(sorted(sections)))
        sections[section][draw(st.sampled_from(sorted(sections[section])))] = draw(BAD)
    lines = []
    for name, section in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{k} = {_fmt(v)}" for k, v in section.items()]
    # the config's own value first, as written (it may be the broken one)
    values = ",".join(dict.fromkeys(_fmt(v) for v in (keys[key], other)))
    return "\n".join(lines) + "\n", key, values


def test_every_config_ends_in_a_documented_way(tmp_path):
    # hypothesis caches source constants in its home directory; keep it out of the repo
    set_hypothesis_home_dir(tmp_path / "hypothesis")
    try:
        _check_every_config()
    finally:
        set_hypothesis_home_dir(None)


def _run(argv):
    """Exit code and stderr lines of the CLI on ``argv``; no warning may escape."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 1, 3)
    lines = err.getvalue().splitlines()
    if code != 0:
        assert len(lines) == 1 and "Traceback" not in lines[0]
    else:
        assert lines == []
    return code


def _check_csv(text, path):
    """The data lines of a finite CSV written for config ``text`` that keeps
    the measures' ranges and the identities of a local-unitary mixture."""
    body = [l for l in path.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
    columns = body[0].split(",")
    rows = np.array([[float(x) for x in l.split(",")] for l in body[1:]])
    assert rows.shape[1] == len(columns) and np.all(np.isfinite(rows))
    if "concurrence" in columns:
        c = rows[:, columns.index("concurrence")]
        assert np.all((c >= 0.0) & (c <= 1.0))
    # the grid starts where the config says (a broken value may be a valid start)
    assert rows[0, 0] == float(re.search(r"^time-start = (.*)$", text, re.M).group(1))
    col = {name: rows[:, i] for i, name in enumerate(columns)}
    if "average_entanglement" in col:  # every two-qubit model is a local-unitary mixture on B
        assert np.all(col["average_entanglement"] == col["average_entanglement"][0])
        if "eof" in col and rows[0, 0] == 0.0:  # E_f(psi0) is E_f at t = 0
            assert abs(col["average_entanglement"][0] - col["eof"][0]) <= 1e-12
    if "hidden_entanglement" in col:
        assert np.all(col["hidden_entanglement"] >= -1e-12)
        if "average_entanglement" in col and "eof" in col:
            hidden, eof = col["hidden_entanglement"], col["eof"]
            assert np.max(np.abs(hidden + eof - col["average_entanglement"])) <= 1e-12
    return body


def _rtn_case(g, stop):
    """Telegraph noise on a Bell input up to ``stop``, swept over g: where the
    closed form's products with t overflow."""
    text = (f"[scenario]\nmodel = rtn\nmeasures = concurrence, eof, hidden-entanglement\n"
            f"time-start = {stop / 2!r}\ntime-stop = {stop!r}\ntime-points = 5\n"
            f"[initial-state]\nkind = bell\nlabel = 1-\n[rtn]\nrate = 1.0\ng = {g!r}\n")
    return text, "g", f"{g!r},0.5"


def _flows_case(stop, points, rabi):
    """Tripartite flows on a Bell input from 0 to a subnormal or tiny ``stop``,
    swept over rabi: grid times that repeat, or that a division by rabi would
    underflow."""
    text = (f"[scenario]\nmodel = tripartite-flows\nmeasures = concurrence, eof, tripartite, info-decomposition\n"
            f"time-start = 0.0\ntime-stop = {stop!r}\ntime-points = {points}\n"
            f"[initial-state]\nkind = bell\nlabel = 2+\n[tripartite-flows]\nrabi = {rabi!r}\nwidth = 0.0\n")
    return text, "rabi", f"{rabi!r},0.5"


@settings(max_examples=120, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs())
@example(_rtn_case(2.0, 1.7e308))  # above the crossover, mu t overflows
@example(_rtn_case(1e9, 1e300))
@example(_rtn_case(1e-310, 1.7e308))  # below it, 2 d t overflows
@example(_flows_case(1e-300, 5, 1e300))  # time / rabi would underflow to 0
@example(_flows_case(1e-321, 1000, 1.0))  # subnormal grid times repeat
def _check_every_config(case):
    text, key, values = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "scenario.cfg", Path(tmp) / "out.csv"
        cfg.write_text(text, encoding="utf-8")
        code = _run(["simulate", "--config", str(cfg), "--out", str(out)])
        assert out.exists() == (code == 0)
        simulated = _check_csv(text, out) if code == 0 else None
        swept = _run(["sweep", "--config", str(cfg), "--param", key, f"--values={values}",
                      "--out", str(Path(tmp) / "sweep.csv")])
        files = sorted(Path(tmp).glob("sweep__*.csv"))
        assert len(files) == (len(values.split(",")) if swept == 0 else 0)
        for path in files:
            body = _check_csv(text, path)
            # the config's own value is the first: its file has the rows of simulate
            if simulated is not None and path.name == f"sweep__{key}={float(values.split(',')[0]):g}.csv":
                assert body == simulated
