"""Property test of the CLI contract: every config, however extreme, ends with
exit 0 and a finite CSV whose concurrences lie in [0, 1], or with a documented
exit code (1 config, 3 numerical) and one line on stderr. A run's hidden and
average entanglement keep the identities of a local-unitary mixture."""
import contextlib
import io
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
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


def _fmt(v):
    return v if isinstance(v, str) else repr(float(v))


@st.composite
def model_section(draw, model):
    """A valid parameter section of ``model`` and the end of a grid it can run."""
    stop = draw(st.sampled_from([1e-9, 0.5, 6.0, 100.0, 1e4]))
    if model in ("random-field", "random-field-gaussian", "tripartite-flows"):
        keys = {"rabi": draw(POSITIVE)}
        if model != "random-field":
            keys["width"] = draw(st.sampled_from([0.0, 1e-6, 0.05, 0.3, 2.0]))
    elif model in ("static-noise", "ou-noise"):
        keys = {"sigma": draw(POSITIVE)}
        if draw(st.booleans()):
            keys["echo-time"] = draw(POSITIVE)
        if model == "ou-noise":  # a closed form, so any correlation time and grid end
            keys["correlation-time"] = draw(st.sampled_from([1e-300, 1e-3, 0.5, 3.0, 1e3, 1e9, 1e300]))
    elif model == "rtn":
        keys = {"rate": draw(POSITIVE), draw(st.sampled_from(["g", "coupling"])): draw(POSITIVE)}
    else:
        keys = {"phase-sigma": draw(st.one_of(POSITIVE, st.just(1e200))), "autocorrelation": draw(UNIT)}
        if draw(st.booleans()):
            keys["echo-after-step"] = draw(st.sampled_from(["1", "2", "3"]))
        stop = 4.0
    return keys, stop


@st.composite
def configs(draw):
    model = draw(st.sampled_from(sorted(MEASURES)))
    keys, stop = draw(model_section(model))
    allowed = MEASURES[model]
    measures = draw(st.lists(st.sampled_from(allowed), min_size=1, max_size=len(allowed)))
    scenario = {
        "model": model,
        "measures": ", ".join(measures),
        "time-start": 0.0,
        "time-stop": stop,
        "time-points": "5" if model == "stroboscopic" else draw(st.sampled_from(["2", "3", "9"])),
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
    return "\n".join(lines) + "\n"


def test_every_config_ends_in_a_documented_way(tmp_path):
    # hypothesis caches source constants in its home directory; keep it out of the repo
    set_hypothesis_home_dir(tmp_path / "hypothesis")
    try:
        _check_every_config()
    finally:
        set_hypothesis_home_dir(None)


@settings(max_examples=120, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs())
def _check_every_config(text):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "scenario.cfg", Path(tmp) / "out.csv"
        cfg.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        lines = err.getvalue().splitlines()
        assert not caught, [str(w.message) for w in caught]
        assert code in (0, 1, 3)
        if code != 0:
            assert len(lines) == 1 and "Traceback" not in lines[0]
            assert not out.exists()
            return
        assert lines == []
        body = [l for l in out.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
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
