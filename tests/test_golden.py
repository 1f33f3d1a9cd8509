"""Golden regression pins: every model's CLI output against CSVs recorded by the
per-point runner (commit 201b920), before the models moved into one table.

Each ``tests/golden/<name>.cfg`` was run with ``qrevivals simulate --config
<name>.cfg --out <name>.csv``; the sweeps with the arguments in SWEEPS (the
``autocorrelation`` and ``g`` sweeps recorded at commit 58e9be0, before a sweep
ran as one stacked evaluation). The ``ou-noise`` and ``stroboscopic`` files
were re-recorded when their Monte-Carlo estimates became closed forms, each
new row within 2 standard errors of the estimate it replaced. The inputs and
measures the dephasing models took once every two-qubit model ran as a
local-unitary mixture (``static-noise-pure-xyz``, ``rtn-bell``,
``ou-noise-hidden``, ``stroboscopic-hidden``) were recorded then, each first
checked against an ensemble oracle or closed form (``tests/test_cli.py``);
``random-field-gaussian-mixed-xyz`` when a mixed input took them, checked
against the field's Gauss-Hermite members applied to it.
Rows must agree within 1e-12, and the metadata (config echo and
``config-hash`` included) line for line; only the ``version.*`` lines may
differ.
"""
from pathlib import Path

import numpy as np
import pytest

from qrevivals import noise
from qrevivals.cli import main

GOLDEN = Path(__file__).parent / "golden"

SWEEPS = {
    "sweep-stroboscopic": ("stroboscopic.cfg", "echo-after-step", "1,3"),
    "sweep-rtn": ("rtn.cfg", "coupling", "0.5,4"),
    "sweep-stroboscopic-mu": ("stroboscopic.cfg", "autocorrelation", "0,0.5,1"),
    "sweep-rtn-g": ("rtn.cfg", "g", "0.5,1,2"),
}


def _cases():
    cases = [(cfg.stem, ["simulate", "--config", str(cfg)], cfg.stem) for cfg in sorted(GOLDEN.glob("*.cfg"))]
    for base, (cfg, param, values) in SWEEPS.items():
        argv = ["sweep", "--config", str(GOLDEN / cfg), "--param", param, "--values", values]
        cases += [(f"{base}__{param}={v}", argv, base) for v in values.split(",")]
    return cases


def _split(text):
    lines = text.splitlines()
    meta = [l for l in lines if l.startswith("#") and not l.startswith("# version.")]
    body = [l for l in lines if not l.startswith("#")]
    return meta, body


def _rows(body):
    return np.array([[float(x) for x in l.split(",")] for l in body[1:]])


def _check_golden(tmp_path, name, argv, out_stem, meta_too=True):
    assert main(argv + ["--out", str(tmp_path / f"{out_stem}.csv")]) == 0
    golden = (GOLDEN / f"{name}.csv").read_text(encoding="utf-8")
    got = (tmp_path / f"{name}.csv").read_text(encoding="utf-8")
    meta_g, body_g = _split(golden)
    meta, body = _split(got)
    if meta_too:
        assert meta == meta_g
    assert body[0] == body_g[0]
    rows, rows_g = _rows(body), _rows(body_g)
    assert rows.shape == rows_g.shape
    assert np.max(np.abs(rows - rows_g)) <= 1e-12


@pytest.mark.parametrize("name, argv, out_stem", _cases(), ids=[c[0] for c in _cases()])
def test_output_matches_golden(tmp_path, name, argv, out_stem):
    _check_golden(tmp_path, name, argv, out_stem)


@pytest.mark.parametrize("name", ["random-field-gaussian", "static-noise", "tripartite-flows"])
def test_closed_form_models_need_no_gauss_hermite_rule(tmp_path, monkeypatch, name):
    # the Gaussian averages are closed forms: no run may compute a quadrature rule
    def no_rule(order):
        raise AssertionError(f"hermgauss({order}) called")

    monkeypatch.setattr(np.polynomial.hermite, "hermgauss", no_rule)
    noise._gh_nodes.cache_clear()  # a cached rule would hide a call
    _check_golden(tmp_path, name, ["simulate", "--config", str(GOLDEN / f"{name}.cfg")], name)


@pytest.mark.parametrize("name, argv, out_stem", _cases(), ids=[c[0] for c in _cases()])
def test_seed_is_optional_and_inert(tmp_path, name, argv, out_stem):
    # every golden config with its seed line deleted writes the same data rows
    cfg = Path(argv[argv.index("--config") + 1])
    text = cfg.read_text(encoding="utf-8")
    seedless = [l for l in text.splitlines() if not l.startswith("seed")]
    assert len(seedless) == len(text.splitlines()) - 1
    (tmp_path / cfg.name).write_text("\n".join(seedless) + "\n", encoding="utf-8")
    argv = [str(tmp_path / cfg.name) if a == str(cfg) else a for a in argv]
    _check_golden(tmp_path, name, argv, out_stem, meta_too=False)


CLOSED_FORM_MC = [c for c in _cases() if c[2] in ("ou-noise", "stroboscopic", "sweep-stroboscopic",
                                                  "sweep-stroboscopic-mu")]


@pytest.mark.parametrize("name, argv, out_stem", CLOSED_FORM_MC, ids=[c[0] for c in CLOSED_FORM_MC])
def test_former_monte_carlo_models_draw_no_random_numbers(tmp_path, monkeypatch, name, argv, out_stem):
    # the OU and AR(1) dephasing factors are closed forms: no run may seed or
    # draw, and the thread count cannot change a byte
    def no_rng(*args, **kwargs):
        raise AssertionError("random numbers requested")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    monkeypatch.setattr(np.random, "SeedSequence", no_rng)
    files = []
    for threads in ("1", "8"):
        (tmp_path / threads).mkdir()
        _check_golden(tmp_path / threads, name, argv + ["--threads", threads], out_stem)
        files.append((tmp_path / threads / f"{name}.csv").read_bytes())
    assert files[0] == files[1]
