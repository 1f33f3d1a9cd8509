"""Workload definitions: scenario configs, the operations one iteration runs,
and what the checker expects of every output file.

Physics parameters are fixed; only the Monte-Carlo seeds derive from the
workload seed, so deterministic outputs can be compared with golden files at
any seed. Two scales exist: ``bench`` (the measured sizes) and ``tiny`` (the
smoke test).
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("quadrature", "flows", "montecarlo", "sweep")
SCALES = ("bench", "tiny")
THREADS = 2

ALL_QUADRATURE_MEASURES = "concurrence, eof, hidden-entanglement, average-entanglement"

# Grid sizes, trajectory and sweep counts per scale.
SIZES = {
    "bench": {
        "field_points": 64, "static_points": 128, "flows_points": 160,
        "ou_points": 33, "ou_traj": 100_000, "strobo_seq": 1_000_000,
        "rtn_traj": 100_000, "rtn_times": 49,
        "sweep_g": 197, "sweep_g_points": 11, "sweep_mu": 101, "sweep_mu_seq": 4096,
    },
    "tiny": {
        "field_points": 5, "static_points": 5, "flows_points": 5,
        "ou_points": 5, "ou_traj": 4096, "strobo_seq": 4096,
        "rtn_traj": 10_000, "rtn_times": 5,
        "sweep_g": 5, "sweep_g_points": 5, "sweep_mu": 3, "sweep_mu_seq": 4096,
    },
}

OU_PARAMS = {"sigma": 1.0, "echo-time": 4.0, "correlation-time": 10.0}
STROBO_PARAMS = {"phase-sigma": 0.6, "autocorrelation": 0.5, "echo-after-step": 2}
STROBO_SWEEP_PARAMS = {"phase-sigma": 0.6, "autocorrelation": 0.0, "echo-after-step": 2}
STATIC_PARAMS = {"sigma": 1.0, "echo-time": 4.0}
RTN_ORACLE = {"rate": 1.0, "coupling": 2.0, "time_stop": 8.0}
EWL = {"kind": "ewl", "r": 0.91, "a": 0.7071067811865476, "excitation": "one"}
BELL = {"kind": "bell", "label": "2+"}


@dataclass(frozen=True)
class Scenario:
    """One output file and how to check it.

    ``kind`` is ``det`` (rows compared with the golden file within 1e-12) or
    ``mc`` (byte-compared at the golden seed, oracle-checked at any seed).
    ``oracle`` names a closed form in check.py; ``params`` feeds it. ``op``
    is the index of the operation that writes the file.
    """

    name: str
    path: str
    kind: str
    op: int
    oracle: str | None = None
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    configs: dict  # config file name -> text
    ops: list  # JSON-able operations for child.py; paths relative to the iteration dir
    scenarios: list  # Scenario, one per output file


def derive_seed(seed: int, workload: str, scenario: str) -> int:
    """64-bit scenario seed from the workload seed."""
    digest = hashlib.sha256(f"{seed}/{workload}/{scenario}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _config(model, measures, stop, points, seed, initial, params, trajectories=None):
    lines = [
        "[scenario]",
        f"model = {model}",
        f"measures = {measures}",
        "time-start = 0.0",
        f"time-stop = {stop!r}",
        f"time-points = {points}",
        f"seed = {seed}",
    ]
    if trajectories is not None:
        lines.append(f"trajectories = {trajectories}")
    lines.append("[initial-state]")
    lines += [f"{k} = {v}" for k, v in initial.items()]
    lines.append(f"[{model}]")
    lines += [f"{k} = {v!r}" for k, v in params.items()]
    return "\n".join(lines) + "\n"


def _simulate(cfg, out, threads=1):
    return {"cli": ["simulate", "--config", cfg, "--out", out, "--threads", str(threads)]}


def _sweep_values(start, stop, n):
    """n evenly spaced values printed with 6 significant digits, so each
    value names its own sweep file (the CLI names files with ``{value:g}``)."""
    return [f"{start + (stop - start) * k / (n - 1):.6g}" for k in range(n)]


def _quadrature(seed, s):
    field_cfg = _config(
        "random-field-gaussian", ALL_QUADRATURE_MEASURES, 8 * math.pi, s["field_points"],
        derive_seed(seed, "quadrature", "field"), BELL, {"rabi": 1.0, "width": 0.1},
    )
    static_cfg = _config(
        "static-noise", ALL_QUADRATURE_MEASURES, 8.0, s["static_points"],
        derive_seed(seed, "quadrature", "static"), BELL, STATIC_PARAMS,
    )
    return Workload(
        "quadrature",
        {"field.cfg": field_cfg, "static.cfg": static_cfg},
        [_simulate("field.cfg", "field.csv"), _simulate("static.cfg", "static.csv")],
        [
            Scenario("field", "field.csv", "det", 0, "bell-ensemble"),
            Scenario("static", "static.csv", "det", 1, "static-echo", STATIC_PARAMS),
        ],
    )


def _flows(seed, s):
    cfg = _config(
        "tripartite-flows", "concurrence, eof, tripartite, info-decomposition", 4 * math.pi,
        s["flows_points"], derive_seed(seed, "flows", "flows"),
        {"kind": "xyz", "x": 1.0, "y": 0.9, "z": 1.0}, {"rabi": 1.0, "width": 0.1},
    )
    return Workload(
        "flows", {"flows.cfg": cfg}, [_simulate("flows.cfg", "flows.csv")],
        [Scenario("flows", "flows.csv", "det", 0)],
    )


def _montecarlo(seed, s):
    ou_cfg = _config(
        "ou-noise", "concurrence, eof", 8.0, s["ou_points"], derive_seed(seed, "montecarlo", "ou"),
        BELL, OU_PARAMS, s["ou_traj"],
    )
    strobo_cfg = _config(
        "stroboscopic", "concurrence, eof", 4.0, 5, derive_seed(seed, "montecarlo", "strobo"),
        BELL, STROBO_PARAMS, s["strobo_seq"],
    )
    rtn = {
        "rate": RTN_ORACLE["rate"], "coupling": RTN_ORACLE["coupling"],
        "time_stop": RTN_ORACLE["time_stop"], "times": s["rtn_times"],
        "trajectories": s["rtn_traj"], "seed": derive_seed(seed, "montecarlo", "rtn"),
        "threads": THREADS,
    }
    return Workload(
        "montecarlo",
        {"ou.cfg": ou_cfg, "strobo.cfg": strobo_cfg},
        [
            _simulate("ou.cfg", "ou.csv", THREADS),
            _simulate("strobo.cfg", "strobo.csv", THREADS),
            {"rtn_oracle": rtn, "out": "rtn_oracle.csv"},
        ],
        [
            Scenario("ou", "ou.csv", "mc", 0, "ou-echo", {**OU_PARAMS, "n": s["ou_traj"]}),
            Scenario("strobo", "strobo.csv", "mc", 1, "ar1", {**STROBO_PARAMS, "n": s["strobo_seq"]}),
            Scenario("rtn_oracle", "rtn_oracle.csv", "mc", 2, "rtn-coherence",
                     {"rate": rtn["rate"], "coupling": rtn["coupling"], "n": rtn["trajectories"]}),
        ],
    )


def _sweep(seed, s):
    g_values = _sweep_values(0.1, 5.0, s["sweep_g"])
    mu_values = _sweep_values(0.0, 1.0, s["sweep_mu"])
    rtn_cfg = _config(
        "rtn", "concurrence, eof", 10.0, s["sweep_g_points"], derive_seed(seed, "sweep", "rtn"),
        EWL, {"rate": 1.0, "g": 1.0},
    )
    strobo_cfg = _config(
        "stroboscopic", "concurrence, eof", 4.0, 5, derive_seed(seed, "sweep", "strobo"),
        BELL, STROBO_SWEEP_PARAMS, s["sweep_mu_seq"],
    )
    ops = [
        {"cli": ["sweep", "--config", "rtn.cfg", "--param", "g", "--values", ",".join(g_values),
                 "--out", "rtn/out.csv"], "mkdir": "rtn"},
        {"cli": ["sweep", "--config", "strobo.cfg", "--param", "autocorrelation",
                 "--values", ",".join(mu_values), "--out", "strobo/out.csv",
                 "--threads", str(THREADS)], "mkdir": "strobo"},
    ]
    scenarios = [
        Scenario(f"rtn/g={g}", f"rtn/out__g={float(g):g}.csv", "det", 0, "rtn-ewl",
                 {"rate": 1.0, "g": float(g), "r": EWL["r"], "a": EWL["a"]})
        for g in g_values
    ] + [
        Scenario(f"strobo/autocorrelation={mu}", f"strobo/out__autocorrelation={float(mu):g}.csv",
                 "mc", 1, "ar1", {**STROBO_SWEEP_PARAMS, "autocorrelation": float(mu),
                               "n": s["sweep_mu_seq"]})
        for mu in mu_values
    ]
    return Workload("sweep", {"rtn.cfg": rtn_cfg, "strobo.cfg": strobo_cfg}, ops, scenarios)


_MAKE = {"quadrature": _quadrature, "flows": _flows, "montecarlo": _montecarlo, "sweep": _sweep}


def build(name: str, seed: int, scale: str = "bench") -> Workload:
    if name not in _MAKE:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    if scale not in SIZES:
        raise ValueError(f"unknown scale {scale!r}; expected one of {SCALES}")
    return _MAKE[name](seed, SIZES[scale])


def write_configs(workload: Workload, directory: Path):
    directory.mkdir(parents=True, exist_ok=True)
    for fname, text in workload.configs.items():
        (directory / fname).write_text(text, encoding="utf-8")
