"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload through run.py at ``--scale tiny``, traced and
untraced, and checks the benchmark's own guarantees: outputs pass the
checker, perturbed outputs do not, tracing leaves outputs byte-identical and
the layer counts repeat and follow the workload design.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import check  # noqa: E402
import workloads  # noqa: E402

GRID_POINTS = {"quadrature": 10, "flows": 5}  # tiny sizes: 5 + 5 and 5 time points
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [check.GOLDEN_SEED, 7])
def test_untraced_outputs_pass(workload, seed):
    result = _run(workload, seed, trace=0)
    assert result["correct"], result
    assert result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert result["metrics"]["ok_frac"]["value"] == 1.0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_layers_follow_design(workload):
    first = _run(workload, 7, trace=1)
    second = _run(workload, 7, trace=1)
    assert first["correct"] and second["correct"]  # traced outputs byte-identical to untraced
    assert {k: v["unit"] for k, v in first["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    m = {k: v["value"] for k, v in first["metrics"].items()}
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] in ("count", "bytes")}
    assert counts == {k: v["value"] for k, v in second["metrics"].items() if k in counts}
    per_point = {"quadrature": 3, "flows": 2}.get(workload, 0)
    assert m["noise.hermgauss_calls"] == per_point * GRID_POINTS.get(workload, 0)
    kernel_counts = [m["kernels.ou_phases_cells"], m["kernels.rtn_integrals_cells"],
                     m["kernels.bytes_computed"]]
    if workload == "montecarlo":
        assert all(c > 0 for c in kernel_counts) and m["noise.mc_batches"] > 0
    else:
        assert not any(kernel_counts)
    assert 0.0 <= m["trace.unattributed_frac"] < 0.05


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_negative_control_is_flagged(workload):
    wl = workloads.build(workload, check.GOLDEN_SEED, "tiny")
    golden = check.load_golden(workload, "tiny")
    for sc in wl.scenarios:
        if sc.kind == "det":
            text = _golden_text(golden["scenarios"][sc.name])
            assert not check.check_text(sc, text, golden, check.GOLDEN_SEED)
        else:
            text = _oracle_text(sc)
            assert not check.check_text(sc, text, golden, 7)
        assert check.check_text(sc, check.perturb(sc, text), golden, 7)


def _golden_text(record):
    rows = "\n".join(",".join(repr(v) for v in row) for row in record["rows"])
    return ",".join(record["columns"]) + "\n" + rows + "\n"


def _oracle_text(sc):
    """An exact (infinite-sample) output for a Monte-Carlo scenario."""
    p = sc.params
    if sc.oracle == "rtn-coherence":
        t = [0.0, 1.0, 2.0]
        q = check.rtn_coherence(t, p["rate"], p["coupling"])
        return "time,coherence,coherence_stderr\n" + "".join(
            f"{a!r},{float(b)!r},0.0\n" for a, b in zip(t, q))
    x = [0.0, 1.0, 2.0, 3.0, 4.0]
    if sc.oracle == "ou-echo":
        c = check.ou_echo_coherence(x, p["echo-time"], p["correlation-time"])
    else:
        c = check.ar1_coherence(x, p["phase-sigma"], p["autocorrelation"], p["echo-after-step"])
    e = check.eof(c)
    return "time,concurrence,concurrence_stderr,eof,eof_stderr\n" + "".join(
        f"{a!r},{float(b)!r},0.0,{float(d)!r},0.0\n" for a, b, d in zip(x, c, e))


def test_missing_sources_fail_without_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in BENCH_DIR.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "flows", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
