#!/usr/bin/env python3
"""qrevivals benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each iteration runs in a fresh interpreter (child.py), so in-memory caches
start cold as they do for a CLI user. The first iteration is a warm-up: its
outputs are checked in full and every later iteration must reproduce them
byte for byte. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced iterations and reports the per-layer metrics.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

``--scale tiny`` runs the smoke-test sizes; ``--record-golden`` rewrites the
golden file of the chosen workloads and scale (run it at the golden seed).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
CHILD_TIMEOUT_S = 60  # one iteration takes about a second
MIN_ITERATIONS = 3

END_TO_END = {
    "wall_s": "s", "points_per_s": "rows/s", "cpu_s": "s", "setup_s": "s",
    "peak_rss_mib": "MiB", "ok_frac": "ratio",
}


# Reported times are rescaled to a machine on which the reference work of
# child.py takes this long (about its time on an idle core of the 2-vCPU
# Xeon VM the benchmark was built on).
REF_NOMINAL_S = 0.1


def calibrated(values, refs):
    """Median over iterations of a time rescaled to the reference speed.

    Other tenants of a shared machine slow it by up to 2x, for seconds to
    minutes, so raw times of the same code spread by 30% between runs. Each
    iteration times a fixed reference work just before and just after its
    timed region (child.py); dividing by it cancels the machine's speed at
    that moment. The reference does not touch the package, so a change to
    the program moves the numerator only.
    """
    return statistics.median(v * REF_NOMINAL_S / r for v, r in zip(values, refs))


def per_layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name in ("cli.bytes_written", "kernels.bytes_computed"):
        return "bytes"
    return "count"


def environment(threads: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "qrevivals").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy

    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": threads,
    }


class Run:
    """One workload at one seed: iterations, output checks and samples."""

    def __init__(self, name, seed, scale):
        self.wl = workloads.build(name, seed, scale)
        self.seed = seed
        self.work = WORK / f"{scale}-{name}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.config_dir = self.work / "configs"
        workloads.write_configs(self.wl, self.config_dir)
        self.golden = check.load_golden(name, scale)
        self.reference = None  # sha256 per scenario from the warm-up iteration
        self.attempted = self.failed = 0
        self.problems = []

    def iterate(self, index, trace, spans=False):
        out_dir = self.work / f"iter-{index:03d}"
        plan = {
            "configs": sorted(self.wl.configs), "config_dir": str(self.config_dir),
            "out_dir": str(out_dir), "ops": self.wl.ops, "trace": trace,
            "spans_path": str(self.work / "spans.json") if spans else None,
        }
        plan_path, result_path = self.work / "plan.json", self.work / "result.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        result_path.unlink(missing_ok=True)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "child.py"), str(plan_path), str(result_path)],
                env=env, cwd=str(ROOT), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            self.problems.append(f"iteration {index}: timed out after {CHILD_TIMEOUT_S} s")
            result = None
        else:
            ok = proc.returncode == 0 and result_path.is_file()
            result = json.loads(result_path.read_text()) if ok else None
            if not ok or any(result["codes"]):
                self.problems.append(f"iteration {index}: exit {proc.returncode}: {proc.stderr[-2000:]}")
        self._check(index, out_dir, result)
        return result, out_dir

    def _check(self, index, out_dir, result):
        codes = result["codes"] if result else []
        first = self.reference is None
        if first:
            self.reference = {}
        for sc in self.wl.scenarios:
            self.attempted += 1
            path = out_dir / sc.path
            code = codes[sc.op] if sc.op < len(codes) else None
            if code != 0 or not path.is_file():
                errors = [f"exit code {code}" if code != 0 else "missing output"]
            elif first:
                text = path.read_text(encoding="utf-8")
                errors = check.check_text(sc, text, self.golden, self.seed)
                self.reference[sc.name] = hashlib.sha256(text.encode()).hexdigest()
            else:
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                errors = [] if digest == self.reference.get(sc.name) else [
                    "not byte-identical to the warm-up iteration"]
            if errors:
                self.failed += 1
                self.problems.append(f"iteration {index}: {sc.name}: {'; '.join(errors)}")

    def negative_control(self, out_dir):
        """A perturbed copy of the first output must fail the checker."""
        sc = self.wl.scenarios[0]
        path = out_dir / sc.path
        if not path.is_file():
            return
        bad = check.perturb(sc, path.read_text(encoding="utf-8"))
        if not check.check_text(sc, bad, self.golden, self.seed):
            self.problems.append(f"negative control: a perturbed {sc.name} passed the checker")

    def data_rows(self, out_dir):
        rows = 0
        for sc in self.wl.scenarios:
            if (out_dir / sc.path).is_file():
                with open(out_dir / sc.path, encoding="utf-8") as fh:
                    rows += sum(1 for line in fh if line[:1] not in ("#", "")) - 1
        return rows

    def bytes_written(self, out_dir):
        return sum((out_dir / sc.path).stat().st_size for sc in self.wl.scenarios
                   if "cli" in self.wl.ops[sc.op] and (out_dir / sc.path).is_file())


def run_workload(name, seed, seconds, trace, scale, record=False):
    run = Run(name, seed, scale)
    warm, warm_dir = run.iterate(0, trace=False)
    if record:
        check.record_golden(run.wl, scale, seed, warm_dir)
        run = Run(name, seed, scale)
        warm, warm_dir = run.iterate(0, trace=False)
    run.negative_control(warm_dir)
    points = run.data_rows(warm_dir)
    layers_extra = {"cli.bytes_written": run.bytes_written(warm_dir)}

    untraced, traced = [], []
    start = time.perf_counter()
    index = 1
    while True:
        want_trace = bool(trace) and len(traced) <= len(untraced)
        result, out_dir = run.iterate(index, want_trace, spans=want_trace and not traced)
        if result:
            (traced if want_trace else untraced).append(result)
        shutil.rmtree(out_dir, ignore_errors=True)
        index += 1
        enough = len(untraced) >= MIN_ITERATIONS and (not trace or len(traced) >= MIN_ITERATIONS)
        if time.perf_counter() - start >= seconds and (enough or run.failed):
            break

    metrics = {}
    if not trace and untraced:
        refs = [r["ref_s"] for r in untraced]
        wall = calibrated([r["wall_s"] for r in untraced], refs)
        values = {
            "wall_s": wall,
            "points_per_s": points / wall,
            "cpu_s": calibrated([r["cpu_s"] for r in untraced], refs),
            "setup_s": calibrated([r["setup_s"] for r in untraced], refs),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in untraced),
            "ok_frac": 1.0 - run.failed / run.attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    elif trace and traced and untraced:
        layers = [r["layers"] for r in traced]
        refs = [r["ref_s"] for r in traced]
        for key in layers[0]:
            unit = per_layer_units(key)
            if unit == "count":
                if any(l[key] != layers[0][key] for l in layers):
                    run.problems.append(f"count {key} differs between traced iterations")
                value = layers[0][key]
            elif unit == "s":
                value = calibrated([l[key] for l in layers], refs)
            else:
                value = statistics.median(l[key] for l in layers)
            metrics[key] = {"value": value, "unit": unit}
        for key, value in layers_extra.items():
            metrics[key] = {"value": value, "unit": per_layer_units(key)}
        overhead = (calibrated([r["wall_s"] for r in traced], refs)
                    / calibrated([r["wall_s"] for r in untraced], [r["ref_s"] for r in untraced])
                    - 1.0)
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
        metrics = dict(sorted(metrics.items()))
    else:
        run.problems.append("no successful timed iteration")

    backend = (warm or (untraced + traced + [{}])[0]).get("backend", "unknown")
    env = {**environment(workloads.THREADS), "kernel_backend": backend}
    summary = {
        "workload": name, "seed": seed, "scale": scale, "trace": bool(trace),
        "environment": env, "iterations": {"untraced": len(untraced), "traced": len(traced)},
        "samples": {k: [r[k] for r in untraced]
                    for k in ("wall_s", "cpu_s", "setup_s", "peak_rss_mib", "ref_s")},
        "raw_medians": {k: statistics.median(r[k] for r in untraced) if untraced else None
                        for k in ("wall_s", "cpu_s", "setup_s", "ref_s")},
        "data_rows": points, "attempted": run.attempted, "failed": run.failed,
        "problems": run.problems, "metrics": metrics,
    }
    (run.work / "summary.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    return summary


def _print_summary(s):
    print(f"# {s['workload']} seed={s['seed']} scale={s['scale']} trace={int(s['trace'])} "
          f"iterations={s['iterations']} data_rows={s['data_rows']}")
    print(f"# environment {json.dumps(s['environment'], sort_keys=True)}")
    for problem in s["problems"][:20]:
        print(f"# problem: {problem}")
    raw = {k: round(v, 4) for k, v in s["raw_medians"].items() if v is not None}
    print(f"# uncalibrated medians {json.dumps(raw, sort_keys=True)}")
    for name, m in s["metrics"].items():
        print(f"{s['workload']:<11} {name:<28} {m['value']:>16.6g} {m['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=workloads.SCALES, default="bench")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "qrevivals" / "__init__.py").is_file():
        print(f"error: no qrevivals sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_golden and args.seed != check.GOLDEN_SEED:
        print(f"error: golden files are recorded at seed {check.GOLDEN_SEED}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    for name in names:
        s = run_workload(name, args.seed, args.seconds, args.trace, args.scale, args.record_golden)
        _print_summary(s)
        summaries.append(s)
    ok = all(s["metrics"] and not s["problems"] for s in summaries)
    prefix = len(names) > 1
    result = {
        "correct": ok,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": {(f"{s['workload']}.{k}" if prefix else k): v
                    for s in summaries for k, v in s["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
