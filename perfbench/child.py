"""One benchmark iteration in a fresh interpreter.

Usage: python3 child.py PLAN.json RESULT.json  (with the package's ``src`` on
PYTHONPATH). The plan names the config files, the operations and the output
directory; the result holds the set-up time, the iteration's wall and CPU
time, its peak memory, the exit code of each operation and, when traced, the
per-layer metrics, and the time of a fixed reference work run just before and
just after the timed region.

Set-up is importing ``qrevivals.cli`` and parsing every config. The timed
region runs from the first command (which reads its config again, as a CLI
user's process does) to the last output file closed.
"""
import json
import os
import resource
import sys
import time
import traceback


def _resolve(argv, config_dir, out_dir):
    out = list(argv)
    for i, arg in enumerate(argv[:-1]):
        if arg == "--config":
            out[i + 1] = os.path.join(config_dir, argv[i + 1])
        elif arg == "--out":
            out[i + 1] = os.path.join(out_dir, argv[i + 1])
    return out


def _rtn_oracle(spec, path):
    import numpy as np
    from qrevivals import noise

    times = np.linspace(0.0, spec["time_stop"], spec["times"])
    mean, se = noise.rtn_mc_coherence_grid(
        noise.RTNParams(rate=spec["rate"], coupling=spec["coupling"]),
        times, spec["trajectories"], spec["seed"], threads=spec["threads"],
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("time,coherence,coherence_stderr\n")
        for row in zip(times, mean, se):
            fh.write(",".join(format(float(v), ".17g") for v in row) + "\n")


def _run_ops(plan, codes):
    from qrevivals import cli

    for op in plan["ops"]:
        if "mkdir" in op:
            os.makedirs(os.path.join(plan["out_dir"], op["mkdir"]), exist_ok=True)
        try:
            if "cli" in op:
                codes.append(cli.main(_resolve(op["cli"], plan["config_dir"], plan["out_dir"])))
            else:
                _rtn_oracle(op["rtn_oracle"], os.path.join(plan["out_dir"], op["out"]))
                codes.append(0)
        except Exception:  # an operation that raises counts as failed; the rest still run
            traceback.print_exc()
            codes.append(-1)


def _reference():
    """A function that times a fixed piece of work that does not touch the package.

    The work mixes what the workloads do: an interpreter loop, small numpy
    calls, array math and random draws. The driver divides each iteration's
    times by it, so that a shared machine's changing speed cancels out
    (run.py). The numpy functions are bound here, before the tracer wraps them.
    """
    import numpy as np

    eigvalsh, default_rng, cos = np.linalg.eigvalsh, np.random.default_rng, np.cos
    m = np.eye(4) + 0.1
    x = np.linspace(0.0, 1.0, 200_000)

    def timed():
        t = time.perf_counter()
        acc = 0
        for i in range(500_000):
            acc += i * i
        for _ in range(4000):
            eigvalsh(m)
        for _ in range(20):
            cos(x).sum()
        rng = default_rng(1)
        for _ in range(5):
            rng.standard_normal((256, 1024)).cumsum(axis=1)
        return time.perf_counter() - t

    return timed


def main(plan_path, result_path):
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    t_setup = time.perf_counter()
    import qrevivals.cli  # noqa: F401  (set-up: import)
    from qrevivals import kernels, scenarios

    for cfg in plan["configs"]:
        scenarios.parse_config(os.path.join(plan["config_dir"], cfg))
    setup_s = time.perf_counter() - t_setup

    reference = _reference()
    ref_before = reference()
    tracer = None
    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    os.makedirs(plan["out_dir"], exist_ok=True)
    codes = []
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    if tracer is None:
        _run_ops(plan, codes)
    else:
        tracer.root(lambda: _run_ops(plan, codes))
    wall_s = time.perf_counter() - t0
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    ref_after = reference()

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ref_s": (ref_before + ref_after) / 2.0,
        "cpu_s": (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime),
        "peak_rss_mib": usage1.ru_maxrss / 1024.0,
        "codes": codes,
        "backend": kernels.backend_name(),
    }
    if tracer is not None:
        from tracer import layer_metrics

        result["layers"] = layer_metrics(tracer.spans, tracer.counts)
        if plan.get("spans_path"):
            tracer.dump(plan["spans_path"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
