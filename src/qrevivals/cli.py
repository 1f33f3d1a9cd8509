"""Command-line interface: ``simulate``, ``sweep`` and ``selftest``.

Exit codes: 0 success, 1 configuration error (a command-line argument the
parser rejects and an output file that cannot be written included), 3
numerical failure (a state that fails its validity checks, or a LAPACK error).
Every failure prints one line on stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .linalg import NumericalError
from .scenarios import ConfigError, parse_config, parse_sweep_values, run_scenario, sweep


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is a one-line config error (exit 1)
        if "expected one argument" in message:  # argparse reads a value such as -1,2 as an option
            message += "; attach a value that starts with '-' with '=', as in --values=-1,2"
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qrevivals",
        description="Two-qubit entanglement dynamics under classical noise",
    )
    parser.add_argument("--version", action="version", version=f"qrevivals {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one scenario from a config file")
    sim.add_argument("--config", required=True, help="path to the scenario config")
    sim.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    sim.add_argument("--seed", type=int, default=None, help="override the config seed (echoed only)")
    sim.add_argument("--threads", type=int, default=1, help="accepted and ignored: every model is a closed form")

    sw = sub.add_parser("sweep", help="run a scenario once per parameter value")
    sw.add_argument("--config", required=True, help="path to the scenario config")
    sw.add_argument("--param", required=True, help="model parameter to sweep")
    sw.add_argument("--values", required=True, help="comma-separated numeric values (may be empty)")
    sw.add_argument("--out", default=None, help="output path; one file per value (default: stdout)")
    sw.add_argument("--seed", type=int, default=None, help="override the config seed (echoed only)")
    sw.add_argument("--threads", type=int, default=1, help="accepted and ignored: every model is a closed form")

    st = sub.add_parser("selftest", help="run the acceptance suite")
    st.add_argument("--threads", type=int, default=1, help="worker threads of the Monte-Carlo oracles")
    return parser


def _load_config(args):
    cfg = parse_config(args.config)
    # the config checks itself on replace, so an out-of-range seed is a config error
    return cfg if args.seed is None else dataclasses.replace(cfg, seed=args.seed)


def _check_out_dir(out: str | None):
    """Refuse, before anything runs, an output path whose directory is missing."""
    if out is not None and not os.path.isdir(os.path.dirname(out) or "."):
        raise ConfigError(f"cannot write output file {out!r}: no such directory")


def _write(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {out!r}: {exc.strerror or exc}") from exc


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    _check_out_dir(args.out)
    _write(run_scenario(cfg).to_csv(), args.out)
    return 0


def _sweep_path(base: str, param: str, value: float) -> str:
    p = Path(base)
    return str(p.with_name(f"{p.stem}__{param}={value:g}{p.suffix or '.csv'}"))


def _sweep_paths(base: str, param: str, values: list[float]) -> list[str]:
    """One output path per value; refuses values whose names collide, so that
    no file is overwritten by a later value of the same sweep."""
    paths = [_sweep_path(base, param, v) for v in values]
    first = {}
    for value, path in zip(values, paths):
        if path in first:
            raise ConfigError(
                f"--values: {first[path]!r} and {value!r} would both write {path}"
            )
        first[path] = value
    return paths


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    values = parse_sweep_values(cfg, args.param, [s for s in args.values.split(",") if s.strip()])
    _check_out_dir(args.out)
    paths = None if args.out is None else _sweep_paths(args.out, args.param, values)
    results = sweep(cfg, args.param, values)
    if paths is None:
        sys.stdout.write("\n".join(res.to_csv() for _, res in results))
    else:
        for (_, res), path in zip(results, paths):
            _write(res.to_csv(), path)
    return 0


def _cmd_selftest(args) -> int:
    from .acceptance import run_all  # the oracles load only for selftest

    results = run_all(threads=args.threads, stream=sys.stdout)
    failed = [r for r in results if not r.passed]
    sys.stdout.write(f"{len(results) - len(failed)}/{len(results)} criteria passed\n")
    return 0 if not failed else 1


def _fail(kind: str, exc: Exception, code: int) -> int:
    message = " ".join(str(exc).split())  # one line, whatever the exception text
    print(f"{kind}: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_selftest(args)
    except ConfigError as exc:
        return _fail("config error", exc, 1)
    except (NumericalError, np.linalg.LinAlgError) as exc:
        return _fail("numerical error", exc, 3)


if __name__ == "__main__":
    sys.exit(main())
