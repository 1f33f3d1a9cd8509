"""Command-line interface: ``simulate``, ``sweep`` and ``selftest``.

Each command's options are one table, ``_COMMANDS``, which the reader of the
command line and the -h pages both use; the reader follows argparse's rules
(``--opt value`` or ``--opt=value``, unique prefixes, the last of a repeated
option, a negative number as a value) without loading argparse.

Exit codes: 0 success (-h and --version included), 1 configuration error (a
command line the reader rejects, an output file or a stdout that cannot be
written, an output file that is the config included), 3 numerical failure (a
state that fails its validity checks, or a LAPACK error). Every failure
prints one line on stderr.
"""
from __future__ import annotations

import os
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .linalg import NumericalError
from .records import replace
from .scenarios import ConfigError, parse_config, parse_sweep_values, run_scenario, sweep

_REQUIRED = object()  # the default of an option that must be given

# command -> (help, {option: (value parser, default, help)}); every option takes
# one value, and the command reads option --x as args.x
_COMMANDS = {
    "simulate": ("run one scenario from a config file", {
        "--config": (str, _REQUIRED, "path to the scenario config"),
        "--out": (str, None, "output CSV path (default: stdout)"),
        "--seed": (int, None, "override the config seed (echoed only)"),
        "--threads": (int, 1, "accepted and ignored: every model is a closed form"),
    }),
    "sweep": ("run a scenario once per parameter value", {
        "--config": (str, _REQUIRED, "path to the scenario config"),
        "--param": (str, _REQUIRED, "model parameter to sweep"),
        "--values": (str, _REQUIRED, "comma-separated numeric values (may be empty)"),
        "--out": (str, None, "output path; one file per value (default: stdout)"),
        "--seed": (int, None, "override the config seed (echoed only)"),
        "--threads": (int, 1, "accepted and ignored: every model is a closed form"),
    }),
    "selftest": ("run the acceptance suite", {
        "--threads": (int, 1, "worker threads of the Monte-Carlo oracles"),
    }),
}
_FLAGS = ("-h", "--help", "--version")  # no value; --version only before the command
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")  # argparse's rule


def _help(command: str | None = None) -> str:
    """The help page of ``command``, or of the program, from the tables."""
    flags = [("-h, --help", "show this help message and exit")]
    if command is None:
        usage = f"[-h] [--version] {{{','.join(_COMMANDS)}}} ..."
        text = "Two-qubit entanglement dynamics under classical noise"
        sections = {"commands": [(name, help_) for name, (help_, _) in _COMMANDS.items()],
                    "options": flags + [("--version", "show program's version number and exit")]}
    else:
        text, table = _COMMANDS[command]
        shown = {name: f"{name} {name[2:].upper()}" for name in table}
        usage = " ".join([command, "[-h]"] + [
            arg if table[name][1] is _REQUIRED else f"[{arg}]" for name, arg in shown.items()])
        sections = {"options": flags + [(arg, table[name][2]) for name, arg in shown.items()]}
    width = max(len(left) for rows in sections.values() for left, _ in rows) + 2
    lines = [f"usage: qrevivals {usage}", "", text]
    for heading, rows in sections.items():
        lines += ["", f"{heading}:"] + [f"  {left:<{width}}{right}" for left, right in rows]
    return "\n".join(lines) + "\n"


def _option(token: str, names, prog: str):
    """What ``token`` is, by argparse's rules: ``None`` for a value, else
    ``(name, attached value or None)``, with name ``None`` for an unknown option.

    An option is a name, ``name=value`` or a unique prefix of a long name
    (``--conf``). A token that is none of these but reads as a negative number
    or holds a space is a value, so ``--seed -1`` passes -1 while ``--values
    -1,2`` meets an option.
    """
    if not token.startswith("-") or token == "-":
        return None
    if token in names or token == "--":
        return token, None
    head, eq, value = token.partition("=")
    if head not in names and token[:2] == "-h":  # -hX: X attached to -h
        head, eq, value = "-h", "=", token[2:]
    if head in names:
        matches = [head]
    else:
        matches = [name for name in names if name.startswith(head)] if token.startswith("--") else []
    if len(matches) > 1:
        raise ConfigError(f"{prog}: ambiguous option: {head} could match {', '.join(matches)}")
    if matches:
        if eq and matches[0] in _FLAGS:
            raise ConfigError(f"{prog}: argument {matches[0]}: ignored explicit argument {value!r}")
        return matches[0], value if eq else None
    if _NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    return None, None


def _read_command(command: str, argv: list[str], extras: list[str]):
    """``argv`` read against the command's table, left to right: a repeated
    option's last value wins, and a token that is no option of the command
    joins ``extras``. Returns the namespace, or ``None`` once -h has printed
    the command's help."""
    prog = f"qrevivals {command}"
    table = _COMMANDS[command][1]
    names = ("-h", "--help", *table)
    values = {}
    tokens = iter(argv)
    for token in tokens:
        if token == "--":  # it and every later token are left over
            extras += [token, *tokens]
            break
        option = _option(token, names, prog)
        if option is None or option[0] is None:
            extras.append(token)
            continue
        name, value = option
        if name in _FLAGS:
            sys.stdout.write(_help(command))
            return None
        if value is None:
            value = next(tokens, None)
            if value is None or _option(value, names, prog) is not None:
                hint = "" if value is None else (
                    "; attach a value that starts with '-' with '=', as in --values=-1,2")
                raise ConfigError(f"{prog}: argument {name}: expected one argument{hint}")
        parser = table[name][0]
        try:
            values[name] = parser(value)
        except ValueError:
            raise ConfigError(f"{prog}: argument {name}: invalid {parser.__name__} value: {value!r}") from None
    missing = [name for name, (_, default, _) in table.items() if default is _REQUIRED and name not in values]
    if missing:
        raise ConfigError(f"{prog}: the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(command=command, **{
        name[2:]: values.get(name, default) for name, (_, default, _) in table.items()})


def _read_argv(argv: list[str]):
    """The namespace of a command line, or ``None`` once -h or --version has
    printed. Before the command the options are -h and --version; the rest
    of the line is the command's. A usage error is a ConfigError."""
    extras = []
    for i, token in enumerate(argv):
        option = None if token == "--" else _option(token, _FLAGS, "qrevivals")
        if option is None:
            break
        if option[0] is None:
            extras.append(token)
            continue
        sys.stdout.write(f"qrevivals {__version__}\n" if option[0] == "--version" else _help())
        return None
    else:
        raise ConfigError("qrevivals: the following arguments are required: command")
    if token not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        raise ConfigError(f"qrevivals: argument command: invalid choice: {token!r} (choose from {choices})")
    args = _read_command(token, argv[i + 1:], extras)
    if args is not None and extras:
        raise ConfigError(f"qrevivals: unrecognized arguments: {' '.join(extras)}")
    return args


def _load_config(args):
    cfg = parse_config(args.config)
    # the config checks itself on replace, so an out-of-range seed is a config error
    return cfg if args.seed is None else replace(cfg, seed=args.seed)


def _check_out_dir(out: str | None, paths: list[str], config: str):
    """Refuse, before anything runs, an output path whose directory is missing
    or that names the config file; ``paths`` are the files ``out`` writes."""
    if out is None:
        return
    if not os.path.isdir(os.path.dirname(out) or "."):
        raise ConfigError(f"cannot write output file {out!r}: no such directory")
    config_stat = os.stat(config)
    for path in paths:
        try:
            same = os.path.samestat(os.stat(path), config_stat)
        except OSError:  # no such file yet, so not the config
            continue
        if same:
            raise ConfigError(f"output file {path!r} is the config file {config!r}; refusing to overwrite it")


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
    _check_out_dir(args.out, [args.out], args.config)
    _write(run_scenario(cfg).to_csv(), args.out)
    return 0


def _sweep_paths(base: str, param: str, values: list, texts: list[str]) -> list[str]:
    """One output path per value, ``{stem}__{param}={value:g}{suffix}`` beside
    ``base``; refuses a ``base`` that names a directory, and values whose names
    collide, quoting their ``texts``, so that no file is overwritten by a later
    value of the same sweep."""
    p = Path(base)
    if not p.name:
        raise ConfigError(f"cannot write output file {base!r}: not a file name")
    if os.path.isdir(base):  # one that ends in a separator and is missing fails _check_out_dir
        raise ConfigError(f"cannot write output file {base!r}: Is a directory")
    head, suffix = f"{str(p)[:-len(p.name)]}{p.stem}__{param}=", p.suffix or ".csv"
    paths = [f"{head}{value:g}{suffix}" for value in values]
    first = {}
    for text, path in zip(texts, paths):
        if path in first:
            raise ConfigError(f"--values: {first[path]!r} and {text!r} would both write {path}")
        first[path] = text
    return paths


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    texts = [s.strip() for s in args.values.split(",") if s.strip()]
    values = parse_sweep_values(cfg, args.param, texts)
    paths = None if args.out is None else _sweep_paths(args.out, args.param, values, texts)
    _check_out_dir(args.out, paths, args.config)
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


def _drop_stdout():
    """Point the stdout descriptor at the null device, so that the flush at
    interpreter exit has nowhere to fail (stdout with no descriptor has none)."""
    try:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except (OSError, ValueError):
        pass


def main(argv=None) -> int:
    try:
        args = _read_argv(sys.argv[1:] if argv is None else list(argv))
        commands = {"simulate": _cmd_simulate, "sweep": _cmd_sweep, "selftest": _cmd_selftest}
        code = 0 if args is None else commands[args.command](args)  # None: -h or --version
        sys.stdout.flush()  # so that a buffered write fails here
        return code
    except ConfigError as exc:
        return _fail("config error", exc, 1)
    except (NumericalError, np.linalg.LinAlgError) as exc:
        return _fail("numerical error", exc, 3)
    except OSError as exc:  # stdout: a full disk, a closed pipe
        _drop_stdout()
        return _fail("config error", f"cannot write output: {exc.strerror or exc}", 1)


if __name__ == "__main__":
    sys.exit(main())
