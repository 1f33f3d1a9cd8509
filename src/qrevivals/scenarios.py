"""Declarative scenario configs and the deterministic tabular runner.

Config grammar (INI-style, parsed strictly: unknown sections or keys are
errors). Times are dimensionless in each model's natural unit (rabi*t,
sigma*t, rate*t, or the step index for the stroboscopic channel)::

    [scenario]
    model = random-field          ; one of MODELS
    measures = concurrence, eof   ; comma-separated subset of MEASURES
    time-start = 0.0
    time-stop = 6.2831853071795865
    time-points = 512
    seed = 12345
    quadrature-order = 64         ; optional (default 64), >= 1; echoed only:
                                  ; the Gaussian averages are closed forms
    trajectories = 10000          ; required iff the model is Monte-Carlo

    [initial-state]
    kind = xyz                    ; bell | xyz | ewl
    x = 1.0
    y = 0.9
    z = 1.0

    [random-field]                ; section name must match the model
    rabi = 1.0
    width = 0.0

Output is UTF-8 CSV preceded by '#'-prefixed metadata lines; all numbers are
printed with 17 significant digits so determinism is byte-checkable.
"""
from __future__ import annotations

import cmath
import configparser
import dataclasses
import hashlib
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import __version__ as _pkg_version
from . import kernels
from .linalg import DensityOperator, NumericalError, _stack_where
from .measures import concurrence, concurrence_pure, eof_from_concurrence, eof_stderr
from .noise import (
    MC_BATCH,
    OU_MAX_STEPS,
    OU_MIN_TRAJECTORIES,
    RNG_DESCRIPTION,
    RTNParams,
    RandomFieldParams,
    StaticNoiseParams,
    StroboscopicParams,
    _echo_effective_duration,
    dephased_state,
    field_channel,
    ou_dephasing_factors,
    ou_partition_steps,
    rtn_coherence,
    static_dephasing_factors,
    stroboscopic_coherences,
)
from .states import BELL_LABELS, EWLParams, XYZParams, bell_state, ewl_state, xyz_state
from .tripartite import flow_measures


class ConfigError(ValueError):
    """A scenario configuration is invalid; the message names the field."""


MEASURES = (
    "concurrence",
    "eof",
    "tripartite",
    "info-decomposition",
    "hidden-entanglement",
    "average-entanglement",
)
_ENSEMBLE_MEASURES = ("hidden-entanglement", "average-entanglement")

_DECISION_METADATA = (
    ("decision.rotating-frame", "local-sigma-z-terms-dropped"),
    ("decision.echo-pulse", "instantaneous-sigma-x"),
    ("decision.rabi-distribution", "gaussian-variance-2*width^2;gauss-hermite"),
    ("decision.rtn-switching", "exponential-inter-switch-at-rate;autocorr-exp(-2*rate*t)"),
    ("decision.ou-update", "exact-conditional;midpoint-phase-rule;dt<=min(tau/20,0.05/sigma)"),
    ("decision.strobo-phases", "stationary-ar1;unclamped-gaussian"),
    ("decision.eigensolver", "lapack-eigh"),
)


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, complex):
        return f"{format(value.real, '.17g')}{'+' if value.imag >= 0 else '-'}{format(abs(value.imag), '.17g')}j"
    if isinstance(value, tuple):
        return ",".join(value)
    return str(value)


# ---------------------------------------------------------------------------
# the section tables: key -> (parser, default) in echo order; the default is
# _REQUIRED, _OMITTED (the config leaves the key out when absent) or the value
# of an absent key
# ---------------------------------------------------------------------------

_REQUIRED, _OMITTED = object(), object()


def _measures(raw: str) -> tuple[str, ...]:
    """The comma-separated measures, each once, in the order first given."""
    return tuple(dict.fromkeys(m.strip() for m in raw.split(",") if m.strip()))


_SCENARIO_KEYS = {
    "model": (str.strip, _REQUIRED),
    "measures": (_measures, _REQUIRED),
    "time-start": (float, _REQUIRED),
    "time-stop": (float, _REQUIRED),
    "time-points": (int, _REQUIRED),
    "seed": (int, _REQUIRED),
    "quadrature-order": (int, 64),
    "trajectories": (int, _OMITTED),
}


def _one_of(section: str, key: str, value, options):
    if value not in options:
        raise ConfigError(f"[{section}] {key}: expected one of {tuple(options)}, got {value!r}")
    return value


def _bell_density(label: str) -> DensityOperator:
    psi = bell_state(label)
    return DensityOperator(np.outer(psi, psi.conj()), (2, 2))


def _ewl_params(r: float, a: complex, excitation: str) -> EWLParams:
    _one_of("initial-state", "excitation", excitation, ("one", "two"))
    return EWLParams(r=r, a=a, kind=f"{excitation}-excitation")


@dataclass(frozen=True)
class _InitialKind:
    keys: dict  # the keys of [initial-state] after 'kind'
    params: Callable  # (**section values) -> params of the state; may raise ValueError
    state: Callable  # params -> DensityOperator


_INITIAL_KINDS = {
    "bell": _InitialKind({"label": (str.strip, _REQUIRED)},
                         lambda label: _one_of("initial-state", "label", label, BELL_LABELS), _bell_density),
    "xyz": _InitialKind({key: (float, _REQUIRED) for key in ("x", "y", "z")}, XYZParams, xyz_state),
    "ewl": _InitialKind({"r": (float, _REQUIRED), "a": (complex, _REQUIRED), "excitation": (str.strip, "one")},
                        _ewl_params, ewl_state),
}


def _build(section: str, builder, *args, **kwargs):
    """``builder(*args, **kwargs)``, a ValueError of it a ConfigError naming ``section``."""
    try:
        return builder(*args, **kwargs)
    except ConfigError:
        raise
    except ValueError as exc:  # the dataclasses name a key by its field, echo_time for echo-time
        raise ConfigError(f"[{section}] {str(exc).replace('_', '-')}") from exc


# most grid points of a scenario: at the cap the (T, 8, 8) complex flows stack
# takes 64 MiB
MAX_TIME_POINTS = 2**16


@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario, checked whenever one is made (by dataclasses.replace too);
    times are in the model's dimensionless unit. ``initial_params`` and
    ``model_params`` are the (key, value) pairs of the [initial-state] and
    model sections, and ``params`` the model's params dataclass built from
    the whole config."""

    model: str
    measures: tuple[str, ...]
    time_start: float
    time_stop: float
    time_points: int
    seed: int
    quadrature_order: int  # echoed into the metadata only
    trajectories: int | None
    initial_kind: str  # bell | xyz | ewl
    initial_params: tuple[tuple[str, object], ...]
    model_params: tuple[tuple[str, float], ...]
    params: object = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        row = _MODEL_TABLE[_one_of("scenario", "model", self.model, MODELS)]
        if not self.measures:
            raise ConfigError("[scenario] measures: at least one measure is required")
        for m in self.measures:
            if m not in MEASURES:
                raise ConfigError(f"[scenario] measures: unknown measure {m!r}; expected from {MEASURES}")
            if m not in row.measures:
                raise ConfigError(
                    f"[scenario] measures: {m!r} is not available for model {self.model!r} "
                    f"(allowed: {row.measures})"
                )
        if self.time_points < 2:
            raise ConfigError(f"[scenario] time-points: need at least 2, got {self.time_points}")
        if self.time_points > MAX_TIME_POINTS:
            raise ConfigError(f"[scenario] time-points: at most {MAX_TIME_POINTS}, got {self.time_points}")
        if not self.time_stop > self.time_start:
            raise ConfigError(f"[scenario] time-stop ({self.time_stop}) must exceed time-start ({self.time_start})")
        if self.time_start < 0.0:
            raise ConfigError(f"[scenario] time-start: must be >= 0, got {self.time_start}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"[scenario] seed: must fit in 64 bits, got {self.seed}")
        if self.quadrature_order < 1:
            raise ConfigError(f"[scenario] quadrature-order: must be >= 1, got {self.quadrature_order}")
        if self.trajectories is None and row.monte_carlo:
            raise ConfigError(f"[scenario] trajectories: required for Monte-Carlo model {self.model!r}")
        if self.trajectories is not None and not row.monte_carlo:
            raise ConfigError(f"[scenario] trajectories: not accepted for non-Monte-Carlo model {self.model!r}")
        if self.trajectories is not None and self.trajectories < 1:
            raise ConfigError(f"[scenario] trajectories: must be >= 1, got {self.trajectories}")
        kind = _INITIAL_KINDS[_one_of("initial-state", "kind", self.initial_kind, _INITIAL_KINDS)]
        if self.initial_kind not in row.initial_kinds:
            names = " or ".join(_INPUT_NAMES[k] for k in row.initial_kinds)
            raise ConfigError(f"[initial-state] kind: model {self.model!r} requires {names} input")
        _build("initial-state", kind.params, **dict(self.initial_params))
        object.__setattr__(self, "params", _build(self.model, row.params, self))
        if any(m in self.measures for m in _ENSEMBLE_MEASURES):
            self.initial_pure_vector()  # raises ConfigError when impure

    def param(self, key: str, default=None):
        for k, v in self.model_params:
            if k == key:
                return v
        return default

    def initial_density(self) -> DensityOperator:
        kind = _INITIAL_KINDS[self.initial_kind]
        return kind.state(kind.params(**dict(self.initial_params)))

    def initial_pure_vector(self) -> np.ndarray:
        """State vector of a pure initial state (top eigenvector)."""
        if self.initial_kind == "bell":
            return bell_state(dict(self.initial_params)["label"])
        rho = self.initial_density()
        vals, vecs = np.linalg.eigh(rho.matrix)
        if vals[-1] < 1.0 - 1e-10:
            raise ConfigError(
                "hidden/average entanglement need a pure initial state "
                f"(largest eigenvalue {vals[-1]:.6g})"
            )
        return vecs[:, -1]


def _parse_scalar(section: str, key: str, raw: str, parser):
    try:
        value = parser(raw.replace(" ", "") if parser is complex else raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} as {parser.__name__}") from exc
    if isinstance(value, (float, complex)) and not cmath.isfinite(value):
        raise ConfigError(f"[{section}] {key}: value must be finite, got {raw!r}")
    if isinstance(value, int) and abs(value) >= 2**64:
        raise ConfigError(f"[{section}] {key}: value must fit in 64 bits, got {raw!r}")
    return value


def _read_section(cp: configparser.ConfigParser, section: str, keys: dict) -> tuple[tuple[str, object], ...]:
    """The (key, value) pairs of ``section`` read with the table ``keys``, in
    table order; an absent key takes its default."""
    if not cp.has_section(section):
        raise ConfigError(f"missing [{section}] section")
    raw = dict(cp.items(section))
    for key in raw:
        if key not in keys:
            raise ConfigError(f"[{section}] unknown key {key!r}; expected from {list(keys)}")
    items = []
    for key, (parser, default) in keys.items():
        if key in raw:
            items.append((key, _parse_scalar(section, key, raw[key], parser)))
        elif default is _REQUIRED:
            raise ConfigError(f"[{section}] missing required key {key!r}")
        elif default is not _OMITTED:
            items.append((key, default))
    return tuple(items)


def parse_config_text(text: str) -> ScenarioConfig:
    """Parse and validate a scenario config from its text form."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc
    scenario = dict(_read_section(cp, "scenario", _SCENARIO_KEYS))
    model = scenario["model"]
    row = _MODEL_TABLE[_one_of("scenario", "model", model, MODELS)]
    if not cp.has_section("initial-state"):
        raise ConfigError("missing [initial-state] section")
    kind = _one_of("initial-state", "kind", cp["initial-state"].get("kind", "").strip(), _INITIAL_KINDS)
    initial = _read_section(cp, "initial-state", {"kind": (str.strip, _REQUIRED), **_INITIAL_KINDS[kind].keys})
    extra = set(cp.sections()) - {"scenario", "initial-state", model}
    if extra:
        raise ConfigError(f"unknown section(s): {sorted(extra)}")
    return ScenarioConfig(
        **{key.replace("-", "_"): scenario.get(key) for key in _SCENARIO_KEYS},
        initial_kind=kind,
        initial_params=initial[1:],
        model_params=_read_section(cp, model, row.keys),
    )


def parse_config(path) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else f"not UTF-8 text ({exc.reason})"
        raise ConfigError(f"cannot read config file {str(path)!r}: {reason}") from exc
    return parse_config_text(text)


def _grid_values(cfg: ScenarioConfig) -> np.ndarray:
    return np.linspace(cfg.time_start, cfg.time_stop, cfg.time_points)


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioResult:
    """Tabular scenario output: '#'-metadata, a header row, numeric rows."""

    metadata: tuple[tuple[str, str], ...]
    columns: tuple[str, ...]
    rows: np.ndarray  # (n_rows, n_cols) float

    def to_csv(self) -> str:
        buf = io.StringIO()
        for k, v in self.metadata:
            buf.write(f"# {k} = {v}\n")
        buf.write(",".join(self.columns) + "\n")
        for row in self.rows.tolist():  # Python floats format faster than numpy scalars
            buf.write(",".join(format(v, ".17g") for v in row) + "\n")
        return buf.getvalue()


def _config_echo_lines(cfg: ScenarioConfig) -> list[tuple[str, str]]:
    """The config as ``config.<section>.<key>`` lines, each section in table order."""
    sections = (
        ("scenario", [(key, getattr(cfg, key.replace("-", "_"))) for key in _SCENARIO_KEYS]),
        ("initial-state", (("kind", cfg.initial_kind),) + cfg.initial_params),
        (cfg.model, cfg.model_params),
    )
    return [(f"config.{name}.{key}", _fmt(value))
            for name, items in sections for key, value in items if value is not None]


def _metadata(cfg: ScenarioConfig, columns, sweep_info=None) -> tuple[tuple[str, str], ...]:
    echo = _config_echo_lines(cfg)
    digest = hashlib.sha256("\n".join(f"{k} = {v}" for k, v in echo).encode()).hexdigest()
    meta = [("format", "qrevivals-scenario-csv-v1"), ("config-hash", f"sha256:{digest}")]
    meta += echo
    meta += [
        ("version.qrevivals", _pkg_version),
        ("version.numpy", np.__version__),
        ("rng", RNG_DESCRIPTION),
        ("mc-batch-size", str(MC_BATCH)),
        ("kernel-backend", kernels.backend_name()),
    ]
    meta += list(_DECISION_METADATA)
    if sweep_info is not None:
        meta += [("sweep.parameter", sweep_info[0]), ("sweep.value", _fmt(sweep_info[1]))]
    meta.append(("columns", ",".join(columns)))
    return tuple(meta)


def _columns_for(cfg: ScenarioConfig) -> tuple[str, ...]:
    cols = ["time"]
    mc = _MODEL_TABLE[cfg.model].monte_carlo
    for m in cfg.measures:
        if m == "concurrence":
            cols.append("concurrence")
            if mc:
                cols.append("concurrence_stderr")
        elif m == "eof":
            cols.append("eof")
            if mc:
                cols.append("eof_stderr")
        elif m == "tripartite":
            cols.append("tripartite")
        elif m == "info-decomposition":
            cols += ["info_total", "info_local", "info_tripartite", "info_bipartite_max", "info_residual"]
        elif m == "hidden-entanglement":
            cols.append("hidden_entanglement")
        elif m == "average-entanglement":
            cols.append("average_entanglement")
    return tuple(cols)


def _rows(cfg: ScenarioConfig, values: np.ndarray, columns: dict) -> np.ndarray:
    """(V, T, n_cols): the grid values, then the columns of each requested
    measure in config order; ``columns`` maps a measure to its list of (V, T)
    arrays."""
    cols = [np.broadcast_to(values, columns[cfg.measures[0]][0].shape)]
    for m in cfg.measures:
        cols += columns[m]
    return np.stack(cols, axis=-1)


def _joined(parts: list[dict]) -> dict:
    """Column dicts of consecutive values joined along the value axis; a (T,)
    column is one value."""
    return {m: [np.concatenate([np.atleast_2d(p[m][k]) for p in parts]) for k in range(len(cols))]
            for m, cols in parts[0].items()}


def _two_qubit_columns(rho: DensityOperator, se_c: np.ndarray | None = None) -> dict:
    """Concurrence and eof columns of a (..., 4, 4) stack of evolved states,
    with their standard errors for a Monte-Carlo model."""
    conc = concurrence(rho)
    eof = eof_from_concurrence(conc)
    if se_c is None:
        return {"concurrence": [conc], "eof": [eof]}
    return {"concurrence": [conc, se_c], "eof": [eof, eof_stderr(conc, se_c)]}


# grid points (values x times) per dephased-state stack: a (V, T) evaluation
# runs in blocks of whole values, so its memory does not grow with V
_BLOCK_POINTS = 512


def _dephased_columns(rho0: DensityOperator, factors: np.ndarray, echoed, se_c=None) -> dict:
    """Two-qubit columns of the dephasing channel, (V, T) factors and echo
    flags (and standard errors), one dephased_state stack per block of values.
    The stack index (value, time) of a NumericalError counts values from the
    first, not from the block's."""
    echoed = np.broadcast_to(echoed, factors.shape)
    size = max(1, _BLOCK_POINTS // factors.shape[1])
    parts = []
    for start in range(0, factors.shape[0], size):
        block = slice(start, start + size)
        try:
            rho = dephased_state(rho0, factors[block], echoed[block])
            parts.append(_two_qubit_columns(rho, None if se_c is None else se_c[block]))
        except NumericalError as exc:
            if start == 0 or not exc.index:
                raise
            moved = (start + exc.index[0],) + exc.index[1:]
            raise type(exc)(str(exc).replace(_stack_where(exc.index), _stack_where(moved)), moved) from exc
    return _joined(parts)


def _mixture_columns(cfg: ScenarioConfig, columns_of) -> dict:
    """Columns of a mixture of local unitaries on qubit B (the field and static
    channels); ``columns_of(rho)`` maps a two-qubit input state to the (V, T)
    two-qubit columns of its evolved states.

    Such a channel keeps the entanglement of every member of the pure ensemble
    it generates from |psi0>: the average entanglement is E_f(psi0) at every
    time, and the hidden entanglement is E_f(psi0) - E_f(rho_psi0(t)),
    rho_psi0(t) the channel applied to |psi0><psi0| (the mixture of that ensemble).
    """
    rho0 = cfg.initial_density()
    columns = columns_of(rho0)
    if any(m in cfg.measures for m in _ENSEMBLE_MEASURES):
        psi0 = cfg.initial_pure_vector()
        e0 = eof_from_concurrence(concurrence_pure(psi0))
        pure0 = np.outer(psi0, psi0.conj())
        # a Bell input is its own projector, so rho(t) serves both columns
        if np.array_equal(pure0, rho0.matrix):
            eof_pure = columns["eof"][0]
        else:
            eof_pure = columns_of(DensityOperator(pure0, (2, 2)))["eof"][0]
        columns["hidden-entanglement"] = [e0 - eof_pure]
        columns["average-entanglement"] = [np.full(eof_pure.shape, e0)]
    return columns


# ---------------------------------------------------------------------------
# the model table: a params builder (the dataclass plus the checks no
# dataclass makes) and a grid evaluator per model
# ---------------------------------------------------------------------------


def _check_time_unit(cfg: ScenarioConfig, key: str, scale: float, *times):
    """Refuse a unit scale (the value of ``key``) by which a time of the config,
    the grid end first, does not divide to a finite time: the runner converts
    each as time / scale."""
    for t in (cfg.time_stop, *times):
        if t is not None and not math.isfinite(t / scale):
            raise ConfigError(f"[{cfg.model}] {key}: {t!r} / {key} overflows at {key} = {scale!r}")


def _field_params(cfg: ScenarioConfig) -> RandomFieldParams:
    # width = 0 on the gaussian model degenerates to the sharp two-phase map,
    # which keeps width sweeps down to zero expressible
    if cfg.model == "random-field" and cfg.param("width", 0.0) != 0.0:
        raise ConfigError("[random-field] width: must be 0 (use random-field-gaussian)")
    p = RandomFieldParams(rabi=cfg.param("rabi"), width=cfg.param("width", 0.0))
    _check_time_unit(cfg, "rabi", p.rabi)
    return p


def _dephasing_params(cfg: ScenarioConfig) -> StaticNoiseParams:
    sigma = cfg.param("sigma")
    if not sigma > 0.0:
        raise ConfigError(f"[{cfg.model}] sigma: must be > 0 (the time grid is in sigma*t units)")
    echo, tau = cfg.param("echo-time"), cfg.param("correlation-time")
    # checked in the config's sigma*t units first, so a range error quotes the value as written
    p = StaticNoiseParams(sigma=sigma, echo_time=echo, correlation_time=math.inf if tau is None else tau)
    _check_time_unit(cfg, "sigma", sigma, echo, tau)
    return dataclasses.replace(
        p, echo_time=None if echo is None else echo / sigma, correlation_time=p.correlation_time / sigma
    )


def _ou_params(cfg: ScenarioConfig) -> StaticNoiseParams:
    if cfg.trajectories < OU_MIN_TRAJECTORIES:
        raise ConfigError(f"[scenario] trajectories: model 'ou-noise' needs at least {OU_MIN_TRAJECTORIES}, "
                          f"got {cfg.trajectories}")
    p = _dephasing_params(cfg)
    steps = ou_partition_steps(p, _grid_values(cfg) / p.sigma)
    if steps > OU_MAX_STEPS:
        raise ConfigError(f"[ou-noise] correlation-time: {cfg.param('correlation-time')!r} to time-stop "
                          f"{cfg.time_stop!r} needs {steps:.3g} fine steps (each at most correlation-time/20 "
                          f"and 0.05), above the cap of {OU_MAX_STEPS}")
    return p


def _rtn_params(cfg: ScenarioConfig) -> RTNParams:
    coupling, g, rate = cfg.param("coupling"), cfg.param("g"), cfg.param("rate")
    if (coupling is None) == (g is None):
        raise ConfigError("[rtn] exactly one of 'coupling' and 'g' must be given")
    if g is not None:
        try:  # checked as written, g in the coupling's place, so a range error quotes g
            RTNParams(rate=rate, coupling=g)
        except ValueError as exc:
            raise ValueError(str(exc).replace("coupling=", "g=")) from exc
        coupling = g * rate
        if not math.isfinite(coupling):
            raise ValueError(f"g={g} times rate={rate} overflows the coupling")
    p = RTNParams(rate=rate, coupling=coupling)
    _check_time_unit(cfg, "rate", rate)
    return p


def _strobo_params(cfg: ScenarioConfig) -> StroboscopicParams:
    v = _grid_values(cfg)
    steps = np.round(v)
    bad = ~((np.abs(v - steps) <= 1e-9) & (steps >= 0) & (steps <= 4))
    if bad.any():
        raise ConfigError(
            f"[scenario] time grid for 'stroboscopic' must be integer steps in [0, 4], got {v[bad][0]}"
        )
    return StroboscopicParams(
        phase_sigma=cfg.param("phase-sigma"),
        autocorrelation=cfg.param("autocorrelation"),
        sequences=cfg.trajectories,
        seed=cfg.seed,
        echo_after_step=cfg.param("echo-after-step"),
    )


def _field_columns(cfg: ScenarioConfig, ps: list[RandomFieldParams], threads: int) -> dict:
    grid = _grid_values(cfg)

    def columns_of(rho):
        return _joined([_two_qubit_columns(field_channel(rho, p, grid / p.rabi)) for p in ps])

    return _mixture_columns(cfg, columns_of)


def _static_columns(cfg: ScenarioConfig, ps: list[StaticNoiseParams], threads: int) -> dict:
    grid = _grid_values(cfg)
    factors = np.stack([static_dephasing_factors(p, grid / p.sigma) for p in ps])
    echoed = np.stack([_echo_effective_duration(p, grid / p.sigma)[1] for p in ps])
    return _mixture_columns(cfg, lambda rho: _dephased_columns(rho, factors, echoed))


def _ou_columns(cfg: ScenarioConfig, ps: list[StaticNoiseParams], threads: int) -> dict:
    grid = _grid_values(cfg)
    ests = [ou_dephasing_factors(p, grid / p.sigma, cfg.trajectories, cfg.seed, threads) for p in ps]
    echoed = np.stack([_echo_effective_duration(p, grid / p.sigma)[1] for p in ps])
    return _dephased_columns(cfg.initial_density(), np.stack([e.factors for e in ests]), echoed,
                             np.stack([e.se_abs for e in ests]))


def _rtn_columns(cfg: ScenarioConfig, ps: list[RTNParams], threads: int) -> dict:
    grid = _grid_values(cfg)
    factors = np.stack([rtn_coherence(p, grid / p.rate) for p in ps])
    return _dephased_columns(cfg.initial_density(), factors, False)


def _strobo_columns(cfg: ScenarioConfig, ps: list[StroboscopicParams], threads: int) -> dict:
    ests = stroboscopic_coherences(ps, threads)  # one set of draws for every value
    steps = np.rint(_grid_values(cfg)).astype(int)
    # step 0 is the undephased input: factor 1, standard error 0
    factors = np.stack([np.concatenate([[1.0 + 0.0j], e.factors])[steps] for e in ests])
    se_c = np.stack([np.concatenate([[0.0], e.se_abs])[steps] for e in ests])
    echoed = np.stack([steps > (math.inf if p.echo_after_step is None else p.echo_after_step) for p in ps])
    return _dephased_columns(cfg.initial_density(), factors, echoed, se_c)


def _flow_columns(cfg: ScenarioConfig, ps: list[RandomFieldParams], threads: int) -> dict:
    grid = _grid_values(cfg)
    parts = []
    for p in ps:
        conc, dec = flow_measures(cfg.initial_density(), p, grid / p.rabi)
        parts.append({
            "concurrence": [conc],
            "eof": [eof_from_concurrence(conc)],
            "tripartite": [dec.tripartite],
            "info-decomposition": [dec.total, dec.local, dec.tripartite, dec.bipartite_max, dec.residual],
        })
    return _joined(parts)


@dataclass(frozen=True)
class _Model:
    keys: dict  # the model section's table, in sorted (echo) order
    measures: tuple[str, ...]
    initial_kinds: tuple[str, ...]
    monte_carlo: bool
    params: Callable  # ScenarioConfig -> params dataclass; may raise ValueError
    # (ScenarioConfig, [params of V values], threads) -> {measure: [(V, T) arrays]}; the
    # config gives what the values share: grid, initial state, seed, trajectories
    evaluate: Callable


_FIELD_KEYS = {"rabi": (float, _REQUIRED), "width": (float, _OMITTED)}
_DEPHASING_KEYS = {"echo-time": (float, _OMITTED), "sigma": (float, _REQUIRED)}
_MIXTURE_MEASURES = ("concurrence", "eof", "hidden-entanglement", "average-entanglement")
_TWO_QUBIT = ("concurrence", "eof")
_ANY_INPUT = ("bell", "xyz", "ewl")
_INPUT_NAMES = {"bell": "a Bell-state", "ewl": "an extended Werner-like"}  # of the rows that restrict the kind

_MODEL_TABLE = {
    "random-field": _Model(_FIELD_KEYS, _MIXTURE_MEASURES, _ANY_INPUT, False, _field_params, _field_columns),
    "random-field-gaussian": _Model({"rabi": (float, _REQUIRED), "width": (float, _REQUIRED)}, _MIXTURE_MEASURES,
                                    _ANY_INPUT, False, _field_params, _field_columns),
    "static-noise": _Model(_DEPHASING_KEYS, _MIXTURE_MEASURES, ("bell",), False, _dephasing_params,
                           _static_columns),
    "ou-noise": _Model({"correlation-time": (float, _REQUIRED), **_DEPHASING_KEYS}, _TWO_QUBIT, ("bell",), True,
                       _ou_params, _ou_columns),
    "rtn": _Model({"coupling": (float, _OMITTED), "g": (float, _OMITTED), "rate": (float, _REQUIRED)}, _TWO_QUBIT,
                  ("ewl",), False, _rtn_params, _rtn_columns),
    "stroboscopic": _Model({"autocorrelation": (float, _REQUIRED), "echo-after-step": (int, _OMITTED),
                            "phase-sigma": (float, _REQUIRED)}, _TWO_QUBIT, ("bell",), True, _strobo_params,
                           _strobo_columns),
    "tripartite-flows": _Model(_FIELD_KEYS, ("concurrence", "eof", "tripartite", "info-decomposition"),
                               _ANY_INPUT, False, _field_params, _flow_columns),
}
MODELS = tuple(_MODEL_TABLE)


def _run(configs: list[ScenarioConfig], threads: int, parameter=None) -> list[ScenarioResult]:
    """One stacked evaluation of V >= 1 configs that differ only in the value
    of the model-section key ``parameter`` (None for a single scenario); one
    result per config."""
    cfg = configs[0]
    columns = _columns_for(cfg)
    data = _MODEL_TABLE[cfg.model].evaluate(cfg, [c.params for c in configs], max(1, int(threads)))
    rows = _rows(cfg, _grid_values(cfg), data)
    results = []
    for c, r in zip(configs, rows):
        sweep_info = None if parameter is None else (parameter, c.param(parameter))
        results.append(ScenarioResult(metadata=_metadata(c, columns, sweep_info), columns=columns, rows=r))
    return results


def run_scenario(cfg: ScenarioConfig, threads: int = 1) -> ScenarioResult:
    """Execute a scenario; identical (cfg, seed) pairs produce byte-identical
    CSV irrespective of ``threads``."""
    return _run([cfg], threads)[0]


def sweepable_parameters(model: str) -> tuple[str, ...]:
    return tuple(sorted(_MODEL_TABLE[model].keys))


def parse_sweep_values(cfg: ScenarioConfig, parameter: str, values) -> list:
    """``values`` read with the parser of ``parameter``'s key, from their text as
    in a config file (so a non-integer value of an integer key is an error)."""
    keys = _MODEL_TABLE[cfg.model].keys
    if parameter not in keys:
        raise ConfigError(
            f"unknown sweep parameter {parameter!r} for model {cfg.model!r}; "
            f"expected one of {sweepable_parameters(cfg.model)}"
        )
    return [_parse_scalar(cfg.model, parameter, str(v).strip(), keys[parameter][0]) for v in values]


def sweep(cfg: ScenarioConfig, parameter: str, values, threads: int = 1):
    """Run the scenario at every parameter value, as one stacked evaluation
    that shares the Monte-Carlo draws; returns [(value, result), ...], each
    result equal to run_scenario on the config with that value written in.

    ``parameter`` must name a key of the model's parameter section (for 'rtn',
    'g' and 'coupling' displace each other). Every value is parsed and
    validated before any runs.
    """
    values = parse_sweep_values(cfg, parameter, values)
    configs = []
    for value in values:
        model_params = dict(cfg.model_params)
        model_params[parameter] = value
        if cfg.model == "rtn":
            if parameter == "g":
                model_params.pop("coupling", None)
            elif parameter == "coupling":
                model_params.pop("g", None)
        configs.append(dataclasses.replace(cfg, model_params=tuple(sorted(model_params.items()))))
    if not configs:
        return []
    return list(zip(values, _run(configs, threads, parameter)))
