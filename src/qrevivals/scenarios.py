"""Declarative scenario configs and the deterministic tabular runner.

Config grammar (INI-style, parsed strictly: unknown sections or keys are
errors). Times are dimensionless in each model's natural unit (rabi*t,
sigma*t, rate*t, or the step index for the stroboscopic channel), and so are
the params: every model runs at rabi, sigma and rate 1 (with width/rabi and
coupling/rate) on the times as written. Every model is a mixture of local
unitaries on qubit B and takes any initial-state kind; tripartite-flows is the
field read with the register of its phase, and every other model takes the
hidden and average entanglement, both read off the eof column of the one
evaluation of the initial state::

    [scenario]
    model = random-field          ; one of MODELS
    measures = concurrence, eof   ; comma-separated subset of MEASURES
    time-start = 0.0
    time-stop = 6.2831853071795865
    time-points = 512
    seed = 12345                  ; optional, < 2^64; echoed only: every model
                                  ; is a closed form
    quadrature-order = 64         ; optional (default 64), >= 1; echoed only:
                                  ; the Gaussian averages are closed forms
    trajectories = 10000          ; optional, >= 1, ou-noise and stroboscopic
                                  ; only; echoed only, like seed

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
from functools import lru_cache
from typing import Callable

import numpy as np

from . import __version__ as _pkg_version
from . import kernels
from .linalg import DensityOperator, NumericalError, SIGMA_X, SIGMA_Z, _stack_where
from .measures import concurrence_kernel, eof_from_concurrence
from .noise import (
    MC_BATCH,
    RNG_DESCRIPTION,
    RTNParams,
    RandomFieldParams,
    StaticNoiseParams,
    StroboscopicParams,
    field_factors,
    ou_phase_variance,
    rtn_coherence,
    stroboscopic_phase_variance,
)
from .states import BELL_LABELS, EWLParams, XYZParams, bell_state, ewl_state, xyz_state
from .tripartite import register_decomposition


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
    "seed": (int, _OMITTED),
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


@dataclass(frozen=True, eq=False)  # hashed by identity: a key of _initial_state's cache
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


@lru_cache(maxsize=64)
def _initial_state(kind: _InitialKind, initial_params: tuple) -> DensityOperator:
    """The state of ``kind`` at ``initial_params``, one for every config (every sweep value) with them."""
    return kind.state(kind.params(**dict(initial_params)))


def _build(section: str, builder, *args, **kwargs):
    """``builder(*args, **kwargs)``, a ValueError of it a ConfigError naming ``section``."""
    try:
        return builder(*args, **kwargs)
    except ConfigError:
        raise
    except ValueError as exc:  # the dataclasses name a key by its field, echo_time for echo-time
        raise ConfigError(f"[{section}] {str(exc).replace('_', '-')}") from exc


# most grid points of a scenario: at the cap each (T, 4, 4) complex stack, the
# flows' register stack included, takes 16 MiB
MAX_TIME_POINTS = 2**16


@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario, checked whenever one is made (by dataclasses.replace too);
    times are in the model's dimensionless unit. ``initial_params`` and
    ``model_params`` are the (key, value) pairs of the [initial-state] and
    model sections, ``params`` the model's dimensionless params dataclass
    (rabi, sigma and rate 1) built from the whole config, and ``rho0`` the
    initial state, built on first use and shared by every config with the same
    [initial-state] section."""

    model: str
    measures: tuple[str, ...]
    time_start: float
    time_stop: float
    time_points: int
    seed: int | None  # echoed into the metadata only, like the two below
    quadrature_order: int
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
        if self.seed is not None and not 0 <= self.seed < 2**64:
            raise ConfigError(f"[scenario] seed: must fit in 64 bits, got {self.seed}")
        if self.quadrature_order < 1:
            raise ConfigError(f"[scenario] quadrature-order: must be >= 1, got {self.quadrature_order}")
        if self.trajectories is not None and self.model not in _TRAJECTORY_MODELS:
            raise ConfigError(f"[scenario] trajectories: not accepted for model {self.model!r}")
        if self.trajectories is not None and self.trajectories < 1:
            raise ConfigError(f"[scenario] trajectories: must be >= 1, got {self.trajectories}")
        kind = _INITIAL_KINDS[_one_of("initial-state", "kind", self.initial_kind, _INITIAL_KINDS)]
        _build("initial-state", kind.params, **dict(self.initial_params))
        object.__setattr__(self, "params", _build(self.model, row.params, self))

    def param(self, key: str, default=None):
        for k, v in self.model_params:
            if k == key:
                return v
        return default

    @property
    def rho0(self) -> DensityOperator:
        return _initial_state(_INITIAL_KINDS[self.initial_kind], self.initial_params)


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
        # one %-format of every row: Python floats, as format(v, ".17g") gives them
        line = ",".join(["%.17g"] * self.rows.shape[1]) + "\n"
        buf.write((line * self.rows.shape[0]) % tuple(self.rows.ravel().tolist()))
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


_COLUMNS = {
    "info-decomposition": ("info_total", "info_local", "info_tripartite", "info_bipartite_max", "info_residual"),
}


def _columns_for(cfg: ScenarioConfig) -> tuple[str, ...]:
    """The time column, then each measure's columns (its name with '_' for '-')."""
    return ("time",) + tuple(c for m in cfg.measures for c in _COLUMNS.get(m, (m.replace("-", "_"),)))


# grid points (values x times) per stack: a (V, T) evaluation runs in blocks
# of whole values, so its memory does not grow with V
_BLOCK_POINTS = 512


def _reindexed(exc: NumericalError, index: tuple) -> NumericalError:
    """``exc`` naming the stack index ``index`` in place of its own."""
    return type(exc)(str(exc).replace(_stack_where(exc.index), _stack_where(index)), index)


def _in_blocks(evaluate: Callable, n_values: int, n_times: int) -> np.ndarray:
    """Rows of a (V, T) evaluation, ``evaluate(block)`` on a slice of whole
    values at a time, joined. The stack index (value, ...) of a NumericalError
    counts values from the first, not from the block's."""
    size = max(1, _BLOCK_POINTS // n_times)
    parts = []
    for start in range(0, n_values, size):
        try:
            parts.append(evaluate(slice(start, start + size)))
        except NumericalError as exc:
            if start == 0 or not exc.index:
                raise
            raise _reindexed(exc, (start + exc.index[0],) + exc.index[1:]) from exc
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# the model table: a params builder (the dataclass plus the checks no
# dataclass makes) and a grid evaluator per model
# ---------------------------------------------------------------------------


def _field_params(cfg: ScenarioConfig) -> RandomFieldParams:
    # width = 0 on the gaussian model degenerates to the sharp two-phase map,
    # which keeps width sweeps down to zero expressible
    if cfg.model == "random-field" and cfg.param("width", 0.0) != 0.0:
        raise ConfigError("[random-field] width: must be 0 (use random-field-gaussian)")
    rabi, width = cfg.param("rabi"), cfg.param("width", 0.0)
    RandomFieldParams(rabi=rabi, width=width)  # the ranges, checked as written
    if not math.isfinite(width / rabi):  # the grid is in rabi*t units: the field runs at rabi = 1
        raise ConfigError(f"[{cfg.model}] rabi: width/rabi overflows at rabi = {rabi!r}")
    return RandomFieldParams(rabi=1.0, width=width / rabi)


def _dephasing_params(cfg: ScenarioConfig) -> StaticNoiseParams:
    # sigma only names the unit of the config's sigma*t times, so the channel
    # runs at sigma = 1 on the times as written
    if not cfg.param("sigma") > 0.0:
        raise ConfigError(f"[{cfg.model}] sigma: must be > 0 (the time grid is in sigma*t units)")
    tau = cfg.param("correlation-time")
    return StaticNoiseParams(sigma=1.0, echo_time=cfg.param("echo-time"),
                             correlation_time=math.inf if tau is None else tau)


def _rtn_params(cfg: ScenarioConfig) -> RTNParams:
    coupling, g, rate = cfg.param("coupling"), cfg.param("g"), cfg.param("rate")
    if (coupling is None) == (g is None):
        raise ConfigError("[rtn] exactly one of 'coupling' and 'g' must be given")
    key = "coupling" if g is None else "g"
    try:  # checked as written, g in the coupling's place, so a range error quotes g
        RTNParams(rate=rate, coupling=cfg.param(key))
    except ValueError as exc:
        raise ValueError(str(exc).replace("coupling=", f"{key}=")) from exc
    g = coupling / rate if g is None else g  # the grid is in rate*t units: the noise runs at rate = 1
    if not math.isfinite(g):
        raise ConfigError(f"[rtn] rate: coupling/rate overflows at rate = {rate!r}")
    # above g ~ 2e305 the phase g*t (= mu t there) can overflow while exp(-t) is
    # still positive, and the coherence is no float
    if not math.isfinite(g * cfg.time_stop):
        t = _grid_values(cfg)
        with np.errstate(over="ignore"):
            if np.any((np.exp(-t) > 0.0) & ~np.isfinite(g * t)):
                phase = "g*rate*t" if key == "g" else "coupling*t"
                raise ConfigError(f"[rtn] {key}: the phase {phase} overflows at {key} = {cfg.param(key):g} "
                                  f"where exp(-rate*t) > 0 (time-stop = {cfg.time_stop:g})")
    return RTNParams(rate=1.0, coupling=g)


def _strobo_params(cfg: ScenarioConfig) -> StroboscopicParams:
    v = _grid_values(cfg)
    steps, last = np.round(v), StroboscopicParams.steps
    bad = ~((np.abs(v - steps) <= 1e-9) & (steps >= 0) & (steps <= last))
    if bad.any():
        raise ConfigError(
            f"[scenario] time grid for 'stroboscopic' must be integer steps in [0, {last}], got {v[bad][0]}"
        )
    return StroboscopicParams(
        phase_sigma=cfg.param("phase-sigma"),
        autocorrelation=cfg.param("autocorrelation"),
        echo_after_step=cfg.param("echo-after-step"),
    )


def _gaussian_channel(p: StaticNoiseParams, grid):
    # static noise is the correlation_time = inf limit of the same law
    return np.exp(-0.5 * ou_phase_variance(p, grid))


def _strobo_channel(p: StroboscopicParams, grid):
    return np.exp(-0.5 * stroboscopic_phase_variance(p, np.rint(grid).astype(int)))


@dataclass(frozen=True)
class _Model:
    keys: dict  # the model section's table, in sorted (echo) order
    measures: tuple[str, ...]
    params: Callable  # ScenarioConfig -> params dataclass; may raise ValueError
    channel: Callable  # (params, grid) -> (T,) factors by which one value dephases qubit B
    axis: np.ndarray  # the Pauli on B about which it dephases


_FIELD_KEYS = {"rabi": (float, _REQUIRED), "width": (float, _OMITTED)}
_DEPHASING_KEYS = {"echo-time": (float, _OMITTED), "sigma": (float, _REQUIRED)}
_MIXTURE_MEASURES = ("concurrence", "eof", "hidden-entanglement", "average-entanglement")
_FLOW_MEASURES = ("tripartite", "info-decomposition")
# models that accept the 'trajectories' key of their former Monte-Carlo runner;
# it is checked and echoed but acts on nothing
_TRAJECTORY_MODELS = ("ou-noise", "stroboscopic")

# the field turns qubit B about +/-x, so it dephases about sigma_x (a bit
# flip), the noises about sigma_z; tripartite-flows is the field read with the
# register of its phase
_MODEL_TABLE = {
    "random-field": _Model(_FIELD_KEYS, _MIXTURE_MEASURES, _field_params, field_factors, SIGMA_X),
    "random-field-gaussian": _Model({"rabi": (float, _REQUIRED), "width": (float, _REQUIRED)}, _MIXTURE_MEASURES,
                                    _field_params, field_factors, SIGMA_X),
    "static-noise": _Model(_DEPHASING_KEYS, _MIXTURE_MEASURES, _dephasing_params, _gaussian_channel, SIGMA_Z),
    "ou-noise": _Model({"correlation-time": (float, _REQUIRED), **_DEPHASING_KEYS}, _MIXTURE_MEASURES,
                       _dephasing_params, _gaussian_channel, SIGMA_Z),
    "rtn": _Model({"coupling": (float, _OMITTED), "g": (float, _OMITTED), "rate": (float, _REQUIRED)},
                  _MIXTURE_MEASURES, _rtn_params, rtn_coherence, SIGMA_Z),
    "stroboscopic": _Model({"autocorrelation": (float, _REQUIRED), "echo-after-step": (int, _OMITTED),
                            "phase-sigma": (float, _REQUIRED)}, _MIXTURE_MEASURES, _strobo_params, _strobo_channel,
                           SIGMA_Z),
    "tripartite-flows": _Model(_FIELD_KEYS, ("concurrence", "eof") + _FLOW_MEASURES, _field_params, field_factors,
                               SIGMA_X),
}
MODELS = tuple(_MODEL_TABLE)


def _evaluate(cfg: ScenarioConfig, ps: list) -> np.ndarray:
    """(V, T, n_cols) rows of the params ``ps`` of V values: the grid values,
    then the columns of each requested measure in config order. The config
    gives what the values share: grid and initial state (cfg.rho0).

    Each noise realisation is a phase on B, so no column sees the echo's
    sigma_x, and it is not applied: every row is rho0 dephased about the
    row's axis by the real part of its factor f. One measures.concurrence_kernel
    of rho0 per call gives the concurrence and eof of every block from the
    factors alone (a k x k SVD per point, k <= 4; no state stack), and its
    check of the factors names a bad one by its (value, time). Each
    realisation of the channel is a local unitary on B, so it keeps E_f(rho0),
    pure or mixed: that is the average entanglement (the kernel at f = 1),
    and E_f(rho0) - eof the hidden. The flow measures alone build state
    stacks per block: rho0 dephased by Re f, whose entropies they read, and
    rho0 dephased by |f|, which has the spectra of the register blocks.
    """
    row = _MODEL_TABLE[cfg.model]
    grid = _grid_values(cfg)
    rho0 = cfg.rho0
    factors = np.stack([row.channel(p, grid) for p in ps])
    flows = any(m in cfg.measures for m in _FLOW_MEASURES)
    kernel = concurrence_kernel(rho0, row.axis)
    average = eof_from_concurrence(kernel(1.0)) if any(m in cfg.measures for m in _ENSEMBLE_MEASURES) else None

    def block_rows(block: slice) -> np.ndarray:
        f = factors[block]
        conc = kernel(f.real)
        eof = eof_from_concurrence(conc)
        columns = {"concurrence": [conc], "eof": [eof]}
        if average is not None:
            columns["hidden-entanglement"] = [average - eof]
            columns["average-entanglement"] = [np.full(eof.shape, average)]
        if flows:
            dec = register_decomposition(rho0, f, row.axis)
            columns["tripartite"] = [dec.tripartite]
            columns["info-decomposition"] = [dec.total, dec.local, dec.tripartite, dec.bipartite_max, dec.residual]
        return np.stack([np.broadcast_to(grid, conc.shape)] + [c for m in cfg.measures for c in columns[m]], axis=-1)

    return _in_blocks(block_rows, *factors.shape)


def _run(configs: list[ScenarioConfig], parameter=None) -> list[ScenarioResult]:
    """One stacked evaluation of V >= 1 configs that differ only in the value
    of the model-section key ``parameter`` (None for a single scenario); one
    result per config."""
    cfg = configs[0]
    columns = _columns_for(cfg)
    rows = _evaluate(cfg, [c.params for c in configs])
    results = []
    for c, r in zip(configs, rows):
        sweep_info = None if parameter is None else (parameter, c.param(parameter))
        results.append(ScenarioResult(metadata=_metadata(c, columns, sweep_info), columns=columns, rows=r))
    return results


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Execute a scenario; the CSV is a function of ``cfg`` alone."""
    return _run([cfg])[0]


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


def sweep(cfg: ScenarioConfig, parameter: str, values):
    """Run the scenario at every parameter value, as one stacked evaluation;
    returns [(value, result), ...], each result equal to run_scenario on the
    config with that value written in.

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
    return list(zip(values, _run(configs, parameter)))
