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
from .measures import concurrence, concurrence_pure, eof_from_concurrence
from .noise import (
    MC_BATCH,
    OU_MIN_TRAJECTORIES,
    RNG_DESCRIPTION,
    RTNParams,
    RandomFieldParams,
    StaticNoiseParams,
    StroboscopicParams,
    _echo_effective_duration,
    dephased_state,
    field_mixture_grid,
    ou_dephasing_factors,
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
    return str(value)


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario description; times are in the model's dimensionless unit."""

    model: str
    measures: tuple[str, ...]
    time_start: float
    time_stop: float
    time_points: int
    seed: int
    quadrature_order: int  # echoed into the metadata only
    trajectories: int | None
    initial_kind: str  # bell | xyz | ewl
    initial_bell: str | None
    initial_xyz: XYZParams | None
    initial_ewl: EWLParams | None
    model_params: tuple[tuple[str, float], ...]

    def param(self, key: str, default=None):
        for k, v in self.model_params:
            if k == key:
                return v
        return default

    def initial_density(self) -> DensityOperator:
        if self.initial_kind == "bell":
            psi = bell_state(self.initial_bell)
            return DensityOperator(np.outer(psi, psi.conj()), (2, 2))
        if self.initial_kind == "xyz":
            return xyz_state(self.initial_xyz)
        return ewl_state(self.initial_ewl)

    def initial_pure_vector(self) -> np.ndarray:
        """State vector of a pure initial state (top eigenvector)."""
        if self.initial_kind == "bell":
            return bell_state(self.initial_bell)
        rho = self.initial_density()
        vals, vecs = np.linalg.eigh(rho.matrix)
        if vals[-1] < 1.0 - 1e-10:
            raise ConfigError(
                "hidden/average entanglement need a pure initial state "
                f"(largest eigenvalue {vals[-1]:.6g})"
            )
        return vecs[:, -1]


def _parse_scalar(section: str, key: str, raw: str, caster):
    try:
        if caster is int:
            v = int(raw)
        elif caster is float:
            v = float(raw)
        elif caster is complex:
            v = complex(raw.replace(" ", ""))
        else:
            v = raw
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} as {caster.__name__}") from exc
    if caster in (int, float) and isinstance(v, (int, float)) and not math.isfinite(float(v)):
        raise ConfigError(f"[{section}] {key}: value must be finite, got {raw!r}")
    return v


def parse_config_text(text: str) -> ScenarioConfig:
    """Parse and validate a scenario config from its text form."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc

    sections = set(cp.sections())
    if "scenario" not in sections:
        raise ConfigError("missing [scenario] section")
    if "initial-state" not in sections:
        raise ConfigError("missing [initial-state] section")

    scen = dict(cp.items("scenario"))
    known_scen = {
        "model", "measures", "time-start", "time-stop", "time-points",
        "seed", "quadrature-order", "trajectories",
    }
    for key in scen:
        if key not in known_scen:
            raise ConfigError(f"[scenario] unknown key {key!r}")
    for key in ("model", "measures", "time-start", "time-stop", "time-points", "seed"):
        if key not in scen:
            raise ConfigError(f"[scenario] missing required key {key!r}")

    model = scen["model"].strip()
    if model not in MODELS:
        raise ConfigError(f"[scenario] model: unknown model {model!r}; expected one of {MODELS}")
    row = _MODEL_TABLE[model]

    measures = tuple(m.strip() for m in scen["measures"].split(",") if m.strip())
    if not measures:
        raise ConfigError("[scenario] measures: at least one measure is required")
    seen = []
    for m in measures:
        if m not in MEASURES:
            raise ConfigError(f"[scenario] measures: unknown measure {m!r}; expected from {MEASURES}")
        if m not in row.measures:
            raise ConfigError(
                f"[scenario] measures: {m!r} is not available for model {model!r} "
                f"(allowed: {row.measures})"
            )
        if m not in seen:
            seen.append(m)
    measures = tuple(seen)

    time_start = _parse_scalar("scenario", "time-start", scen["time-start"], float)
    time_stop = _parse_scalar("scenario", "time-stop", scen["time-stop"], float)
    time_points = _parse_scalar("scenario", "time-points", scen["time-points"], int)
    if time_points < 2:
        raise ConfigError(f"[scenario] time-points: need at least 2, got {time_points}")
    if not time_stop > time_start:
        raise ConfigError(f"[scenario] time-stop ({time_stop}) must exceed time-start ({time_start})")
    if time_start < 0.0:
        raise ConfigError(f"[scenario] time-start: must be >= 0, got {time_start}")
    seed = _parse_scalar("scenario", "seed", scen["seed"], int)
    if not 0 <= seed < 2**64:
        raise ConfigError(f"[scenario] seed: must fit in 64 bits, got {seed}")
    order = _parse_scalar("scenario", "quadrature-order", scen.get("quadrature-order", "64"), int)
    if order < 1:
        raise ConfigError(f"[scenario] quadrature-order: must be >= 1, got {order}")

    trajectories = None
    if "trajectories" in scen:
        if not row.monte_carlo:
            raise ConfigError(f"[scenario] trajectories: not accepted for non-Monte-Carlo model {model!r}")
        trajectories = _parse_scalar("scenario", "trajectories", scen["trajectories"], int)
        if trajectories < 1:
            raise ConfigError(f"[scenario] trajectories: must be >= 1, got {trajectories}")
    elif row.monte_carlo:
        raise ConfigError(f"[scenario] trajectories: required for Monte-Carlo model {model!r}")

    # --- initial state ---
    init = dict(cp.items("initial-state"))
    kind = init.get("kind", "").strip()
    initial_bell = initial_xyz = initial_ewl = None
    if kind == "bell":
        allowed = {"kind", "label"}
        label = init.get("label", "").strip()
        if label not in BELL_LABELS:
            raise ConfigError(f"[initial-state] label: expected one of {BELL_LABELS}, got {label!r}")
        initial_bell = label
    elif kind == "xyz":
        allowed = {"kind", "x", "y", "z"}
        try:
            initial_xyz = XYZParams(
                x=_parse_scalar("initial-state", "x", init.get("x", "missing"), float),
                y=_parse_scalar("initial-state", "y", init.get("y", "missing"), float),
                z=_parse_scalar("initial-state", "z", init.get("z", "missing"), float),
            )
        except ValueError as exc:
            raise ConfigError(f"[initial-state] {exc}") from exc
    elif kind == "ewl":
        allowed = {"kind", "r", "a", "excitation"}
        exc_kind = init.get("excitation", "one").strip()
        if exc_kind not in ("one", "two"):
            raise ConfigError(f"[initial-state] excitation: expected 'one' or 'two', got {exc_kind!r}")
        try:
            initial_ewl = EWLParams(
                r=_parse_scalar("initial-state", "r", init.get("r", "missing"), float),
                a=_parse_scalar("initial-state", "a", init.get("a", "missing"), complex),
                kind=f"{exc_kind}-excitation",
            )
        except ValueError as exc:
            raise ConfigError(f"[initial-state] {exc}") from exc
    else:
        raise ConfigError(f"[initial-state] kind: expected bell, xyz or ewl, got {kind!r}")
    for key in init:
        if key not in allowed:
            raise ConfigError(f"[initial-state] unknown key {key!r} for kind {kind!r}")

    # --- model params ---
    expected_sections = {"scenario", "initial-state", model}
    extra = sections - expected_sections
    if extra:
        raise ConfigError(f"unknown section(s): {sorted(extra)}")
    if model not in sections:
        raise ConfigError(f"missing [{model}] section")
    raw = dict(cp.items(model))
    for key in raw:
        if key not in row.keys:
            raise ConfigError(f"[{model}] unknown key {key!r}; expected from {sorted(row.keys)}")
    params = {}
    for key, (parser, required) in row.keys.items():
        if key in raw:
            params[key] = _parse_scalar(model, key, raw[key], parser)
        elif required:
            raise ConfigError(f"[{model}] missing required key {key!r}")

    cfg = ScenarioConfig(
        model=model,
        measures=measures,
        time_start=time_start,
        time_stop=time_stop,
        time_points=time_points,
        seed=seed,
        quadrature_order=order,
        trajectories=trajectories,
        initial_kind=kind,
        initial_bell=initial_bell,
        initial_xyz=initial_xyz,
        initial_ewl=initial_ewl,
        model_params=tuple(sorted(params.items())),
    )
    if kind not in row.initial_kinds:
        names = " or ".join(_INPUT_NAMES[k] for k in row.initial_kinds)
        raise ConfigError(f"[initial-state] kind: model {model!r} requires {names} input")
    _model_params(cfg)
    if any(m in measures for m in _ENSEMBLE_MEASURES):
        cfg.initial_pure_vector()  # raises ConfigError when impure
    return cfg


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
    lines = [
        ("config.scenario.model", cfg.model),
        ("config.scenario.measures", ",".join(cfg.measures)),
        ("config.scenario.time-start", _fmt(cfg.time_start)),
        ("config.scenario.time-stop", _fmt(cfg.time_stop)),
        ("config.scenario.time-points", _fmt(cfg.time_points)),
        ("config.scenario.seed", _fmt(cfg.seed)),
        ("config.scenario.quadrature-order", _fmt(cfg.quadrature_order)),
    ]
    if cfg.trajectories is not None:
        lines.append(("config.scenario.trajectories", _fmt(cfg.trajectories)))
    lines.append(("config.initial-state.kind", cfg.initial_kind))
    if cfg.initial_kind == "bell":
        lines.append(("config.initial-state.label", cfg.initial_bell))
    elif cfg.initial_kind == "xyz":
        lines += [
            ("config.initial-state.x", _fmt(cfg.initial_xyz.x)),
            ("config.initial-state.y", _fmt(cfg.initial_xyz.y)),
            ("config.initial-state.z", _fmt(cfg.initial_xyz.z)),
        ]
    else:
        lines += [
            ("config.initial-state.r", _fmt(cfg.initial_ewl.r)),
            ("config.initial-state.a", _fmt(cfg.initial_ewl.a)),
            ("config.initial-state.excitation", cfg.initial_ewl.kind.split("-")[0]),
        ]
    for key, value in cfg.model_params:
        lines.append((f"config.{cfg.model}.{key}", _fmt(value)))
    return lines


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


def _eof_se(conc: np.ndarray, se_c: np.ndarray) -> np.ndarray:
    """Half the spread of E_f over conc -/+ se_c, 0 where se_c is 0."""
    hi = eof_from_concurrence(np.minimum(1.0, conc + se_c))
    lo = eof_from_concurrence(np.maximum(0.0, conc - se_c))
    return np.where(se_c == 0.0, 0.0, 0.5 * (hi - lo))


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
    return {"concurrence": [conc, se_c], "eof": [eof, _eof_se(conc, se_c)]}


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


def _field_params(cfg: ScenarioConfig) -> RandomFieldParams:
    # width = 0 on the gaussian model degenerates to the sharp two-phase map,
    # which keeps width sweeps down to zero expressible
    if cfg.model == "random-field" and cfg.param("width", 0.0) != 0.0:
        raise ConfigError("[random-field] width: must be 0 (use random-field-gaussian)")
    return RandomFieldParams(rabi=cfg.param("rabi"), width=cfg.param("width", 0.0))


def _dephasing_params(cfg: ScenarioConfig) -> StaticNoiseParams:
    sigma = cfg.param("sigma")
    if not sigma > 0.0:
        raise ConfigError(f"[{cfg.model}] sigma: must be > 0 (the time grid is in sigma*t units)")
    echo, tau = cfg.param("echo-time"), cfg.param("correlation-time")
    # checked in the config's sigma*t units first, so a range error quotes the value as written
    p = StaticNoiseParams(sigma=sigma, echo_time=echo, correlation_time=math.inf if tau is None else tau)
    return dataclasses.replace(
        p, echo_time=None if echo is None else echo / sigma, correlation_time=p.correlation_time / sigma
    )


def _ou_params(cfg: ScenarioConfig) -> StaticNoiseParams:
    if cfg.trajectories < OU_MIN_TRAJECTORIES:
        raise ConfigError(f"[scenario] trajectories: model 'ou-noise' needs at least {OU_MIN_TRAJECTORIES}, "
                          f"got {cfg.trajectories}")
    return _dephasing_params(cfg)


def _rtn_params(cfg: ScenarioConfig) -> RTNParams:
    coupling, g, rate = cfg.param("coupling"), cfg.param("g"), cfg.param("rate")
    if (coupling is None) == (g is None):
        raise ConfigError("[rtn] exactly one of 'coupling' and 'g' must be given")
    if g is None:
        return RTNParams(rate=rate, coupling=coupling)
    try:  # checked as written, g in the coupling's place, so a range error quotes g
        RTNParams(rate=rate, coupling=g)
    except ValueError as exc:
        raise ValueError(str(exc).replace("coupling=", "g=")) from exc
    coupling = g * rate
    if not math.isfinite(coupling):
        raise ValueError(f"g={g} times rate={rate} overflows the coupling")
    return RTNParams(rate=rate, coupling=coupling)


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
        stacks = [field_mixture_grid(0.5 * rho.matrix, p, grid / p.rabi, summed=True) for p in ps]
        return _joined([_two_qubit_columns(DensityOperator(m, (2, 2))) for m in stacks])

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
    keys: dict  # section key -> (parser, required)
    measures: tuple[str, ...]
    initial_kinds: tuple[str, ...]
    monte_carlo: bool
    params: Callable  # ScenarioConfig -> params dataclass; may raise ValueError
    # (ScenarioConfig, [params of V values], threads) -> {measure: [(V, T) arrays]}; the
    # config gives what the values share: grid, initial state, seed, trajectories
    evaluate: Callable


_FIELD_KEYS = {"rabi": (float, True), "width": (float, False)}
_DEPHASING_KEYS = {"sigma": (float, True), "echo-time": (float, False)}
_MIXTURE_MEASURES = ("concurrence", "eof", "hidden-entanglement", "average-entanglement")
_TWO_QUBIT = ("concurrence", "eof")
_ANY_INPUT = ("bell", "xyz", "ewl")
_INPUT_NAMES = {"bell": "a Bell-state", "ewl": "an extended Werner-like"}  # of the rows that restrict the kind

_MODEL_TABLE = {
    "random-field": _Model(_FIELD_KEYS, _MIXTURE_MEASURES, _ANY_INPUT, False, _field_params, _field_columns),
    "random-field-gaussian": _Model({"rabi": (float, True), "width": (float, True)}, _MIXTURE_MEASURES,
                                    _ANY_INPUT, False, _field_params, _field_columns),
    "static-noise": _Model(_DEPHASING_KEYS, _MIXTURE_MEASURES, ("bell",), False, _dephasing_params,
                           _static_columns),
    "ou-noise": _Model({**_DEPHASING_KEYS, "correlation-time": (float, True)}, _TWO_QUBIT, ("bell",), True,
                       _ou_params, _ou_columns),
    "rtn": _Model({"rate": (float, True), "coupling": (float, False), "g": (float, False)}, _TWO_QUBIT,
                  ("ewl",), False, _rtn_params, _rtn_columns),
    "stroboscopic": _Model({"phase-sigma": (float, True), "autocorrelation": (float, True),
                            "echo-after-step": (int, False)}, _TWO_QUBIT, ("bell",), True, _strobo_params,
                           _strobo_columns),
    "tripartite-flows": _Model(_FIELD_KEYS, ("concurrence", "eof", "tripartite", "info-decomposition"),
                               _ANY_INPUT, False, _field_params, _flow_columns),
}
MODELS = tuple(_MODEL_TABLE)


def _model_params(cfg: ScenarioConfig):
    """The model's params dataclass, built from the final config; its ValueError
    becomes a ConfigError naming the model's section."""
    try:
        return _MODEL_TABLE[cfg.model].params(cfg)
    except ConfigError:
        raise
    except ValueError as exc:  # the dataclasses name a key by its field, echo_time for echo-time
        raise ConfigError(f"[{cfg.model}] {str(exc).replace('_', '-')}") from exc


def _run(configs: list[ScenarioConfig], params: list, threads: int, parameter=None) -> list[ScenarioResult]:
    """One stacked evaluation of V >= 1 configs that differ only in the value
    of the model-section key ``parameter`` (None for a single scenario), with
    their params dataclasses; one result per config."""
    cfg = configs[0]
    columns = _columns_for(cfg)
    data = _MODEL_TABLE[cfg.model].evaluate(cfg, params, max(1, int(threads)))
    rows = _rows(cfg, _grid_values(cfg), data)
    results = []
    for c, r in zip(configs, rows):
        sweep_info = None if parameter is None else (parameter, c.param(parameter))
        results.append(ScenarioResult(metadata=_metadata(c, columns, sweep_info), columns=columns, rows=r))
    return results


def run_scenario(cfg: ScenarioConfig, threads: int = 1) -> ScenarioResult:
    """Execute a scenario; identical (cfg, seed) pairs produce byte-identical
    CSV irrespective of ``threads``."""
    return _run([cfg], [_model_params(cfg)], threads)[0]


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
    configs, params = [], []
    for value in values:
        model_params = dict(cfg.model_params)
        model_params[parameter] = value
        if cfg.model == "rtn":
            if parameter == "g":
                model_params.pop("coupling", None)
            elif parameter == "coupling":
                model_params.pop("g", None)
        configs.append(dataclasses.replace(cfg, model_params=tuple(sorted(model_params.items()))))
        params.append(_model_params(configs[-1]))
    if not configs:
        return []
    return list(zip(values, _run(configs, params, threads, parameter)))
