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
    quadrature-order = 64         ; optional (default 64)
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

import numpy as np

from . import __version__ as _pkg_version
from . import kernels
from .linalg import DensityOperator
from .measures import concurrence, concurrence_pure, eof_from_concurrence
from .noise import (
    MC_BATCH,
    RNG_DESCRIPTION,
    RTNParams,
    RandomFieldParams,
    RandomUnitaryChannel,
    StaticNoiseParams,
    StroboscopicParams,
    _echo_effective_duration,
    apply_b_dephasing,
    dephased_state,
    gaussian_averaged_map,
    ou_dephasing_factors,
    rtn_evolved_state,
    static_dephasing_factor,
    stroboscopic_coherences,
)
from .states import BELL_LABELS, EWLParams, XYZParams, bell_state, ewl_state, xyz_state
from .tripartite import flow_measures


class ConfigError(ValueError):
    """A scenario configuration is invalid; the message names the field."""


MODELS = (
    "random-field",
    "random-field-gaussian",
    "static-noise",
    "ou-noise",
    "rtn",
    "stroboscopic",
    "tripartite-flows",
)
MC_MODELS = ("ou-noise", "stroboscopic")
MEASURES = (
    "concurrence",
    "eof",
    "tripartite",
    "info-decomposition",
    "hidden-entanglement",
    "average-entanglement",
)

_MEASURES_BY_MODEL = {
    "random-field": ("concurrence", "eof", "hidden-entanglement", "average-entanglement"),
    "random-field-gaussian": ("concurrence", "eof", "hidden-entanglement", "average-entanglement"),
    "static-noise": ("concurrence", "eof", "hidden-entanglement", "average-entanglement"),
    "ou-noise": ("concurrence", "eof"),
    "rtn": ("concurrence", "eof"),
    "stroboscopic": ("concurrence", "eof"),
    "tripartite-flows": ("concurrence", "eof", "tripartite", "info-decomposition"),
}

# model section -> key -> (required, parser)
_MODEL_KEYS = {
    "random-field": {"rabi": (True, float), "width": (False, float)},
    "random-field-gaussian": {"rabi": (True, float), "width": (True, float)},
    "static-noise": {"sigma": (True, float), "echo-time": (False, float)},
    "ou-noise": {
        "sigma": (True, float),
        "echo-time": (False, float),
        "correlation-time": (True, float),
    },
    "rtn": {"rate": (True, float), "coupling": (False, float), "g": (False, float)},
    "stroboscopic": {
        "phase-sigma": (True, float),
        "autocorrelation": (True, float),
        "echo-after-step": (False, int),
    },
    "tripartite-flows": {"rabi": (True, float), "width": (False, float)},
}

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
    quadrature_order: int
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

    measures = tuple(m.strip() for m in scen["measures"].split(",") if m.strip())
    if not measures:
        raise ConfigError("[scenario] measures: at least one measure is required")
    seen = []
    for m in measures:
        if m not in MEASURES:
            raise ConfigError(f"[scenario] measures: unknown measure {m!r}; expected from {MEASURES}")
        if m not in _MEASURES_BY_MODEL[model]:
            raise ConfigError(
                f"[scenario] measures: {m!r} is not available for model {model!r} "
                f"(allowed: {_MEASURES_BY_MODEL[model]})"
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

    is_mc = model in MC_MODELS
    trajectories = None
    if "trajectories" in scen:
        if not is_mc:
            raise ConfigError(f"[scenario] trajectories: not accepted for non-Monte-Carlo model {model!r}")
        trajectories = _parse_scalar("scenario", "trajectories", scen["trajectories"], int)
        if trajectories < 1:
            raise ConfigError(f"[scenario] trajectories: must be >= 1, got {trajectories}")
    elif is_mc:
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
    key_spec = _MODEL_KEYS[model]
    for key in raw:
        if key not in key_spec:
            raise ConfigError(f"[{model}] unknown key {key!r}; expected from {sorted(key_spec)}")
    params = {}
    for key, (required, caster) in key_spec.items():
        if key in raw:
            params[key] = _parse_scalar(model, key, raw[key], caster)
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
    _validate_semantics(cfg)
    return cfg


def parse_config(path) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else f"not UTF-8 text ({exc.reason})"
        raise ConfigError(f"cannot read config file {str(path)!r}: {reason}") from exc
    return parse_config_text(text)


def _validate_semantics(cfg: ScenarioConfig):
    model = cfg.model
    if model == "random-field" and cfg.param("width", 0.0) != 0.0:
        raise ConfigError("[random-field] width: must be 0 (use random-field-gaussian)")
    if model in ("random-field", "random-field-gaussian", "tripartite-flows"):
        if cfg.param("rabi", 0.0) <= 0.0:
            raise ConfigError(f"[{model}] rabi: must be > 0")
        # width = 0 on the gaussian model degenerates to the sharp two-phase
        # map, which keeps width sweeps down to zero expressible
        if cfg.param("width", 0.0) < 0.0:
            raise ConfigError(f"[{model}] width: must be >= 0")
    if model in ("static-noise", "ou-noise", "stroboscopic") and cfg.initial_kind != "bell":
        raise ConfigError(f"[initial-state] kind: model {model!r} requires a Bell-state input")
    if model == "rtn" and cfg.initial_kind != "ewl":
        raise ConfigError("[initial-state] kind: model 'rtn' requires an extended Werner-like input")
    if model in ("static-noise", "ou-noise"):
        if cfg.param("sigma", 0.0) <= 0.0:
            raise ConfigError(f"[{model}] sigma: must be > 0 (the time grid is in sigma*t units)")
        echo = cfg.param("echo-time")
        if echo is not None and echo <= 0.0:
            raise ConfigError(f"[{model}] echo-time: must be > 0 when present")
    if model == "ou-noise" and cfg.param("correlation-time", 0.0) <= 0.0:
        raise ConfigError("[ou-noise] correlation-time: must be > 0 (dimensionless sigma*tau)")
    if model == "rtn":
        if cfg.param("rate", 0.0) <= 0.0:
            raise ConfigError("[rtn] rate: must be > 0")
        has_coupling = cfg.param("coupling") is not None
        has_g = cfg.param("g") is not None
        if has_coupling == has_g:
            raise ConfigError("[rtn] exactly one of 'coupling' and 'g' must be given")
        value = cfg.param("coupling") if has_coupling else cfg.param("g") * cfg.param("rate")
        if value < 0.0:
            raise ConfigError("[rtn] coupling: must be >= 0")
    if model == "stroboscopic":
        if cfg.param("phase-sigma", -1.0) < 0.0:
            raise ConfigError("[stroboscopic] phase-sigma: must be >= 0")
        if not 0.0 <= cfg.param("autocorrelation", -1.0) <= 1.0:
            raise ConfigError("[stroboscopic] autocorrelation: must lie in [0, 1]")
        echo = cfg.param("echo-after-step")
        if echo is not None and not 1 <= int(echo) <= 3:
            raise ConfigError("[stroboscopic] echo-after-step: must lie in [1, 3]")
        for v in _grid_values(cfg):
            if abs(v - round(v)) > 1e-9 or not 0 <= round(v) <= 4:
                raise ConfigError(
                    f"[scenario] time grid for 'stroboscopic' must be integer steps in [0, 4], got {v}"
                )
    if any(m in cfg.measures for m in ("hidden-entanglement", "average-entanglement")):
        cfg.initial_pure_vector()  # raises ConfigError when impure


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
        for row in self.rows:
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


def _eof_se(c: float, se_c: float) -> float:
    if se_c == 0.0:
        return 0.0
    hi = eof_from_concurrence(min(1.0, c + se_c))
    lo = eof_from_concurrence(max(0.0, c - se_c))
    return 0.5 * (hi - lo)


def _eof(conc: np.ndarray) -> np.ndarray:
    return np.array([eof_from_concurrence(float(c)) for c in conc])


def _columns_for(cfg: ScenarioConfig) -> tuple[str, ...]:
    cols = ["time"]
    mc = cfg.model in MC_MODELS
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
    """The grid values, then the columns of each requested measure in config
    order; ``columns`` maps a measure to its list of (T,) arrays."""
    cols = [values]
    for m in cfg.measures:
        cols += columns[m]
    return np.column_stack(cols)


def _two_qubit_columns(rho: DensityOperator, se_c: np.ndarray | None = None) -> dict:
    """Concurrence and eof columns of a (T, 4, 4) stack of evolved states,
    with their standard errors for a Monte-Carlo model."""
    conc = concurrence(rho)
    eof = _eof(conc)
    if se_c is None:
        return {"concurrence": [conc], "eof": [eof]}
    eof_se = np.array([_eof_se(float(c), float(se)) for c, se in zip(conc, se_c)])
    return {"concurrence": [conc, se_c], "eof": [eof, eof_se]}


def _quadrature_rows(cfg: ScenarioConfig, evolve) -> np.ndarray:
    """Rows of a quadrature model; ``evolve(rho, v)`` returns the matrix of its
    channel applied to rho at grid value v.

    These channels are mixtures of local unitaries on qubit B, which keep the
    entanglement of every member of the pure ensemble they generate from
    |psi0>: the average entanglement is E_f(psi0) at every time, and the
    hidden entanglement is E_f(psi0) - E_f(rho_psi0(t)), rho_psi0(t) the
    channel applied to |psi0><psi0| (the mixture of that ensemble).
    """
    values = _grid_values(cfg)
    rho0 = cfg.initial_density()

    def states(rho):  # validated once, as a stack
        return DensityOperator(np.stack([evolve(rho, v) for v in values]), (2, 2))

    columns = _two_qubit_columns(states(rho0))
    if any(m in cfg.measures for m in ("hidden-entanglement", "average-entanglement")):
        psi0 = cfg.initial_pure_vector()
        e0 = eof_from_concurrence(concurrence_pure(psi0))
        pure0 = np.outer(psi0, psi0.conj())
        # a Bell input is its own projector, so rho(t) serves both columns
        if np.array_equal(pure0, rho0.matrix):
            eof_pure = columns["eof"][0]
        else:
            eof_pure = _two_qubit_columns(states(DensityOperator(pure0, (2, 2))))["eof"][0]
        columns["hidden-entanglement"] = [e0 - eof_pure]
        columns["average-entanglement"] = [np.full(values.size, e0)]
    return _rows(cfg, values, columns)


def _run_field_like(cfg: ScenarioConfig, threads: int) -> np.ndarray:
    p = RandomFieldParams(rabi=cfg.param("rabi"), width=cfg.param("width", 0.0))

    def evolve(rho, v):
        if p.width == 0.0:
            return RandomUnitaryChannel.two_phase(p.rabi, v / p.rabi).apply_matrix(rho.matrix)
        return gaussian_averaged_map(rho, p, v / p.rabi, cfg.quadrature_order).matrix

    return _quadrature_rows(cfg, evolve)


def _run_static(cfg: ScenarioConfig, threads: int) -> np.ndarray:
    sigma = cfg.param("sigma")
    echo = cfg.param("echo-time")
    p = StaticNoiseParams(sigma=sigma, echo_time=None if echo is None else echo / sigma)

    def evolve(rho, v):
        t = v / sigma
        _, echoed = _echo_effective_duration(p, t)
        return apply_b_dephasing(rho.matrix, static_dephasing_factor(p, t, cfg.quadrature_order), echoed)

    return _quadrature_rows(cfg, evolve)


def _run_ou(cfg: ScenarioConfig, threads: int) -> np.ndarray:
    sigma = cfg.param("sigma")
    echo = cfg.param("echo-time")
    p = StaticNoiseParams(
        sigma=sigma,
        echo_time=None if echo is None else echo / sigma,
        correlation_time=cfg.param("correlation-time") / sigma,
    )
    values = _grid_values(cfg)
    times = values / sigma
    est = ou_dephasing_factors(p, times, cfg.trajectories, cfg.seed, threads)
    echoed = p.echo_time is not None and times > p.echo_time
    rho = dephased_state(cfg.initial_density(), est.factors, echoed)
    return _rows(cfg, values, _two_qubit_columns(rho, est.se_abs))


def _run_rtn(cfg: ScenarioConfig, threads: int) -> np.ndarray:
    rate = cfg.param("rate")
    coupling = cfg.param("coupling")
    if coupling is None:
        coupling = cfg.param("g") * rate
    p = RTNParams(rate=rate, coupling=coupling)
    values = _grid_values(cfg)
    rho = rtn_evolved_state(cfg.initial_ewl, p, values / rate)
    return _rows(cfg, values, _two_qubit_columns(rho))


def _run_stroboscopic(cfg: ScenarioConfig, threads: int) -> np.ndarray:
    p = StroboscopicParams(
        phase_sigma=cfg.param("phase-sigma"),
        autocorrelation=cfg.param("autocorrelation"),
        sequences=cfg.trajectories,
        seed=cfg.seed,
        echo_after_step=None if cfg.param("echo-after-step") is None else int(cfg.param("echo-after-step")),
    )
    est = stroboscopic_coherences(p, threads)
    values = _grid_values(cfg)
    steps = np.rint(values).astype(int)
    # step 0 is the undephased input: factor 1, standard error 0
    factors = np.concatenate([[1.0 + 0.0j], est.factors])[steps]
    se_c = np.concatenate([[0.0], est.se_abs])[steps]
    echoed = p.echo_after_step is not None and steps > p.echo_after_step
    rho = dephased_state(cfg.initial_density(), factors, echoed)
    return _rows(cfg, values, _two_qubit_columns(rho, se_c))


def _run_flows(cfg: ScenarioConfig, threads: int) -> np.ndarray:
    p = RandomFieldParams(rabi=cfg.param("rabi"), width=cfg.param("width", 0.0))
    values = _grid_values(cfg)
    conc, dec = flow_measures(cfg.initial_density(), p, values / p.rabi, cfg.quadrature_order)
    columns = {
        "concurrence": [conc],
        "eof": [_eof(conc)],
        "tripartite": [dec.tripartite],
        "info-decomposition": [dec.total, dec.local, dec.tripartite, dec.bipartite_max, dec.residual],
    }
    return _rows(cfg, values, columns)


_RUNNERS = {
    "random-field": _run_field_like,
    "random-field-gaussian": _run_field_like,
    "static-noise": _run_static,
    "ou-noise": _run_ou,
    "rtn": _run_rtn,
    "stroboscopic": _run_stroboscopic,
    "tripartite-flows": _run_flows,
}


def run_scenario(cfg: ScenarioConfig, threads: int = 1, sweep_info=None) -> ScenarioResult:
    """Execute a scenario; identical (cfg, seed) pairs produce byte-identical
    CSV irrespective of ``threads``."""
    columns = _columns_for(cfg)
    rows = _RUNNERS[cfg.model](cfg, max(1, int(threads)))
    return ScenarioResult(metadata=_metadata(cfg, columns, sweep_info), columns=columns, rows=rows)


def sweepable_parameters(model: str) -> tuple[str, ...]:
    return tuple(sorted(_MODEL_KEYS[model]))


def sweep(cfg: ScenarioConfig, parameter: str, values, threads: int = 1):
    """Run the scenario once per parameter value; returns [(value, result), ...].

    ``parameter`` must name a numeric key of the model's parameter section
    (for 'rtn', 'g' and 'coupling' displace each other).
    """
    if parameter not in _MODEL_KEYS[cfg.model]:
        raise ConfigError(
            f"unknown sweep parameter {parameter!r} for model {cfg.model!r}; "
            f"expected one of {sweepable_parameters(cfg.model)}"
        )
    out = []
    for value in values:
        params = dict(cfg.model_params)
        params[parameter] = float(value)
        if cfg.model == "rtn":
            if parameter == "g":
                params.pop("coupling", None)
            elif parameter == "coupling":
                params.pop("g", None)
        new_cfg = dataclasses.replace(cfg, model_params=tuple(sorted(params.items())))
        _validate_semantics(new_cfg)
        out.append((float(value), run_scenario(new_cfg, threads, sweep_info=(parameter, float(value)))))
    return out
