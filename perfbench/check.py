"""Output checker: golden comparison, closed-form oracles and range checks.

Rules (ROADMAP north star, sections 1 and 3):

* deterministic scenarios: every data value within 1e-12 of the golden CSV;
* Monte-Carlo scenarios: byte-identical to the golden CSV at the golden seed,
  and at any seed within six standard deviations of a closed form that this
  file carries itself (the library has no such oracles yet);
* every value finite, every concurrence and entanglement of formation in
  [0, 1], every standard error nonnegative.

The closed forms are written out here rather than imported, so a defect in
the library cannot hide itself.
"""
from __future__ import annotations

import gzip
import hashlib
import json
import math
from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_SEED = 1
DET_TOL = 1e-12
Z_MAX = 6.0


def parse_csv(text: str):
    """Split a scenario CSV into (metadata dict, columns, rows array)."""
    meta, body = {}, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        elif line:
            body.append(line)
    if not body:
        raise ValueError("no header row")
    columns = body[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in body[1:]], dtype=float)
    if rows.ndim != 2 or rows.shape[1] != len(columns):
        raise ValueError(f"expected {len(columns)} columns per row")
    return meta, columns, rows


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def eof(c):
    c = np.clip(np.asarray(c, dtype=float), 0.0, 1.0)
    x = (1.0 + np.sqrt(1.0 - c * c)) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x)
    return np.where((x <= 0.0) | (x >= 1.0), 0.0, h)


def static_echo_coherence(v, echo):
    """exp(-u^2/2), u the echo-refocused duration; times in sigma*t units."""
    u = np.where(v > echo, 2.0 * echo - v, v)
    return np.exp(-0.5 * u * u)


def _ou_free_variance(t, tau):
    return 2.0 * tau * (t - tau * (1.0 - np.exp(-t / tau)))


def ou_echo_coherence(v, echo, tau):
    """exp(-Var/2) for Ornstein-Uhlenbeck phases with a sign flip at ``echo``.

    All times in sigma*t units. After the pulse, the phase is A - B with A
    the integral up to the pulse and B the rest: Var = F(tbar) + F(t - tbar)
    - 2 tau^2 (1 - e^{-tbar/tau})(1 - e^{-(t-tbar)/tau}).
    """
    v = np.asarray(v, dtype=float)
    after = np.maximum(v - echo, 0.0)
    before = np.minimum(v, echo)
    cov = tau * tau * (1.0 - np.exp(-before / tau)) * (1.0 - np.exp(-after / tau))
    var = _ou_free_variance(before, tau) + _ou_free_variance(after, tau) - 2.0 * cov
    return np.exp(-0.5 * var)


def ar1_coherence(step, phase_sigma, mu, echo_after):
    """exp(-Var/2) of the accumulated stationary AR(1) phase after ``step`` steps."""
    out = []
    for k in np.asarray(step, dtype=float).round().astype(int):
        signs = np.array([1.0 if j < echo_after else -1.0 for j in range(k)])
        lags = np.abs(np.subtract.outer(np.arange(k), np.arange(k)))
        var = phase_sigma**2 * float(signs @ (float(mu) ** lags) @ signs) if k else 0.0
        out.append(math.exp(-0.5 * var))
    return np.array(out)


def rtn_coherence(t, rate, coupling):
    """Telegraph-noise coherence, in the overflow-free form below the crossover."""
    t = np.asarray(t, dtype=float)
    if np.isclose(coupling, rate, rtol=1e-12, atol=0.0):
        return np.exp(-rate * t) * (1.0 + rate * t)
    if coupling < rate:
        d = math.sqrt(rate * rate - coupling * coupling)
        return 0.5 * (1.0 + rate / d) * np.exp(-(rate - d) * t) + 0.5 * (1.0 - rate / d) * np.exp(
            -(rate + d) * t
        )
    mu = math.sqrt(coupling * coupling - rate * rate)
    return np.exp(-rate * t) * (np.cos(mu * t) + (rate / mu) * np.sin(mu * t))


def _mc_tol(exact, n):
    return Z_MAX * np.sqrt(np.maximum(0.0, 1.0 - exact**2) / n) + 1e-12


def _oracle_errors(sc, cols, rows):
    p = sc.params
    col = {name: rows[:, j] for j, name in enumerate(cols)}
    x = col[cols[0]]
    errors = []

    def expect(name, got, want, tol):
        bad = np.abs(got - want) > tol
        if np.any(bad):
            i = int(np.argmax(bad))
            errors.append(f"{name} at {cols[0]}={x[i]!r}: {got[i]!r} vs closed form {want[i]!r}")

    if sc.oracle in ("bell-ensemble", "static-echo"):
        # Average entanglement of any local-unitary ensemble of a Bell state is 1.
        expect("average_entanglement", col["average_entanglement"], 1.0, 1e-9)
        expect("hidden_entanglement", col["hidden_entanglement"],
               col["average_entanglement"] - col["eof"], 1e-9)
    if sc.oracle == "static-echo":
        want = static_echo_coherence(x, p["echo-time"])
        expect("concurrence", col["concurrence"], want, 1e-8)
    elif sc.oracle == "ou-echo":
        want = ou_echo_coherence(x, p["echo-time"], p["correlation-time"])
        expect("concurrence", col["concurrence"], want, _mc_tol(want, p["n"]))
    elif sc.oracle == "ar1":
        want = ar1_coherence(x, p["phase-sigma"], p["autocorrelation"], p["echo-after-step"])
        expect("concurrence", col["concurrence"], want, _mc_tol(want, p["n"]))
    elif sc.oracle == "rtn-coherence":
        want = rtn_coherence(x, p["rate"], p["coupling"])
        expect("coherence", col["coherence"], want, _mc_tol(want, p["n"]))
    elif sc.oracle == "rtn-ewl":
        q = np.abs(rtn_coherence(x / p["rate"], p["rate"], p["g"] * p["rate"]))
        b = math.sqrt(max(0.0, 1.0 - p["a"] ** 2))
        want = np.maximum(0.0, 2.0 * (p["r"] * abs(p["a"]) * b * q - (1.0 - p["r"]) / 4.0))
        expect("concurrence", col["concurrence"], want, 1e-9)
    return errors


def _range_errors(cols, rows):
    errors = []
    if not np.all(np.isfinite(rows)):
        errors.append("non-finite value")
    for j, name in enumerate(cols):
        v = rows[:, j]
        if name in ("concurrence", "eof") and np.any((v < 0.0) | (v > 1.0)):
            errors.append(f"{name} outside [0, 1]")
        if name.endswith("_stderr") and np.any(v < 0.0):
            errors.append(f"{name} negative")
    if "concurrence" in cols and "eof" in cols:
        c, e = rows[:, cols.index("concurrence")], rows[:, cols.index("eof")]
        if np.any(np.abs(e - eof(c)) > 1e-9):
            errors.append("eof inconsistent with concurrence")
    return errors


def check_text(sc, text: str, golden: dict | None, seed: int) -> list[str]:
    """Every rule ``text`` breaks, as messages; an empty list means it passed."""
    try:
        _, cols, rows = parse_csv(text)
    except ValueError as exc:
        return [f"unreadable CSV: {exc}"]
    errors = _range_errors(cols, rows) + _oracle_errors(sc, cols, rows)
    ref = None if golden is None else golden["scenarios"].get(sc.name)
    if ref is None:
        errors.append("no golden record")
    elif sc.kind == "det":
        g_rows = np.array(ref["rows"], dtype=float)
        if ref["columns"] != cols or g_rows.shape != rows.shape:
            errors.append("columns or row count differ from golden")
        elif np.any(np.abs(rows - g_rows) > DET_TOL):
            errors.append(f"deviates from golden by {np.max(np.abs(rows - g_rows)):.3e}")
    elif seed == golden["seed"] and hashlib.sha256(text.encode()).hexdigest() != ref["sha256"]:
        errors.append("not byte-identical to golden at the golden seed")
    return errors


def perturb(sc, text: str) -> str:
    """A copy of ``text`` with one value moved: by 1e-9 in a deterministic
    output (caught by the golden rows), by 0.5 in a Monte-Carlo one (caught
    by the range check or the oracle)."""
    lines = text.splitlines(keepends=True)
    data = [i for i, line in enumerate(lines) if line and not line.startswith("#")][1:]
    i = data[len(data) // 2]
    fields = lines[i].rstrip("\n").split(",")
    fields[1] = repr(float(fields[1]) + (1e-9 if sc.kind == "det" else 0.5))
    lines[i] = ",".join(fields) + "\n"
    return "".join(lines)


def golden_path(workload: str, scale: str) -> Path:
    return GOLDEN_DIR / f"{scale}-{workload}.json.gz"


def load_golden(workload: str, scale: str) -> dict | None:
    path = golden_path(workload, scale)
    if not path.exists():
        return None
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def record_golden(workload, scale: str, seed: int, out_dir: Path):
    """Write the golden record of one iteration's outputs: rows for
    deterministic scenarios, the SHA-256 of the bytes for Monte-Carlo ones."""
    scenarios = {}
    for sc in workload.scenarios:
        text = (out_dir / sc.path).read_text(encoding="utf-8")
        if sc.kind == "det":
            _, cols, rows = parse_csv(text)
            scenarios[sc.name] = {"columns": cols, "rows": rows.tolist()}
        else:
            scenarios[sc.name] = {"sha256": hashlib.sha256(text.encode()).hexdigest()}
    record = {"workload": workload.name, "scale": scale, "seed": seed, "scenarios": scenarios}
    GOLDEN_DIR.mkdir(exist_ok=True)
    with gzip.GzipFile(golden_path(workload.name, scale), "wb", mtime=0) as fh:
        fh.write(json.dumps(record, sort_keys=True).encode("utf-8"))
