"""Acceptance suite: one callable per criterion, each printing PASS/FAIL.

Every check is deterministic (fixed seeds) and pinned to its stated
tolerance. ``run_all`` drives the CLI ``selftest`` subcommand; the pytest
acceptance module asserts the same results.
"""
from __future__ import annotations

import time as _time
from dataclasses import dataclass

import numpy as np

from .linalg import DensityOperator
from .measures import average_entanglement, concurrence, eof_from_concurrence, eof_stderr, hidden_entanglement
from .noise import (
    RTNParams,
    RandomFieldParams,
    StaticNoiseParams,
    StroboscopicParams,
    apply_b_dephasing,
    dephased_state,
    field_channel,
    ou_mc_dephasing_factors,
    ou_phase_variance,
    random_field_ensemble,
    rtn_coherence,
    rtn_concurrence,
    rtn_mc_coherence_grid,
    static_noise_ensemble,
    stroboscopic_mc_dephasing_factors,
    stroboscopic_phase_variance,
)
from .scenarios import parse_config_text, run_scenario
from .states import EWLParams, XYZParams, bell_state, xyz_state
from .tripartite import flow_measures

DEFAULT_SEED = 20240817


@dataclass
class CriterionResult:
    name: str
    passed: bool
    details: str
    seconds: float


def _result(name, checks, t0) -> CriterionResult:
    """checks: list of (ok, message)."""
    passed = all(ok for ok, _ in checks)
    details = "; ".join(msg for _, msg in checks)
    return CriterionResult(name, passed, details, _time.perf_counter() - t0)


# consecutive values of a series equal within this form one plateau
_PLATEAU_TOL = 1e-12


def find_local_extrema(values, kind: str = "max", include_edges: bool = False) -> list[int]:
    """Indices of local maxima or minima of a sampled series.

    Runs of consecutive values equal within _PLATEAU_TOL are collapsed to a
    single candidate at the run midpoint (dark periods of exactly zero
    concurrence form such plateaus). Edge runs count only when
    ``include_edges`` is set.
    """
    if kind not in ("max", "min"):
        raise ValueError("kind must be 'max' or 'min'")
    y = np.asarray(values, dtype=float).reshape(-1)
    if y.size < 3:
        return []
    runs = []  # (start, end) inclusive
    start = 0
    for i in range(1, y.size):
        if abs(y[i] - y[start]) > _PLATEAU_TOL:
            runs.append((start, i - 1))
            start = i
    runs.append((start, y.size - 1))
    sign = 1.0 if kind == "max" else -1.0
    out = []
    for r, (a, b) in enumerate(runs):
        left_ok = r > 0 and sign * (y[a] - y[runs[r - 1][1]]) > 0
        right_ok = r < len(runs) - 1 and sign * (y[b] - y[runs[r + 1][0]]) > 0
        if (left_ok and right_ok) or (include_edges and (left_ok or right_ok) and (a == 0 or b == y.size - 1)):
            out.append((a + b) // 2)
    return out


def _fig2_state() -> DensityOperator:
    return xyz_state(XYZParams(1.0, 0.9, 1.0))


def criterion_1(threads: int = 1) -> CriterionResult:
    """Periodic random-field dynamics: exact revival values and 2pi periodicity."""
    t0 = _time.perf_counter()
    p = RandomFieldParams(rabi=1.0)
    rho0 = _fig2_state()
    c0, c_half, c_pi = concurrence(field_channel(rho0, p, [0.0, np.pi / 2, np.pi]))
    sample = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    shifted = field_channel(rho0, p, sample + 2 * np.pi)
    period_dev = np.max(np.abs(field_channel(rho0, p, sample).matrix - shifted.matrix))
    checks = [
        (abs(c0 - 0.8) <= 1e-9, f"C(0)={c0:.12f} (target 0.8 +-1e-9)"),
        (abs(c_pi - 0.8) <= 1e-9, f"C(pi)={c_pi:.12f} (target 0.8 +-1e-9)"),
        (abs(c_half) <= 1e-9, f"C(pi/2)={c_half:.3e} (target 0 +-1e-9)"),
        (period_dev <= 1e-10, f"statewise 2pi-period deviation {period_dev:.3e} (<=1e-10)"),
    ]
    return _result("1 random-field periodic dynamics", checks, t0)


def criterion_2(threads: int = 1) -> CriterionResult:
    """Rabi-broadened field: the averaged map matches the characteristic-function
    oracle entrywise, and revival maxima decay strictly."""
    t0 = _time.perf_counter()
    p = RandomFieldParams(rabi=1.0, width=0.1)
    rho0 = _fig2_state()
    x4 = np.kron(np.eye(2), np.array([[0, 1], [1, 0]], dtype=complex))
    sym = 0.5 * (rho0.matrix + x4 @ rho0.matrix @ x4)
    anti = 0.5 * (rho0.matrix - x4 @ rho0.matrix @ x4)
    grid = np.linspace(0.0, 8 * np.pi, 1024)
    evolved = field_channel(rho0, p, grid)
    # independent oracle: Gaussian characteristic function exp(i w t - s^2 t^2)
    oracle = sym + np.multiply.outer(np.exp(-(p.width * grid) ** 2) * np.cos(p.rabi * grid), anti)
    worst = float(np.max(np.abs(evolved.matrix - oracle)))
    cs = concurrence(evolved)
    peaks = [i for i in find_local_extrema(cs, "max", include_edges=True) if cs[i] > 1e-6]
    peak_vals = cs[peaks]
    decreasing = bool(np.all(np.diff(peak_vals) < 0.0)) and len(peak_vals) >= 3
    checks = [
        (worst <= 1e-8, f"max entrywise map-vs-oracle deviation {worst:.3e} (<=1e-8)"),
        (decreasing, f"revival maxima strictly decreasing: {np.round(peak_vals, 6).tolist()}"),
    ]
    return _result("2 random-field decoherent dynamics", checks, t0)


def criterion_3(threads: int = 1) -> CriterionResult:
    """Static-noise echo: closed-form concurrence, full recovery at 2*tbar,
    unit average entanglement throughout."""
    t0 = _time.perf_counter()
    sigma, tbar = 1.0, 4.0
    grid = np.linspace(0.0, 2 * tbar, 201)
    p_free = StaticNoiseParams(sigma=sigma)
    p_echo = StaticNoiseParams(sigma=sigma, echo_time=tbar)
    psi0 = bell_state("2+")
    rho0 = DensityOperator(np.outer(psi0, psi0.conj()), (2, 2))
    c_free = concurrence(dephased_state(rho0, np.exp(-0.5 * ou_phase_variance(p_free, grid))))
    worst_free = np.max(np.abs(c_free - np.exp(-0.5 * (sigma * grid) ** 2)))
    c_echo = concurrence(dephased_state(rho0, np.exp(-0.5 * ou_phase_variance(p_echo, grid)), grid > tbar))
    target = np.exp(-0.5 * (sigma * np.where(grid <= tbar, grid, grid - 2 * tbar)) ** 2)
    worst_echo = np.max(np.abs(c_echo - target))
    worst_eav = max(abs(average_entanglement(static_noise_ensemble(psi0, p_echo, t)) - 1.0) for t in grid)
    ef_end = eof_from_concurrence(c_echo[-1])  # the grid ends at 2 tbar
    checks = [
        (worst_free <= 1e-6, f"no-echo concurrence vs exp(-s^2t^2/2): max dev {worst_free:.3e} (<=1e-6)"),
        (worst_echo <= 1e-6, f"echo concurrence vs closed form: max dev {worst_echo:.3e} (<=1e-6)"),
        (abs(ef_end - 1.0) <= 1e-6, f"E_f(2*tbar)={ef_end:.9f} (target 1 +-1e-6)"),
        (worst_eav <= 1e-9, f"average entanglement dev {worst_eav:.3e} (<=1e-9)"),
    ]
    return _result("3 static-noise echo", checks, t0)


def criterion_4(threads: int = 1) -> CriterionResult:
    """Finite-correlation-time extension: post-echo recovery grows with the
    correlation time and approaches the exact Ornstein-Uhlenbeck limit.

    The echo leaves a residual phase variance (ou_phase_variance, to leading
    order 4 sigma^2 tbar^3 / (3 tau)), so |f(2 tbar)| = exp(-Var/2) < 1 at every
    finite tau; full recovery is the static (tau = inf) limit of criterion 3.
    The closed form is what the CLI runs. The path oracle (Gillespie's exact
    OU update) must match it within 3 standard errors at each sigma*tau, and
    at sigma*tau = 1000 its E_f(2 tbar) must match E_f of the exact coherence
    (~0.9403) within 3 propagated standard errors.
    """
    t0 = _time.perf_counter()
    sigma, tbar, n_traj = 1.0, 4.0, 10_000
    efs, z_scores = [], []
    for stau in (10.0, 100.0, 1000.0):
        p = StaticNoiseParams(sigma=sigma, echo_time=tbar, correlation_time=stau / sigma)
        var = ou_phase_variance(p, 2 * tbar)
        c_exact = float(np.exp(-0.5 * var))
        efs.append(eof_from_concurrence(c_exact))
        mean, se = ou_mc_dephasing_factors(p, [2 * tbar], n_traj, DEFAULT_SEED, threads)
        c_mc, se_c = float(mean[0]), float(se[0])
        z_scores.append(abs(c_mc - c_exact) / se_c)
    monotone = efs[0] < efs[1] < efs[2]
    # p, var, c_exact and the estimate now belong to the last pass, sigma*tau = 1000
    ef_mc = eof_from_concurrence(min(1.0, c_mc))
    se_ef = eof_stderr(c_mc, se_c)
    leading = 4.0 * sigma**2 * tbar**3 / (3.0 * p.correlation_time)
    dev = abs(ef_mc - efs[2])
    checks = [
        (monotone, f"E_f(2tbar) increases with tau: {np.round(efs, 6).tolist()}"),
        (
            max(z_scores) <= 3.0,
            f"path oracle C(2tbar) vs exact exp(-Var/2): |dC|/SE = {np.round(z_scores, 2).tolist()} (<=3)",
        ),
        (
            dev <= 3.0 * se_ef,
            f"E_f(2tbar)|stau=1000 = {efs[2]:.6f} exact, {ef_mc:.6f} path oracle "
            f"(residual variance {var:.4f}, leading order 4s^2tbar^3/(3tau) = {leading:.4f}): "
            f"|dE_f| = {dev:.4f} vs 3*SE = {3 * se_ef:.4f}",
        ),
    ]
    return _result("4 OU finite-correlation echo recovery", checks, t0)


def criterion_5(threads: int = 1) -> CriterionResult:
    """Telegraph noise: no revival below the crossover, revivals above it, and
    the closed-form coherence agrees with the Monte-Carlo oracle."""
    t0 = _time.perf_counter()
    ewl = EWLParams(r=0.91, a=1 / np.sqrt(2))
    grid_c = np.linspace(0.0, 10.0, 501)
    c_low = rtn_concurrence(ewl, RTNParams(rate=1.0, coupling=0.5), grid_c)
    monotone = bool(np.all(np.diff(c_low) <= 1e-12))
    c_high = rtn_concurrence(ewl, RTNParams(rate=1.0, coupling=5.0), grid_c)
    zero_idx = np.flatnonzero(c_high <= 1e-12)
    revived = zero_idx.size > 0 and bool(np.any(c_high[zero_idx[0]:] > 0.01))
    times = np.linspace(0.0, 10.0, 50)[1:]
    worst_z, worst_g = 0.0, None
    for g in (0.5, 1.1, 2.0, 5.0):
        p = RTNParams(rate=1.0, coupling=g)
        qa = rtn_coherence(p, times)
        qm, se = rtn_mc_coherence_grid(p, times, 100_000, DEFAULT_SEED, threads)
        z = float(np.max(np.abs(qa - qm) / se))
        if z > worst_z:
            worst_z, worst_g = z, g
    checks = [
        (monotone, "g=0.5 concurrence monotone nonincreasing on rate*t in [0,10]"),
        (revived, "g=5 shows a dark period followed by concurrence > 0.01"),
        (
            worst_z <= 3.0,
            f"analytic vs MC coherence: worst |dq|/se = {worst_z:.2f} at g={worst_g} (<=3)",
        ),
    ]
    return _result("5 random telegraph noise", checks, t0)


def criterion_6(threads: int = 1) -> CriterionResult:
    """Tripartite flows: zero local information, conserved total information,
    vanishing decomposition residual, tau/concurrence phase opposition; with
    Rabi broadening the total information decays across revival peaks."""
    t0 = _time.perf_counter()
    rho0 = _fig2_state()
    grid = np.linspace(0.0, 2 * np.pi, 512)
    cs, dec = flow_measures(rho0, RandomFieldParams(rabi=1.0), grid)
    local = np.max(np.abs(dec.local))
    const_dev = np.max(np.abs(dec.total - dec.total[0]))
    residual = np.max(np.abs(dec.residual))
    tau_max = find_local_extrema(dec.tripartite, "max")
    c_min = find_local_extrema(cs, "min")
    paired = (
        len(tau_max) > 0
        and len(c_min) > 0
        and all(min(abs(i - j) for j in c_min) <= 1 for i in tau_max)
        and all(min(abs(i - j) for j in tau_max) <= 1 for i in c_min)
    )
    grid_w = np.linspace(0.0, 4 * np.pi, 1024)
    _, dec_w = flow_measures(rho0, RandomFieldParams(rabi=1.0, width=0.1), grid_w)
    peak_idx = [int(np.argmin(np.abs(grid_w - k * np.pi))) for k in range(5)]
    peaks_total = dec_w.total[peak_idx]
    decaying = bool(np.all(np.diff(peaks_total) <= 1e-12))
    checks = [
        (local <= 1e-9, f"max |I_loc| = {local:.3e} (<=1e-9)"),
        (const_dev <= 1e-9, f"total information drift {const_dev:.3e} (<=1e-9)"),
        (residual <= 1e-8, f"max |decomposition residual| = {residual:.3e} (<=1e-8)"),
        (paired, f"tau maxima {tau_max} pair with concurrence minima {c_min} within one step"),
        (decaying, f"width=0.1: I at revival peaks nonincreasing: {np.round(peaks_total, 6).tolist()}"),
    ]
    return _result("6 tripartite information flows", checks, t0)


def criterion_7(threads: int = 1) -> CriterionResult:
    """Hidden entanglement under the random field for a Bell input."""
    t0 = _time.perf_counter()
    p = RandomFieldParams(rabi=1.0)
    psi0 = bell_state("2+")
    worst_eav = max(
        abs(average_entanglement(random_field_ensemble(psi0, p, t)) - 1.0)
        for t in np.linspace(0.0, 2 * np.pi, 101)
    )
    eh_half = hidden_entanglement(random_field_ensemble(psi0, p, np.pi / 2))
    eh_pi = hidden_entanglement(random_field_ensemble(psi0, p, np.pi))
    checks = [
        (worst_eav <= 1e-9, f"E_av deviation from 1: {worst_eav:.3e} (<=1e-9)"),
        (abs(eh_half - 1.0) <= 1e-6, f"E_h(pi/2)={eh_half:.9f} (target 1 +-1e-6)"),
        (abs(eh_pi) <= 1e-6, f"E_h(pi)={eh_pi:.3e} (target 0 +-1e-6)"),
    ]
    return _result("7 hidden entanglement", checks, t0)


def criterion_8(threads: int = 1) -> CriterionResult:
    """Stroboscopic channel, static phases (mu=1): monotone decay without the
    pulse; full recovery at step 4 with the pulse; the AR(1) recursion oracle
    matches the closed form within 3 standard errors at every step."""
    t0 = _time.perf_counter()
    psi0 = bell_state("1-")
    rho0 = DensityOperator(np.outer(psi0, psi0.conj()), (2, 2))
    steps = np.arange(1, 5)
    worst_z = 0.0
    efs = {}
    for echo in (None, 2):
        p = StroboscopicParams(phase_sigma=0.6, autocorrelation=1.0, echo_after_step=echo)
        exact = np.exp(-0.5 * stroboscopic_phase_variance(p, steps))
        echoed = steps > (4 if echo is None else echo)
        efs[echo] = eof_from_concurrence(concurrence(dephased_state(rho0, exact, echoed)))
        mean, se = stroboscopic_mc_dephasing_factors(p, 10_000, DEFAULT_SEED, threads)
        # a refocused step has SE 0 (every sequence carries the same zero phase): 1e-12 floors 3*SE
        z = np.abs(mean - exact) / np.maximum(se, 1e-12 / 3.0)
        worst_z = max(worst_z, float(np.max(z)))
    decreasing = bool(np.all(np.diff(efs[None]) < 0.0))
    ef4 = efs[2][3]
    checks = [
        (decreasing, f"no-pulse E_f strictly decreasing: {np.round(efs[None], 6).tolist()}"),
        (abs(ef4 - 1.0) <= 1e-12, f"pulsed E_f(step 4) = {ef4:.12f} (target 1 +-1e-12)"),
        (worst_z <= 3.0, f"AR(1) recursion oracle vs closed form: worst |dC|/max(SE, 1e-12/3) = {worst_z:.2f} (<=3)"),
    ]
    return _result("8 stroboscopic dephasing with pulse", checks, t0)


def _random_density(rng) -> DensityOperator:
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real, (2, 2))


def criterion_9(threads: int = 1) -> CriterionResult:
    """Channel property suite: trace preservation, positivity and unitality on
    a randomized 100-state corpus, for every implemented channel."""
    t0 = _time.perf_counter()
    rng = np.random.default_rng(DEFAULT_SEED)
    corpus = [_random_density(rng) for _ in range(100)]
    maximally_mixed = np.eye(4, dtype=complex) / 4.0

    p_ou = StaticNoiseParams(sigma=1.0, echo_time=0.9, correlation_time=5.0)
    ou_factor = np.exp(-0.5 * ou_phase_variance(p_ou, 1.4))
    p_strobo = StroboscopicParams(phase_sigma=0.7, autocorrelation=0.4, echo_after_step=2)
    strobo_factor = np.exp(-0.5 * stroboscopic_phase_variance(p_strobo, 3))
    static_factor = np.exp(-0.5 * ou_phase_variance(StaticNoiseParams(1.0, echo_time=0.8), 1.7))
    rtn_factor = rtn_coherence(RTNParams(1.0, 2.0), 1.2)
    # channel name -> matrix-level map on arbitrary two-qubit inputs
    channels = {
        "random-field": lambda m: field_channel(
            DensityOperator(m, (2, 2)), RandomFieldParams(1.0), [1.3]).matrix[0],
        "gaussian-field": lambda m: field_channel(
            DensityOperator(m, (2, 2)), RandomFieldParams(1.0, 0.1), [1.3]).matrix[0],
        "static-dephasing": lambda m: apply_b_dephasing(m, static_factor, True),
        "ou-dephasing": lambda m: apply_b_dephasing(m, ou_factor, True),
        "rtn-dephasing": lambda m: apply_b_dephasing(m, rtn_factor, False),
        "stroboscopic": lambda m: apply_b_dephasing(m, strobo_factor, True),
    }
    worst_trace = worst_eig = worst_unital = 0.0
    for chan in channels.values():
        for rho in corpus:
            out = chan(rho.matrix)
            worst_trace = max(worst_trace, abs(np.trace(out).real - 1.0), abs(np.trace(out).imag))
            worst_eig = max(worst_eig, -float(np.linalg.eigvalsh(out).min()))
        worst_unital = max(worst_unital, float(np.max(np.abs(chan(maximally_mixed) - maximally_mixed))))
    checks = [
        (worst_trace <= 1e-10, f"max trace deviation {worst_trace:.3e} (<=1e-10)"),
        (worst_eig <= 1e-9, f"most negative output eigenvalue {-worst_eig:.3e} (>=-1e-9)"),
        (worst_unital <= 1e-10, f"max unitality deviation {worst_unital:.3e} (<=1e-10)"),
    ]
    return _result("9 channel property suite", checks, t0)


_DETERMINISM_CONFIG = """
[scenario]
model = ou-noise
measures = concurrence, eof
time-start = 0.0
time-stop = 8.0
time-points = 17

[initial-state]
kind = bell
label = 2+

[ou-noise]
sigma = 1.0
echo-time = 4.0
correlation-time = 50.0
"""


def _oracle_outputs(threads: int) -> list[np.ndarray]:
    """The three Monte-Carlo oracles, each at a fixed seed; a partial last batch
    included."""
    times = np.linspace(0.0, 8.0, 17)
    rtn = rtn_mc_coherence_grid(RTNParams(rate=1.0, coupling=2.0), times, 10_001, DEFAULT_SEED, threads)
    ou = ou_mc_dephasing_factors(StaticNoiseParams(sigma=1.0, echo_time=4.0, correlation_time=50.0), times,
                                 4097, DEFAULT_SEED, threads)
    strobo = stroboscopic_mc_dephasing_factors(StroboscopicParams(phase_sigma=0.6, autocorrelation=0.5,
                                                                  echo_after_step=2), 8193, DEFAULT_SEED, threads)
    return [*rtn, *ou, *strobo]


def criterion_10(threads: int = 1) -> CriterionResult:
    """Determinism: a CLI re-run is byte-identical, and the Monte-Carlo oracles
    give bit-identical results at a fixed seed, independent of the thread
    count."""
    t0 = _time.perf_counter()
    cfg = parse_config_text(_DETERMINISM_CONFIG)
    csv_a = run_scenario(cfg).to_csv()
    csv_b = run_scenario(cfg).to_csv()
    one, again, eight = _oracle_outputs(1), _oracle_outputs(1), _oracle_outputs(8)

    def same(xs, ys):
        return all(x.tobytes() == y.tobytes() for x, y in zip(xs, ys))

    checks = [
        (csv_a == csv_b and same(one, again), "re-run is byte-identical (CLI and Monte-Carlo oracles)"),
        (same(one, eight), "oracle thread counts 1 and 8 give bit-identical output"),
    ]
    return _result("10 determinism", checks, t0)


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
)


def run_all(threads: int = 1, stream=None) -> list[CriterionResult]:
    """Run every criterion, printing one PASS/FAIL line per criterion."""
    results = []
    for crit in CRITERIA:
        res = crit(threads)
        results.append(res)
        if stream is not None:
            status = "PASS" if res.passed else "FAIL"
            stream.write(f"{status} criterion {res.name} [{res.seconds:.1f}s] :: {res.details}\n")
            stream.flush()
    return results
