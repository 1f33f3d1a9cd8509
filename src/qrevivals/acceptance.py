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
from .measures import average_entanglement, concurrence, eof_from_concurrence, hidden_entanglement
from .noise import (
    RTNParams,
    RandomFieldParams,
    StaticNoiseParams,
    StroboscopicParams,
    apply_b_dephasing,
    dephased_state,
    gaussian_averaged_map,
    ou_dephasing_factors,
    ou_phase_variance,
    random_field_ensemble,
    random_field_map,
    rtn_coherence,
    rtn_concurrence,
    rtn_mc_coherence_grid,
    static_dephasing_factor,
    static_noise_state,
    stroboscopic_coherences,
)
from .scenarios import parse_config_text, run_scenario
from .states import EWLParams, XYZParams, bell_state, xyz_state
from .tripartite import find_local_extrema, flow_timeseries

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


def _fig2_state() -> DensityOperator:
    return xyz_state(XYZParams(1.0, 0.9, 1.0))


def criterion_1(threads: int = 1) -> CriterionResult:
    """Periodic random-field dynamics: exact revival values and 2pi periodicity."""
    t0 = _time.perf_counter()
    p = RandomFieldParams(rabi=1.0)
    rho0 = _fig2_state()
    c0 = concurrence(random_field_map(rho0, p, 0.0))
    c_half = concurrence(random_field_map(rho0, p, np.pi / 2))
    c_pi = concurrence(random_field_map(rho0, p, np.pi))
    sample = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    period_dev = max(
        np.max(np.abs(random_field_map(rho0, p, t).matrix - random_field_map(rho0, p, t + 2 * np.pi).matrix))
        for t in sample
    )
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
    worst = 0.0
    cs = np.empty(grid.size)
    for j, t in enumerate(grid):
        evolved = gaussian_averaged_map(rho0, p, t)
        # independent oracle: Gaussian characteristic function exp(i w t - s^2 t^2)
        oracle = sym + np.exp(-(p.width * t) ** 2) * np.cos(p.rabi * t) * anti
        worst = max(worst, float(np.max(np.abs(evolved.matrix - oracle))))
        cs[j] = concurrence(evolved)
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
    grid = np.linspace(0.0, 8.0, 201)
    p_free = StaticNoiseParams(sigma=sigma)
    p_echo = StaticNoiseParams(sigma=sigma, echo_time=tbar)
    worst_free = worst_echo = 0.0
    worst_eav = 0.0
    for t in grid:
        rho_f, _ = static_noise_state("2+", p_free, t)
        worst_free = max(worst_free, abs(concurrence(rho_f) - np.exp(-0.5 * (sigma * t) ** 2)))
        rho_e, ens = static_noise_state("2+", p_echo, t)
        target = np.exp(-0.5 * (sigma * t) ** 2) if t <= tbar else np.exp(-0.5 * (sigma * (t - 2 * tbar)) ** 2)
        worst_echo = max(worst_echo, abs(concurrence(rho_e) - target))
        worst_eav = max(worst_eav, abs(average_entanglement(ens) - 1.0))
    rho_end, _ = static_noise_state("2+", p_echo, 2 * tbar)
    ef_end = eof_from_concurrence(concurrence(rho_end))
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
    The Monte-Carlo coherence must match exp(-Var/2) within 3 standard errors
    at each sigma*tau, and at sigma*tau = 1000 E_f(2 tbar) must match E_f of
    that exact coherence (~0.9403) within 3 propagated standard errors.
    """
    t0 = _time.perf_counter()
    sigma, tbar, n_traj = 1.0, 4.0, 10_000
    efs, ses, z_scores = [], [], []
    for stau in (10.0, 100.0, 1000.0):
        p = StaticNoiseParams(sigma=sigma, echo_time=tbar, correlation_time=stau / sigma)
        est = ou_dephasing_factors(p, [2 * tbar], n_traj, DEFAULT_SEED, threads)
        c = abs(est.factors[0])
        se_c = float(est.se_abs[0])
        var = ou_phase_variance(p, 2 * tbar)
        c_exact = float(np.exp(-0.5 * var))
        z_scores.append(abs(c - c_exact) / se_c)
        efs.append(eof_from_concurrence(min(1.0, c)))
        hi = eof_from_concurrence(min(1.0, c + se_c))
        lo = eof_from_concurrence(max(0.0, c - se_c))
        ses.append(0.5 * (hi - lo))
    monotone = efs[0] < efs[1] < efs[2]
    # p, var and c_exact now belong to the last pass, sigma*tau = 1000
    ef_exact = eof_from_concurrence(c_exact)
    leading = 4.0 * sigma**2 * tbar**3 / (3.0 * p.correlation_time)
    dev = abs(efs[2] - ef_exact)
    checks = [
        (monotone, f"E_f(2tbar) increases with tau: {np.round(efs, 6).tolist()}"),
        (
            max(z_scores) <= 3.0,
            f"|C(2tbar)| vs exact exp(-Var/2): |dC|/SE = {np.round(z_scores, 2).tolist()} (<=3)",
        ),
        (
            dev <= 3.0 * ses[2],
            f"E_f(2tbar)|stau=1000 = {efs[2]:.6f} vs exact limit {ef_exact:.6f} "
            f"(residual variance {var:.4f}, leading order 4s^2tbar^3/(3tau) = {leading:.4f}): "
            f"|dE_f| = {dev:.4f} vs 3*SE = {3 * ses[2]:.4f}",
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
    records = flow_timeseries(rho0, RandomFieldParams(rabi=1.0), grid)
    local = max(abs(r.decomposition.local) for r in records)
    totals = np.array([r.decomposition.total for r in records])
    const_dev = float(np.max(np.abs(totals - totals[0])))
    residual = max(abs(r.decomposition.residual) for r in records)
    taus = np.array([r.tripartite for r in records])
    cs = np.array([r.concurrence for r in records])
    tau_max = find_local_extrema(taus, "max", plateau_tol=1e-12)
    c_min = find_local_extrema(cs, "min", plateau_tol=1e-12)
    paired = (
        len(tau_max) > 0
        and len(c_min) > 0
        and all(min(abs(i - j) for j in c_min) <= 1 for i in tau_max)
        and all(min(abs(i - j) for j in tau_max) <= 1 for i in c_min)
    )
    grid_w = np.linspace(0.0, 4 * np.pi, 1024)
    records_w = flow_timeseries(rho0, RandomFieldParams(rabi=1.0, width=0.1), grid_w)
    totals_w = np.array([r.decomposition.total for r in records_w])
    peak_idx = [int(np.argmin(np.abs(grid_w - k * np.pi))) for k in range(5)]
    peaks_total = totals_w[peak_idx]
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
    pulse; full recovery at step 4 with the pulse."""
    t0 = _time.perf_counter()
    psi0 = bell_state("1-")
    rho0 = DensityOperator(np.outer(psi0, psi0.conj()), (2, 2))
    common = dict(phase_sigma=0.6, autocorrelation=1.0, sequences=10_000, seed=DEFAULT_SEED)
    est_free = stroboscopic_coherences(StroboscopicParams(**common), threads)
    efs_free = [
        eof_from_concurrence(concurrence(dephased_state(rho0, est_free.factors[k])))
        for k in range(4)
    ]
    decreasing = all(a > b for a, b in zip(efs_free, efs_free[1:]))
    est_echo = stroboscopic_coherences(StroboscopicParams(**common, echo_after_step=2), threads)
    c4 = concurrence(dephased_state(rho0, est_echo.factors[3], echoed=True))
    se4 = float(est_echo.se_abs[3])
    ef4 = eof_from_concurrence(min(1.0, c4))
    hi = eof_from_concurrence(min(1.0, c4 + se4))
    lo = eof_from_concurrence(max(0.0, c4 - se4))
    se_ef4 = 0.5 * (hi - lo)
    checks = [
        (decreasing, f"no-pulse E_f strictly decreasing: {np.round(efs_free, 6).tolist()}"),
        (ef4 >= 0.95, f"pulsed E_f(step 4) = {ef4:.9f} (>=0.95)"),
        (abs(ef4 - 1.0) <= max(3.0 * se_ef4, 1e-12), f"|E_f(step4)-1| = {abs(ef4 - 1):.3e} vs 3*SE = {3 * se_ef4:.3e}"),
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
    ou_factor = ou_dephasing_factors(p_ou, [1.4], 2000, DEFAULT_SEED, threads).factors[0]
    strobo = stroboscopic_coherences(
        StroboscopicParams(phase_sigma=0.7, autocorrelation=0.4, sequences=4096, seed=DEFAULT_SEED, echo_after_step=2)
    )
    static_factor = static_dephasing_factor(StaticNoiseParams(1.0, echo_time=0.8), 1.7)
    rtn_factor = rtn_coherence(RTNParams(1.0, 2.0), 1.2)
    # channel name -> matrix-level map on arbitrary two-qubit inputs
    channels = {
        "random-field": lambda m: random_field_map(DensityOperator(m, (2, 2)), RandomFieldParams(1.0), 1.3).matrix,
        "gaussian-field": lambda m: gaussian_averaged_map(
            DensityOperator(m, (2, 2)), RandomFieldParams(1.0, 0.1), 1.3
        ).matrix,
        "static-dephasing": lambda m: apply_b_dephasing(m, static_factor, True),
        "ou-dephasing": lambda m: apply_b_dephasing(m, ou_factor, True),
        "rtn-dephasing": lambda m: apply_b_dephasing(m, rtn_factor, False),
        "stroboscopic": lambda m: apply_b_dephasing(m, strobo.factors[2], True),
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
seed = 97531
trajectories = 4096

[initial-state]
kind = bell
label = 2+

[ou-noise]
sigma = 1.0
echo-time = 4.0
correlation-time = 50.0
"""


def criterion_10(threads: int = 1) -> CriterionResult:
    """Determinism: identical seeds give byte-identical CSV, independent of the
    thread count."""
    t0 = _time.perf_counter()
    cfg = parse_config_text(_DETERMINISM_CONFIG)
    csv_a = run_scenario(cfg, threads=1).to_csv()
    csv_b = run_scenario(cfg, threads=1).to_csv()
    csv_c = run_scenario(cfg, threads=8).to_csv()
    checks = [
        (csv_a == csv_b, "re-run with identical seed is byte-identical"),
        (csv_a == csv_c, "thread counts 1 and 8 give byte-identical output"),
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
