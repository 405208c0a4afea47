"""Acceptance suite: every headline claim at its stated tolerance.

Each test prints one `ACCEPTANCE <n>: PASS/FAIL` line (run with `pytest -s`
to see them on success).  Criteria 4-6 share one set of full-scale driven
runs; criterion 7's scan runs at a reduced truncation where the dynamics is
converged far below the tolerances involved.
"""

import time

import numpy as np
import pytest

from usc_rabi import (
    ModelParams,
    analytic_transfer,
    build_h_full,
    build_h_jc,
    build_h_rabi,
    build_s,
    default_config,
    dressed_amplitude,
    embed_ground_state,
    ground_state,
    half_period,
    make_space,
    matrix_exponential,
    model_from_eigenbasis,
    model_from_polaron,
    propagate,
    resonance_frequency,
    solve_spectrum,
    solve_xi_eta,
)
from usc_rabi.config import build_config
from usc_rabi.dynamics import PropagationConfig
from usc_rabi.presets import run_fig2_sweep, run_resonance_scan


def _report(label: str, checks: list[tuple[bool, str]]):
    ok = all(flag for flag, _ in checks)
    detail = "; ".join(msg for _, msg in checks)
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} :: {detail}", flush=True)
    assert ok, detail


@pytest.fixture(scope="module")
def fig3_runs(base_params, spectrum, space3):
    """Full-scale driven runs at the reported parameters for Omega in {0.2, 0.4, 0.8}."""
    psi0, _ = ground_state(spectrum)
    initial = embed_ground_state(psi0)
    omega_p = resonance_frequency(base_params, spectrum.ground_energy)
    g_slow = model_from_eigenbasis(
        ModelParams(omega0=1.0, coupling=0.5, omega_f=3.0, drive_amp=0.2, drive_freq=omega_p),
        spectrum,
    ).coupling
    t_end = 1.15 * np.pi / g_slow
    runs = {}
    for om in (0.2, 0.4, 0.8):
        params = ModelParams(
            omega0=1.0, coupling=0.5, omega_f=3.0, drive_amp=om, drive_freq=omega_p
        )
        cfg = default_config(params, t_end=t_end)
        start = time.perf_counter()
        series = propagate(params, space3, cfg, initial)
        runs[om] = {
            "params": params,
            "series": series,
            "seconds": time.perf_counter() - start,
            "model": model_from_eigenbasis(params, spectrum),
        }
    return runs, omega_p


def _ripple(series, drive_freq: float) -> float:
    """Fast residual after smoothing over one drive period (interior only)."""
    dt_s = series.times[1] - series.times[0]
    w = max(3, int(round(2.0 * np.pi / drive_freq / dt_s)) | 1)
    smooth = np.convolve(series.p_f1, np.ones(w) / w, mode="same")
    return float(np.max(np.abs(series.p_f1 - smooth)[w:-w]))


def test_criterion_1_ground_energy(base_params, space2):
    start = time.perf_counter()
    spec = solve_spectrum(base_params, space2)
    elapsed = time.perf_counter() - start
    lam0 = spec.ground_energy
    _report("1", [
        (abs(lam0 - (-0.633)) <= 1e-3, f"lambda0 = {lam0:.6f} vs -0.633 +- 0.001"),
        (elapsed < 1.0, f"runtime {elapsed:.3f}s < 1s at n_max=40"),
    ])


def test_criterion_2_approximation_benchmark(base_params, spectrum):
    start = time.perf_counter()
    pol = solve_xi_eta(base_params)
    rel = abs(pol.e_approx - spectrum.ground_energy) / abs(spectrum.ground_energy)
    elapsed = time.perf_counter() - start
    _report("2", [
        (0.005 <= rel <= 0.008, f"relative energy error {100*rel:.3f}% in 0.65% +- 0.15%"),
        (elapsed < 1.0, f"runtime {elapsed:.3f}s < 1s"),
    ])


def test_criterion_3_amplitude_sweep(tmp_path):
    cfg = build_config("fig2-sweep", {"output_path": str(tmp_path / "fig2.csv")})
    start = time.perf_counter()
    result = run_fig2_sweep(cfg)
    elapsed = time.perf_counter() - start
    lam = np.array(result.columns["lambda"])
    exact = np.array(result.columns["c10_exact"])
    approx = np.array(result.columns["c10_approx"])
    nonzero = lam > 0
    rel = np.abs(exact[nonzero] - approx[nonzero]) / np.abs(exact[nonzero])
    lam_nz = lam[nonzero]
    low = rel[lam_nz <= 0.5]
    high = rel[(lam_nz > 0.6) & (lam_nz <= 0.8)]
    _report("3", [
        (low.max() < 0.05, f"max relative gap {100*low.max():.2f}% < 5% for lambda <= 0.5"),
        (high.max() > 0.05, f"gap reaches {100*high.max():.2f}% > 5% in (0.6, 0.8]"),
        (elapsed < 10.0, f"sweep runtime {elapsed:.2f}s < 10s"),
    ])


def test_criterion_4_driven_transfer(fig3_runs):
    runs, omega_p = fig3_runs
    checks = []
    for om in (0.2, 0.4):
        m = runs[om]["series"].p_f1.max()
        r = _ripple(runs[om]["series"], omega_p)
        checks.append((m > 0.95, f"Omega={om}: max P1f {m:.4f} > 0.95"))
        checks.append((r < 0.01, f"Omega={om}: smooth (ripple {r:.4f} < 0.01)"))
    m8 = runs[0.8]["series"].p_f1.max()
    r8 = _ripple(runs[0.8]["series"], omega_p)
    r2 = _ripple(runs[0.2]["series"], omega_p)
    r4 = _ripple(runs[0.4]["series"], omega_p)
    checks.append((0.85 <= m8 <= 0.95, f"Omega=0.8: max P1f {m8:.4f} in [0.85, 0.95]"))
    checks.append(
        (r8 > 2.0 * r4 and r8 > 4.0 * r2, f"Omega=0.8: fast ripple {r8:.4f} well above weak-drive runs")
    )
    for om in (0.2, 0.4, 0.8):
        sec = runs[om]["seconds"]
        checks.append((sec < 60.0, f"Omega={om}: run {sec:.1f}s < 60s"))
    _report("4", checks)


def test_criterion_5_effective_model_equivalence(fig3_runs, base_params, spectrum):
    runs, _ = fig3_runs
    checks = []
    for om in (0.2, 0.4):
        series = runs[om]["series"]
        model = runs[om]["model"]
        window = series.times <= np.pi / model.coupling
        gap = np.max(
            np.abs(series.p_f1 - analytic_transfer(model, series.times))[window]
        )
        checks.append((gap < 0.05, f"Omega={om}: sup-norm gap {gap:.4f} < 0.05"))
    pol = solve_xi_eta(runs[0.2]["params"])
    g_pol = model_from_polaron(runs[0.2]["params"], pol).coupling
    g_eig = runs[0.2]["model"].coupling
    rel = abs(g_pol - g_eig) / g_eig
    checks.append((rel < 0.05, f"couplings {g_pol:.6f} vs {g_eig:.6f} differ {100*rel:.2f}% < 5%"))
    _report("5", checks)


def test_criterion_6_half_period(fig3_runs):
    runs, _ = fig3_runs
    series = runs[0.2]["series"]
    # the horizon, 1.15 pi/g, holds a single transfer maximum
    first = int(np.argmax(series.p_f1))
    t_half = series.times[first]
    pol = solve_xi_eta(runs[0.2]["params"])
    predicted = half_period(model_from_polaron(runs[0.2]["params"], pol))
    rel = abs(t_half - predicted) / predicted
    _report("6", [
        (series.p_f1[first] >= 0.01 and first > 0,
         f"oscillation detected: max p_f1 {series.p_f1[first]:.4f} at sample {first}"),
        (rel < 0.10, f"first maximum at t={t_half:.2f} vs pi/(lam xi Om') = {predicted:.2f} ({100*rel:.2f}%)"),
    ])


def test_criterion_7_parity_selection(tmp_path):
    checks = []
    # even-photon amplitudes vanish in the ground state across the coupling range
    worst = 0.0
    for lam in np.arange(0.1, 0.81, 0.1):
        spec = solve_spectrum(ModelParams(omega0=1.0, coupling=float(lam)), make_space(40, 2))
        for n in (2, 4):
            worst = max(worst, abs(dressed_amplitude(spec, n)))
    checks.append((worst < 1e-9, f"even-n ground amplitudes <= {worst:.1e} < 1e-9"))

    cfg = build_config(
        "resonance-scan",
        {
            "n_max": 20,
            "Omega": 0.4,
            "t_end": 150.0,
            "sweep_variable": "delta_omega_p",
            "sweep_start": -0.06,
            "sweep_stop": 0.06,
            "sweep_steps": 3,
            "output_path": str(tmp_path / "scan.csv"),
        },
    )
    result = run_resonance_scan(cfg)
    wp = np.array(result.columns["omega_p"])
    f1 = np.array(result.columns["max_p_f1"])
    f3 = np.array(result.columns["max_p_f3"])
    n1 = slice(0, 3)
    n2 = slice(3, 6)
    n3 = slice(6, 9)
    checks.append((
        int(np.argmax(f1[n1])) == 1 and f1[n1][1] > 0.9,
        f"single-photon peak at predicted {wp[n1][1]:.4f} (P={f1[n1][1]:.3f})",
    ))
    checks.append((
        float(np.max(f1[n2])) < 0.05 and float(np.max(f3[n2])) < 0.01,
        f"no 2-photon peak (max P1f {np.max(f1[n2]):.4f}, max P3f {np.max(f3[n2]):.5f})",
    ))
    checks.append((
        int(np.argmax(f3[n3])) == 1 and f3[n3][1] > 0.2
        and f3[n3][1] > 3.0 * max(f3[n3][0], f3[n3][2]),
        f"3-photon peak at predicted {wp[n3][1]:.4f} (P={f3[n3][1]:.3f})",
    ))
    _report("7", checks)


def test_criterion_8_property_suite(base_params, spectrum, space2, space3, polaron_solution):
    checks = []

    driven = ModelParams(
        omega0=1.0, coupling=0.5, omega_f=3.0, drive_amp=0.3, drive_freq=4.6
    )
    defects = [
        np.max(np.abs(h - h.conj().T))
        for h in (
            build_h_rabi(base_params, space2),
            build_h_jc(base_params, polaron_solution, space2),
            build_h_full(driven, space3, 0.37),
        )
    ]
    checks.append((max(defects) < 1e-12, f"Hamiltonian hermiticity defect {max(defects):.1e} < 1e-12"))

    e40 = spectrum.ground_energy
    e80 = solve_spectrum(base_params, make_space(80, 2)).ground_energy
    checks.append((abs(e40 - e80) < 1e-8, f"lambda0 truncation shift {abs(e40-e80):.1e} < 1e-8"))

    s = build_s(base_params, polaron_solution, space2)
    worst_u = 0.0
    for scale in (1.0, -1.0):
        u = matrix_exponential(s, scale)
        worst_u = max(worst_u, float(np.max(np.abs(u.conj().T @ u - np.eye(space2.dim)))))
    checks.append((worst_u < 1e-10, f"e^(+-S) unitarity defect {worst_u:.1e} < 1e-10"))

    # reduced driven run: norm conservation and step-halving stability
    n_max = 16
    spec_small = solve_spectrum(base_params, make_space(n_max, 2))
    psi0, _ = ground_state(spec_small)
    initial = embed_ground_state(psi0)
    omega_p = resonance_frequency(base_params, spec_small.ground_energy)
    params = ModelParams(
        omega0=1.0, coupling=0.5, omega_f=3.0, drive_amp=0.2, drive_freq=omega_p
    )
    dt = 2.0 * np.pi / (200.0 * omega_p)
    t_end = 3000 * dt
    sp3 = make_space(n_max, 3)
    s1 = propagate(params, sp3, PropagationConfig(t_end=t_end, dt=dt, sample_every=4), initial)
    s2 = propagate(params, sp3, PropagationConfig(t_end=t_end, dt=dt / 2, sample_every=8), initial)
    drift = float(np.max(np.abs(s1.norm - 1.0)))
    checks.append((drift < 1e-9, f"propagation norm drift {drift:.1e} < 1e-9"))
    dp = float(np.max(np.abs(s1.p_f1 - s2.p_f1)))
    checks.append((dp < 1e-6, f"P1f step-halving shift {dp:.1e} < 1e-6"))
    _report("8", checks)
