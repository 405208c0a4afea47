"""Named experiment presets producing plot-ready CSV files.

Each runner resolves its parameters (enforcing the truncation convergence
guard), computes, and writes one CSV with a `#`-prefixed provenance header
embedding the fully resolved parameter set.  Output is deterministic given a
configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dynamics, effective_models, polaron, rabi_core
from .config import ConfigError, ExperimentConfig
from .hilbert import make_space
from .rabi_core import ModelParams

GUARD_TOL = 1e-8
DT_GUARD_TOL = 1e-6

_DEFAULT_OMEGA_LIST = (0.2, 0.4, 0.8)
_FLOAT_FMT = "{:.12g}"


class ConvergenceGuardError(RuntimeError):
    """A reported quantity failed the truncation/step refinement guard."""


@dataclass(frozen=True)
class PresetResult:
    path: Path
    provenance: dict
    columns: dict


def _fmt(x) -> str:
    if isinstance(x, (bool, int, np.integer)):
        return str(x)
    if isinstance(x, float):
        return _FLOAT_FMT.format(x + 0.0)  # +0.0 folds -0.0 into 0.0
    return str(x)


def write_csv(path: str | Path, provenance: dict, columns: dict) -> Path:
    """Write `# key = value` provenance lines, a header row, then the data rows."""
    path = Path(path)
    names = list(columns)
    arrays = [np.asarray(columns[n]) for n in names]
    n_rows = len(arrays[0])
    lines = [f"# {k} = {_fmt(v)}" for k, v in provenance.items()]
    lines.append(",".join(names))
    for i in range(n_rows):
        lines.append(",".join(_fmt(float(a[i])) for a in arrays))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def guarded_spectrum(
    params: ModelParams, n_max: int, label: str = "", photons: tuple[int, ...] = (1,)
) -> rabi_core.SpectrumResult:
    """Diagonalize at n_max and at 2*n_max; reject if the reported quantities moved.

    Guards the ground energy and |c_n0| for every n in `photons` (by default
    the single-virtual-photon amplitude) to 1e-8.
    """
    spec = rabi_core.solve_spectrum(params, make_space(n_max, 2))
    spec2 = rabi_core.solve_spectrum(params, make_space(2 * n_max, 2))
    d_energy = abs(spec.ground_energy - spec2.ground_energy)
    d_amps = {
        n: abs(abs(rabi_core.dressed_amplitude(spec, n))
               - abs(rabi_core.dressed_amplitude(spec2, n)))
        for n in photons
    }
    if d_energy > GUARD_TOL or max(d_amps.values()) > GUARD_TOL:
        where = f" at {label}" if label else ""
        moved = ", ".join(f"amplitude c{n}0 moved {d:.3e}" for n, d in d_amps.items())
        raise ConvergenceGuardError(
            f"truncation n_max={n_max} not converged{where}: "
            f"ground energy moved {d_energy:.3e}, {moved}"
        )
    return spec


def _base_params(cfg: ExperimentConfig, drive_amp: float = 0.0, drive_freq: float = 0.0) -> ModelParams:
    return ModelParams(
        omega0=cfg.omega0,
        coupling=cfg.coupling,
        omega_f=cfg.omega_f,
        drive_amp=drive_amp,
        drive_freq=drive_freq,
    )


def _out_path(cfg: ExperimentConfig) -> Path:
    return Path(cfg.output_path) if cfg.output_path else Path(f"{cfg.preset}.csv")


def _prop_config(cfg: ExperimentConfig, params: ModelParams, t_end: float) -> dynamics.PropagationConfig:
    horizon = cfg.t_end or t_end
    if not np.isfinite(horizon):
        raise ConfigError(
            "the effective transfer coupling vanishes here (no finite Rabi "
            "period); set t_end explicitly"
        )
    prop = dynamics.default_config(
        params,
        t_end=horizon,
        dt=cfg.dt,
        sample_every=cfg.sample_every,
        norm_tol=cfg.norm_tol,
        method=cfg.method,
    )
    # the same bound propagate enforces, reported as a config error
    try:
        dynamics.check_dt(params, prop.dt)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return prop


def run_fig2_sweep(cfg: ExperimentConfig) -> PresetResult:
    """Virtual-photon amplitude versus coupling: exact against the closed form.

    One row per coupling grid point; the guard aborts on the first
    non-converged point.
    """
    grid = np.linspace(cfg.sweep.start, cfg.sweep.stop, cfg.sweep.steps)
    cols: dict = {name: [] for name in (
        "lambda", "c10_exact", "c10_approx", "xi", "eta", "lambda0_exact", "e_approx",
    )}
    for lam in grid:
        params = ModelParams(omega0=cfg.omega0, coupling=float(lam), omega_f=cfg.omega_f)
        try:
            spec = guarded_spectrum(params, cfg.n_max, label=f"lambda={lam:g}")
        except ConvergenceGuardError as exc:
            raise ConvergenceGuardError(f"fig2 sweep aborted: {exc}") from exc
        pol = polaron.solve_xi_eta(params)
        cols["lambda"].append(lam)
        cols["c10_exact"].append(rabi_core.dressed_amplitude(spec, 1).real)
        cols["c10_approx"].append(polaron.c10_approx(params, pol))
        cols["xi"].append(pol.xi)
        cols["eta"].append(pol.eta)
        cols["lambda0_exact"].append(spec.ground_energy)
        cols["e_approx"].append(pol.e_approx)
    provenance = {
        "preset": cfg.preset,
        "omega0": cfg.omega0,
        "omega_f": cfg.omega_f,
        "n_max": cfg.n_max,
        "guard_n_max": 2 * cfg.n_max,
        "guard_tol": GUARD_TOL,
        "sweep": f"lambda from {cfg.sweep.start:g} to {cfg.sweep.stop:g} in {cfg.sweep.steps} points",
    }
    path = write_csv(_out_path(cfg), provenance, cols)
    return PresetResult(path=path, provenance=provenance, columns=cols)


def _resolved_header(cfg: ExperimentConfig, params: ModelParams, spec, pol) -> dict:
    return {
        "preset": cfg.preset,
        "omega0": params.omega0,
        "lambda": params.coupling,
        "omega_f": params.omega_f,
        "n_max": cfg.n_max,
        "xi": pol.xi,
        "eta": pol.eta,
        "lambda0": spec.ground_energy,
        "e_approx": pol.e_approx,
    }


def run_fig3_evolve(cfg: ExperimentConfig) -> PresetResult:
    """Transfer probability to |f,1> versus time for a list of drive strengths.

    All runs share the drive frequency (exact resonance unless omega_p is
    given) and the sampling grid, so the curves land in one table.
    """
    omegas = cfg.omega_list or _DEFAULT_OMEGA_LIST
    base = _base_params(cfg)
    spec = guarded_spectrum(base, cfg.n_max)
    pol = polaron.solve_xi_eta(base)
    psi0, _ = rabi_core.ground_state(spec)
    initial = dynamics.embed_ground_state(psi0)
    space3 = make_space(cfg.n_max, 3)

    omega_p = cfg.drive_freq or dynamics.resonance_frequency(base, spec, n=1, mode="exact")
    slowest = effective_models.model_from_eigenbasis(
        ModelParams(omega0=cfg.omega0, coupling=cfg.coupling, omega_f=cfg.omega_f,
                    drive_amp=min(omegas), drive_freq=omega_p),
        spec,
    )
    t_end_default = 1.15 * 2.0 * effective_models.half_period(slowest)

    cols: dict = {}
    provenance = _resolved_header(cfg, base, spec, pol)
    provenance["omega_p"] = omega_p
    prop = None
    for om in omegas:
        params = ModelParams(omega0=cfg.omega0, coupling=cfg.coupling, omega_f=cfg.omega_f,
                             drive_amp=om, drive_freq=omega_p)
        prop = _prop_config(cfg, params, t_end_default)
        series = dynamics.propagate(params, space3, prop, initial)
        model = effective_models.model_from_eigenbasis(params, spec)
        tag = f"{om:g}"
        if "t" not in cols:
            cols["t"] = series.times
        cols[f"p_f1_Omega{tag}"] = series.p_f1
        cols[f"p_analytic_Omega{tag}"] = effective_models.analytic_transfer(model, series.times)
        cols[f"norm_Omega{tag}"] = series.norm
        provenance[f"g_eigenbasis_Omega{tag}"] = model.coupling
    provenance.update(
        {"t_end": prop.t_end, "dt": prop.dt, "sample_every": prop.sample_every,
         "method": prop.method, "Omega_list": ",".join(f"{o:g}" for o in omegas)}
    )
    path = write_csv(_out_path(cfg), provenance, cols)
    return PresetResult(path=path, provenance=provenance, columns=cols)


def run_resonance_scan(cfg: ExperimentConfig) -> PresetResult:
    """Peak transfer versus drive frequency around the 1-, 2- and 3-photon channels.

    With the default `delta_omega_p` sweep the offsets are applied around each
    predicted channel frequency; parity forbids the 2-photon channel, so no
    peak appears in that window.  An `omega_p` sweep scans an absolute range
    instead.
    """
    if cfg.n_max < 3:
        raise ConfigError(f"resonance-scan reads |f,3> and needs n_max >= 3, got {cfg.n_max}")
    drive_amp = cfg.drive_amp if cfg.drive_amp is not None else 0.4
    base = _base_params(cfg, drive_amp=drive_amp)
    spec = guarded_spectrum(base, cfg.n_max, photons=(1, 3))
    pol = polaron.solve_xi_eta(base)
    psi0, _ = rabi_core.ground_state(spec)
    initial = dynamics.embed_ground_state(psi0)
    space3 = make_space(cfg.n_max, 3)

    g1_model = effective_models.multiphoton_model(base, spec, 1)
    g3_model = effective_models.multiphoton_model(base, spec, 3)
    t_half = {
        1: effective_models.half_period(g1_model),
        3: effective_models.half_period(g3_model),
    }
    t_half[2] = t_half[3]  # longest horizon makes the null test strongest

    sweep = cfg.sweep
    points: list[tuple[float, float]] = []  # (omega_p, t_end)
    if sweep.variable == "delta_omega_p":
        offsets = np.linspace(sweep.start, sweep.stop, sweep.steps)
        for n in (1, 2, 3):
            center = base.omega_f + n * base.omega_c - spec.ground_energy
            for off in offsets:
                points.append((center + off, cfg.t_end or 1.05 * t_half[n]))
    else:
        for wp in np.linspace(sweep.start, sweep.stop, sweep.steps):
            points.append((float(wp), cfg.t_end or 1.05 * t_half[1]))

    cols: dict = {"omega_p": [], "max_p_f1": [], "max_p_f3": []}
    for omega_p, t_end in points:
        params = ModelParams(omega0=cfg.omega0, coupling=cfg.coupling, omega_f=cfg.omega_f,
                             drive_amp=drive_amp, drive_freq=omega_p)
        prop = _prop_config(cfg, params, t_end)
        series = dynamics.propagate(params, space3, prop, initial)
        cols["omega_p"].append(omega_p)
        cols["max_p_f1"].append(float(series.p_f1.max()))
        cols["max_p_f3"].append(float(series.p_f3.max()))

    provenance = _resolved_header(cfg, base, spec, pol)
    provenance.update(
        {
            "Omega": drive_amp,
            "predicted_n1": base.omega_f + 1 * base.omega_c - spec.ground_energy,
            "predicted_n2": base.omega_f + 2 * base.omega_c - spec.ground_energy,
            "predicted_n3": base.omega_f + 3 * base.omega_c - spec.ground_energy,
            "g_n1": g1_model.coupling,
            "g_n3": g3_model.coupling,
            "sweep": f"{sweep.variable} from {sweep.start:g} to {sweep.stop:g} in {sweep.steps} points",
        }
    )
    path = write_csv(_out_path(cfg), provenance, cols)
    return PresetResult(path=path, provenance=provenance, columns=cols)


def run_convergence_report(cfg: ExperimentConfig) -> PresetResult:
    """Refinement study: truncation doubling and step halving for the headline numbers.

    Raises ConvergenceGuardError when the ground energy moves above 1e-8 under
    truncation doubling or the peak transfer moves above 1e-6 under either
    refinement.  Pure computation; idempotent across runs.
    """
    drive_amp = cfg.drive_amp if cfg.drive_amp is not None else 0.2
    base = _base_params(cfg, drive_amp=drive_amp)
    spec = rabi_core.solve_spectrum(base, make_space(cfg.n_max, 2))
    spec2 = rabi_core.solve_spectrum(base, make_space(2 * cfg.n_max, 2))
    omega_p = cfg.drive_freq or dynamics.resonance_frequency(base, spec, n=1, mode="exact")
    params = ModelParams(omega0=cfg.omega0, coupling=cfg.coupling, omega_f=cfg.omega_f,
                         drive_amp=drive_amp, drive_freq=omega_p)
    model = effective_models.model_from_eigenbasis(params, spec)
    t_end = cfg.t_end or 1.15 * effective_models.half_period(model)

    base_prop = _prop_config(cfg, params, t_end)
    # snap the horizon to the base grid so refined runs sample identical times;
    # like propagate, take at least one step when t_end is under half a step
    t_snap = max(1, int(round(base_prop.t_end / base_prop.dt))) * base_prop.dt

    def peak(n_max: int, spectrum, dt_scale: float) -> tuple[float, float]:
        psi0, _ = rabi_core.ground_state(spectrum)
        prop = dynamics.PropagationConfig(
            t_end=t_snap, dt=base_prop.dt * dt_scale,
            sample_every=max(1, int(round(base_prop.sample_every / dt_scale))),
            norm_tol=base_prop.norm_tol, method=base_prop.method,
        )
        series = dynamics.propagate(
            params, make_space(n_max, 3), prop, dynamics.embed_ground_state(psi0)
        )
        return float(series.p_f1.max()), prop.dt

    p_base, dt_base = peak(cfg.n_max, spec, 1.0)
    p_2n, _ = peak(2 * cfg.n_max, spec2, 1.0)
    p_half, dt_half = peak(cfg.n_max, spec, 0.5)

    d_lambda0 = abs(spec.ground_energy - spec2.ground_energy)
    d_p_nmax = abs(p_2n - p_base)
    d_p_dt = abs(p_half - p_base)

    pol = polaron.solve_xi_eta(base)
    cols = {
        "n_max": [cfg.n_max, 2 * cfg.n_max, cfg.n_max],
        "dt": [dt_base, dt_base, dt_half],
        "lambda0": [spec.ground_energy, spec2.ground_energy, spec.ground_energy],
        "max_p_f1": [p_base, p_2n, p_half],
    }
    provenance = {
        "preset": cfg.preset,
        "omega0": cfg.omega0,
        "lambda": cfg.coupling,
        "omega_f": cfg.omega_f,
        "Omega": drive_amp,
        "omega_p": omega_p,
        "xi": pol.xi,
        "eta": pol.eta,
        "t_end": t_snap,
        "delta_lambda0_nmax_doubling": d_lambda0,
        "delta_max_p_f1_nmax_doubling": d_p_nmax,
        "delta_max_p_f1_dt_halving": d_p_dt,
        "threshold_lambda0": GUARD_TOL,
        "threshold_max_p_f1": DT_GUARD_TOL,
    }
    print(f"lambda0 delta under n_max doubling: {d_lambda0:.3e} (threshold {GUARD_TOL:g})")
    print(f"max_p_f1 delta under n_max doubling: {d_p_nmax:.3e} (threshold {DT_GUARD_TOL:g})")
    print(f"max_p_f1 delta under dt halving: {d_p_dt:.3e} (threshold {DT_GUARD_TOL:g})")
    path = write_csv(_out_path(cfg), provenance, cols)
    if d_lambda0 > GUARD_TOL or d_p_nmax > DT_GUARD_TOL or d_p_dt > DT_GUARD_TOL:
        raise ConvergenceGuardError(
            f"refinement deltas exceed thresholds: lambda0 {d_lambda0:.3e}, "
            f"max_p_f1 n_max {d_p_nmax:.3e}, max_p_f1 dt {d_p_dt:.3e}"
        )
    return PresetResult(path=path, provenance=provenance, columns=cols)


def run_two_state_compare(cfg: ExperimentConfig) -> PresetResult:
    """Full propagation against both analytic two-state curves over one Rabi period."""
    drive_amp = cfg.drive_amp if cfg.drive_amp is not None else 0.2
    base = _base_params(cfg, drive_amp=drive_amp)
    spec = guarded_spectrum(base, cfg.n_max)
    omega_p = cfg.drive_freq or dynamics.resonance_frequency(base, spec, n=1, mode="exact")
    params = ModelParams(omega0=cfg.omega0, coupling=cfg.coupling, omega_f=cfg.omega_f,
                         drive_amp=drive_amp, drive_freq=omega_p)
    pol = polaron.solve_xi_eta(params)
    eig_model = effective_models.model_from_eigenbasis(params, spec)
    pol_model = effective_models.model_from_polaron(params, pol)

    psi0, _ = rabi_core.ground_state(spec)
    t_end = cfg.t_end or 1.02 * 2.0 * effective_models.half_period(eig_model)
    prop = _prop_config(cfg, params, t_end)
    series = dynamics.propagate(params, make_space(cfg.n_max, 3), prop,
                                dynamics.embed_ground_state(psi0))

    p_eig = effective_models.analytic_transfer(eig_model, series.times)
    p_pol = effective_models.analytic_transfer(pol_model, series.times)
    cols = {
        "t": series.times,
        "p_f1_full": series.p_f1,
        "p_f1_eigenbasis": p_eig,
        "p_f1_polaron": p_pol,
        "norm": series.norm,
    }
    provenance = _resolved_header(cfg, params, spec, pol)
    provenance.update(
        {
            "Omega": drive_amp,
            "omega_p": omega_p,
            "t_end": prop.t_end,
            "dt": prop.dt,
            "g_eigenbasis": eig_model.coupling,
            "g_polaron": pol_model.coupling,
            "coupling_rel_gap": abs(eig_model.coupling - pol_model.coupling)
            / max(eig_model.coupling, 1e-300),
            "supnorm_gap_eigenbasis": float(np.max(np.abs(series.p_f1 - p_eig))),
        }
    )
    path = write_csv(_out_path(cfg), provenance, cols)
    return PresetResult(path=path, provenance=provenance, columns=cols)


_RUNNERS = {
    "fig2-sweep": run_fig2_sweep,
    "fig3-evolve": run_fig3_evolve,
    "resonance-scan": run_resonance_scan,
    "convergence-report": run_convergence_report,
    "two-state-compare": run_two_state_compare,
}


def run_preset(cfg: ExperimentConfig) -> PresetResult:
    return _RUNNERS[cfg.preset](cfg)
