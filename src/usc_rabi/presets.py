"""Named experiment presets producing plot-ready CSV files.

Each runner resolves its parameters (enforcing the truncation convergence
guard), computes, and writes one CSV with a `#`-prefixed provenance header
embedding the fully resolved parameter set.  Output is deterministic given a
configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import dynamics, effective_models, polaron, rabi_core
from .config import MAX_ARRAY_BYTES, ConfigError, ExperimentConfig
from .hilbert import SpaceDescriptor, make_space
from .rabi_core import ModelParams

GUARD_TOL = 1e-8
DT_GUARD_TOL = 1e-6

_DEFAULT_OMEGA_LIST = (0.2, 0.4, 0.8)
# drive amplitude (Omega) of the single-amplitude presets when the config sets none
_DEFAULT_DRIVE_AMP = {"resonance-scan": 0.4, "convergence-report": 0.2, "two-state-compare": 0.2}
_FLOAT_FMT = "%.12g"
# rows that write_csv formats at once
_CSV_BLOCK_ROWS = 4096
# bytes of one (2*n_max+1)-site array over a fig2-sweep chunk (_sweep_chunk)
_CHUNK_BYTES = 1 << 20


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
        return _FLOAT_FMT % (x + 0.0)  # +0.0 folds -0.0 into 0.0
    return str(x)


def write_csv(path: str | Path, provenance: dict, columns: dict) -> Path:
    """Write `# key = value` provenance lines, a header row, then the data rows."""
    path = Path(path)
    names = list(columns)
    lines = [f"# {k} = {_fmt(v)}" for k, v in provenance.items()]
    lines.append(",".join(names))
    # every cell as _fmt prints a float, one row format for all
    row = ",".join([_FLOAT_FMT] * len(names)) + "\n"
    cols = [np.asarray(columns[n], dtype=float) for n in names]
    with path.open("w", encoding="utf-8") as out:
        out.write("\n".join(lines) + "\n")
        # a block of rows at a time, so no more than _CSV_BLOCK_ROWS rows are
        # ever stacked, Python floats and strings at once
        for at in range(0, len(cols[0]), _CSV_BLOCK_ROWS):
            block = np.column_stack([c[at : at + _CSV_BLOCK_ROWS] for c in cols])
            block += 0.0  # folds -0.0 into 0.0, as _fmt does
            out.write((row * len(block)) % tuple(block.ravel().tolist()))
    return path


def _checked(fn, *args, **kwargs):
    """Call fn; a ValueError it raises for these inputs is reported as a config error."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _degenerate(coupling: float, n_max: int, gap: float) -> ConfigError | None:
    """A degenerate ground level at n_max (rabi_core.require_gap): a config error naming lambda."""
    try:
        rabi_core.require_gap(float(gap))
    except ValueError as exc:
        return ConfigError(f"{exc} at lambda={coupling:g}, n_max={n_max}")
    return None


def _judge_grounds(
    omega0: float, coupling, n_max: int, levels: tuple, photons: tuple[int, ...] = (1,)
) -> tuple[int, Exception] | None:
    """The first coupling, in grid order, whose n_max ground pair fails, with its error.

    coupling is one coupling or a 1-d array, and levels = (psi_0, E0, gap)
    its n_max pairs, shaped as rabi_core.ground_levels returns them.  Each
    coupling is judged in one order:
      - its n_max level must not be degenerate (_degenerate);
      - nor its 2*n_max reference level;
      - its ground energy and |c_n0| for every n in photons (by default the
        single-virtual-photon amplitude) must each move by at most GUARD_TOL
        at 2*n_max, else a ConvergenceGuardError naming lambda.
    rabi_core.certify_grounds settles the last two from the n_max pairs and
    two Sturm counts wherever its bounds on both moves are within GUARD_TOL;
    the couplings it leaves open, if any, are solved at 2*n_max as one stack
    (ground_levels).  Returns (index, error), index 0 for one coupling, or
    None when every coupling passes.
    """
    psi, energy, gap = levels
    space, space2 = make_space(n_max, 2), make_space(2 * n_max, 2)
    bounds, _ = rabi_core.certify_grounds(omega0, coupling, space, (psi, energy), space2, GUARD_TOL)
    lams = np.atleast_1d(coupling)
    open_ = np.flatnonzero(np.isnan(bounds))
    refs = {}
    if open_.size:
        refs = dict(zip(open_, zip(*rabi_core.ground_levels(omega0, lams[open_], space2))))
    psi, energy, gap = np.reshape(psi, (lams.size, -1)), np.atleast_1d(energy), np.atleast_1d(gap)
    for k in sorted({*np.flatnonzero(gap < rabi_core.GROUND_GAP_TOL), *refs}):
        lam = float(lams[k])
        error = _degenerate(lam, n_max, gap[k])
        if error is None and k in refs:
            psi2, energy2, gap2 = refs[k]
            error = _degenerate(lam, 2 * n_max, gap2)
            d_energy = abs(energy[k] - energy2)
            d_amps = {
                n: abs(abs(psi[k, space.index("e", n)]) - abs(psi2[space2.index("e", n)]))
                for n in photons
            }
            if error is None and (d_energy > GUARD_TOL or max(d_amps.values()) > GUARD_TOL):
                moved = ", ".join(f"amplitude c{n}0 moved {d:.3e}" for n, d in d_amps.items())
                error = ConvergenceGuardError(
                    f"truncation n_max={n_max} not converged at lambda={lam:g}: "
                    f"ground energy moved {d_energy:.3e}, {moved}"
                )
        if error is not None:
            return k, error
    return None


def guarded_spectrum(
    params: ModelParams, n_max: int, photons: tuple[int, ...] = (1,)
) -> rabi_core.SpectrumResult:
    """Diagonalize at n_max; raise what _judge_grounds finds wrong with its ground pair."""
    spec = rabi_core.solve_spectrum(params, make_space(n_max, 2))
    w = spec.eigenvalues
    failed = _judge_grounds(params.omega0, params.coupling, n_max,
                            (spec.eigenvectors[:, 0], spec.ground_energy, w[1] - w[0]), photons)
    if failed:
        raise failed[1]
    return spec


@dataclass(frozen=True)
class _Run:
    """What the driven runs of one preset share.

    params carries the preset drive amplitude and the resolved omega_p: the
    config value, else the exact 1-photon resonance omega_f + 1 - E0.
    """

    params: ModelParams
    spec: rabi_core.SpectrumResult
    pol: polaron.PolaronParams
    initial: np.ndarray
    space3: SpaceDescriptor


def _resolve(
    cfg: ExperimentConfig,
    photons: tuple[int, ...] = (1,),
    drive_amp: float | None = None,
    spec: rabi_core.SpectrumResult | None = None,
) -> _Run:
    """Params, truncation-guarded spectrum, resonance, polaron frame and start state.

    drive_amp defaults to the config's Omega, else the preset's default.
    spec, when given, is an n_max spectrum the caller has solved and judged
    itself; photons, the amplitudes guarded_spectrum judges, is then unused.
    """
    drive_amp = drive_amp or cfg.drive_amp or _DEFAULT_DRIVE_AMP[cfg.preset]
    params = ModelParams(
        omega0=cfg.omega0, coupling=cfg.coupling, omega_f=cfg.omega_f, drive_amp=drive_amp
    )
    if spec is None:
        spec = guarded_spectrum(params, cfg.n_max, photons=photons)
    omega_p = cfg.drive_freq or dynamics.resonance_frequency(params, spec.ground_energy)
    return _Run(
        params=replace(params, drive_freq=omega_p),
        spec=spec,
        pol=_checked(polaron.solve_xi_eta, params),
        initial=dynamics.embed_ground_state(spec.eigenvectors[:, 0]),
        space3=make_space(cfg.n_max, 3),
    )


def _write_result(cfg: ExperimentConfig, provenance: dict, cols: dict) -> PresetResult:
    path = write_csv(cfg.output_path or f"{cfg.preset}.csv", provenance, cols)
    return PresetResult(path=path, provenance=provenance, columns=cols)


def _prop_config(
    cfg: ExperimentConfig, params: ModelParams, t_end: float, snap: bool = False
) -> dynamics.PropagationConfig:
    """The run's grid: the config's t_end, dt and sample_every over the defaults.

    snap=True rounds the horizon to whole steps, at least one, and the caller
    records the snapped t_end; otherwise a horizon shorter than one step is a
    config error, since the run would end far past it.  So is a grid whose
    steps, counted without allocating them, do not fit an int64, or whose
    samples would take an array over MAX_ARRAY_BYTES.
    """
    horizon = cfg.t_end or t_end
    if not np.isfinite(horizon):
        raise ConfigError(
            "the effective transfer coupling vanishes here (no finite Rabi "
            "period); set t_end explicitly"
        )
    prop = _checked(
        dynamics.default_config,
        params,
        t_end=horizon,
        dt=cfg.dt,
        sample_every=cfg.sample_every,
        norm_tol=cfg.norm_tol,
    )
    _checked(dynamics.check_dt, params, prop.dt)  # the bound propagate enforces
    n_steps = _grid_steps(prop)
    if snap:
        return replace(prop, t_end=n_steps * prop.dt)
    if prop.t_end < prop.dt:
        raise ConfigError(
            f"t_end={prop.t_end:.4g} is shorter than one step (dt={prop.dt:.4g}); "
            "set a longer t_end or a smaller dt"
        )
    return prop


def _grid_steps(prop: dynamics.PropagationConfig) -> int:
    """Steps of prop's grid, counted without allocating them.

    A config error when they do not fit an int64, or when their samples
    would take an array over MAX_ARRAY_BYTES.
    """
    n_steps = _checked(dynamics.step_count, prop.t_end, prop.dt)
    # per sample, propagate's (2, samples) complex amplitudes (32 bytes) and
    # its real norms and slack (8 each)
    size = 48 * (-(-n_steps // prop.sample_every) + 1)
    if size > MAX_ARRAY_BYTES:
        raise ConfigError(
            f"{n_steps} steps sampled every {prop.sample_every} need a {size / 2**20:.4g} MiB "
            f"array, over the {MAX_ARRAY_BYTES >> 20} MiB limit; set a larger sample_every"
        )
    return n_steps


def _sweep_chunk(n_max: int) -> int:
    """Couplings fig2-sweep solves together: _CHUNK_BYTES per (2*n_max+1)-site array.

    A 41-point grid is one chunk up to n_max = 1597, a 161-point one up to 406.
    """
    return max(1, _CHUNK_BYTES // (8 * (2 * n_max + 1)))


def run_fig2_sweep(cfg: ExperimentConfig) -> PresetResult:
    """Virtual-photon amplitude versus coupling: exact against the closed form.

    One row per coupling grid point, read off the ground pair alone.  The grid
    is solved as arrays in chunks of _sweep_chunk couplings (one at the
    defaults): rabi_core.ground_levels stacks a chunk's n_max chains and
    shares their eigh sub-stacks with a second thread, _judge_grounds
    judges the chunk at once, and polaron.solve_xi_eta takes the chunk as
    one array.  Every value is bit for bit the one-coupling one.  Where a
    point fails, the fixed points before it are solved first, so the first
    failure is the one a point-by-point sweep meets: a ground level
    degenerate at n_max or 2*n_max is a config error naming the coupling and
    the truncation, a non-converged point stops the sweep (exit 2), and an
    unsolved polaron fixed point is a config error.
    """
    grid = np.linspace(cfg.sweep.start, cfg.sweep.stop, cfg.sweep.steps)
    space = make_space(cfg.n_max, 2)
    c10 = space.index("e", 1)
    chunk = _sweep_chunk(cfg.n_max)
    parts = []
    for lo in range(0, grid.size, chunk):
        lams = grid[lo : lo + chunk]
        psi, energy, _ = levels = rabi_core.ground_levels(cfg.omega0, lams, space)
        failed = _judge_grounds(cfg.omega0, lams, cfg.n_max, levels)
        if failed:
            k, error = failed
            # an unsolved fixed point before the failing point fails first
            _checked(polaron.solve_xi_eta, ModelParams(omega0=cfg.omega0, coupling=lams[:k]))
            raise error
        params = ModelParams(omega0=cfg.omega0, coupling=lams, omega_f=cfg.omega_f)
        pol = _checked(polaron.solve_xi_eta, params)
        parts.append((lams, psi[:, c10], polaron.c10_approx(params, pol), pol.xi, pol.eta,
                      energy, pol.e_approx))
    names = ("lambda", "c10_exact", "c10_approx", "xi", "eta", "lambda0_exact", "e_approx")
    cols = {name: np.concatenate(col) for name, col in zip(names, zip(*parts))}
    provenance = {
        "preset": cfg.preset,
        "omega0": cfg.omega0,
        "omega_f": cfg.omega_f,
        "n_max": cfg.n_max,
        "guard_n_max": 2 * cfg.n_max,
        "guard_tol": GUARD_TOL,
        "sweep": f"lambda from {cfg.sweep.start:g} to {cfg.sweep.stop:g} in {cfg.sweep.steps} points",
    }
    return _write_result(cfg, provenance, cols)


def _resolved_header(cfg: ExperimentConfig, run: _Run) -> dict:
    return {
        "preset": cfg.preset,
        "omega0": cfg.omega0,
        "lambda": cfg.coupling,
        "omega_f": cfg.omega_f,
        "n_max": cfg.n_max,
        "xi": run.pol.xi,
        "eta": run.pol.eta,
        "lambda0": run.spec.ground_energy,
        "e_approx": run.pol.e_approx,
    }


def run_fig3_evolve(cfg: ExperimentConfig) -> PresetResult:
    """Transfer probability to |f,1> versus time for a list of drive strengths.

    The list is Omega_list, else the one amplitude Omega, else 0.2, 0.4, 0.8.
    All runs share the drive frequency (exact resonance unless omega_p is
    given), the sampling grid and one dynamics.Sector, so the curves land in
    one table.
    """
    omegas = cfg.omega_list or ((cfg.drive_amp,) if cfg.drive_amp else _DEFAULT_OMEGA_LIST)
    run = _resolve(cfg, drive_amp=min(omegas))
    slowest = effective_models.model_from_eigenbasis(run.params, run.spec)
    t_end_default = 1.15 * 2.0 * effective_models.half_period(slowest)

    cols: dict = {}
    provenance = _resolved_header(cfg, run)
    provenance["omega_p"] = run.params.drive_freq
    sector = dynamics.Sector(run.params, run.space3)
    prop = _prop_config(cfg, run.params, t_end_default)
    for om in omegas:
        params = replace(run.params, drive_amp=om)
        series = dynamics.propagate(params, run.space3, prop, run.initial, sector=sector)
        model = effective_models.model_from_eigenbasis(params, run.spec)
        tag = f"{om:g}"
        cols["t"] = series.times
        cols[f"p_f1_Omega{tag}"] = series.p_f1
        cols[f"p_analytic_Omega{tag}"] = effective_models.analytic_transfer(model, series.times)
        cols[f"norm_Omega{tag}"] = series.norm
        provenance[f"g_eigenbasis_Omega{tag}"] = model.coupling
    provenance.update(
        {"t_end": prop.t_end, "dt": prop.dt, "sample_every": prop.sample_every,
         "method": "magnus4", "Omega_list": ",".join(f"{o:g}" for o in omegas)}
    )
    return _write_result(cfg, provenance, cols)


def run_resonance_scan(cfg: ExperimentConfig) -> PresetResult:
    """Peak transfer versus drive frequency around the 1-, 2- and 3-photon channels.

    With the default `delta_omega_p` sweep the offsets are applied around each
    predicted channel frequency; parity forbids the 2-photon channel, so no
    peak appears in that window.  An `omega_p` sweep scans an absolute range
    instead.  Every point propagates on one dynamics.Sector.
    """
    if cfg.n_max < 3:
        raise ConfigError(f"resonance-scan reads |f,3> and needs n_max >= 3, got {cfg.n_max}")
    run = _resolve(cfg, photons=(1, 3))
    p = run.params
    predicted = {n: p.omega_f + n - run.spec.ground_energy for n in (1, 2, 3)}
    models = {n: effective_models.multiphoton_model(p, run.spec, n) for n in (1, 3)}
    t_half = {n: effective_models.half_period(model) for n, model in models.items()}
    t_half[2] = t_half[3]  # longest horizon makes the null test strongest

    # (omega_p, default t_end) of every scan point
    sweep = cfg.sweep
    grid = np.linspace(sweep.start, sweep.stop, sweep.steps)
    if sweep.variable == "delta_omega_p":
        points = [(predicted[n] + off, 1.05 * t_half[n]) for n in (1, 2, 3) for off in grid]
    else:
        points = [(float(wp), 1.05 * t_half[1]) for wp in grid]

    # on the default grid every point has the same steps per drive period, so
    # all share one set of node eigendecompositions (see dynamics.propagate)
    sector = dynamics.Sector(p, run.space3)
    cols: dict = {"omega_p": [], "max_p_f1": [], "max_p_f3": []}
    for omega_p, t_end in points:
        params = replace(p, drive_freq=omega_p)
        prop = _prop_config(cfg, params, t_end)
        series = dynamics.propagate(params, run.space3, prop, run.initial, sector=sector)
        cols["omega_p"].append(omega_p)
        cols["max_p_f1"].append(float(series.p_f1.max()))
        cols["max_p_f3"].append(float(series.p_f3.max()))

    provenance = _resolved_header(cfg, run)
    provenance["Omega"] = p.drive_amp
    provenance.update({f"predicted_n{n}": w for n, w in predicted.items()})
    provenance.update({f"g_n{n}": model.coupling for n, model in models.items()})
    provenance["sweep"] = (
        f"{sweep.variable} from {sweep.start:g} to {sweep.stop:g} in {sweep.steps} points"
    )
    return _write_result(cfg, provenance, cols)


def run_convergence_report(cfg: ExperimentConfig) -> PresetResult:
    """Refinement study: truncation doubling and step halving for the headline numbers.

    Writes its CSV, then raises ConvergenceGuardError when the ground energy
    moves above 1e-8 under truncation doubling or the peak transfer moves
    above 1e-6 under either refinement.  Both grids are checked before
    anything is propagated, and so are its ground levels, before the
    polaron fixed point is solved: the n_max one and then the 2*n_max one
    must not be degenerate (_degenerate), as in _judge_grounds.  The calling
    thread runs the base and then the halved-step run on their shared
    dynamics.Sector while a second thread runs the 2*n_max run, the longest
    (rabi_core.beside); numpy drops the GIL in its linear algebra, so the
    two overlap on two cores.  Each run is the serial one bit for bit.  A
    failure is raised in the serial order: beside raises base's, then the
    2*n_max run's, and a kept halved-step failure is raised last.
    Pure computation; idempotent across runs.
    """
    spec = rabi_core.solve_spectrum(ModelParams(omega0=cfg.omega0, coupling=cfg.coupling),
                                    make_space(cfg.n_max, 2))
    # the 2*n_max ground pair is propagated too, so it is solved, not certified
    psi0_2n, lambda0_2n, gap_2n = rabi_core.ground_levels(
        cfg.omega0, cfg.coupling, make_space(2 * cfg.n_max, 2))
    w = spec.eigenvalues
    for error in (_degenerate(cfg.coupling, cfg.n_max, w[1] - w[0]),
                  _degenerate(cfg.coupling, 2 * cfg.n_max, gap_2n)):
        if error is not None:
            raise error
    run = _resolve(cfg, spec=spec)
    model = effective_models.model_from_eigenbasis(run.params, spec)
    # the horizon snapped to the base grid, so refined runs sample identical times
    base_prop = _prop_config(
        cfg, run.params, 1.15 * effective_models.half_period(model), snap=True
    )
    half_prop = replace(base_prop, dt=0.5 * base_prop.dt, sample_every=2 * base_prop.sample_every)
    _grid_steps(half_prop)

    def peak(sector, initial, prop) -> float:
        try:
            series = dynamics.propagate(run.params, sector.space, prop, initial, sector=sector)
        except dynamics.StateOffSectorError as exc:
            # the exact ground level lies in the driven sector's +1 chain; a
            # truncation too coarse for the coupling can put it in the -1 chain
            raise ConvergenceGuardError(
                f"truncation n_max={sector.space.n_max} not converged: {exc}"
            ) from exc
        return float(series.p_f1.max())

    peaks: dict = {}  # run -> its peak, or dt/2's error, raised after the others

    def base_runs() -> None:
        sector = dynamics.Sector(run.params, run.space3)
        peaks["base"] = peak(sector, run.initial, base_prop)
        try:
            peaks["half"] = peak(sector, run.initial, half_prop)
        except Exception as exc:
            peaks["half"] = exc

    def refined_run() -> None:
        peaks["2n"] = peak(dynamics.Sector(run.params, make_space(2 * cfg.n_max, 3)),
                           dynamics.embed_ground_state(psi0_2n), base_prop)

    rabi_core.beside(refined_run, base_runs)  # raises base's error, then 2*n_max's
    if isinstance(peaks["half"], Exception):
        raise peaks["half"]
    p_base, p_2n, p_half = peaks["base"], peaks["2n"], peaks["half"]

    d_lambda0 = abs(spec.ground_energy - lambda0_2n)
    d_p_nmax = abs(p_2n - p_base)
    d_p_dt = abs(p_half - p_base)

    cols = {
        "n_max": [cfg.n_max, 2 * cfg.n_max, cfg.n_max],
        "dt": [base_prop.dt, base_prop.dt, half_prop.dt],
        "lambda0": [spec.ground_energy, lambda0_2n, spec.ground_energy],
        "max_p_f1": [p_base, p_2n, p_half],
    }
    provenance = {
        "preset": cfg.preset,
        "omega0": cfg.omega0,
        "lambda": cfg.coupling,
        "omega_f": cfg.omega_f,
        "Omega": run.params.drive_amp,
        "omega_p": run.params.drive_freq,
        "xi": run.pol.xi,
        "eta": run.pol.eta,
        "t_end": base_prop.t_end,
        "delta_lambda0_nmax_doubling": d_lambda0,
        "delta_max_p_f1_nmax_doubling": d_p_nmax,
        "delta_max_p_f1_dt_halving": d_p_dt,
        "threshold_lambda0": GUARD_TOL,
        "threshold_max_p_f1": DT_GUARD_TOL,
    }
    print(f"lambda0 delta under n_max doubling: {d_lambda0:.3e} (threshold {GUARD_TOL:g})")
    print(f"max_p_f1 delta under n_max doubling: {d_p_nmax:.3e} (threshold {DT_GUARD_TOL:g})")
    print(f"max_p_f1 delta under dt halving: {d_p_dt:.3e} (threshold {DT_GUARD_TOL:g})")
    result = _write_result(cfg, provenance, cols)
    if d_lambda0 > GUARD_TOL or d_p_nmax > DT_GUARD_TOL or d_p_dt > DT_GUARD_TOL:
        raise ConvergenceGuardError(
            f"refinement deltas exceed thresholds: lambda0 {d_lambda0:.3e}, "
            f"max_p_f1 n_max {d_p_nmax:.3e}, max_p_f1 dt {d_p_dt:.3e}"
        )
    return result


def run_two_state_compare(cfg: ExperimentConfig) -> PresetResult:
    """Full propagation against both analytic two-state curves over one Rabi period."""
    run = _resolve(cfg)
    eig_model = effective_models.model_from_eigenbasis(run.params, run.spec)
    pol_model = effective_models.model_from_polaron(run.params, run.pol)

    prop = _prop_config(cfg, run.params, 1.02 * 2.0 * effective_models.half_period(eig_model))
    series = dynamics.propagate(run.params, run.space3, prop, run.initial)

    p_eig = effective_models.analytic_transfer(eig_model, series.times)
    p_pol = effective_models.analytic_transfer(pol_model, series.times)
    cols = {
        "t": series.times,
        "p_f1_full": series.p_f1,
        "p_f1_eigenbasis": p_eig,
        "p_f1_polaron": p_pol,
        "norm": series.norm,
    }
    provenance = _resolved_header(cfg, run)
    provenance.update(
        {
            "Omega": run.params.drive_amp,
            "omega_p": run.params.drive_freq,
            "t_end": prop.t_end,
            "dt": prop.dt,
            "g_eigenbasis": eig_model.coupling,
            "g_polaron": pol_model.coupling,
            # undefined where LAPACK deflated the chain and g_eigenbasis is 0
            "coupling_rel_gap": (
                abs(eig_model.coupling - pol_model.coupling) / max(eig_model.coupling, 1e-300)
                if eig_model.coupling else float("nan")
            ),
            "supnorm_gap_eigenbasis": float(np.max(np.abs(series.p_f1 - p_eig))),
        }
    )
    return _write_result(cfg, provenance, cols)


_RUNNERS = {
    "fig2-sweep": run_fig2_sweep,
    "fig3-evolve": run_fig3_evolve,
    "resonance-scan": run_resonance_scan,
    "convergence-report": run_convergence_report,
    "two-state-compare": run_two_state_compare,
}


def run_preset(cfg: ExperimentConfig) -> PresetResult:
    return _RUNNERS[cfg.preset](cfg)
