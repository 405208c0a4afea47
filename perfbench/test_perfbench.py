"""Tests of the benchmark itself: span arithmetic, seeded inputs, output checks, coverage.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

from usc_rabi import config, dynamics, effective_models, hilbert, polaron, presets, rabi_core  # noqa: E402

MODULES = {
    "hilbert": hilbert, "rabi_core": rabi_core, "polaron": polaron,
    "effective_models": effective_models, "dynamics": dynamics,
    "presets": presets, "config": config,
}


def span(id, name, start, end, parent=None, **attrs):
    return tracing.Span(id, name, start, end, parent, "test", attrs)


class TestSpans:
    def test_self_time_of_synthetic_nested_call(self):
        spans = [
            span(0, "presets.run_preset", 0, 100),
            span(1, "presets.guarded_spectrum", 10, 60, 0),
            span(2, "rabi_core.solve_spectrum", 15, 45, 1),
            span(3, "hilbert.eigh", 20, 30, 2),
            span(4, "rabi_core.build_h_rabi", 32, 40, 2),
            span(5, "presets.write_csv", 70, 80, 0, bytes=123),
        ]
        assert tracing.self_times(spans) == {0: 40, 1: 20, 2: 12, 3: 10, 4: 8, 5: 10}
        m = tracing.layer_metrics(spans)
        assert m["presets.run_preset_self_s"] == pytest.approx(40e-9)
        assert m["rabi_core.solve_spectrum_s"] == pytest.approx(30e-9)
        assert m["rabi_core.solve_spectrum_self_s"] == pytest.approx(12e-9)
        assert m["presets.write_csv_bytes"] == 123

    def test_group_time_counts_nested_members_once(self):
        spans = [
            span(0, "hilbert.annihilation", 0, 10),
            span(1, "hilbert.atomic_op", 2, 5, 0),
            span(2, "hilbert.atomic_op", 20, 24),
        ]
        m = tracing.layer_metrics(spans)
        assert m["hilbert.ops_s"] == pytest.approx(14e-9)
        assert m["hilbert.ops_calls"] == 3

    def test_step_cost_uses_propagate_self_time_per_truncation(self):
        spans = [
            span(0, "dynamics.propagate", 0, 9000, steps=4, n_max=20, t_end=1.0, samples=5),
            span(1, "dynamics.static_hamiltonian", 0, 1000, 0),
        ]
        m = tracing.layer_metrics(spans)
        assert m["dynamics.step_us.n20"] == pytest.approx(2.0)
        assert m["dynamics.step_us.n40"] == 0.0
        assert (m["dynamics.steps"], m["dynamics.samples"], m["dynamics.sim_t"]) == (4, 5, 1.0)

    def test_wrapper_links_parents_and_self_times_sum_to_the_outer_call(self):
        tracer = tracing.Tracer(run="test")

        def inner(x):
            return sum(range(x))

        traced_inner = tracer.wrap("hilbert.eigh", inner)
        outer = tracer.wrap("rabi_core.solve_spectrum", lambda: [traced_inner(1000) for _ in range(3)])
        outer()
        top, *children = tracer.spans
        assert top.parent is None and [c.parent for c in children] == [top.id] * 3
        own = tracing.self_times(tracer.spans)
        assert sum(own.values()) == top.end - top.start
        assert tracer.calls()["hilbert.eigh"] == 3


class TestSeededInputs:
    @pytest.mark.parametrize("seed", range(25))
    def test_sweep_grid_stays_in_range_and_keeps_lambda_half(self, seed):
        start, stop = workloads.sweep_grid(seed)
        grid = np.linspace(start, stop, workloads.SWEEP_POINTS)
        assert 0.0 <= start < stop <= 0.8 + 1e-12
        assert np.min(np.abs(grid - 0.5)) < 1e-12

    def test_seed_changes_the_sweep_grid_and_scan_offsets(self):
        assert len({workloads.sweep_grid(s) for s in range(10)}) == 10
        offsets = {workloads.scan_offset(s) for s in range(10)}
        assert len(offsets) == 10
        lo, hi = workloads.SCAN_OFFSET_RANGE
        assert all(lo <= d <= hi for d in offsets)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_scan_config_keeps_the_window_centres(self, seed, tmp_path):
        cfg = self._load(workloads.make("scan", seed), tmp_path)
        offsets = np.linspace(cfg.sweep.start, cfg.sweep.stop, cfg.sweep.steps)
        assert list(offsets) == [-workloads.scan_offset(seed), 0.0, workloads.scan_offset(seed)]
        assert (cfg.n_max, cfg.drive_amp, cfg.t_end) == (20, 0.4, workloads.SCAN_T_END)

    def test_config_file_round_trips_the_drawn_grid(self, tmp_path):
        cfg = self._load(workloads.make("sweep", 3), tmp_path)
        assert (cfg.sweep.start, cfg.sweep.stop) == workloads.sweep_grid(3)
        assert cfg.sweep.steps == workloads.SWEEP_POINTS and cfg.n_max == 40

    def test_refine_runs_convergence_report_at_defaults(self, tmp_path):
        cfg = self._load(workloads.make("refine", 5), tmp_path)
        assert cfg == config.build_config("convergence-report")

    @staticmethod
    def _load(workload, tmp_path):
        path = tmp_path / "w.cfg"
        path.write_text(workload.config_text(), encoding="utf-8")
        return config.load_experiment(workload.preset, config_path=path)


def _sweep_csv(path, c10=workloads.C10_EXACT):
    start, stop = workloads.sweep_grid(0)
    lam = np.linspace(start, stop, workloads.SWEEP_POINTS)
    i = int(np.argmin(np.abs(lam - 0.5)))
    cols = {name: np.zeros_like(lam) for name in (
        "c10_exact", "c10_approx", "xi", "eta", "lambda0_exact", "e_approx")}
    for name, value in (("c10_exact", c10), ("c10_approx", workloads.C10_APPROX_05),
                        ("xi", workloads.XI_05), ("eta", workloads.ETA_05),
                        ("lambda0_exact", workloads.LAMBDA0)):
        cols[name][i] = value
    return presets.write_csv(path, {"preset": "fig2-sweep"}, {"lambda": lam, **cols})


def _scan_csv(path, f1=(0.5, 0.98, 0.45)):
    centres = [workloads.OMEGA_P_EXACT + n - 1 for n in (1, 2, 3)]
    wp = [c + d for c in centres for d in (-0.1, 0.0, 0.1)]
    cols = {"omega_p": wp,
            "max_p_f1": [*f1, 0.01, 0.012, 0.011, 0.003, 0.003, 0.003],
            "max_p_f3": [0.0, 0.0, 0.0, 1e-4, 1e-4, 1e-4, 0.01, 0.03, 0.008]}
    prov = {f"predicted_n{n}": c for n, c in zip((1, 2, 3), centres)}
    return presets.write_csv(path, prov, cols)


def _refine_csv(path):
    prov = {"delta_lambda0_nmax_doubling": 1e-14, "delta_max_p_f1_nmax_doubling": 1e-9,
            "delta_max_p_f1_dt_halving": 1e-10}
    cols = {"n_max": [40, 80, 40], "dt": [0.01, 0.01, 0.005],
            "lambda0": [workloads.LAMBDA0] * 3, "max_p_f1": [0.99428] * 3}
    return presets.write_csv(path, prov, cols)


class TestOutputChecks:
    def test_good_outputs_pass(self, tmp_path):
        assert workloads.check_output("sweep", _sweep_csv(tmp_path / "a.csv"), 0) == []
        assert workloads.check_output("scan", _scan_csv(tmp_path / "b.csv"), 0) == []
        assert workloads.check_output("refine", _refine_csv(tmp_path / "c.csv"), 0) == []

    def test_sweep_rejects_c10_off_by_1e_8(self, tmp_path):
        path = _sweep_csv(tmp_path / "a.csv", c10=workloads.C10_EXACT + 1e-8)
        assert workloads.check_output("sweep", path, 0)

    def test_scan_rejects_one_photon_peak_off_centre(self, tmp_path):
        path = _scan_csv(tmp_path / "b.csv", f1=(0.98, 0.5, 0.45))
        assert workloads.check_output("scan", path, 0)

    def test_refine_rejects_guard_exit(self, tmp_path):
        assert workloads.check_output("refine", _refine_csv(tmp_path / "c.csv"), 2)

    def test_missing_output_is_a_failure(self, tmp_path):
        assert workloads.check_output("sweep", tmp_path / "absent.csv", 0)


def test_every_wrapped_function_is_called_by_some_workload(tmp_path):
    """Short versions of the three workloads reach every wrapped name."""
    original = presets.run_preset
    tracer = tracing.Tracer(run="coverage")
    tracer.install(MODULES)
    try:
        for name, short in (("sweep", {"sweep_steps": 9}), ("scan", {"t_end": 0.5}),
                            ("refine", {"t_end": 0.5})):
            workload = workloads.make(name, 0)
            path = tmp_path / f"{name}.cfg"
            path.write_text(workloads.Workload(name, workload.preset, {**workload.config, **short})
                            .config_text(), encoding="utf-8")
            cfg = config.load_experiment(workload.preset, config_path=path,
                                         out=tmp_path / f"{name}.csv")
            presets.run_preset(cfg)
    finally:
        tracer.uninstall()
    assert presets.run_preset is original
    assert [n for n, c in tracer.calls().items() if c == 0] == []


def test_refuses_to_run_without_the_package_source(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
