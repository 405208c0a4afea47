import dataclasses
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usc_rabi import ModelParams, dressed_amplitude, dynamics, make_space, polaron
from usc_rabi import ground_state, presets, rabi_core, solve_spectrum
from usc_rabi.cli import main
from usc_rabi.config import (
    ConfigError,
    build_config,
    load_experiment,
    parse_config_file,
)
from usc_rabi.presets import GUARD_TOL, ConvergenceGuardError, run_preset


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        path = _write(
            tmp_path,
            "ok.cfg",
            "# comment line\n"
            "omega0 = 1.0\n"
            "lambda = 0.3\n"
            "Omega = 0.2\n"
            "n_max = 12\n"
            "norm_tol = 1e-10\n",
        )
        raw = parse_config_file(path)
        assert raw == {
            "omega0": 1.0, "lambda": 0.3, "Omega": 0.2, "n_max": 12, "norm_tol": 1e-10,
        }

    def test_unknown_key(self, tmp_path):
        path = _write(tmp_path, "bad.cfg", "bogus = 1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_file(path)

    def test_duplicate_key(self, tmp_path):
        path = _write(tmp_path, "dup.cfg", "omega0 = 1\nomega0 = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_file(path)

    def test_bad_value(self, tmp_path):
        path = _write(tmp_path, "val.cfg", "omega0 = fast\n")
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_file(path)

    def test_missing_equals(self, tmp_path):
        path = _write(tmp_path, "eq.cfg", "omega0 1.0\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_file(path)

    def test_not_utf8_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "latin.cfg"
        path.write_bytes(b"n_max = 8\xff\n")
        with pytest.raises(ConfigError, match="latin.cfg: not UTF-8 text"):
            parse_config_file(path)
        assert main(["two-state-compare", "--config", str(path),
                     "--out", str(tmp_path / "o.csv")]) == 3
        assert "config error: " in capsys.readouterr().err


class TestBuildConfig:
    def test_default_sweep_injected(self):
        cfg = build_config("fig2-sweep")
        assert cfg.sweep is not None
        assert cfg.sweep.variable == "lambda"
        assert (cfg.sweep.start, cfg.sweep.stop, cfg.sweep.steps) == (0.0, 0.8, 41)

    def test_sweep_forbidden_for_time_evolution(self):
        raw = {"sweep_variable": "lambda", "sweep_start": 0.0,
               "sweep_stop": 1.0, "sweep_steps": 5}
        with pytest.raises(ConfigError, match="does not take a sweep"):
            build_config("fig3-evolve", raw)

    def test_incomplete_sweep(self):
        with pytest.raises(ConfigError, match="incomplete sweep"):
            build_config("fig2-sweep", {"sweep_variable": "lambda"})

    def test_wrong_sweep_variable(self):
        raw = {"sweep_variable": "omega_p", "sweep_start": 4.0,
               "sweep_stop": 5.0, "sweep_steps": 3}
        with pytest.raises(ConfigError, match="sweeps over"):
            build_config("fig2-sweep", raw)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            build_config("fig9-dream")

    def test_preset_mismatch(self):
        with pytest.raises(ConfigError, match="was requested"):
            build_config("fig2-sweep", {"preset": "fig3-evolve"})

    def test_omega_list_restricted(self):
        with pytest.raises(ConfigError, match="Omega_list"):
            build_config("fig2-sweep", {"Omega_list": (0.2, 0.4)})

    @pytest.mark.parametrize("omegas", ["0.2,0.4,0.2", "0.2,0.20000000001"])
    def test_omega_list_tags_must_differ(self, tmp_path, capsys, omegas):
        # each entry names its curve's columns by its %g tag, so a second
        # entry with the same tag would overwrite the first one's columns
        cfg = _write(tmp_path, "tag.cfg", f"Omega_list = {omegas}\n")
        assert main(["fig3-evolve", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 3
        assert "Omega_list entries share the column tag Omega0.2" in capsys.readouterr().err
        assert build_config("fig3-evolve", {"Omega_list": (0.2, 0.200001)}).omega_list

    @pytest.mark.parametrize("preset", ["two-state-compare", "fig2-sweep"])
    @pytest.mark.parametrize("where", ["missing/o.csv", "."])
    def test_unwritable_output_path_is_config_error(self, tmp_path, monkeypatch, capsys,
                                                    preset, where):
        from usc_rabi import cli

        ran = []
        monkeypatch.setattr(cli, "run_preset", ran.append)
        out = tmp_path / where
        assert main([preset, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        want = "is a directory" if where == "." else f"directory {out.parent} does not exist"
        assert want in err
        assert ran == []
        assert not (tmp_path / "missing").exists()
        # an empty output_path still means <preset>.csv in the working directory
        assert build_config(preset, {"output_path": ""}).output_path == ""

    def test_overrides(self, tmp_path):
        path = _write(tmp_path, "o.cfg", "n_max = 30\n")
        cfg = load_experiment("fig2-sweep", path, out=tmp_path / "x.csv", n_max=8, dt=0.01)
        assert cfg.n_max == 8
        assert cfg.dt == 0.01
        assert cfg.output_path == str(tmp_path / "x.csv")


def _read_columns(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    names = lines[0].split(",")
    data = np.array([[float(x) for x in row.split(",")] for row in lines[1:]])
    return names, data


class TestCliRuns:
    def test_fig2_sweep_small(self, tmp_path):
        cfg = _write(
            tmp_path, "f2.cfg",
            "sweep_variable = lambda\nsweep_start = 0.0\nsweep_stop = 0.4\n"
            "sweep_steps = 5\nn_max = 16\n",
        )
        out = tmp_path / "f2.csv"
        assert main(["fig2-sweep", "--config", str(cfg), "--out", str(out)]) == 0
        names, data = _read_columns(out)
        assert names == ["lambda", "c10_exact", "c10_approx", "xi", "eta",
                         "lambda0_exact", "e_approx"]
        assert data.shape == (5, 7)
        # coupling-free row: no virtual photon amplitude
        assert data[0, 0] == 0.0
        assert data[0, 1] == 0.0 and data[0, 2] == 0.0
        header = [l for l in out.read_text().splitlines() if l.startswith("#")]
        assert any("n_max" in l for l in header)

    def test_fig2_sweep_deterministic(self, tmp_path):
        cfg = _write(
            tmp_path, "f2d.cfg",
            "sweep_variable = lambda\nsweep_start = 0.0\nsweep_stop = 0.3\n"
            "sweep_steps = 3\nn_max = 12\n",
        )
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["fig2-sweep", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["fig2-sweep", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_fig2_sweep_is_the_full_spectrum_ground_pair(self, tmp_path, monkeypatch,
                                                           eigh_calls):
        # c10 and E0 come from the n_max ground pairs; the full spectrum is the
        # oracle.  Each point's +1 chain at n_max is solved in a stack of
        # chains, and only counted otherwise: the -1 chain's at n_max, and
        # both chains' at 2*n_max for the certified guard.  One matrix per
        # point, no eigvalsh
        raw = {"sweep_variable": "lambda", "sweep_start": 0.0, "sweep_stop": 1.5,
               "sweep_steps": 6, "n_max": 30, "output_path": str(tmp_path / "f2.csv")}
        cfg = build_config("fig2-sweep", raw)
        eigvalsh_calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: eigvalsh_calls.append(a))
        cols = run_preset(cfg).columns
        n = cfg.n_max + 1
        assert all(len(shape) == 3 and shape[1:] == (n, n) for shape in eigh_calls)
        assert sum(shape[0] for shape in eigh_calls) == cfg.sweep.steps and not eigvalsh_calls
        for lam, c10, energy in zip(cols["lambda"], cols["c10_exact"], cols["lambda0_exact"]):
            spec = solve_spectrum(ModelParams(omega0=cfg.omega0, coupling=lam),
                                  make_space(cfg.n_max, 2))
            assert c10 == dressed_amplitude(spec, 1).real
            assert energy == spec.ground_energy

    def test_fig2_sweep_joins_its_second_thread(self, tmp_path, monkeypatch):
        # 20 couplings at n_max 30 are three eigh stacks of 8 (STACK_BYTES),
        # shared with a second thread
        beside, calls = rabi_core.beside, []

        def spy(work, main):
            calls.append(work)
            beside(work, main)

        monkeypatch.setattr(rabi_core, "beside", spy)
        raw = {"sweep_variable": "lambda", "sweep_start": 0.0, "sweep_stop": 1.5,
               "sweep_steps": 20, "n_max": 30, "output_path": str(tmp_path / "f2.csv")}
        threads = threading.active_count()
        run_preset(build_config("fig2-sweep", raw))
        assert threading.active_count() == threads
        assert len(calls) == 1

    def test_fig3_evolve_runs_the_one_omega(self, tmp_path, capsys):
        # Omega alone is the one curve Omega_list = Omega gives, not the default list
        one, listed, out = tmp_path / "one.csv", tmp_path / "list.csv", tmp_path / "x.csv"
        for path, key in ((one, "Omega = 0.5"), (listed, "Omega_list = 0.5")):
            cfg = _write(tmp_path, "f3.cfg", f"n_max = 8\nt_end = 3\n{key}\n")
            assert main(["fig3-evolve", "--config", str(cfg), "--out", str(path)]) == 0
        assert _read_columns(one)[0] == ["t", "p_f1_Omega0.5", "p_analytic_Omega0.5",
                                         "norm_Omega0.5"]
        assert one.read_bytes() == listed.read_bytes()
        cfg = _write(tmp_path, "both.cfg", "n_max = 8\nOmega = 0.5\nOmega_list = 0.2,0.4\n")
        assert main(["fig3-evolve", "--config", str(cfg), "--out", str(out)]) == 3
        assert "set Omega (one curve) or Omega_list, not both" in capsys.readouterr().err

    def test_fig3_evolve_small(self, tmp_path):
        cfg = _write(
            tmp_path, "f3.cfg",
            "n_max = 10\nOmega_list = 0.2,0.4\nt_end = 10\n",
        )
        out = tmp_path / "f3.csv"
        assert main(["fig3-evolve", "--config", str(cfg), "--out", str(out)]) == 0
        names, data = _read_columns(out)
        assert names == ["t", "p_f1_Omega0.2", "p_analytic_Omega0.2", "norm_Omega0.2",
                         "p_f1_Omega0.4", "p_analytic_Omega0.4", "norm_Omega0.4"]
        assert data[0, 0] == 0.0
        # analytic curves start at zero for every run
        assert data[0, 2] == 0.0 and data[0, 5] == 0.0
        assert np.max(np.abs(data[:, 3] - 1.0)) < 1e-9
        header = out.read_text()
        assert "# omega_p =" in header and "# lambda0 =" in header

    def test_two_state_compare_small(self, tmp_path):
        cfg = _write(tmp_path, "ts.cfg", "n_max = 10\nt_end = 10\n")
        out = tmp_path / "ts.csv"
        assert main(["two-state-compare", "--config", str(cfg), "--out", str(out)]) == 0
        names, data = _read_columns(out)
        assert names == ["t", "p_f1_full", "p_f1_eigenbasis", "p_f1_polaron", "norm"]
        header = out.read_text()
        assert "# g_eigenbasis =" in header and "# g_polaron =" in header
        assert "# supnorm_gap_eigenbasis =" in header

    def test_resonance_scan_absolute_range(self, tmp_path):
        cfg = _write(
            tmp_path, "rs.cfg",
            "n_max = 10\nOmega = 0.4\nt_end = 4\n"
            "sweep_variable = omega_p\nsweep_start = 4.5\nsweep_stop = 4.7\n"
            "sweep_steps = 2\n",
        )
        out = tmp_path / "rs.csv"
        assert main(["resonance-scan", "--config", str(cfg), "--out", str(out)]) == 0
        names, data = _read_columns(out)
        assert names == ["omega_p", "max_p_f1", "max_p_f3"]
        assert data.shape == (2, 3)
        assert np.allclose(data[:, 0], [4.5, 4.7])

    def test_convergence_report_small(self, tmp_path, capsys):
        cfg = _write(tmp_path, "cv.cfg", "n_max = 8\nt_end = 30\n")
        out = tmp_path / "cv.csv"
        assert main(["convergence-report", "--config", str(cfg), "--out", str(out)]) == 0
        names, data = _read_columns(out)
        assert names == ["n_max", "dt", "lambda0", "max_p_f1"]
        assert data.shape == (3, 4)
        assert list(data[:, 0]) == [8.0, 16.0, 8.0]
        assert "dt halving" in capsys.readouterr().out

    def test_idempotent_convergence_report(self, tmp_path):
        cfg = _write(tmp_path, "cv2.cfg", "n_max = 8\nt_end = 10\n")
        out1, out2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
        assert main(["convergence-report", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["convergence-report", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_long_horizon_two_state_compare(self, tmp_path):
        # lambda = 3 derives a horizon of about 407k steps at the default grid
        cfg = _write(tmp_path, "l3.cfg", "lambda = 3\n")
        out = tmp_path / "l3.csv"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run(
            [sys.executable, "-m", "usc_rabi.cli", "two-state-compare",
             "--config", str(cfg), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 0, proc.stderr
        names, data = _read_columns(out)
        assert np.max(np.abs(data[:, names.index("norm")] - 1.0)) < 1e-9

    def test_tiny_coupling_holds_its_norm_over_the_derived_horizon(self, tmp_path):
        # lambda 1e-4 derives t_end = 6.4e5, about 9.4e5 half-period segments;
        # the segment map, unitary to rounding, keeps the norm within the
        # default 1e-9 (without its polar steps the run exits 2 at t = 3.4e4)
        cfg = _write(tmp_path, "tiny.cfg", "lambda = 1e-4\nn_max = 8\n")
        out = tmp_path / "tiny.csv"
        assert main(["two-state-compare", "--config", str(cfg), "--out", str(out)]) == 0
        names, data = _read_columns(out)
        assert data[-1, names.index("t")] > 6e5
        assert np.max(np.abs(data[:, names.index("norm")] - 1.0)) < 1e-9


def _refinement_run(params, space, config, n_max: int = 8) -> str:
    """Which run of convergence-report (n_max, default grid) a propagate call is."""
    if space.n_max == 2 * n_max:
        return "2n"
    return "half" if round(2.0 * np.pi / (params.drive_freq * config.dt)) == 400 else "base"


class TestConvergenceReportThreads:
    """convergence-report runs its 2*n_max propagation beside its base and dt/2 runs."""

    @pytest.mark.parametrize("text, n_max", [("n_max = 8\nt_end = 10\n", 8), ("", 40)])
    def test_columns_are_the_serial_runs_bit_for_bit(self, tmp_path, monkeypatch, text, n_max):
        calls = {}
        propagate = dynamics.propagate

        def spy(params, space, config, initial, **kwargs):
            calls[_refinement_run(params, space, config, n_max)] = (params, space, config, initial)
            return propagate(params, space, config, initial, **kwargs)

        monkeypatch.setattr(dynamics, "propagate", spy)
        cfg = load_experiment("convergence-report", config_path=_write(tmp_path, "c.cfg", text),
                              out=tmp_path / "c.csv")
        threads = threading.active_count()
        cols = run_preset(cfg).columns
        assert threading.active_count() == threads
        # each run again, one after another on this thread, each on its own sector
        serial = [float(propagate(*calls[name]).p_f1.max()) for name in ("base", "2n", "half")]
        assert cols["max_p_f1"] == serial
        assert cols["n_max"] == [n_max, 2 * n_max, n_max]

    @pytest.mark.parametrize("error", [dynamics.NormDriftError, dynamics.StateOffSectorError])
    @pytest.mark.parametrize("failing", [
        ("base",), ("2n",), ("half",), ("base", "2n"), ("base", "half"), ("2n", "half"),
        ("base", "2n", "half"),
    ], ids="-".join)
    def test_failure_is_the_serial_first(self, tmp_path, monkeypatch, capsys, error, failing):
        # the 2*n_max run fails at once, the others only after propagating, so
        # the first failure in time is not always the first in serial order
        propagate = dynamics.propagate

        def failing_propagate(params, space, config, initial, **kwargs):
            name = _refinement_run(params, space, config)
            if name in failing:
                if name != "2n":
                    propagate(params, space, config, initial, **kwargs)
                raise error(f"{name} run failed")
            return propagate(params, space, config, initial, **kwargs)

        monkeypatch.setattr(dynamics, "propagate", failing_propagate)
        cfg = _write(tmp_path, "c.cfg", "n_max = 8\nt_end = 10\n")
        out = tmp_path / "c.csv"
        threads = threading.active_count()
        assert main(["convergence-report", "--config", str(cfg), "--out", str(out)]) == 2
        assert threading.active_count() == threads
        first = failing[0]
        if error is dynamics.NormDriftError:
            want = f"propagation aborted: {first} run failed"
        else:
            n_max = 16 if first == "2n" else 8
            want = f"convergence guard: truncation n_max={n_max} not converged: {first} run failed"
        assert capsys.readouterr().err == f"usc-rabi: {want}\n"
        assert not out.exists()


class TestExitCodes:
    def test_unknown_key_is_config_error(self, tmp_path):
        cfg = _write(tmp_path, "bad.cfg", "nonsense = 3\n")
        assert main(["fig2-sweep", "--config", str(cfg)]) == 3

    def test_missing_file_is_config_error(self, tmp_path):
        assert main(["fig2-sweep", "--config", str(tmp_path / "absent.cfg")]) == 3

    @pytest.mark.parametrize("preset", ["fig2-sweep", "two-state-compare"])
    def test_zero_omega0_is_config_error(self, tmp_path, preset):
        cfg = _write(tmp_path, "w0.cfg", "omega0 = 0\nn_max = 8\n")
        assert main([preset, "--config", str(cfg), "--out", str(tmp_path / "w0.csv")]) == 3

    def test_vanishing_coupling_needs_explicit_horizon(self, tmp_path):
        cfg = _write(tmp_path, "l0.cfg", "lambda = 0.0\nn_max = 8\n")
        assert main(["fig3-evolve", "--config", str(cfg),
                     "--out", str(tmp_path / "l0.csv")]) == 3
        cfg2 = _write(tmp_path, "l0b.cfg", "lambda = 0.0\nn_max = 8\nt_end = 5\n")
        assert main(["fig3-evolve", "--config", str(cfg2),
                     "--out", str(tmp_path / "l0b.csv")]) == 0

    def test_underflowing_coupling_writes_no_nan(self, tmp_path):
        # at lambda 1e-170 both two-state couplings square to zero; the
        # relative coupling gap alone is undefined (test_deflated_chain_...)
        cfg = _write(tmp_path, "tiny.cfg", "lambda = 1e-170\nn_max = 8\nt_end = 5\n")
        out = tmp_path / "tiny.csv"
        assert main(["two-state-compare", "--config", str(cfg), "--out", str(out)]) in (0, 2, 3)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert not [l for l in lines if "nan" in l and not l.startswith("# coupling_rel_gap")]

    @pytest.mark.parametrize("coupling", ["1e-170", "1e-150"])
    def test_deflated_chain_has_no_relative_coupling_gap(self, tmp_path, coupling):
        # LAPACK deflates the chain's off-diagonals, so c10 and g_eigenbasis
        # are exactly 0 and the gap relative to g_eigenbasis is undefined
        cfg = _write(tmp_path, "tiny.cfg", f"lambda = {coupling}\nn_max = 8\nt_end = 3\n")
        out = tmp_path / "tiny.csv"
        assert main(["two-state-compare", "--config", str(cfg), "--out", str(out)]) == 0
        header = out.read_text(encoding="utf-8")
        assert "# g_eigenbasis = 0\n" in header and "# coupling_rel_gap = nan\n" in header

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as info:
            main(["no-such-preset"])
        assert info.value.code == 3

    def test_truncation_guard_failure(self, tmp_path):
        # coupling 0.8 at n_max = 4 is far from converged
        cfg = _write(
            tmp_path, "guard.cfg",
            "sweep_variable = lambda\nsweep_start = 0.8\nsweep_stop = 0.81\n"
            "sweep_steps = 2\nn_max = 4\n",
        )
        assert main(["fig2-sweep", "--config", str(cfg),
                     "--out", str(tmp_path / "g.csv")]) == 2

    def test_three_photon_amplitude_guard_failure(self, tmp_path, capsys):
        # at n_max = 4, lambda = 0.2 the ground energy and c10 pass the 1e-8
        # guard but the 3-photon amplitude c30 that resonance-scan reports does not
        cfg = _write(tmp_path, "c30.cfg", "n_max = 4\nlambda = 0.2\n")
        assert main(["resonance-scan", "--config", str(cfg),
                     "--out", str(tmp_path / "c30.csv")]) == 2
        assert "c30 moved" in capsys.readouterr().err

    @pytest.mark.parametrize("coupling", [0.0, 0.5])
    def test_resonance_scan_needs_three_photons(self, tmp_path, coupling):
        cfg = _write(tmp_path, "n2.cfg", f"n_max = 2\nlambda = {coupling}\n")
        assert main(["resonance-scan", "--config", str(cfg),
                     "--out", str(tmp_path / "n2.csv")]) == 3

    @pytest.mark.parametrize("preset, dt", [
        ("two-state-compare", 0.5), ("fig3-evolve", 0.5),
        ("resonance-scan", 0.1), ("convergence-report", 0.1),
    ])
    def test_too_coarse_dt_is_config_error(self, tmp_path, preset, dt):
        # the default drives need dt <= 2*pi/(50*omega_p), about 0.027
        cfg = _write(tmp_path, "dt.cfg", f"n_max = 8\nt_end = 5\ndt = {dt}\n")
        out = str(tmp_path / "dt.csv")
        assert main([preset, "--config", str(cfg), "--out", out]) == 3
        assert main([preset, "--nmax", "8", "--dt", str(dt), "--out", out]) == 3

    @pytest.mark.parametrize("preset", ["two-state-compare", "fig3-evolve", "convergence-report"])
    def test_coarsest_dt_runs_however_rounded(self, tmp_path, preset):
        # (2*pi/3.1)/50 is one ulp above 2*pi/(50*3.1); both mean T/50
        cfg = _write(tmp_path, "dt.cfg", "n_max = 8\nt_end = 5\nomega_p = 3.1\n")
        out = str(tmp_path / "dt.csv")
        dt = (2.0 * np.pi / 3.1) / 50
        assert main([preset, "--config", str(cfg), "--out", out, "--dt", repr(dt)]) == 0
        too_coarse = 1.01 * 2.0 * np.pi / (50 * 3.1)
        assert main([preset, "--config", str(cfg), "--out", out, "--dt", repr(too_coarse)]) == 3

    @pytest.mark.parametrize("preset, keys, message", [
        (preset, keys, message)
        for keys, message in [
            ("dt = 1e-300", "steps of dt=1e-300, more than an int64 holds"),
            ("t_end = 1e300", "t_end=1e+300 is 1.4"),
            ("omega_p = 1e20", "steps of dt=3.142e-22, more than an int64 holds"),
            ("omega_f = 1e300", "steps of dt=3.142e-302, more than an int64 holds"),
            ("dt = 1e-300\nt_end = 1e300", "t_end=1e+300 is inf steps of dt=1e-300"),
            ("sample_every = 1\nt_end = 1e12", " steps sampled every 1 need a "),
        ]
        for preset in ["fig3-evolve", "resonance-scan", "convergence-report",
                       "two-state-compare"]
        # resonance-scan takes each point's omega_p from its scan, not from the key
        if not (preset == "resonance-scan" and keys.startswith("omega_p"))
    ])
    def test_grid_too_large_is_config_error(self, tmp_path, capsys, preset, keys, message):
        # the steps and samples are counted before anything is allocated
        cfg = _write(tmp_path, "grid.cfg", f"n_max = 8\n{keys}\n")
        assert main([preset, "--config", str(cfg), "--out", str(tmp_path / "grid.csv")]) == 3
        assert message in capsys.readouterr().err

    def test_refined_grid_too_large_is_config_error(self, tmp_path, capsys):
        # 2^62.5 base steps fit an int64 and the 2^63.5 of the dt/2 run do
        # not: the report checks both grids before it propagates anything
        cfg = _write(tmp_path, "half.cfg", f"n_max = 8\ndt = 0.01\nt_end = {0.01 * 2**62.5!r}\n")
        out = tmp_path / "half.csv"
        assert main(["convergence-report", "--config", str(cfg), "--out", str(out)]) == 3
        assert "steps of dt=0.005, more than an int64 holds" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sweep", [
        "",  # the default delta_omega_p sweep
        "sweep_variable = omega_p\nsweep_start = 4.5\nsweep_stop = 4.7\nsweep_steps = 2\n",
    ], ids=["delta_omega_p", "omega_p"])
    def test_scan_refuses_omega_p(self, tmp_path, capsys, sweep):
        # every scan point sets its own drive frequency, so the key would be ignored
        cfg = _write(tmp_path, "wp.cfg", f"n_max = 8\nt_end = 3\nomega_p = 1e20\n{sweep}")
        assert main(["resonance-scan", "--config", str(cfg),
                     "--out", str(tmp_path / "wp.csv")]) == 3
        assert "resonance-scan takes each point's omega_p from its sweep" in (
            capsys.readouterr().err)

    def test_horizon_under_half_a_step_runs(self, tmp_path):
        # the default step T/200 is 2.01 at omega_p = 1/64, so the report
        # snaps t_end = 1 to one step instead of to zero
        cfg = _write(tmp_path, "short.cfg",
                     "lambda = 0.1\nn_max = 4\nt_end = 1.0\nomega_p = 0.015625\n")
        assert main(["convergence-report", "--config", str(cfg),
                     "--out", str(tmp_path / "s.csv")]) == 0

    def test_horizon_shorter_than_one_step_is_config_error(self, tmp_path, capsys):
        # at omega_p = 1e-300 the default step T/200 is 3.1e298; one step
        # would run the point far past its t_end of 1
        cfg = _write(tmp_path, "tiny.cfg",
                     "lambda = 0.1\nn_max = 8\nt_end = 1\nsweep_variable = omega_p\n"
                     "sweep_start = 1e-300\nsweep_stop = 4\nsweep_steps = 2\n")
        assert main(["resonance-scan", "--config", str(cfg),
                     "--out", str(tmp_path / "tiny.csv")]) == 3
        assert "t_end=1 is shorter than one step (dt=3.142e+298)" in capsys.readouterr().err

    def test_refinement_guard_failure(self, tmp_path, monkeypatch, capsys):
        # magnus4 moves the peak by about 1e-10 under dt halving, so shift the
        # halved-step run (400 steps per drive period) by 1e-5 to trip the guard
        propagate = dynamics.propagate

        def shifted(params, space, config, initial, **kwargs):
            series = propagate(params, space, config, initial, **kwargs)
            if round(2.0 * np.pi / (params.drive_freq * config.dt)) == 400:
                series = dataclasses.replace(series, p_f1=series.p_f1 + 1e-5)
            return series

        monkeypatch.setattr(dynamics, "propagate", shifted)
        cfg = _write(tmp_path, "dt2.cfg", "n_max = 8\nt_end = 20\n")
        out = tmp_path / "dt2.csv"
        assert main(["convergence-report", "--config", str(cfg), "--out", str(out)]) == 2
        assert "max_p_f1 dt 1.000e-05" in capsys.readouterr().err
        names, data = _read_columns(out)
        assert data[2, names.index("max_p_f1")] - data[0, names.index("max_p_f1")] == (
            pytest.approx(1e-5, abs=1e-9))

    @pytest.mark.parametrize("method", ["rk4", "magnus4"])
    def test_removed_method_key_is_config_error(self, tmp_path, capsys, method):
        cfg = _write(tmp_path, "m.cfg", f"n_max = 8\nt_end = 5\nmethod = {method}\n")
        assert main(["two-state-compare", "--config", str(cfg),
                     "--out", str(tmp_path / "m.csv")]) == 3
        assert "unknown key 'method'" in capsys.readouterr().err

    @pytest.mark.parametrize("preset", ["two-state-compare", "fig2-sweep"])
    def test_slow_polaron_fixed_point_runs(self, tmp_path, preset):
        # the plain (xi, eta) iteration contracts by only 0.926 per step at
        # lambda = 1.25; 200 steps left it off the root for lambda 1.24-1.26
        text = "omega0 = 2\nlambda = 1.25\n"
        if preset == "fig2-sweep":
            text = ("omega0 = 2\nsweep_variable = lambda\nsweep_start = 1.2\n"
                    "sweep_stop = 1.3\nsweep_steps = 11\n")
        cfg = _write(tmp_path, "pol.cfg", text)
        out = tmp_path / "pol.csv"
        assert main([preset, "--config", str(cfg), "--out", str(out)]) == 0
        names, data = _read_columns(out)
        if preset == "fig2-sweep":
            assert np.all((data[:, names.index("eta")] > 0) & (data[:, names.index("eta")] < 1))

    def test_unsolved_polaron_fixed_point_is_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(polaron, "FIXED_POINT_MAX_ITER", 3)
        cfg = _write(tmp_path, "pol.cfg", "omega0 = 2\nlambda = 1.25\nt_end = 5\n")
        assert main(["two-state-compare", "--config", str(cfg),
                     "--out", str(tmp_path / "pol.csv")]) == 3
        assert "fixed point did not converge at omega0=2, lambda=1.25: residuals (" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("preset", [
        "fig3-evolve", "resonance-scan", "convergence-report", "two-state-compare"])
    def test_degenerate_ground_level_is_config_error(self, tmp_path, capsys, preset):
        # at lambda = 4 the two parity ground levels meet to 1.4e-14 at
        # n_max 80 and to 7.1e-15 at 160: every preset names the n_max level
        # before its 2*n_max reference
        cfg = _write(tmp_path, "deg.cfg", "lambda = 4\nn_max = 80\nt_end = 1\n")
        assert main([preset, "--config", str(cfg), "--out", str(tmp_path / "deg.csv")]) == 3
        err = capsys.readouterr().err
        assert "ground level is degenerate within tolerance (gap " in err
        assert ") at lambda=4, n_max=80" in err

    @pytest.mark.parametrize("n_max, degenerate_at", [(20, 40), (40, 40)])
    def test_convergence_report_judges_its_gaps_before_the_polaron_frame(
        self, tmp_path, capsys, monkeypatch, n_max, degenerate_at
    ):
        # at lambda = 3.6 the parity ground levels meet to 5e-12 at n_max 40:
        # the 2*n_max level of n_max 20, the n_max level of n_max 40
        calls = []
        solve = polaron.solve_xi_eta

        def spy(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(polaron, "solve_xi_eta", spy)
        cfg = _write(tmp_path, "deg.cfg", f"lambda = 3.6\nn_max = {n_max}\nt_end = 1\n")
        assert main(["convergence-report", "--config", str(cfg),
                     "--out", str(tmp_path / "deg.csv")]) == 3
        assert (f"ground level is degenerate within tolerance (gap 4.956e-12) "
                f"at lambda=3.6, n_max={degenerate_at}") in capsys.readouterr().err
        assert calls == []

    def test_ground_level_in_the_other_parity_chain_is_guard_failure(self, tmp_path, capsys):
        # at lambda = 2.5 the n_max = 6 truncation puts the ground level in the
        # chain of |e,0>, outside the driven sector: the refinement study stops
        # before writing anything
        out = tmp_path / "deep.csv"
        cfg = _write(tmp_path, "deep.cfg", "lambda = 2.5\nn_max = 6\nt_end = 3\n")
        assert main(["convergence-report", "--config", str(cfg), "--out", str(out)]) == 2
        assert ("truncation n_max=6 not converged: initial state has weight outside the "
                "driven parity sector") in capsys.readouterr().err
        assert not out.exists()

    def test_degenerate_reference_level_stops_the_sweep(self, tmp_path, capsys):
        # the 2*n_max reference of the truncation guard is a ground level too
        cfg = _write(tmp_path, "deg.cfg", "sweep_variable = lambda\nsweep_start = 3.9\n"
                     "sweep_stop = 4\nsweep_steps = 2\nn_max = 80\n")
        assert main(["fig2-sweep", "--config", str(cfg), "--out", str(tmp_path / "deg.csv")]) == 3
        assert "ground level is degenerate within tolerance (gap " in capsys.readouterr().err

    @pytest.mark.parametrize("n_max, solved_at", [(20, 40), (40, 40)])
    def test_degenerate_level_stops_the_sweep_at_either_truncation(
        self, tmp_path, capsys, n_max, solved_at
    ):
        # at lambda = 3.6 the parity ground levels meet to 7.2e-6 at n_max 20
        # and to 5e-12 at n_max 40 and 80: n_max 20 stops at its 2*n_max
        # reference, n_max 40 already at its own ground pair
        cfg = _write(tmp_path, "deg.cfg", "sweep_variable = lambda\nsweep_start = 3.6\n"
                     f"sweep_stop = 3.7\nsweep_steps = 2\nn_max = {n_max}\n")
        assert main(["fig2-sweep", "--config", str(cfg), "--out", str(tmp_path / "deg.csv")]) == 3
        w = solve_spectrum(ModelParams(omega0=1.0, coupling=3.6),
                           make_space(solved_at, 2)).eigenvalues
        assert (f"ground level is degenerate within tolerance (gap {w[1] - w[0]:.3e}) "
                f"at lambda=3.6, n_max={solved_at}") in capsys.readouterr().err

    def test_refinement_guard_failure_still_writes_csv(self, tmp_path, capsys):
        # at n_max = 4, lambda = 0.8 the ground energy moves 7.3e-4 under
        # n_max doubling; the report writes its table before it exits 2
        cfg = _write(tmp_path, "cv4.cfg", "n_max = 4\nlambda = 0.8\nt_end = 5\n")
        out = tmp_path / "cv4.csv"
        assert main(["convergence-report", "--config", str(cfg), "--out", str(out)]) == 2
        names, data = _read_columns(out)
        assert names == ["n_max", "dt", "lambda0", "max_p_f1"]
        assert abs(data[1, 2] - data[0, 2]) == pytest.approx(7.3e-4, rel=0.01)
        assert "# delta_lambda0_nmax_doubling = " in out.read_text()
        assert "lambda0 delta under n_max doubling" in capsys.readouterr().out

    @pytest.mark.parametrize("preset", [
        "fig3-evolve", "resonance-scan", "convergence-report", "two-state-compare"])
    @pytest.mark.parametrize("key", ["dt", "Omega", "omega_p"])
    def test_zero_is_config_error(self, tmp_path, capsys, preset, key):
        cfg = _write(tmp_path, "z.cfg", f"lambda = 0.1\nn_max = 4\nt_end = 5\n{key} = 0.0\n")
        assert main([preset, "--config", str(cfg), "--out", str(tmp_path / "z.csv")]) == 3
        assert f"{key} must be positive, got 0.0" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", [
        "omega0", "omega_f", "lambda", "Omega", "omega_p", "Omega_list",
        "t_end", "dt", "norm_tol", "sweep_start", "sweep_stop"])
    def test_non_finite_value_is_config_error(self, tmp_path, capsys, key, value):
        preset, keys = "two-state-compare", {"lambda": "0.1", "n_max": "4", "t_end": "2"}
        if key == "Omega_list":
            preset, value = "fig3-evolve", f"0.2,{value}"
        elif key.startswith("sweep_"):
            preset = "fig2-sweep"
            keys.update(sweep_variable="lambda", sweep_start="0", sweep_stop="0.3",
                        sweep_steps="3")
        keys[key] = value
        cfg = _write(tmp_path, "nf.cfg", "".join(f"{k} = {v}\n" for k, v in keys.items()))
        assert main([preset, "--config", str(cfg), "--out", str(tmp_path / "nf.csv")]) == 3
        assert f"{key} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("key, flag, value", [
        ("n_max", "--nmax", "0"), ("dt", "--dt", "0"), ("dt", "--dt", "nan")])
    def test_override_is_checked_like_its_config_key(self, tmp_path, capsys, key, flag, value):
        out = str(tmp_path / "o.csv")
        cfg = _write(tmp_path, "o.cfg", f"{key} = {value}\n")
        assert main(["two-state-compare", "--config", str(cfg), "--out", out]) == 3
        from_file = capsys.readouterr().err
        assert main(["two-state-compare", flag, value, "--out", out]) == 3
        assert capsys.readouterr().err == from_file
        assert f"config error: {key} must be" in from_file

    @pytest.mark.parametrize("preset, sweep, message", [
        ("fig2-sweep", "lambda, -0.2, 0.3", "a lambda sweep must start at lambda >= 0, got -0.2"),
        ("resonance-scan", "omega_p, 0.0, 4.6",
         "an omega_p sweep must start at omega_p > 0, got 0.0"),
        ("resonance-scan", "omega_p, -1.0, 4.6",
         "an omega_p sweep must start at omega_p > 0, got -1.0"),
        # every channel frequency omega_f + n - E0 + offset is below 0
        ("resonance-scan", "delta_omega_p, -6, -5",
         "default propagation grid needs drive_freq > 0, got -"),
    ])
    def test_sweep_outside_its_key_range_is_config_error(self, tmp_path, capsys, preset, sweep,
                                                         message):
        variable, start, stop = sweep.split(", ")
        cfg = _write(tmp_path, "sw.cfg",
                     f"n_max = 8\nt_end = 1\nsweep_variable = {variable}\n"
                     f"sweep_start = {start}\nsweep_stop = {stop}\nsweep_steps = 3\n")
        assert main([preset, "--config", str(cfg), "--out", str(tmp_path / "sw.csv")]) == 3
        assert message in capsys.readouterr().err

    def test_guard_exception_carries_offending_point(self):
        cfg = build_config(
            "fig2-sweep",
            {"sweep_variable": "lambda", "sweep_start": 0.8, "sweep_stop": 0.81,
             "sweep_steps": 2, "n_max": 4, "output_path": "/dev/null"},
        )
        with pytest.raises(ConvergenceGuardError, match="lambda=0.8"):
            run_preset(cfg)



def _guard_outcome(params, n_max, levels, photons):
    """None if the truncation guard passes at one coupling, else its exception type and message."""
    failed = presets._judge_grounds(params.omega0, params.coupling, n_max, levels, photons)
    return None if failed is None else (type(failed[1]), str(failed[1]))


def _n_max_ground(lam, n_max):
    """The n_max (psi_0, E0, gap) as guarded_spectrum hands them to the guard."""
    params = ModelParams(omega0=1.0, coupling=lam)
    spec = solve_spectrum(params, make_space(n_max, 2))
    w = spec.eigenvalues
    return params, (spec.eigenvectors[:, 0], spec.ground_energy, w[1] - w[0])


class TestTruncationCertificate:
    """rabi_core.certify_grounds against the exact 2*n_max ground pair, the oracle."""

    @pytest.mark.parametrize("photons", [(1,), (1, 3)])
    @pytest.mark.parametrize("n_max", [4, 8, 20, 40, 80])
    @pytest.mark.parametrize("lam", [0.0, 0.1, 0.5, 0.8, 1.5, 3.6, 4.0])
    def test_guard_decides_as_the_exact_reference(self, monkeypatch, lam, n_max, photons):
        params, levels = _n_max_ground(lam, n_max)
        space, space2 = make_space(n_max, 2), make_space(2 * n_max, 2)
        bounds = rabi_core.certify_grounds(params.omega0, lam, space, levels[:2], space2,
                                           GUARD_TOL)
        outcome = _guard_outcome(params, n_max, levels, photons)
        # no certificate: every coupling is left to the exact reference
        monkeypatch.setattr(rabi_core, "certify_grounds", lambda omega0, coupling, *args: (
            np.full(np.shape(coupling), np.nan),) * 2)
        assert _guard_outcome(params, n_max, levels, photons) == outcome
        if np.isnan(bounds[0]):
            return
        psi, energy, _ = levels
        psi2, energy2, _ = rabi_core.ground_levels(params.omega0, lam, space2)
        moves = [abs(abs(psi[space.index("e", n)]) - abs(psi2[space2.index("e", n)]))
                 for n in range(n_max + 1)]
        assert abs(energy - energy2) <= bounds[0] <= GUARD_TOL
        assert max(moves) <= bounds[1] <= GUARD_TOL

    @pytest.mark.parametrize("n_max", [4, 20, 40])
    def test_stack_decides_as_one_coupling_at_a_time(self, n_max):
        grid = np.linspace(0.0, 4.0, 41)
        space, space2 = make_space(n_max, 2), make_space(2 * n_max, 2)
        psi, energy, _ = rabi_core.ground_levels(1.0, grid, space)
        stacked = rabi_core.certify_grounds(1.0, grid, space, (psi, energy), space2, GUARD_TOL)
        single = [rabi_core.certify_grounds(1.0, lam, space, (psi[k], energy[k]), space2,
                                            GUARD_TOL)
                  for k, lam in enumerate(grid)]
        # the same decisions; the bounds agree to rounding, since a sum over a
        # stack's rows need not add in the same order as over one vector
        open_ = [bool(np.isnan(b[0])) for b in single]
        assert [np.isnan(e) for e in stacked[0]] == open_
        for k, bounds in enumerate(single):
            if not open_[k]:
                assert np.allclose([stacked[0][k], stacked[1][k]], bounds, rtol=0, atol=1e-14)
        assert any(open_) and not all(open_)

    def test_excited_level_is_not_certified(self):
        # the +1 chain's second level as the trial pair: its residual is as
        # small as the ground level's, but a level lies below it
        params = ModelParams(omega0=1.0, coupling=0.5)
        space = make_space(40, 2)
        spec = solve_spectrum(params, space)
        k = int(np.flatnonzero(spec.parities > 0)[1])
        excited = (spec.eigenvectors[:, k], float(spec.eigenvalues[k]))
        assert np.isnan(rabi_core.certify_grounds(1.0, 0.5, space, excited, make_space(80, 2),
                                                  GUARD_TOL)).all()

    def test_settled_guard_solves_nothing_at_2n_max(self, monkeypatch):
        # the certificate settles lambda 0.5 at n_max 40, so no 2*n_max
        # ground pair is solved, not even for an empty array of couplings
        calls = []
        levels = rabi_core.ground_levels
        monkeypatch.setattr(rabi_core, "ground_levels",
                            lambda *args: calls.append(args) or levels(*args))
        presets.guarded_spectrum(ModelParams(omega0=1.0, coupling=0.5), 40, photons=(1, 3))
        assert calls == []

    @pytest.mark.parametrize("lam, n_max, photons, error", [
        (0.8, 4, (1,), ConvergenceGuardError),  # E0 and c10 move: exit 2
        (0.2, 4, (1, 3), ConvergenceGuardError),  # only c30 moves: exit 2
        (3.9, 80, (1,), ConfigError),  # degenerate 2*n_max reference: exit 3
        (4.0, 80, (1,), ConfigError),
        (3.0, 4, (1,), ConvergenceGuardError),  # n_max ground level in the -1 chain
    ])
    def test_undecided_guard_solves_the_reference(self, eigh_calls, lam, n_max, photons,
                                                  error):
        params, levels = _n_max_ground(lam, n_max)
        assert np.isnan(rabi_core.certify_grounds(1.0, lam, make_space(n_max, 2), levels[:2],
                                                  make_space(2 * n_max, 2), GUARD_TOL)).all()
        eigh_calls.clear()
        with pytest.raises(error):
            presets.guarded_spectrum(params, n_max, photons=photons)
        # the one open coupling's reference, solved as a stack of one
        assert (1, 2 * n_max + 1, 2 * n_max + 1) in eigh_calls


def _pointwise_sweep(cfg):
    """fig2-sweep one coupling at a time: the guard and ground pair at a scalar coupling.

    Returns the rows, or the type and message of the first error.
    """
    space = make_space(cfg.n_max, 2)
    rows = []
    try:
        for lam in np.linspace(cfg.sweep.start, cfg.sweep.stop, cfg.sweep.steps):
            params = ModelParams(omega0=cfg.omega0, coupling=float(lam), omega_f=cfg.omega_f)
            psi, energy, _ = levels = rabi_core.ground_levels(cfg.omega0, float(lam), space)
            failed = presets._judge_grounds(cfg.omega0, float(lam), cfg.n_max, levels)
            if failed:
                raise failed[1]
            pol = presets._checked(polaron.solve_xi_eta, params)
            rows.append([lam, psi[space.index("e", 1)], polaron.c10_approx(params, pol),
                         pol.xi, pol.eta, energy, pol.e_approx])
    except (ConvergenceGuardError, ConfigError) as exc:
        return type(exc), str(exc)
    return rows


def _batched_sweep(cfg):
    """run_fig2_sweep's rows, or the type and message of its error."""
    try:
        cols = run_preset(cfg).columns
    except (ConvergenceGuardError, ConfigError) as exc:
        return type(exc), str(exc)
    return [list(row) for row in zip(*cols.values())]


def _sweep_config(tmp_path, start, stop, steps, n_max, **raw):
    return build_config("fig2-sweep", {
        "sweep_variable": "lambda", "sweep_start": start, "sweep_stop": stop,
        "sweep_steps": steps, "n_max": n_max, "output_path": str(tmp_path / "f2.csv"), **raw})


class TestBatchedSweep:
    """fig2-sweep's chunked grid solve against the same sweep one coupling at a time."""

    @pytest.mark.parametrize("extra", [0, 1])
    def test_chunk_boundary_rows_are_the_full_spectrum_pairs(self, tmp_path, monkeypatch, extra):
        # chunks of five couplings: the grid fills two exactly, or spills one into a third
        n_max = 30
        monkeypatch.setattr(presets, "_CHUNK_BYTES", 5 * 8 * (2 * n_max + 1))
        assert presets._sweep_chunk(n_max) == 5
        steps = 2 * presets._sweep_chunk(n_max) + extra
        cfg = _sweep_config(tmp_path, 0.0, 1.5, steps, n_max)
        cols = run_preset(cfg).columns
        assert len(cols["lambda"]) == steps
        for lam, c10, energy in zip(cols["lambda"], cols["c10_exact"], cols["lambda0_exact"]):
            psi, want = ground_state(solve_spectrum(ModelParams(omega0=1.0, coupling=lam),
                                                    make_space(n_max, 2)))
            assert c10 == psi[make_space(n_max, 2).index("e", 1)] and energy == want

    def test_deep_grid_nothing_certified_matches_pointwise(self, tmp_path):
        # from lambda 2.5 on the bond term keeps rho above 1e-8 at n_max 40,
        # so every point takes the 2*n_max stack
        cfg = _sweep_config(tmp_path, 2.5, 3.3, 33, 40)
        grid = np.linspace(2.5, 3.3, 33)
        space, space2 = make_space(40, 2), make_space(80, 2)
        psi, energy, _ = rabi_core.ground_levels(1.0, grid, space)
        bounds, _ = rabi_core.certify_grounds(1.0, grid, space, (psi, energy), space2,
                                              GUARD_TOL)
        assert np.all(np.isnan(bounds))
        rows = _pointwise_sweep(cfg)
        assert isinstance(rows, list) and len(rows) == 33
        assert _batched_sweep(cfg) == rows

    @pytest.mark.parametrize("start, stop, steps, n_max, where", [
        # the n_max ground level lies in the -1 chain: guard failure
        (2.25, 2.3, 2, 6, "n_max=6 not converged at lambda=2.25: "),
        (2.25, 2.3, 2, 8, "n_max=8 not converged at lambda=2.25: "),
        # degenerate at the 2*n_max reference (n_max 20) or at n_max itself (40)
        (3.6, 3.7, 2, 20, ") at lambda=3.6, n_max=40"),
        (3.6, 3.7, 2, 40, ") at lambda=3.6, n_max=40"),
        # the guard fails mid-chunk
        (0.0, 0.9, 40, 4, "n_max=4 not converged at lambda=0.253846: "),
    ])
    def test_first_failure_as_pointwise(self, tmp_path, start, stop, steps, n_max, where):
        cfg = _sweep_config(tmp_path, start, stop, steps, n_max)
        outcome = _pointwise_sweep(cfg)
        assert where in outcome[1]
        assert _batched_sweep(cfg) == outcome

    @pytest.mark.parametrize("n_max", [6, 8])
    def test_ground_level_in_the_other_chain(self, n_max):
        params = ModelParams(omega0=1.0, coupling=2.25)
        spec = solve_spectrum(params, make_space(n_max, 2))
        assert spec.parities[0] == -1
        psi, energy, _ = rabi_core.ground_levels(1.0, np.array([2.0, 2.25]), make_space(n_max, 2))
        want_psi, want_energy = ground_state(spec)
        assert np.array_equal(psi[1], want_psi) and energy[1] == want_energy

    def test_guard_failure_before_a_later_degenerate_level(self, tmp_path):
        cfg = _sweep_config(tmp_path, 3.0, 3.6, 2, 20)
        with pytest.raises(ConvergenceGuardError, match="at lambda=3: ground energy moved"):
            run_preset(cfg)
        # the later point alone is the degenerate 2*n_max reference
        with pytest.raises(ConfigError, match=r"degenerate .* at lambda=3.6, n_max=40"):
            run_preset(_sweep_config(tmp_path, 3.6, 3.7, 2, 20))

    def test_unsolved_fixed_point_as_pointwise(self, tmp_path, monkeypatch):
        monkeypatch.setattr(polaron, "FIXED_POINT_MAX_ITER", 3)
        cfg = _sweep_config(tmp_path, 1.0, 1.3, 7, 40, omega0=2.0)
        outcome = _pointwise_sweep(cfg)
        assert outcome[0] is ConfigError and "fixed point did not converge" in outcome[1]
        assert _batched_sweep(cfg) == outcome

    @pytest.mark.parametrize("start, stop, steps, n_max, max_iter, where", [
        # every point certified, and every point solved at 2*n_max
        (0.0, 1.5, 23, 30, None, None),
        (2.5, 3.3, 33, 40, None, None),
        # the guard fails at point 11, the fourth of the second chunk
        (0.0, 0.9, 40, 4, None, "n_max=4 not converged at lambda=0.253846: "),
        # the fixed point of point 10 is unsolved, before that failure
        (0.0, 0.9, 40, 4, 2, "did not converge at omega0=1, lambda=0.230769: "),
        # the fixed point of point 26 is unsolved, after it
        (0.0, 0.9, 40, 4, 3, "n_max=4 not converged at lambda=0.253846: "),
    ])
    def test_chunks_of_eight_match_pointwise(self, tmp_path, monkeypatch, start, stop, steps,
                                             n_max, max_iter, where):
        monkeypatch.setattr(presets, "_CHUNK_BYTES", 8 * 8 * (2 * n_max + 1))
        assert presets._sweep_chunk(n_max) == 8
        if max_iter is not None:
            monkeypatch.setattr(polaron, "FIXED_POINT_MAX_ITER", max_iter)
        cfg = _sweep_config(tmp_path, start, stop, steps, n_max)
        outcome = _pointwise_sweep(cfg)
        if where is None:
            assert isinstance(outcome, list) and len(outcome) == steps
        else:
            assert where in outcome[1]
        assert _batched_sweep(cfg) == outcome


class TestWriteCsv:
    def test_rows_are_the_per_cell_format(self, tmp_path, monkeypatch):
        values = [-0.0, 0.0, np.nan, np.inf, -np.inf, 40, 1e300, -1e-300,
                  1.7976931348623157e308, 5e-324, -2.2250738585072014e-308, 1e-300, 1e16,
                  -1.5e-7, 0.1 + 0.2, 123456789.123456789]
        cols = {"a": values, "b": np.array(values[::-1]), "n_max": [40] * len(values)}
        want = ["# k = 0", "# n = 3", "a,b,n_max"] + [
            ",".join(presets._fmt(float(np.asarray(c)[i])) for c in cols.values())
            for i in range(len(values))]
        # one row a block, blocks that split the rows unevenly, and one block
        for block_rows in (1, 3, presets._CSV_BLOCK_ROWS):
            monkeypatch.setattr(presets, "_CSV_BLOCK_ROWS", block_rows)
            path = presets.write_csv(tmp_path / "x.csv", {"k": -0.0, "n": 3}, cols)
            assert path.read_text(encoding="utf-8") == "\n".join(want) + "\n"
        assert want[3] == "0,123456789.123,40" and want[5] == "nan,-1.5e-07,40"
        assert want[9] == "1e+300,4.94065645841e-324,40"

    def test_peak_memory_is_bounded_by_the_columns(self, monkeypatch):
        import tracemalloc

        # small blocks keep the table small: a writer that formats the whole
        # table at once peaks near 10.7 times the column bytes here
        monkeypatch.setattr(presets, "_CSV_BLOCK_ROWS", 256)
        rng = np.random.default_rng(0)
        cols = {f"c{i}": rng.standard_normal(20_000) for i in range(7)}
        col_bytes = sum(c.nbytes for c in cols.values())
        tracemalloc.start()
        try:
            presets.write_csv(os.devnull, {"k": 1}, cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * col_bytes

    def test_rows_are_stacked_one_block_at_a_time(self, monkeypatch):
        import tracemalloc

        # a writer that stacks all columns into one table first peaks near
        # 1.1 times the column bytes here, one that stacks a block near 0.11
        monkeypatch.setattr(presets, "_CSV_BLOCK_ROWS", 256)
        rng = np.random.default_rng(0)
        cols = {f"c{i}": rng.standard_normal(20_000) for i in range(10)}
        col_bytes = sum(c.nbytes for c in cols.values())
        tracemalloc.start()
        try:
            presets.write_csv(os.devnull, {"k": 1}, cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * col_bytes


class TestArrayBound:
    """config.largest_array_bytes: the largest dense array a preset allocates."""

    @pytest.mark.parametrize("preset", ["fig2-sweep", "fig3-evolve", "resonance-scan",
                                        "convergence-report", "two-state-compare"])
    def test_n_max_200000_is_config_error(self, tmp_path, capsys, preset):
        cfg = _write(tmp_path, "big.cfg", "n_max = 200000\n")
        assert main([preset, "--config", str(cfg), "--out", str(tmp_path / "big.csv")]) == 3
        assert "n_max=200000 needs a " in capsys.readouterr().err

    def test_computed_without_allocating(self):
        import tracemalloc

        from usc_rabi import config

        # build_config itself rejects them
        cfgs = [dataclasses.replace(build_config(p), n_max=200000) for p in config.PRESETS]
        # sweep grids: 6e6 offsets fit 128 MiB as one grid (48 MB) but not as
        # three (144 MB); the default grids (41 and 5 points) and the
        # benchmark's 161 couplings stay below the default n_max's arrays
        sweep, scan = build_config("fig2-sweep"), build_config("resonance-scan")
        grids = [dataclasses.replace(scan, sweep=dataclasses.replace(scan.sweep, steps=6_000_000)),
                 dataclasses.replace(scan, sweep=config.SweepSpec("omega_p", 4.5, 4.7, 6_000_000)),
                 sweep, dataclasses.replace(sweep, sweep=config.SweepSpec("lambda", 0.0, 0.8, 161)),
                 scan]
        tracemalloc.start()
        sizes = [config.largest_array_bytes(c) for c in cfgs + grids]
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 1 << 16
        n, n2 = 200001, 400001
        full, full2 = 16 * (3 * n) ** 2, 16 * (3 * n2) ** 2
        assert sizes[:5] == [8 * n2 * n2, full, full, full2, full]
        assert min(sizes[:5]) > config.MAX_ARRAY_BYTES
        assert sizes[5:] == [144_000_000, 48_000_000, rabi_core.STACK_BYTES,
                             rabi_core.STACK_BYTES, 16 * (3 * 41) ** 2]
        assert sizes[6] < config.MAX_ARRAY_BYTES < sizes[5]

    @pytest.mark.parametrize("preset, variable, start, stop", [
        ("fig2-sweep", "lambda", 0.0, 0.8),
        ("resonance-scan", "delta_omega_p", -0.06, 0.06),
        ("resonance-scan", "omega_p", 4.5, 4.7)])
    def test_sweep_grid_too_large_is_config_error(self, tmp_path, capsys, preset, variable,
                                                  start, stop):
        # a delta_omega_p scan has three points per offset, one per channel
        steps = 100_000_000_000
        size = 8 * steps * (3 if variable == "delta_omega_p" else 1)
        cfg = _write(tmp_path, "grid.cfg", f"sweep_variable = {variable}\nsweep_start = {start}\n"
                     f"sweep_stop = {stop}\nsweep_steps = {steps}\n")
        assert main([preset, "--config", str(cfg), "--out", str(tmp_path / "g.csv")]) == 3
        assert (f"config error: a {variable} sweep of sweep_steps={steps} needs a "
                f"{size / 2**20:.4g} MiB array in {preset}, over the 128 MiB limit"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("preset", ["two-state-compare", "convergence-report"])
    def test_is_the_propagated_full_space_matrix(self, preset):
        from usc_rabi import config

        cfg = build_config(preset, {"n_max": 8})
        n_max = 16 if preset == "convergence-report" else 8
        h = dynamics.static_hamiltonian(ModelParams(omega0=1.0, coupling=0.5),
                                        make_space(n_max, 3))
        assert config.largest_array_bytes(cfg) == h.nbytes

    def test_node_stack_is_held_to_its_budget(self, tmp_path, monkeypatch, eigh_calls):
        # largest_array_bytes leaves out a propagation pass's stack of node
        # factors, which the pass holds to NODE_STACK_BYTES.  A budget of 1 MiB
        # fits convergence-report's 5 nodes on the n_max sector (61 states)
        # but not on the 2*n_max one (121): that run diagonalizes each of its
        # 100 half steps and reports what it does without a budget
        from usc_rabi import config

        assert dynamics.NODE_STACK_BYTES <= config.MAX_ARRAY_BYTES
        cfg = build_config("convergence-report", {"output_path": str(tmp_path / "a.csv")})
        want = run_preset(cfg).columns
        stacks = []
        node_factors = dynamics._node_factors
        monkeypatch.setattr(dynamics, "_node_factors",
                            lambda *args: stacks.append(node_factors(*args)) or stacks[-1])
        monkeypatch.setattr(dynamics, "NODE_STACK_BYTES", 1 << 20)
        eigh_calls.clear()
        got = run_preset(dataclasses.replace(cfg, output_path=str(tmp_path / "b.csv"))).columns
        assert [stack.shape for stack in stacks] == [(5, 61, 61), (4, 61, 61)]
        assert [c for c in eigh_calls if c[-2:] == (121, 121)] == [(121, 121)] * 100
        for name, column in want.items():
            assert np.max(np.abs(np.asarray(got[name]) - np.asarray(column))) <= 1e-11, name

    def test_bounds_the_sweep_stacks(self, tmp_path, monkeypatch):
        from usc_rabi import config

        sizes = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: sizes.append(a.nbytes) or eigh(a))
        # nothing certified, and one chunk: the 2*n_max stacks are full
        cfg = _sweep_config(tmp_path, 2.5, 3.3, 40, 20)
        with pytest.raises(ConvergenceGuardError):
            run_preset(cfg)
        assert max(sizes) <= config.largest_array_bytes(cfg)
        assert max(sizes) > rabi_core.STACK_BYTES // 2


# small configs of all five presets, run in one fresh interpreter
_RUNTIME_IMPORTS_SCRIPT = """
import json
import sys
from pathlib import Path
from usc_rabi import config, presets

tmp = Path(sys.argv[1])
runs = {
    "fig2-sweep": "sweep_variable = lambda\\nsweep_start = 0\\nsweep_stop = 0.3\\n"
                  "sweep_steps = 3\\nn_max = 12\\n",
    "fig3-evolve": "n_max = 8\\nOmega_list = 0.2,0.4\\nt_end = 3\\n",
    "resonance-scan": "n_max = 8\\nOmega = 0.4\\nt_end = 3\\nsweep_variable = delta_omega_p\\n"
                      "sweep_start = -0.05\\nsweep_stop = 0.05\\nsweep_steps = 2\\n",
    "convergence-report": "n_max = 8\\nt_end = 10\\n",
    "two-state-compare": "n_max = 8\\nt_end = 3\\n",
}
loaded, new = set(sys.modules), {}
for preset, text in runs.items():
    path = tmp / f"{preset}.cfg"
    path.write_text(text, encoding="utf-8")
    cfg = config.load_experiment(preset, config_path=path, out=tmp / f"{preset}.csv")
    presets.run_preset(cfg)
    new[preset] = sorted(set(sys.modules) - loaded)

# the library calls no preset makes: the polaron frame's exponentials
from usc_rabi import ModelParams, hilbert, polaron
params = ModelParams(omega0=1.0, coupling=0.5)
pol = polaron.solve_xi_eta(params)
space = hilbert.make_space(8, 2)
hilbert.matrix_exponential(polaron.build_s(params, pol, space))
polaron.approx_ground_state(params, pol, space)
polaron.transformed_h_rabi(params, pol, space)
new["scipy"] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps(new))
"""


def test_presets_import_nothing_at_run_time(tmp_path):
    # a module first imported inside run_preset (numpy.ma through np.unique,
    # say) is paid in the run's wall time; a scipy import is paid at start-up
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-c", _RUNTIME_IMPORTS_SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    new = json.loads(proc.stdout.splitlines()[-1])
    assert new == {name: [] for name in (
        "fig2-sweep", "fig3-evolve", "resonance-scan", "convergence-report",
        "two-state-compare", "scipy")}


_PACKAGE_IMPORTS_SCRIPT = """
import importlib
import json
import pkgutil
import sys

import usc_rabi

names = [m.name for m in pkgutil.iter_modules(usc_rabi.__path__)]
for name in names:
    importlib.import_module(f"usc_rabi.{name}")
print(json.dumps({"modules": names, "unwanted": sorted(
    m for m in sys.modules
    if m.split(".")[0] in ("scipy", "logging") or m.startswith("concurrent.futures"))}))
"""


def test_package_imports_no_scipy_logging_or_futures():
    # numpy is the one runtime dependency, and concurrent.futures imports
    # logging, which would add to every run's start-up
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", _PACKAGE_IMPORTS_SCRIPT],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(got["modules"]) == sorted(
        p.stem for p in (src / "usc_rabi").glob("*.py") if p.stem != "__init__")
    assert got["unwanted"] == []


class TestConfigExtremes:
    """Every config the parser accepts runs or exits with a documented code."""

    # lambda = 0.1 keeps the truncation guard passing down to n_max = 4, so
    # most draws with a resolvable dt reach the propagation; the zeros the
    # config rejects are covered by TestExitCodes::test_zero_is_config_error
    @settings(max_examples=30, deadline=None)
    @given(
        preset=st.sampled_from(
            ["fig3-evolve", "resonance-scan", "convergence-report", "two-state-compare"]),
        dt=st.one_of(st.floats(2e-3, 1.0), st.floats(2e-3, 0.03)),
        omega=st.floats(1e-3, 3.0),
        omega_p=st.one_of(st.floats(1e-3, 30.0), st.floats(1e-3, 6.0)),
        sample_every=st.integers(0, 10_000),
        n_max=st.integers(4, 8),
    )
    def test_exit_code_is_documented(self, tmp_path_factory, preset, dt, omega, omega_p,
                                     sample_every, n_max):
        tmp = tmp_path_factory.mktemp("extreme")
        cfg = _write(
            tmp, "x.cfg",
            f"lambda = 0.1\nn_max = {n_max}\nt_end = 5\ndt = {dt!r}\nOmega = {omega!r}\n"
            f"omega_p = {omega_p!r}\nsample_every = {sample_every}\n",
        )
        assert main([preset, "--config", str(cfg), "--out", str(tmp / "x.csv")]) in (0, 2, 3)

    # deep ultrastrong coupling and the default truncation; a short t_end and
    # a step of at least 0.01 keep an off-grid draw on the step loop cheap
    @settings(max_examples=8, deadline=None)
    @given(
        preset=st.sampled_from(
            ["fig3-evolve", "resonance-scan", "convergence-report", "two-state-compare"]),
        coupling=st.floats(0.0, 3.0),
        n_max=st.integers(4, 40),
        t_end=st.floats(0.1, 5.0),
        dt=st.one_of(st.none(), st.floats(0.01, 0.05)),
        omega_p=st.one_of(st.none(), st.floats(1e-3, 6.0)),
    )
    def test_strong_coupling_exit_code_is_documented(self, tmp_path_factory, preset, coupling,
                                                     n_max, t_end, dt, omega_p):
        # None leaves the key out: the default grid and the exact resonance
        tmp = tmp_path_factory.mktemp("strong")
        text = f"lambda = {coupling!r}\nn_max = {n_max}\nt_end = {t_end!r}\n"
        text += "".join(f"{key} = {value!r}\n" for key, value in
                        (("dt", dt), ("omega_p", omega_p)) if value is not None)
        cfg = _write(tmp, "x.cfg", text)
        assert main([preset, "--config", str(cfg), "--out", str(tmp / "x.csv")]) in (0, 2, 3)

    # sweep bounds on both sides of each swept key's range; n_max <= 8 and
    # t_end <= 1 keep a draw that runs to well under a second
    @settings(max_examples=6, deadline=None)
    @given(
        case=st.sampled_from(
            [("fig2-sweep", "lambda"), ("resonance-scan", "delta_omega_p"),
             ("resonance-scan", "omega_p")]),
        start=st.one_of(st.floats(-8.0, 8.0), st.floats(-0.1, 0.1)),
        width=st.floats(1e-3, 4.0),
        steps=st.integers(2, 3),
        n_max=st.integers(3, 8),
        t_end=st.floats(0.05, 1.0),
    )
    def test_sweep_bounds_exit_code_is_documented(self, tmp_path_factory, case, start, width,
                                                  steps, n_max, t_end):
        preset, variable = case
        tmp = tmp_path_factory.mktemp("sweep")
        cfg = _write(
            tmp, "x.cfg",
            f"lambda = 0.1\nn_max = {n_max}\nt_end = {t_end!r}\nsweep_variable = {variable}\n"
            f"sweep_start = {start!r}\nsweep_stop = {start + width!r}\nsweep_steps = {steps}\n",
        )
        assert main([preset, "--config", str(cfg), "--out", str(tmp / "x.csv")]) in (0, 2, 3)
