"""Benchmark workloads: the preset config each seed generates, and the check on its CSV.

The seed only draws inputs; the program sees nothing but the config file.
Every draw keeps the amount of work fixed, so runs with different seeds are
comparable: `sweep` always has SWEEP_POINTS couplings, `scan` always nine
propagations over the same horizon.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

# Frozen oracle values for omega0 = omega_c = 1, coupling = 0.5, copied from
# tests/conftest.py (independent dense-loop diagonalization at n_max = 80).
LAMBDA0 = -0.6332942354616
C10_EXACT = -0.2564044613481
XI_05 = 0.5358273635058
ETA_05 = 0.8662727365345
C10_APPROX_05 = -0.2584690545518
OMEGA_P_EXACT = 4.6332942354616

ORACLE_TOL = 1e-10

NAMES = ("sweep", "scan", "refine")

# sweep: 161 points keep one run near 3 s of diagonalization (the default 41
# points take under 1 s, too short to time steadily next to a 1.3 s import).
SWEEP_POINTS = 161
SWEEP_RANGE = (0.0, 0.8)
SWEEP_PIVOT = 0.5

# scan: the 1-photon half period at Omega = 0.4 is 30.6, so t_end = 32 lets the
# centre reach full transfer; offsets of 0.08 to 0.12 keep the 3-photon side
# points well below the centre (sinc^2(offset * t_end / 2) <= 0.56).
SCAN_T_END = 32.0
SCAN_N_MAX = 20
SCAN_OMEGA = 0.4
SCAN_OFFSET_RANGE = (0.08, 0.12)


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    config: dict

    def config_text(self) -> str:
        lines = [f"preset = {self.preset}"]
        lines += [f"{k} = {v!r}" if isinstance(v, float) else f"{k} = {v}"
                  for k, v in self.config.items()]
        return "\n".join(lines) + "\n"


def sweep_grid(seed: int) -> tuple[float, float]:
    """(start, stop) of a SWEEP_POINTS grid inside SWEEP_RANGE with SWEEP_PIVOT on it."""
    rng = random.Random(seed)
    lo, hi = SWEEP_RANGE
    intervals = SWEEP_POINTS - 1
    h_max = (hi - lo) / intervals
    h = rng.uniform(0.8 * h_max, h_max)
    i_min = math.ceil(intervals - (hi - SWEEP_PIVOT) / h)
    i_max = math.floor((SWEEP_PIVOT - lo) / h)
    i = rng.randint(i_min, i_max)
    start = max(lo, SWEEP_PIVOT - i * h)
    return start, min(hi, start + intervals * h)


def scan_offset(seed: int) -> float:
    return random.Random(seed).uniform(*SCAN_OFFSET_RANGE)


def make(name: str, seed: int) -> Workload:
    if name == "sweep":
        start, stop = sweep_grid(seed)
        return Workload(name, "fig2-sweep", {
            "sweep_variable": "lambda", "sweep_start": start, "sweep_stop": stop,
            "sweep_steps": SWEEP_POINTS,
        })
    if name == "scan":
        d = scan_offset(seed)
        return Workload(name, "resonance-scan", {
            "n_max": SCAN_N_MAX, "Omega": SCAN_OMEGA, "t_end": SCAN_T_END,
            "sweep_variable": "delta_omega_p", "sweep_start": -d, "sweep_stop": d,
            "sweep_steps": 3,
        })
    if name == "refine":
        # convergence-report at its defaults; the seed has nothing to draw here
        return Workload(name, "convergence-report", {})
    raise ValueError(f"unknown workload {name!r}; valid: {', '.join(NAMES)}")


def read_csv(path: str | Path) -> tuple[dict[str, str], dict[str, list[float]]]:
    """Provenance (`# key = value` lines) and numeric columns of a preset CSV."""
    provenance: dict[str, str] = {}
    rows: list[list[str]] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            provenance[key] = value
        elif line:
            rows.append(line.split(","))
    header, data = rows[0], rows[1:]
    columns = {name: [float(r[j]) for r in data] for j, name in enumerate(header)}
    return provenance, columns


def _close(label: str, got: float, want: float, problems: list[str]) -> None:
    if not abs(got - want) <= ORACLE_TOL:
        problems.append(f"{label} = {got!r}, oracle {want!r} (tol {ORACLE_TOL:g})")


def _argmax(values: list[float]) -> int:
    return max(range(len(values)), key=values.__getitem__)


def check_sweep(provenance: dict, cols: dict) -> list[str]:
    problems: list[str] = []
    lam = cols["lambda"]
    if len(lam) != SWEEP_POINTS:
        problems.append(f"{len(lam)} rows, expected {SWEEP_POINTS}")
    i = min(range(len(lam)), key=lambda k: abs(lam[k] - SWEEP_PIVOT))
    if abs(lam[i] - SWEEP_PIVOT) > 1e-9:
        return problems + [f"no lambda = {SWEEP_PIVOT} row (nearest {lam[i]!r})"]
    for col, want in (("lambda0_exact", LAMBDA0), ("c10_exact", C10_EXACT),
                      ("c10_approx", C10_APPROX_05), ("xi", XI_05), ("eta", ETA_05)):
        _close(f"{col} at lambda = 0.5", cols[col][i], want, problems)
    return problems


def check_scan(provenance: dict, cols: dict) -> list[str]:
    problems: list[str] = []
    _close("predicted_n1", float(provenance["predicted_n1"]), OMEGA_P_EXACT, problems)
    wp, f1, f3 = cols["omega_p"], cols["max_p_f1"], cols["max_p_f3"]
    if len(wp) != 9:
        return problems + [f"{len(wp)} rows, expected 9"]
    for n in (1, 2, 3):
        centre = float(provenance[f"predicted_n{n}"])
        if abs(wp[3 * n - 2] - centre) > 1e-9:
            problems.append(f"{n}-photon window centre {wp[3 * n - 2]!r} != {centre!r}")
    one, two, three = slice(0, 3), slice(3, 6), slice(6, 9)
    if _argmax(f1[one]) != 1 or not f1[one][1] > 0.9:
        problems.append(f"1-photon window max_p_f1 {f1[one]} does not peak > 0.9 at its centre")
    if not (max(f1[two]) < 0.05 and max(f3[two]) < 0.01):
        problems.append(f"2-photon window not dark: max_p_f1 {f1[two]}, max_p_f3 {f3[two]}")
    if _argmax(f3[three]) != 1:
        problems.append(f"3-photon window max_p_f3 {f3[three]} does not peak at its centre")
    return problems


def check_refine(provenance: dict, cols: dict) -> list[str]:
    problems: list[str] = []
    if not float(provenance["delta_lambda0_nmax_doubling"]) < 1e-8:
        problems.append("lambda0 moved >= 1e-8 under n_max doubling")
    for key in ("delta_max_p_f1_nmax_doubling", "delta_max_p_f1_dt_halving"):
        if not float(provenance[key]) < 1e-6:
            problems.append(f"{key} = {provenance[key]} >= 1e-6")
    for k, value in enumerate(cols["lambda0"]):
        _close(f"lambda0 row {k}", value, LAMBDA0, problems)
    if len(cols["max_p_f1"]) != 3 or not all(p > 0.99 for p in cols["max_p_f1"]):
        problems.append(f"max_p_f1 {cols['max_p_f1']} not three values > 0.99")
    return problems


_CHECKS = {"sweep": check_sweep, "scan": check_scan, "refine": check_refine}


def check_output(name: str, csv_path: str | Path, exit_code: int) -> list[str]:
    """Problems with one run's output; an empty list means the run is correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        provenance, cols = read_csv(csv_path)
        return _CHECKS[name](provenance, cols)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return [f"unreadable output {csv_path}: {exc!r}"]
