"""usc-rabi benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload {sweep,scan,refine} --seed N --seconds S --trace {0,1}

Run it from the repository root; the package is imported from ./src.  Each
preset run is a fresh interpreter (child.py), because `usc-rabi <preset>` is a
one-shot command.  Children run strictly one at a time with one BLAS/OpenMP
thread.  Every output CSV is checked against the frozen oracle values
(workloads.py).

--trace 0 times untraced runs and reports the end-to-end metrics.  --trace 1
alternates untraced and traced runs and reports the per-layer metrics, the
tracing overhead and every wrapped function's call count.  Earlier lines of
standard output give each metric's median, quartiles and sample count and the
environment; the last line is the JSON result.  Scratch files go to
.perfbench_out/ under the current directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
WORK_DIR = Path(".perfbench_out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MIN_SETUP_SAMPLES = 5
MIN_PLAIN_RUNS = 2  # scan and refine runs take 15-20 s; one sample is too noisy
HARD_LIMIT_S = 165.0  # the whole run must end well inside 180 s

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "fraction"}
COUNT_METRICS = ("_calls", ".steps", ".samples")


def layer_unit(name: str) -> str:
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(COUNT_METRICS):
        return "count"
    if name == "dynamics.sim_t":
        return "1/omega_c"
    if ".step_us." in name:
        return "us"
    return "s"


LAYER_NAMES = (*tracing.layer_metrics([]), "import_s", "run.cpu_s", "trace.overhead_s")


def summary(values: list[float]) -> dict:
    if len(set(values)) == 1:  # also keeps a repeated count an integer
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


class Runner:
    """Starts child runs of one workload, one at a time, and checks their output."""

    def __init__(self, root: Path, work: Path, workload: workloads.Workload, hard_deadline: float):
        self.root, self.work, self.workload = root, work, workload
        self.hard_deadline = hard_deadline
        self.config_path = work / "experiment.cfg"
        self.config_path.write_text(workload.config_text(), encoding="utf-8")
        self.env = {**os.environ, **{v: "1" for v in THREAD_VARS}}
        self.count = 0

    def run(self, mode: str) -> dict:
        stem = f"{self.count:03d}-{mode}"
        self.count += 1
        record_path, out_csv = self.work / f"{stem}.json", self.work / f"{stem}.csv"
        spawned = time.monotonic()
        with open(self.work / f"{stem}.log", "wb") as log:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(self.root / "src"),
                 self.workload.preset, str(self.config_path), str(out_csv),
                 str(record_path), repr(spawned), mode],
                stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=self.root,
            )
            try:
                code = proc.wait(timeout=max(1.0, self.hard_deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                code = None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        rec = json.loads(record_path.read_text(encoding="utf-8")) if record_path.exists() else {}
        rec["process_s"] = time.monotonic() - spawned
        rec["mode"] = mode
        if code is None:
            rec["problems"] = ["timed out"]
        elif mode == "setup":
            rec["problems"] = [] if code == 0 else [f"exit code {code}"]
        else:
            rec["problems"] = workloads.check_output(self.workload.name, out_csv, code)
        if rec["problems"]:
            tail = (self.work / f"{stem}.log").read_text(errors="replace")[-2000:]
            print(f"{stem}: {'; '.join(rec['problems'])}\n{tail}", file=sys.stderr)
        return rec


def source_identity(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "usc_rabi").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = out.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def fill_time(runner: Runner, modes: tuple[str, ...], deadline: float, min_groups: int) -> list[dict]:
    """Repeat the group of `modes` at least `min_groups` times, then while the
    next group is expected to end by `deadline`."""
    runs: list[dict] = []
    groups: list[float] = []
    while True:
        t0 = time.monotonic()
        runs += [runner.run(mode) for mode in modes]
        groups.append(time.monotonic() - t0)
        if len(groups) >= min_groups and time.monotonic() + statistics.median(groups) > deadline:
            return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    # SIGTERM unwinds through Runner.run, which kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "usc_rabi" / "__init__.py").is_file():
        print(f"no package source at {root / 'src' / 'usc_rabi'}; run from the repository root",
              file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, args.seed)
    work = root / WORK_DIR / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(root, work, workload, started + HARD_LIMIT_S)
    deadline = started + args.seconds

    modes = ("plain", "traced") if args.trace else ("plain",)
    runs = fill_time(runner, modes, deadline, 1 if args.trace else MIN_PLAIN_RUNS)
    # setup-only probes top up the set-up samples of workloads with few long runs
    while (not args.trace and sum("setup_s" in r for r in runs) < MIN_SETUP_SAMPLES
           and time.monotonic() < started + HARD_LIMIT_S - 10):  # room for one more probe
        runs.append(runner.run("setup"))
    attempted = len(runs)
    failed = sum(1 for r in runs if r["problems"])
    if args.trace:
        stats, consistent = layer_stats(runs)
    else:
        stats, consistent = end_to_end_stats(runs, attempted, failed), True

    env = {
        "workload": args.workload, "preset": workload.preset, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "config": workload.config,
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "threads": {v: runner.env[v] for v in THREAD_VARS},
        "versions": next((r["versions"] for r in runs if "versions" in r), None),
        **source_identity(root),
        "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
    }
    (root / WORK_DIR / f"{work.name}.json").write_text(
        json.dumps({"env": env, "metrics": stats,
                    "runs": [{k: v for k, v in r.items() if k != "spans"} for r in runs]},
                   indent=1),
        encoding="utf-8")

    print("# env " + json.dumps(env))
    for name, s in stats.items():
        print(f"# {name} = {s['median']:.6g} {s['unit']}  "
              f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n {s['n']})")
    if args.trace:
        traced = [r for r in runs if "calls" in r]
        calls = traced[0]["calls"] if traced else dict.fromkeys(tracing.WRAPPED_NAMES, 0)
        if not report_coverage(root, args.workload, calls):
            return 1
    result = {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": s["median"], "unit": s["unit"]} for name, s in stats.items()},
    }
    print(json.dumps(result))
    return 0


def _walls(runs: list[dict]) -> list[float]:
    return [r["wall_s"] for r in runs if "wall_s" in r] or [r["process_s"] for r in runs]


def end_to_end_stats(runs: list[dict], attempted: int, failed: int) -> dict[str, dict]:
    plain = [r for r in runs if r["mode"] == "plain"]
    stats = {
        "wall_s": summary(_walls(plain)),
        "setup_s": summary([r["setup_s"] for r in runs if "setup_s" in r]
                           or [r["process_s"] for r in runs]),
        "peak_rss_mb": summary([r["peak_rss_mb"] for r in plain if "peak_rss_mb" in r] or [0.0]),
        "ok_frac": summary([(attempted - failed) / attempted]),
    }
    for name, unit in END_TO_END_UNITS.items():
        stats[name]["unit"] = unit
    return stats


def layer_stats(runs: list[dict]) -> tuple[dict[str, dict], bool]:
    """Per-layer medians over the traced runs, and whether their counts repeat exactly."""
    plain = [r for r in runs if r["mode"] == "plain"]
    traced = [r for r in runs if "layers" in r]
    stats = {}
    for name in LAYER_NAMES:
        if name == "import_s":
            values = [r["import_s"] for r in traced]
        elif name == "run.cpu_s":
            values = [r["cpu_s"] for r in traced if "cpu_s" in r]
        elif name == "trace.overhead_s":
            values = [statistics.median(_walls(traced)) - statistics.median(_walls(plain))] if traced else []
        else:
            values = [r["layers"][name] for r in traced]
        stats[name] = summary(values or [0.0]) | {"unit": layer_unit(name)}
    counts = [n for n in LAYER_NAMES if layer_unit(n) not in ("s", "us")]
    consistent = all(r["calls"] == traced[0]["calls"]
                     and all(r["layers"][n] == traced[0]["layers"][n] for n in counts)
                     for r in traced)
    if not consistent:
        print("call and work counts differ between traced runs of one seed", file=sys.stderr)
    return stats, consistent


def report_coverage(root: Path, workload: str, calls: dict[str, int]) -> bool:
    """Print call counts; False when a wrapped name is never called by any workload.

    Counts of each workload are kept under .perfbench_out/ so the check spans
    every workload traced in this checkout; it only judges once all are there.
    """
    for name, n in calls.items():
        print(f"# calls {name} {n}")
    (root / WORK_DIR / f"calls-{workload}.json").write_text(json.dumps(calls), encoding="utf-8")
    seen = {}
    for name in workloads.NAMES:
        path = root / WORK_DIR / f"calls-{name}.json"
        if not path.exists():
            return True
        seen[name] = json.loads(path.read_text(encoding="utf-8"))
    never = [n for n in tracing.WRAPPED_NAMES if not any(c.get(n) for c in seen.values())]
    if never:
        print(f"wrapped but never called on any workload: {', '.join(never)}", file=sys.stderr)
    return not never


if __name__ == "__main__":
    sys.exit(main())
