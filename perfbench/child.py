"""One benchmark run of one preset, in a fresh interpreter.

    python3 perfbench/child.py <src dir> <preset> <config> <out csv> <record json>
        <spawn time> <mode>

<spawn time> is the parent's time.monotonic() just before it started this
process (the clock is system-wide), so setup_s spans interpreter start, the
package import and the config load.  <mode> is `setup` (stop after the config
load), `plain` (run the preset) or `traced` (run it with every wrapped layer
function recording spans).  The record JSON is written on every exit the
package's CLI documents: 0 on success, 2 on a convergence or norm guard, 3 on
a config error.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    src, preset, config_path, out_csv, record_path, spawned, mode = argv
    t_import = time.perf_counter()
    sys.path.insert(0, src)
    import numpy
    import scipy

    import usc_rabi
    from usc_rabi import config, dynamics, effective_models, hilbert, polaron, presets, rabi_core

    import_s = time.perf_counter() - t_import
    if Path(usc_rabi.__file__).resolve().parent != (Path(src) / "usc_rabi").resolve():
        print(f"imported usc_rabi from {usc_rabi.__file__}, not from {src}", file=sys.stderr)
        return 1

    tracer = None
    if mode == "traced":
        import tracing

        tracer = tracing.Tracer(run=Path(record_path).parent.name + "/" + Path(record_path).stem)
        tracer.install({
            "hilbert": hilbert, "rabi_core": rabi_core, "polaron": polaron,
            "effective_models": effective_models, "dynamics": dynamics,
            "presets": presets, "config": config,
        })

    record = {
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "usc_rabi": usc_rabi.__version__},
        "import_s": import_s,
    }
    code = 0
    try:
        cfg = config.load_experiment(preset, config_path=config_path, out=out_csv)
        record["setup_s"] = time.monotonic() - float(spawned)
        if mode != "setup":
            cpu0, t0 = time.process_time(), time.perf_counter()
            try:
                presets.run_preset(cfg)
            finally:
                record["wall_s"] = time.perf_counter() - t0
                record["cpu_s"] = time.process_time() - cpu0
    except (presets.ConvergenceGuardError, dynamics.NormDriftError) as exc:
        code, record["error"] = 2, str(exc)
    except config.ConfigError as exc:
        code, record["error"] = 3, str(exc)
    record["exit_code"] = code
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        record["calls"] = tracer.calls()
        record["layers"] = tracing.layer_metrics(tracer.spans)
        record["spans"] = tracer.dump()
    Path(record_path).write_text(json.dumps(record), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
