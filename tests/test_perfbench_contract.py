"""Contract between the package and the benchmark's span tracer (perfbench/tracing.py).

The tracer wraps named module attributes from outside the package, and the
benchmark fails when a wrapped name is never called.  These tests catch a
rename, a by-value import or a preset path that stops reaching a wrapped name
before the benchmark does.  The tracer file is only read, never changed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from usc_rabi import config, dynamics, effective_models, hilbert, polaron, presets, rabi_core

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = {
    "hilbert": hilbert, "rabi_core": rabi_core, "polaron": polaron,
    "effective_models": effective_models, "dynamics": dynamics,
    "presets": presets, "config": config,
}

# small configs of the three benchmark presets, a few seconds in total
SMALL_RUNS = {
    "fig2-sweep": "sweep_variable = lambda\nsweep_start = 0\nsweep_stop = 0.3\n"
                  "sweep_steps = 3\nn_max = 12\n",
    "resonance-scan": "n_max = 8\nOmega = 0.4\nt_end = 3\nsweep_variable = delta_omega_p\n"
                      "sweep_start = -0.05\nsweep_stop = 0.05\nsweep_steps = 2\n",
    "convergence-report": "n_max = 8\nt_end = 10\n",
}
PROPAGATIONS = 3 * 2 + 3  # resonance-scan: 3 windows x 2 offsets; convergence-report: 3


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[spec.name]
    return module


def test_wrapped_names_exist(tracing):
    for mod_name, fns in tracing.WRAPPED.items():
        for fn in fns:
            assert callable(getattr(MODULES[mod_name], fn, None)), f"{mod_name}.{fn}"


def test_every_wrapped_name_is_reached(tracing, tmp_path):
    tracer = tracing.Tracer(run="contract")
    tracer.install(MODULES)
    try:
        for preset, text in SMALL_RUNS.items():
            path = tmp_path / f"{preset}.cfg"
            path.write_text(text, encoding="utf-8")
            cfg = config.load_experiment(preset, config_path=path, out=tmp_path / f"{preset}.csv")
            try:
                presets.run_preset(cfg)
            except presets.ConvergenceGuardError:
                pass  # the small refinement study may trip its guard after the work is done
    finally:
        tracer.uninstall()

    missed = [name for name, n in tracer.calls().items() if n == 0]
    assert not missed, f"wrapped names never called: {missed}"
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["dynamics.propagate_calls"] == PROPAGATIONS
    assert metrics["dynamics.steps"] >= PROPAGATIONS
    assert PROPAGATIONS < metrics["dynamics.samples"] <= metrics["dynamics.steps"] + PROPAGATIONS
