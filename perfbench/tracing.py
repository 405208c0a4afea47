"""Spans around the package's public functions, recorded from outside the package.

A Tracer replaces selected module attributes with timing wrappers.  Each call
records a span (name, start, end, parent span, run id) in memory; the caller
writes them out when the run ends.  `layer_metrics` turns the spans of one run
into the per-layer times and counts the benchmark reports.

Only attributes looked up through their module at call time are seen.  A name
another module imported by value (``from .hilbert import make_space``) keeps
pointing at the original function, which is why the benchmark prints every
wrapped name with its call count and fails when one is never called.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import Counter
from dataclasses import asdict, dataclass, field

# Layer module -> public functions wrapped.  Only functions the benchmark
# workloads reach are listed: hilbert.number_operator, hilbert.make_space,
# effective_models.model_from_polaron and effective_models.analytic_transfer
# are called by no workload (or only by value) and would read zero everywhere.
WRAPPED = {
    "hilbert": ("annihilation", "atomic_op", "eigh"),
    "rabi_core": ("solve_spectrum", "build_h_rabi", "parity_matrix", "parity_labels"),
    "polaron": ("solve_xi_eta",),
    "effective_models": ("model_from_eigenbasis", "multiphoton_model", "half_period"),
    "dynamics": ("propagate", "static_hamiltonian"),
    "presets": ("run_preset", "guarded_spectrum", "write_csv"),
    "config": ("load_experiment",),
}

WRAPPED_NAMES = tuple(f"{mod}.{fn}" for mod, fns in WRAPPED.items() for fn in fns)

HILBERT_OPS = ("hilbert.annihilation", "hilbert.atomic_op")
EFFECTIVE_MODELS = tuple(f"effective_models.{fn}" for fn in WRAPPED["effective_models"])
STEP_US_N_MAX = (20, 40, 80)


@dataclass
class Span:
    id: int
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int | None
    run: str
    attrs: dict = field(default_factory=dict)


def _propagate_attrs(args: inspect.BoundArguments, result) -> dict:
    cfg = args.arguments["config"]
    return {
        # the same step count dynamics.propagate takes
        "steps": max(1, int(round(cfg.t_end / cfg.dt))),
        "t_end": cfg.t_end,
        "n_max": args.arguments["space"].n_max,
        "samples": len(result.times),
    }


def _write_csv_attrs(args: inspect.BoundArguments, result) -> dict:
    return {"bytes": os.path.getsize(result)}


_ATTR_HOOKS = {
    "dynamics.propagate": _propagate_attrs,
    "presets.write_csv": _write_csv_attrs,
}


class Tracer:
    """Records one span per call of every wrapped function while installed."""

    def __init__(self, run: str):
        self.run = run
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        hook = _ATTR_HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), name, 0, 0,
                        self._stack[-1] if self._stack else None, self.run)
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                self._stack.pop()
            if hook is not None:
                span.attrs = hook(signature.bind(*args, **kwargs), result)
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Wrap WRAPPED in `modules` (layer name -> module object)."""
        for mod_name, fns in WRAPPED.items():
            module = modules[mod_name]
            for fn in fns:
                original = getattr(module, fn)
                self._saved.append((module, fn, original))
                setattr(module, fn, self.wrap(f"{mod_name}.{fn}", original))

    def uninstall(self) -> None:
        for module, fn, original in reversed(self._saved):
            setattr(module, fn, original)
        self._saved.clear()

    def calls(self) -> dict[str, int]:
        counts = Counter(s.name for s in self.spans)
        return {name: counts.get(name, 0) for name in WRAPPED_NAMES}

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of [lo, hi] covered by the union of `intervals`."""
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the part of it covered by its child spans."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _covered(children.get(s.id, []), s.start, s.end)
        for s in spans
    }


def _outermost(spans: list[Span], names) -> list[Span]:
    """Spans of `names` not nested inside another span of `names`."""
    names = set(names)
    by_id = {s.id: s for s in spans}

    def nested(s: Span) -> bool:
        p = s.parent
        while p is not None:
            if by_id[p].name in names:
                return True
            p = by_id[p].parent
        return False

    return [s for s in spans if s.name in names and not nested(s)]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer times (s), counts and step costs (us) from the spans of one run."""
    own = self_times(spans)

    def total_s(*names) -> float:
        return sum(s.end - s.start for s in _outermost(spans, names)) / 1e9

    def self_s(name) -> float:
        return sum(own[s.id] for s in spans if s.name == name) / 1e9

    def calls(*names) -> int:
        return sum(1 for s in spans if s.name in names)

    def attr_sum(name, key) -> float:
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    m = {
        "rabi_core.solve_spectrum_s": total_s("rabi_core.solve_spectrum"),
        "rabi_core.solve_spectrum_self_s": self_s("rabi_core.solve_spectrum"),
        "rabi_core.solve_spectrum_calls": calls("rabi_core.solve_spectrum"),
        "rabi_core.build_h_rabi_s": total_s("rabi_core.build_h_rabi"),
        "rabi_core.parity_labels_s": total_s("rabi_core.parity_labels"),
        "rabi_core.parity_matrix_s": total_s("rabi_core.parity_matrix"),
        "hilbert.eigh_s": total_s("hilbert.eigh"),
        "hilbert.eigh_calls": calls("hilbert.eigh"),
        "hilbert.ops_s": total_s(*HILBERT_OPS),
        "hilbert.ops_calls": calls(*HILBERT_OPS),
        "presets.guarded_spectrum_s": total_s("presets.guarded_spectrum"),
        "presets.guarded_spectrum_calls": calls("presets.guarded_spectrum"),
        "presets.write_csv_s": total_s("presets.write_csv"),
        "presets.write_csv_bytes": attr_sum("presets.write_csv", "bytes"),
        "presets.run_preset_self_s": self_s("presets.run_preset"),
        "polaron.solve_xi_eta_s": total_s("polaron.solve_xi_eta"),
        "polaron.solve_xi_eta_calls": calls("polaron.solve_xi_eta"),
        "effective_models.s": total_s(*EFFECTIVE_MODELS),
        "dynamics.propagate_s": total_s("dynamics.propagate"),
        "dynamics.propagate_self_s": self_s("dynamics.propagate"),
        "dynamics.propagate_calls": calls("dynamics.propagate"),
        "dynamics.static_hamiltonian_s": total_s("dynamics.static_hamiltonian"),
        "dynamics.steps": attr_sum("dynamics.propagate", "steps"),
        "dynamics.samples": attr_sum("dynamics.propagate", "samples"),
        "dynamics.sim_t": attr_sum("dynamics.propagate", "t_end"),
        "config.load_experiment_s": total_s("config.load_experiment"),
    }
    for n_max in STEP_US_N_MAX:
        props = [s for s in spans
                 if s.name == "dynamics.propagate" and s.attrs.get("n_max") == n_max]
        steps = sum(s.attrs["steps"] for s in props)
        self_ns = sum(own[s.id] for s in props)
        m[f"dynamics.step_us.n{n_max}"] = self_ns / 1e3 / steps if steps else 0.0
    return m
