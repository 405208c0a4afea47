"""Experiment configuration: flat key=value config files and validation.

Config files are UTF-8 text, one `key = value` per line, `#` starts a comment
line.  All frequencies are ratios to the cavity frequency.  Unknown keys are
errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from . import rabi_core
from .dynamics import PropagationConfig

PRESETS = (
    "fig2-sweep",
    "fig3-evolve",
    "resonance-scan",
    "convergence-report",
    "two-state-compare",
)

# a config whose largest dense array (largest_array_bytes) is larger is a config error
MAX_ARRAY_BYTES = 1 << 27


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    start: float
    stop: float
    steps: int

    def __post_init__(self):
        if self.steps < 2:
            raise ConfigError(f"sweep_steps must be >= 2, got {self.steps}")
        if not self.stop > self.start:
            raise ConfigError("sweep_stop must be greater than sweep_start")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved preset configuration.

    drive_freq None means "use the exact resonance computed from the spectrum";
    t_end / dt / sample_every None mean "derive the default grid".  norm_tol
    defaults to the propagator's own default.
    """

    preset: str
    omega0: float = 1.0
    coupling: float = 0.5
    omega_f: float = 3.0
    drive_amp: float | None = None
    drive_freq: float | None = None
    omega_list: tuple[float, ...] | None = None
    n_max: int = 40
    t_end: float | None = None
    dt: float | None = None
    sample_every: int | None = None
    norm_tol: float = PropagationConfig.norm_tol
    sweep: SweepSpec | None = None
    output_path: str | None = None


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"expected a comma-separated float list, got {text!r}") from exc


# config key -> (field it sets, parser); the sweep_* keys set SweepSpec fields,
# every other key an ExperimentConfig field
_KEYS = {
    "preset": ("preset", str),
    "omega0": ("omega0", float),
    "omega_f": ("omega_f", float),
    "lambda": ("coupling", float),
    "Omega": ("drive_amp", float),
    "omega_p": ("drive_freq", float),
    "Omega_list": ("omega_list", _parse_float_list),
    "n_max": ("n_max", int),
    "t_end": ("t_end", float),
    "dt": ("dt", float),
    "sample_every": ("sample_every", int),
    "norm_tol": ("norm_tol", float),
    "sweep_variable": ("variable", str),
    "sweep_start": ("start", float),
    "sweep_stop": ("stop", float),
    "sweep_steps": ("steps", int),
    "output_path": ("output_path", str),
}

_KEY_OF = {field: key for key, (field, _) in _KEYS.items()}

_SWEEP_KEYS = ("sweep_variable", "sweep_start", "sweep_stop", "sweep_steps")

_DEFAULT_SWEEPS = {
    "fig2-sweep": SweepSpec(variable="lambda", start=0.0, stop=0.8, steps=41),
    "resonance-scan": SweepSpec(variable="delta_omega_p", start=-0.06, stop=0.06, steps=5),
}

_SWEEP_VARIABLES = {
    "fig2-sweep": ("lambda",),
    "resonance-scan": ("delta_omega_p", "omega_p"),
}


def parse_config_file(path: str | Path) -> dict:
    """Parse a key=value config file into a dict of typed values."""
    raw: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            raw[key] = _KEYS[key][1](value)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from exc
    return raw


def build_config(preset: str, raw: dict | None = None) -> ExperimentConfig:
    """Assemble and validate an ExperimentConfig from parsed key=value pairs."""
    raw = dict(raw or {})
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; valid: {', '.join(PRESETS)}")
    file_preset = raw.pop("preset", preset)
    if file_preset != preset:
        raise ConfigError(
            f"config file is for preset {file_preset!r} but {preset!r} was requested"
        )
    unknown = sorted(set(raw) - set(_KEYS))
    if unknown:
        raise ConfigError(f"unhandled keys: {', '.join(unknown)}")
    for key, value in raw.items():
        values = value if isinstance(value, tuple) else (value,)
        if any(isinstance(v, float) and not math.isfinite(v) for v in values):
            raise ConfigError(f"{key} must be finite, got {value}")

    sweep_items = {k: raw.pop(k) for k in _SWEEP_KEYS if k in raw}
    missing = [k for k in _SWEEP_KEYS if k not in sweep_items]
    if not sweep_items:
        sweep = _DEFAULT_SWEEPS.get(preset)
    elif missing:
        raise ConfigError(f"incomplete sweep: missing {', '.join(missing)}")
    elif preset not in _SWEEP_VARIABLES:
        raise ConfigError(f"preset {preset!r} does not take a sweep")
    else:
        sweep = SweepSpec(**{_KEYS[k][0]: v for k, v in sweep_items.items()})
    if sweep is not None and sweep.variable not in _SWEEP_VARIABLES[preset]:
        raise ConfigError(
            f"preset {preset!r} sweeps over "
            f"{' or '.join(_SWEEP_VARIABLES[preset])}, not {sweep.variable!r}"
        )

    # the swept key's own bound, checked on the grid's lowest point
    if sweep is not None and sweep.variable == "lambda" and sweep.start < 0:
        raise ConfigError(f"a lambda sweep must start at lambda >= 0, got {sweep.start}")
    if sweep is not None and sweep.variable == "omega_p" and sweep.start <= 0:
        raise ConfigError(f"an omega_p sweep must start at omega_p > 0, got {sweep.start}")

    if "Omega_list" in raw and preset != "fig3-evolve":
        raise ConfigError("Omega_list applies to the fig3-evolve preset only")
    if "Omega_list" in raw and "Omega" in raw:
        raise ConfigError("set Omega (one curve) or Omega_list, not both")

    cfg = ExperimentConfig(
        preset=preset, sweep=sweep, **{_KEYS[k][0]: v for k, v in raw.items()}
    )
    if cfg.n_max < 1:
        raise ConfigError(f"n_max must be >= 1, got {cfg.n_max}")
    for name in ("coupling", "omega_f"):
        if getattr(cfg, name) < 0:
            raise ConfigError(f"{_KEY_OF[name]} must be non-negative")
    for name in ("omega0", "drive_amp", "drive_freq", "t_end", "dt", "norm_tol"):
        value = getattr(cfg, name)
        if value is not None and value <= 0:
            raise ConfigError(f"{_KEY_OF[name]} must be positive, got {value}")
    if cfg.omega_list is not None and any(o <= 0 for o in cfg.omega_list):
        raise ConfigError("Omega_list entries must be positive")
    # fig3-evolve names each curve's columns by its amplitude's %g tag
    tags = [f"{o:g}" for o in cfg.omega_list or ()]
    shared = next((tag for tag in tags if tags.count(tag) > 1), None)
    if shared is not None:
        raise ConfigError(f"Omega_list entries share the column tag Omega{shared}")
    if cfg.sample_every is not None and cfg.sample_every < 1:
        raise ConfigError(f"sample_every must be >= 1, got {cfg.sample_every}")
    if preset == "resonance-scan" and cfg.drive_freq is not None:
        raise ConfigError(
            "resonance-scan takes each point's omega_p from its sweep; "
            "remove the omega_p key (an omega_p sweep scans absolute frequencies)"
        )
    size = largest_array_bytes(cfg)
    if size > MAX_ARRAY_BYTES:
        what = f"n_max={cfg.n_max}"
        if size == _sweep_bytes(cfg):
            what = f"a {sweep.variable} sweep of sweep_steps={sweep.steps}"
        raise ConfigError(
            f"{what} needs a {size / 2**20:.4g} MiB array in {preset}, "
            f"over the {MAX_ARRAY_BYTES >> 20} MiB limit"
        )
    if cfg.output_path:  # an empty one writes <preset>.csv
        out = Path(cfg.output_path)
        if out.is_dir():
            raise ConfigError(f"output path {out} is a directory")
        if not out.parent.is_dir():
            raise ConfigError(f"output path {out}: directory {out.parent} does not exist")
    return cfg


def _sweep_bytes(cfg: ExperimentConfig) -> int:
    """Bytes of cfg's sweep grid: 8 per point, 3 points per offset of a delta_omega_p scan."""
    if cfg.sweep is None:
        return 0
    return 8 * cfg.sweep.steps * (3 if cfg.sweep.variable == "delta_omega_p" else 1)


def largest_array_bytes(cfg: ExperimentConfig) -> int:
    """Bytes of the largest dense array cfg's preset allocates, from the config alone.

    The truncation guard's real 2*n_max chain; fig2-sweep's eigh stacks of
    chains, up to rabi_core.STACK_BYTES; the complex 3-level full-space
    matrices of a propagation (static_hamiltonian, drive_operator), at
    2*n_max for convergence-report's refined run; and the sweep's grid of
    points (_sweep_bytes).  Every other array that
    grows with n_max is smaller (solve_spectrum's real 2-level
    eigenvectors) or held to a fixed budget and not counted here:
    fig2-sweep's arrays over a chunk of couplings, about 1 MiB per
    (2*n_max+1)-site array (2 MiB for a Sturm count of both chains), and a
    folded propagation pass's stack of node factors, a few sector matrices
    whose number grows with the drive strength too, which the pass holds to
    dynamics.NODE_STACK_BYTES, under MAX_ARRAY_BYTES, by diagonalizing its
    half steps one at a time where it would be larger.  convergence-report
    runs two passes at once (its 2*n_max run beside its base and dt/2
    runs), so it can hold two node stacks, up to 2 x NODE_STACK_BYTES.  The
    pass forms and reads its segment starts in blocks it holds, with their
    tables, to dynamics.READ_BYTES.  fig2-sweep likewise solves two eigh
    stacks at once where a chunk has more than one (the two threads of
    rabi_core._lowest), so it can hold two, up to 2 x STACK_BYTES.
    """
    n, n2 = cfg.n_max + 1, 2 * cfg.n_max + 1
    chain2 = 8 * n2 * n2
    if cfg.preset == "fig2-sweep":
        return max(chain2, rabi_core.STACK_BYTES, _sweep_bytes(cfg))
    propagated = n2 if cfg.preset == "convergence-report" else n
    return max(chain2, 16 * (3 * propagated) ** 2, _sweep_bytes(cfg))


def load_experiment(
    preset: str,
    config_path: str | Path | None = None,
    out: str | Path | None = None,
    n_max: int | None = None,
    dt: float | None = None,
) -> ExperimentConfig:
    """Load a preset config; the command-line overrides replace its keys before validation."""
    raw = parse_config_file(config_path) if config_path is not None else {}
    overrides = {"output_path": None if out is None else str(out), "n_max": n_max, "dt": dt}
    raw.update({key: value for key, value in overrides.items() if value is not None})
    return build_config(preset, raw)
