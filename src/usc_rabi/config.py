"""Experiment configuration: flat key=value config files and validation.

Config files are UTF-8 text, one `key = value` per line, `#` starts a comment
line.  All frequencies are ratios to the cavity frequency.  Unknown keys are
errors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from .dynamics import METHODS

PRESETS = (
    "fig2-sweep",
    "fig3-evolve",
    "resonance-scan",
    "convergence-report",
    "two-state-compare",
)

_SWEEP_PRESETS = ("fig2-sweep", "resonance-scan")


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
    t_end / dt / sample_every None mean "derive the default grid".
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
    norm_tol: float = 1e-9
    method: str = "magnus4"
    sweep: SweepSpec | None = None
    output_path: str | None = None


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"expected a comma-separated float list, got {text!r}") from exc


_KEY_PARSERS = {
    "preset": str,
    "omega0": float,
    "omega_f": float,
    "lambda": float,
    "Omega": float,
    "omega_p": float,
    "Omega_list": _parse_float_list,
    "n_max": int,
    "t_end": float,
    "dt": float,
    "sample_every": int,
    "norm_tol": float,
    "method": str,
    "sweep_variable": str,
    "sweep_start": float,
    "sweep_stop": float,
    "sweep_steps": int,
    "output_path": str,
}

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
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEY_PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            raw[key] = _KEY_PARSERS[key](value)
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
    file_preset = raw.pop("preset", None)
    if file_preset is not None and file_preset != preset:
        raise ConfigError(
            f"config file is for preset {file_preset!r} but {preset!r} was requested"
        )

    sweep_items = {k: raw.pop(k) for k in _SWEEP_KEYS if k in raw}
    sweep = None
    if sweep_items:
        missing = [k for k in _SWEEP_KEYS if k not in sweep_items]
        if missing:
            raise ConfigError(f"incomplete sweep: missing {', '.join(missing)}")
        sweep = SweepSpec(
            variable=sweep_items["sweep_variable"],
            start=sweep_items["sweep_start"],
            stop=sweep_items["sweep_stop"],
            steps=sweep_items["sweep_steps"],
        )
    if preset in _SWEEP_PRESETS:
        if sweep is None:
            sweep = _DEFAULT_SWEEPS[preset]
        if sweep.variable not in _SWEEP_VARIABLES[preset]:
            raise ConfigError(
                f"preset {preset!r} sweeps over "
                f"{' or '.join(_SWEEP_VARIABLES[preset])}, not {sweep.variable!r}"
            )
    elif sweep is not None:
        raise ConfigError(f"preset {preset!r} does not take a sweep")

    if "Omega_list" in raw and preset != "fig3-evolve":
        raise ConfigError("Omega_list applies to the fig3-evolve preset only")

    cfg = ExperimentConfig(
        preset=preset,
        omega0=raw.pop("omega0", 1.0),
        coupling=raw.pop("lambda", 0.5),
        omega_f=raw.pop("omega_f", 3.0),
        drive_amp=raw.pop("Omega", None),
        drive_freq=raw.pop("omega_p", None),
        omega_list=raw.pop("Omega_list", None),
        n_max=raw.pop("n_max", 40),
        t_end=raw.pop("t_end", None),
        dt=raw.pop("dt", None),
        sample_every=raw.pop("sample_every", None),
        norm_tol=raw.pop("norm_tol", 1e-9),
        method=raw.pop("method", "magnus4"),
        sweep=sweep,
        output_path=raw.pop("output_path", None),
    )
    if raw:
        raise ConfigError(f"unhandled keys: {', '.join(sorted(raw))}")
    if cfg.n_max < 1:
        raise ConfigError(f"n_max must be >= 1, got {cfg.n_max}")
    if cfg.method not in METHODS:
        raise ConfigError(f"unknown method {cfg.method!r}")
    for name in ("coupling", "omega_f"):
        if getattr(cfg, name) < 0:
            raise ConfigError(f"{name} must be non-negative")
    for name in ("omega0", "drive_amp", "drive_freq", "t_end", "dt", "norm_tol"):
        value = getattr(cfg, name)
        if value is not None and value <= 0:
            key = {"drive_amp": "Omega", "drive_freq": "omega_p"}.get(name, name)
            raise ConfigError(f"{key} must be positive, got {value}")
    if cfg.omega_list is not None and any(o <= 0 for o in cfg.omega_list):
        raise ConfigError("Omega_list entries must be positive")
    if cfg.sample_every is not None and cfg.sample_every < 1:
        raise ConfigError(f"sample_every must be >= 1, got {cfg.sample_every}")
    return cfg


def load_experiment(
    preset: str,
    config_path: str | Path | None = None,
    out: str | Path | None = None,
    n_max: int | None = None,
    dt: float | None = None,
) -> ExperimentConfig:
    """Load a preset config, applying command-line overrides."""
    raw = parse_config_file(config_path) if config_path is not None else {}
    cfg = build_config(preset, raw)
    if out is not None:
        cfg = replace(cfg, output_path=str(out))
    if n_max is not None:
        if n_max < 1:
            raise ConfigError(f"n_max must be >= 1, got {n_max}")
        cfg = replace(cfg, n_max=n_max)
    if dt is not None:
        if dt <= 0:
            raise ConfigError(f"dt must be positive, got {dt}")
        cfg = replace(cfg, dt=dt)
    return cfg
