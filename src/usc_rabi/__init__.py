"""Numerical simulator for the driven quantum Rabi model in the ultrastrong coupling regime.

Exact diagonalization of the Rabi Hamiltonian, the polaron-style transformation
chain with its renormalized Jaynes-Cummings form, reduced two-state models of
the driven dynamics, and full Schroedinger propagation that serves as the
oracle for every approximation.  All energies are in units of the cavity
frequency (hbar = 1).
"""

from .config import ConfigError, ExperimentConfig, SweepSpec, build_config, load_experiment
from .dynamics import (
    NormDriftError,
    PropagationConfig,
    Sector,
    StateOffSectorError,
    TimeSeries,
    build_h_full,
    default_config,
    embed_ground_state,
    propagate,
    resonance_frequency,
)
from .effective_models import (
    TwoStateModel,
    analytic_transfer,
    half_period,
    model_from_eigenbasis,
    model_from_polaron,
    multiphoton_model,
)
from .hilbert import (
    SpaceDescriptor,
    annihilation,
    atomic_op,
    eigh,
    make_space,
    matrix_exponential,
)
from .polaron import (
    PolaronParams,
    approx_ground_state,
    build_h_jc,
    build_s,
    c10_approx,
    solve_xi_eta,
    transformed_h_rabi,
)
from .presets import ConvergenceGuardError, PresetResult, run_preset
from .rabi_core import (
    ModelParams,
    SpectrumResult,
    build_h_rabi,
    dressed_amplitude,
    ground_levels,
    ground_state,
    parity_labels,
    parity_matrix,
    solve_spectrum,
)

__version__ = "0.1.0"
