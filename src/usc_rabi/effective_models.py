"""Reduced two-state descriptions of the driven dynamics and their analytic solution.

Both reductions couple the dressed ground state to a single |f, n> target:

  * transformed frame:  g = coupling * xi * omega_prime / (2 omega_c),
  * exact eigenbasis:   g = drive_amp * |c_n0| / 2,

where c_n0 is the exact amplitude of |e,n> in the dressed ground state.  The
drive cannot reach |f, n> at all without virtual photons, so g vanishes with
the coupling.  On resonance the transfer probability is sin^2(g t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polaron import PolaronParams
from .rabi_core import ModelParams, SpectrumResult, dressed_amplitude


@dataclass(frozen=True)
class TwoStateModel:
    """Effective two-state exchange model.

    coupling is the half-Rabi coupling g >= 0 (phases absorbed into the target
    state); detuning is the drive offset from the model's resonance, 0 when
    driven exactly on resonance.
    """

    coupling: float
    detuning: float = 0.0


def _detuning(params: ModelParams, resonance: float) -> float:
    if params.drive_freq == 0.0:
        return 0.0
    return params.drive_freq - resonance


def model_from_polaron(params: ModelParams, polaron: PolaronParams) -> TwoStateModel:
    """Two-state model in the transformed frame: g = coupling*xi*omega_prime/(2 omega_c)."""
    g = params.coupling * polaron.xi * polaron.omega_prime / 2.0
    resonance = params.omega_f + 1.0 - polaron.e_approx
    return TwoStateModel(coupling=g, detuning=_detuning(params, resonance))


def model_from_eigenbasis(params: ModelParams, spectrum: SpectrumResult) -> TwoStateModel:
    """Two-state model from the exact eigenbasis: g = drive_amp*|c_10|/2."""
    return multiphoton_model(params, spectrum, 1)


def multiphoton_model(params: ModelParams, spectrum: SpectrumResult, n: int) -> TwoStateModel:
    """n-photon generalization with target |f,n>; parity forbids even n.

    Resonant drive frequency for this channel is omega_f + n - ground
    energy; g = drive_amp * |c_n0| / 2 with the exact n-photon amplitude.
    """
    if n % 2 == 0:
        raise ValueError(
            f"n must be odd (parity forces the {n}-photon amplitude to vanish)"
        )
    if n > spectrum.space.n_max:
        raise ValueError(f"n={n} exceeds the Fock truncation {spectrum.space.n_max}")
    g = params.drive_amp * abs(dressed_amplitude(spectrum, n)) / 2.0
    resonance = params.omega_f + n - spectrum.ground_energy
    return TwoStateModel(coupling=g, detuning=_detuning(params, resonance))


def analytic_transfer(model: TwoStateModel, t):
    """Transfer probability g^2/(g^2 + delta^2/4) sin^2(sqrt(g^2 + delta^2/4) t).

    Accepts a scalar or an array of times; returns zeros when g = 0, and a
    finite curve where g^2 underflows (the rate is hypot(g, delta/2)).
    """
    t = np.asarray(t, dtype=float)
    if model.coupling == 0.0:
        return np.zeros_like(t)
    rate = np.hypot(model.coupling, model.detuning / 2.0)
    return (model.coupling / rate) ** 2 * np.sin(rate * t) ** 2


def half_period(model: TwoStateModel) -> float:
    """Time of the first full transfer on resonance, pi/(2 g)."""
    if model.coupling == 0.0:
        return np.inf
    return np.pi / (2.0 * model.coupling)
