"""Polaron-style unitary transformation of the Rabi model.

The generator

    S = (coupling * xi / omega_c) (|g><e| + |e><g|) (a^dag - a)

displaces the field conditioned on the atomic dipole.  The displacement
fraction xi and the dressing factor eta solve the coupled pair

    xi  = omega_c / (omega_c + eta * omega0),
    eta = exp(-2 coupling^2 xi^2 / omega_c^2),

and e^S H e^-S is approximately a Jaynes-Cummings Hamiltonian with
renormalized atom frequency eta*omega0 and interaction 2*eta*omega0*xi*
coupling/omega_c.  e^-S |g,0> is then an approximate dressed ground state,
and the amplitude of |e,1> in it has the closed form
-eta^(1/4)*xi*coupling/omega_c, with omega_c = 1 the unit of energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hilbert
from .hilbert import SpaceDescriptor
from .rabi_core import ModelParams, build_h_rabi

FIXED_POINT_RESIDUAL_TOL = 1e-12
FIXED_POINT_MAX_ITER = 200
# plain fixed-point steps before solve_xi_eta switches to Newton
_PLAIN_STEPS = 50


@dataclass(frozen=True)
class PolaronParams:
    """Solved transformation parameters and the renormalized model constants.

    xi            conditional displacement fraction, in (0, 1]
    eta           dressing (Franck-Condon) factor, in (0, 1]
    omega0_prime  renormalized atom frequency eta * omega0
    lambda_prime  renormalized interaction 2 * eta * omega0 * xi * coupling / omega_c
    omega_prime   renormalized drive strength eta^(1/4) * drive_amp
    e_approx      approximate ground energy coupling^2 xi (xi - 2)/omega_c - omega0_prime/2
    """

    xi: float
    eta: float
    omega0_prime: float
    lambda_prime: float
    omega_prime: float
    e_approx: float


def solve_xi_eta(params: ModelParams) -> PolaronParams:
    """Solve the (xi, eta) self-consistent pair: the root the iteration from eta=1 reaches.

    Eliminating xi leaves f(eta) = eta - exp(-2 coupling^2 xi(eta)^2 / omega_c^2),
    with f(0) < 0 <= f(1).  The fixed-point iteration eta <- exp(...) from
    eta = 1 falls monotonically to the largest root, but its slope there can
    come close to 1 (0.926 at omega0 = 2, coupling = 1.25).  So after 50
    plain steps it takes Newton steps on f instead, bisecting a bracket
    [lo, hi] with f(lo) < 0 < f(hi) when a step leaves it.  In
    u = omega_c + eta*omega0 the exponential is convex below
    u = 2 coupling / sqrt(3) and concave above, so f is concave, then convex.
    With three roots the largest lies in the convex part, where Newton from
    above stays above it; with one, f increases up to it and any bracket
    holds only that root.

    Raises ValueError if the residuals have not dropped below 1e-12 after
    200 steps.
    """
    w0, lam = params.omega0, params.coupling
    lo, hi, eta = 0.0, 1.0, 1.0
    xi = 1.0 / (1.0 + eta * w0)
    for k in range(FIXED_POINT_MAX_ITER):
        xi = 1.0 / (1.0 + eta * w0)
        eta_next = np.exp(-2.0 * lam**2 * xi**2)
        if k >= _PLAIN_STEPS:
            f = eta - eta_next
            lo, hi = (lo, eta) if f > 0 else (eta, hi)
            slope = 1.0 - 4.0 * lam**2 * xi**3 * w0 * eta_next
            eta_next = eta - f / slope if slope > 0 else -1.0
            if not lo <= eta_next <= hi:
                eta_next = 0.5 * (lo + hi)
        converged = abs(eta_next - eta) < 1e-15
        eta = eta_next
        if converged:
            break
    res_xi = abs(xi - 1.0 / (1.0 + eta * w0))
    res_eta = abs(eta - np.exp(-2.0 * lam**2 * xi**2))
    if res_xi > FIXED_POINT_RESIDUAL_TOL or res_eta > FIXED_POINT_RESIDUAL_TOL:
        raise ValueError(
            f"(xi, eta) fixed point did not converge at omega0={w0:g}, "
            f"lambda={lam:g}: residuals ({res_xi:.3e}, {res_eta:.3e})"
        )
    omega0_prime = eta * w0
    return PolaronParams(
        xi=xi,
        eta=eta,
        omega0_prime=omega0_prime,
        lambda_prime=2.0 * eta * w0 * xi * lam,
        omega_prime=eta**0.25 * params.drive_amp,
        e_approx=lam**2 * xi * (xi - 2.0) - omega0_prime / 2.0,
    )


def build_s(params: ModelParams, polaron: PolaronParams, space: SpaceDescriptor) -> np.ndarray:
    """Anti-Hermitian generator S; acts as zero on the f sector of a 3-level space."""
    a = hilbert.annihilation(space)
    sx = hilbert.atomic_op(space, "g", "e") + hilbert.atomic_op(space, "e", "g")
    return (params.coupling * polaron.xi) * sx @ (a.conj().T - a)


def build_h_jc(params: ModelParams, polaron: PolaronParams, space: SpaceDescriptor) -> np.ndarray:
    """Renormalized Jaynes-Cummings Hamiltonian approximating e^S H e^-S.

    Block-diagonal in the excitation number; |g,0> is its ground state with
    eigenvalue e_approx.
    """
    if space.atom_levels != 2:
        raise ValueError("the effective JC Hamiltonian lives on the two-level space")
    a = hilbert.annihilation(space)
    sz = hilbert.atomic_op(space, "e", "e") - hilbert.atomic_op(space, "g", "g")
    ident = hilbert.atomic_op(space, "e", "e") + hilbert.atomic_op(space, "g", "g")
    raise_e = hilbert.atomic_op(space, "e", "g")
    h = (
        0.5 * polaron.omega0_prime * sz
        + a.conj().T @ a
        + polaron.lambda_prime * (a @ raise_e + a.conj().T @ raise_e.conj().T)
        + (params.coupling**2 * polaron.xi) * (polaron.xi - 2.0) * ident
    )
    return h


def approx_ground_state(
    params: ModelParams, polaron: PolaronParams, space: SpaceDescriptor
) -> np.ndarray:
    """Approximate dressed ground state e^-S |g,0>, normalized."""
    s = build_s(params, polaron, space)
    psi = hilbert.matrix_exponential(s, scale=-1.0) @ space.basis_state("g", 0)
    return psi / np.linalg.norm(psi)


def c10_approx(params: ModelParams, polaron: PolaronParams) -> float:
    """Closed-form single-virtual-photon amplitude -eta^(1/4) xi coupling / omega_c."""
    return -polaron.eta**0.25 * polaron.xi * params.coupling


def transformed_h_rabi(
    params: ModelParams, polaron: PolaronParams, space: SpaceDescriptor
) -> np.ndarray:
    """Exact transform e^S H e^-S on the truncated space.

    The difference to the JC form is the neglected multi-photon correction;
    useful for quantifying the approximation gap.
    """
    h = build_h_rabi(params, space)
    s = build_s(params, polaron, space)
    u = hilbert.matrix_exponential(s)
    u_inv = hilbert.matrix_exponential(s, scale=-1.0)
    return u @ h @ u_inv
