"""Polaron-style unitary transformation of the Rabi model.

The generator

    S = (coupling * xi / omega_c) (|g><e| + |e><g|) (a^dag - a)

displaces the field conditioned on the atomic dipole.  The displacement
fraction xi and the dressing factor eta solve the coupled pair

    xi  = omega_c / (omega_c + eta * omega0),
    eta = exp(-2 coupling^2 xi^2 / omega_c^2),

whose largest root solve_xi_eta takes by bracketed Newton steps from eta = 1,
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


@dataclass(frozen=True)
class PolaronParams:
    """Solved transformation parameters and the renormalized model constants.

    xi            conditional displacement fraction, in (0, 1]
    eta           dressing (Franck-Condon) factor, in (0, 1]
    omega0_prime  renormalized atom frequency eta * omega0
    lambda_prime  renormalized interaction 2 * eta * omega0 * xi * coupling / omega_c
    omega_prime   renormalized drive strength eta^(1/4) * drive_amp
    e_approx      approximate ground energy coupling^2 xi (xi - 2)/omega_c - omega0_prime/2

    Each is an array over the couplings when params.coupling is one.
    """

    xi: float
    eta: float
    omega0_prime: float
    lambda_prime: float
    omega_prime: float
    e_approx: float


def solve_xi_eta(params: ModelParams) -> PolaronParams:
    """Solve the (xi, eta) self-consistent pair for its largest root.

    Eliminating xi leaves f(eta) = eta - exp(-2 coupling^2 xi(eta)^2 / omega_c^2),
    with f(0) < 0 <= f(1).  Each step is a Newton step on f from eta = 1; one
    that leaves the bracket [lo, hi], f(lo) <= 0 < f(hi), bisects it instead.
    In u = omega_c + eta*omega0 the exponential is convex below
    u = 2 coupling / sqrt(3) and concave above, so f is concave, then convex.
    With three roots the largest lies in the convex part, where Newton from
    above stays above it; with one, f increases up to it and any bracket
    holds only that root.  Each element stops at the step that moves its eta
    by less than 1e-15 or leaves its bracket narrower than 1e-14: near the
    root f is rounding error, so a step is that small or, where f' is small,
    a jump of about 1e-15 across the root, and as the jumps alternate sides
    each moves one end of the bracket to eta.  xi is formed from the final
    eta.

    params.coupling is one coupling, the one-element case, or a 1-d array of
    them; each element is bit for bit its one-coupling solve.  Raises
    ValueError, naming the first such coupling, if the residual of the eta
    equation has not dropped below 1e-12 after 200 steps.
    """
    w0 = params.omega0
    lam = np.atleast_1d(params.coupling).astype(float)
    lam2 = lam**2
    c = -2.0 * lam2
    lo, hi, eta = np.zeros_like(lam), np.ones_like(lam), np.ones_like(lam)
    live = np.ones(lam.shape, dtype=bool)
    for _ in range(FIXED_POINT_MAX_ITER):
        x = 1.0 / (1.0 + eta * w0)
        e = np.exp(c * x**2)
        f = eta - e
        lo, hi = np.where(f > 0, lo, eta), np.where(f > 0, eta, hi)
        slope = 1.0 - 4.0 * lam2 * x**3 * w0 * e
        # a step with slope <= 0 leaves the bracket, as does eta - inf
        newton = eta - np.divide(f, slope, out=np.full_like(f, np.inf), where=slope > 0)
        eta_next = np.where((lo <= newton) & (newton <= hi), newton, 0.5 * (lo + hi))
        converged = (np.abs(eta_next - eta) < 1e-15) | (hi - lo < 1e-14)
        eta = np.where(live, eta_next, eta)
        live &= ~converged
        if not live.any():
            break
    xi = 1.0 / (1.0 + eta * w0)
    res = np.abs(eta - np.exp(c * xi**2))
    bad = np.flatnonzero(res > FIXED_POINT_RESIDUAL_TOL)
    if bad.size:
        k = bad[0]
        raise ValueError(
            f"(xi, eta) fixed point did not converge at omega0={w0:g}, "
            f"lambda={lam[k]:g}: residuals (eta - exp(-2 lambda^2 xi^2) = {res[k]:.3e})"
        )
    if np.ndim(params.coupling) == 0:
        xi, eta, lam, lam2 = xi[0], eta[0], lam[0], lam2[0]
    omega0_prime = eta * w0
    return PolaronParams(
        xi=xi,
        eta=eta,
        omega0_prime=omega0_prime,
        lambda_prime=2.0 * eta * w0 * xi * lam,
        omega_prime=np.sqrt(np.sqrt(eta)) * params.drive_amp,
        e_approx=lam2 * xi * (xi - 2.0) - omega0_prime / 2.0,
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
    # eta^(1/4) as two square roots, which round alike on a scalar and an array
    return -np.sqrt(np.sqrt(polaron.eta)) * polaron.xi * params.coupling


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
