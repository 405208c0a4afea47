"""Two-level quantum Rabi model: Hamiltonian, exact spectrum, parity, dressed amplitudes.

The Rabi Hamiltonian kept here includes the counter-rotating interaction terms,

    H = (omega0/2)(|e><e| - |g><g|) + omega_c a^dag a
        + coupling * (a + a^dag)(|g><e| + |e><g|),

so the interacting ground state carries virtual photons.  Exact diagonalization
of this matrix is the oracle every approximation in the package is judged
against.

H conserves the parity (|g><g| - |e><e|) (-1)^(a^dag a), and the coupling moves
one photon while flipping the atom, so each parity sector is a chain: +1 holds
|g,0>, |e,1>, |g,2>, ... and -1 holds |e,0>, |g,1>, |e,2>, ...  In chain order
each sector is a real symmetric tridiagonal matrix with diagonal
n*omega_c -+ omega0/2 (g: -, e: +) and off-diagonal coupling*sqrt(n) between
sites n-1 and n (Casanova et al., PRL 105, 263603 (2010); Braak, PRL 107,
100401 (2011)).  solve_spectrum diagonalizes both chains densely (numpy's
eigh).  ground_level solves for the ground pair only: psi_0 and E0 from the
+1 chain, and a Sturm count (Barth, Martin & Wilkinson, Numer. Math. 9, 386
(1967)) of the -1 chain's levels below E0 + GROUND_GAP_TOL for the gap; only
when that count is not zero does it diagonalize the -1 chain as well.
fig2-sweep's n_max pair needs no more, since the vacuum Rabi frequency is set
by the ground-state amplitudes c_n0.  certify_ground bounds how far that pair
moves at a larger truncation without solving there: truncation drops one
bond of the chain, so the n_max pair is a trial pair of the larger chain
whose residual is known, and two Sturm counts turn the residual into bounds
on E0 and every |c_n0|.  The truncation guard solves its 2*n_max reference
with ground_level only when those bounds do not settle it.
build_h_rabi is the full-space matrix the dynamics and the polaron frame work
with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hilbert
from .hilbert import SpaceDescriptor

PARITY_VIOLATION_TOL = 1e-9
GROUND_GAP_TOL = 1e-10


@dataclass(frozen=True)
class ModelParams:
    """Physical frequencies and couplings, in units of the cavity frequency (omega_c = 1).

    omega0      bare g <-> e splitting
    coupling    atom-cavity coupling strength (lambda in the usual notation)
    omega_f     energy of the auxiliary level f
    drive_amp   classical drive strength on the e <-> f transition (Omega)
    drive_freq  classical drive frequency (omega_p)
    """

    omega0: float
    coupling: float
    omega_f: float = 0.0
    drive_amp: float = 0.0
    drive_freq: float = 0.0

    def __post_init__(self):
        if self.omega0 <= 0:
            raise ValueError(f"omega0 must be > 0, got {self.omega0}")
        if self.coupling < 0:
            raise ValueError(f"coupling must be >= 0, got {self.coupling}")
        if self.drive_amp < 0:
            raise ValueError(f"drive_amp must be >= 0, got {self.drive_amp}")


@dataclass(frozen=True)
class SpectrumResult:
    """Exact eigendecomposition of the Rabi Hamiltonian with parity labels.

    eigenvalues are ascending; eigenvectors[:, k] is the k-th eigenvector with
    its phase fixed so the first significant component is real positive (hence
    <g,0|psi_0> > 0 for the ground state); parities[k] is +1 on the subspace
    spanned by {|g,even>, |e,odd>} and -1 on the complement.
    """

    space: SpaceDescriptor
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    parities: np.ndarray

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])


def build_h_rabi(params: ModelParams, space: SpaceDescriptor) -> np.ndarray:
    """Rabi Hamiltonian with counter-rotating terms on a two-level space."""
    if space.atom_levels != 2:
        raise ValueError(
            "the Rabi Hamiltonian lives on the two-level (g, e) space; "
            "the f level does not couple to the cavity"
        )
    a = hilbert.annihilation(space)
    sx = hilbert.atomic_op(space, "g", "e") + hilbert.atomic_op(space, "e", "g")
    sz = hilbert.atomic_op(space, "e", "e") - hilbert.atomic_op(space, "g", "g")
    h = (
        0.5 * params.omega0 * sz
        + a.conj().T @ a
        + params.coupling * (a + a.conj().T) @ sx
    )
    return h


def parity_matrix(space: SpaceDescriptor) -> np.ndarray:
    """Photon-number parity combined with the atomic inversion.

    The diagonal matrix (|g><g| - |e><e|) (-1)^(a^dag a): +1 on {|g,even>,
    |e,odd>}, the sector that holds the vacuum |g,0>, and -1 on the complement.
    Commutes with the Rabi Hamiltonian; every parity mask in the package is
    read off its diagonal.
    """
    if space.atom_levels != 2:
        raise ValueError("parity is defined on the two-level space")
    fock = 1.0 - 2.0 * (np.arange(space.n_photon) % 2)
    return np.diag(np.concatenate([fock, -fock]))


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its first significant component is real positive."""
    mags = np.abs(vectors)
    first = np.argmax(mags > 1e-8 * mags.max(axis=0), axis=0)
    pivot = vectors[first, np.arange(vectors.shape[1])]
    return vectors * (np.conj(pivot) / np.abs(pivot))


def _chain_bands(
    params: ModelParams, space: SpaceDescriptor, parity: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parity sector `parity` (+1 or -1) as the bands of a real tridiagonal chain.

    Returns the diagonal, the off-diagonal and, for each site n = 0..n_max,
    the full-space row of its ket: |g,n> where n's parity matches `parity`,
    else |e,n>.
    """
    n = np.arange(space.n_photon)
    excited = (n % 2 == 0) != (parity > 0)
    rows = np.where(excited, space.index("e", 0), space.index("g", 0)) + n
    diag = n + np.where(excited, 0.5, -0.5) * params.omega0
    off = params.coupling * np.sqrt(n[1:])
    return diag, off, rows


def _sector_chain(
    params: ModelParams, space: SpaceDescriptor, parity: int
) -> tuple[np.ndarray, np.ndarray]:
    """Parity sector `parity` as a dense chain matrix, and the rows of its sites."""
    diag, off, rows = _chain_bands(params, space, parity)
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1), rows


def _count_below(diag: np.ndarray, off: np.ndarray, x: float) -> int:
    """Number of eigenvalues of the tridiagonal chain (diag, off) below x.

    Sturm count: the negative pivots of the LDL^T factorization of
    chain - x*I, in O(n) and without solving for any level.  A pivot that is
    exactly zero is replaced by -pivmin, as LAPACK's bisection does, so the
    next pivot stays finite; a level within a few ulps of x may be counted on
    either side.
    """
    b2 = off * off
    pivmin = np.finfo(float).tiny * max(1.0, float(b2.max()))
    count, pivot = 0, 1.0
    for a, b in zip((diag - x).tolist(), [0.0] + b2.tolist()):
        pivot = a - b / pivot
        if pivot == 0.0:
            pivot = -pivmin
        count += pivot < 0.0
    return count


def solve_spectrum(params: ModelParams, space: SpaceDescriptor) -> SpectrumResult:
    """Exact diagonalization of the Rabi Hamiltonian, one parity chain at a time.

    Each parity sector is diagonalized as its real tridiagonal chain (see the
    module docstring) and the real chain eigenvectors are scattered into the
    full-space rows of the chain sites, so every eigenvector is real and a
    parity eigenstate by construction, also where levels of the two sectors
    cross.
    """
    if space.atom_levels != 2:
        raise ValueError("the Rabi spectrum is defined on the two-level (g, e) space")
    w = np.empty(space.dim)
    v = np.zeros((space.dim, space.dim))
    for k, parity in enumerate((1, -1)):
        chain, rows = _sector_chain(params, space, parity)
        cols = slice(k * space.n_photon, (k + 1) * space.n_photon)
        w[cols], v[rows, cols] = hilbert.eigh(chain)
    order = np.argsort(w, kind="stable")
    w, v = w[order], _fix_phases(v[:, order])
    spectrum = SpectrumResult(
        space=space, eigenvalues=w, eigenvectors=v, parities=np.zeros(len(w))
    )
    parities = parity_labels(spectrum)
    return SpectrumResult(space=space, eigenvalues=w, eigenvectors=v, parities=parities)


def parity_labels(spectrum: SpectrumResult) -> np.ndarray:
    """Parity label (+1 or -1) of every eigenvector from its dominant support.

    Raises if any eigenvector has weight above PARITY_VIOLATION_TOL on the
    opposite-parity basis subset; that signals a truncation or numerics bug.
    """
    even = np.diag(parity_matrix(spectrum.space)) > 0
    mags = np.abs(spectrum.eigenvectors)
    labels = np.where(np.sum(mags[even] ** 2, axis=0) >= 0.5, 1.0, -1.0)
    violation = np.where(labels > 0, mags[~even].max(axis=0), mags[even].max(axis=0))
    bad = np.flatnonzero(violation >= PARITY_VIOLATION_TOL)
    if bad.size:
        k = int(bad[0])
        raise ValueError(
            f"eigenvector {k} mixes parities (opposite-parity amplitude "
            f"{violation[k]:.3e}); truncation or numerics bug"
        )
    return labels


def _require_gap(gap: float) -> None:
    if gap < GROUND_GAP_TOL:
        raise ValueError(f"ground level is degenerate within tolerance (gap {gap:.3e})")


def ground_state(spectrum: SpectrumResult) -> tuple[np.ndarray, float]:
    """Dressed ground state |psi_0> (phase: <g,0|psi_0> real positive) and its energy."""
    _require_gap(float(spectrum.eigenvalues[1] - spectrum.eigenvalues[0]))
    return spectrum.eigenvectors[:, 0].copy(), spectrum.ground_energy


def ground_level(params: ModelParams, space: SpaceDescriptor) -> tuple[np.ndarray, float]:
    """(psi_0, E0) as ground_state(solve_spectrum(params, space)) gives them, bit for bit.

    Diagonalizes the +1 chain and counts the -1 chain's levels below
    E0 + GROUND_GAP_TOL (a Sturm count, see _count_below).  When none lies
    there, the gap is the +1 chain's own.  Otherwise (a coarse truncation or
    deep coupling puts the -1 chain lower or within the tolerance) the -1
    chain is diagonalized too, and the lower of the two chains gives the
    level.  Same phase convention and same degenerate-level ValueError as
    ground_state.  The truncation guard calls it at 2*n_max only when
    certify_ground cannot settle the guard from the n_max pair.
    """
    if space.atom_levels != 2:
        raise ValueError("the Rabi spectrum is defined on the two-level (g, e) space")
    even, rows = _sector_chain(params, space, 1)
    w, v = np.linalg.eigh(even)
    diag, off, odd_rows = _chain_bands(params, space, -1)
    gap = w[1] - w[0]
    if _count_below(diag, off, w[0] + GROUND_GAP_TOL):
        other, odd_v = np.linalg.eigh(_sector_chain(params, space, -1)[0])
        if other[0] < w[0]:
            (w, v), rows, other = (other, odd_v), odd_rows, w
        gap = min(w[1], other[0]) - w[0]
    _require_gap(float(gap))
    psi = np.zeros(space.dim)
    psi[rows] = v[:, 0]
    return _fix_phases(psi[:, None])[:, 0], float(w[0])


def certify_ground(
    params: ModelParams,
    space: SpaceDescriptor,
    ground: tuple[np.ndarray, float],
    space2: SpaceDescriptor,
    tol: float,
) -> tuple[float, float] | None:
    """Bound how far the ground pair `ground` = (psi_0, E0) at `space` moves at `space2`.

    space2 is a larger truncation.  psi_0 is a parity eigenstate, as
    ground_level and solve_spectrum give it.  Its +1 chain amplitudes v,
    padded with zeros, are a trial vector for the space2 +1 chain T2, whose
    leading block is the space chain T.  With sigma = v^T T v / v^T v, the
    residual of T2 is that of T plus one entry, coupling*sqrt(n_max+1)*v[n_max]:
    the bond into the first dropped site.  rho is its norm over |v|, plus
    2(n+2)*eps*(|T|_inf + that bond + |sigma|) for the rounding in forming it
    (n = n_max + 1 sites).  Some level of T2 lies within rho of sigma, so two
    Sturm counts (_count_below) settle the rest:
      - T2 has exactly one level below sigma + rho + delta, with
        delta = max(2*rho/tol, GROUND_GAP_TOL) (2, not sqrt(2), leaves room
        under tol for |1 - |v|| and rounding).  That level is its lowest,
        mu_1, within rho of sigma, and every other level lies delta or more
        above it, so the angle between v and mu_1's eigenvector u has
        sin <= rho/delta (Davis-Kahan) and |v/|v| -+ u| <= sqrt(2)*rho/delta;
      - the space2 -1 chain has no level below sigma + rho + GROUND_GAP_TOL,
        so mu_1 is the ground level at space2 and is not degenerate.
    Returns (energy bound, amplitude bound): |E0 - mu_1| <= |E0 - sigma| + rho,
    and every |<e,n|psi_0>| moves by at most sqrt(2)*rho/delta + |1 - |v||.
    Returns None when the counts do not hold, when a bound exceeds tol, or
    when psi_0 lies in the -1 chain; ground_level at space2 then decides.
    """
    psi, energy = ground
    chain, rows = _sector_chain(params, space, 1)
    v = psi[rows]
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return None
    diag, off, _ = _chain_bands(params, space2, 1)
    n = v.size
    tv = chain @ v
    sigma = float(v @ tv) / norm**2
    bond = off[n - 1]
    residual = np.append(tv - sigma * v, bond * v[-1])
    scale = np.abs(chain).sum(axis=1).max() + bond + abs(sigma)
    rho = (np.linalg.norm(residual) + 2 * (n + 2) * np.finfo(float).eps * scale * norm) / norm
    d_energy = abs(energy - sigma) + rho
    delta = max(2.0 * rho / tol, GROUND_GAP_TOL)
    d_amp = np.sqrt(2.0) * rho / delta + abs(1.0 - norm)
    if max(d_energy, d_amp) > tol:
        return None
    if _count_below(diag, off, sigma + rho + delta) != 1:
        return None
    odd_diag, odd_off, _ = _chain_bands(params, space2, -1)
    if _count_below(odd_diag, odd_off, sigma + rho + GROUND_GAP_TOL):
        return None
    return float(d_energy), float(d_amp)


def dressed_amplitude(spectrum: SpectrumResult, n: int) -> complex:
    """Amplitude c_n0 = <psi_0|e,n> of the n-photon excited-atom ket in the ground state."""
    if not 0 <= n <= spectrum.space.n_max:
        raise ValueError(f"photon index {n} outside truncation [0, {spectrum.space.n_max}]")
    idx = spectrum.space.index("e", n)
    return complex(np.conj(spectrum.eigenvectors[idx, 0]))
