"""Truncated joint Hilbert space (atom x Fock) and the dense operator algebra on it.

Basis ordering: the flattened index of |level, n> is level_ordinal*(n_max+1) + n
with level ordinals g=0, e=1, f=2.  All operators are dense complex matrices,
each built by writing its nonzero band into a zeroed array, and all energies
are expressed in units of the cavity frequency (hbar = 1).  eigh is numpy's
dense Hermitian solver and keeps real input real; the polaron frame's
unitaries e^(+-S) come from one eigh each (matrix_exponential).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ATOM_LEVELS = ("g", "e", "f")

HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class SpaceDescriptor:
    """Truncated atom (x) Fock product space.

    n_max is the largest retained photon number; atom_levels is 2 (g, e) or
    3 (g, e, f).
    """

    n_max: int
    atom_levels: int

    @property
    def n_photon(self) -> int:
        return self.n_max + 1

    @property
    def dim(self) -> int:
        return self.atom_levels * (self.n_max + 1)

    @property
    def levels(self) -> tuple[str, ...]:
        return ATOM_LEVELS[: self.atom_levels]

    def level_ordinal(self, level: str) -> int:
        if level not in self.levels:
            raise ValueError(
                f"level {level!r} not available in a {self.atom_levels}-level space"
            )
        return ATOM_LEVELS.index(level)

    def index(self, level: str, photons: int) -> int:
        """Flattened basis index of |level, photons>."""
        if not 0 <= photons <= self.n_max:
            raise ValueError(f"photon number {photons} outside [0, {self.n_max}]")
        return self.level_ordinal(level) * self.n_photon + photons

    def level_photon(self, index: int) -> tuple[str, int]:
        """Inverse of index(): basis label (level, photons)."""
        if not 0 <= index < self.dim:
            raise ValueError(f"index {index} outside [0, {self.dim})")
        return ATOM_LEVELS[index // self.n_photon], index % self.n_photon

    def basis_state(self, level: str, photons: int) -> np.ndarray:
        """Unit vector for the basis ket |level, photons>."""
        v = np.zeros(self.dim, dtype=complex)
        v[self.index(level, photons)] = 1.0
        return v


def make_space(n_max: int, atom_levels: int = 3) -> SpaceDescriptor:
    """Construct the truncated joint space descriptor.

    n_max must be >= 1; atom_levels must be 2 or 3.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if atom_levels not in (2, 3):
        raise ValueError(f"atom_levels must be 2 or 3, got {atom_levels}")
    return SpaceDescriptor(n_max=n_max, atom_levels=atom_levels)


def annihilation(space: SpaceDescriptor) -> np.ndarray:
    """Photon annihilation operator: <level, n-1| a |level, n> = sqrt(n)."""
    band = np.append(np.sqrt(np.arange(1.0, space.n_photon)), 0.0)
    a = np.zeros((space.dim, space.dim), dtype=complex)
    # the superdiagonal; its entries between two levels' blocks are 0
    a.flat[1 :: space.dim + 1] = np.tile(band, space.atom_levels)[:-1]
    return a


def atomic_op(space: SpaceDescriptor, bra_level: str, ket_level: str) -> np.ndarray:
    """Atomic transition operator |bra_level><ket_level| (x) identity on the Fock factor."""
    nph = space.n_photon
    row = space.level_ordinal(bra_level) * nph
    col = space.level_ordinal(ket_level) * nph
    op = np.zeros((space.dim, space.dim), dtype=complex)
    np.fill_diagonal(op[row : row + nph, col : col + nph], 1.0)
    return op


def matrix_exponential(m: np.ndarray, scale: complex = 1.0) -> np.ndarray:
    """exp(a) = v diag(exp(-1j*w)) v^H for the anti-Hermitian a = scale*m, 1j*a = v diag(w) v^H.

    Unitary to rounding; eigh rejects an a that is not finite and anti-Hermitian
    (ValueError).
    """
    m = np.asarray(m, dtype=complex)
    w, v = eigh(1j * (scale * m))
    return (v * np.exp(-1j * w)) @ v.conj().T


def require_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL) -> None:
    """Raise ValueError unless m is finite and Hermitian to tol (relative to its largest entry)."""
    # a NaN defect would compare false and pass
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    defect = float(np.max(np.abs(m - m.conj().T)))
    if defect > tol * max(1.0, float(np.max(np.abs(m)))):
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")


def eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense Hermitian eigendecomposition, the exact-diagonalization oracle.

    Returns (eigenvalues ascending, eigenvectors as columns of a unitary).
    Rejects non-finite or non-Hermitian input.  Real input stays real (orthogonal
    eigenvectors).
    """
    m = np.asarray(m)
    require_hermitian(m)
    return np.linalg.eigh(m)
