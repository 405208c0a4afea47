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
eigh).  ground_levels solves for the ground pair only, at one coupling or
a whole array of them: psi_0 and E0 from the +1 chain, and a Sturm count
(Barth, Martin & Wilkinson, Numer. Math. 9, 386 (1967)) of the -1 chain's
levels below E0 + GROUND_GAP_TOL for the gap; only where that count is not
zero does it diagonalize the -1 chain as well.  fig2-sweep's n_max pairs
need no more, since the vacuum Rabi frequency is set by the ground-state
amplitudes c_n0.  certify_grounds bounds how far those pairs move at a
larger truncation without solving there: truncation drops one bond of the
chain, so an n_max pair is a trial pair of the larger chain whose residual
is known, and two Sturm counts turn the residual into bounds on E0 and
every |c_n0|.  The truncation guard solves its 2*n_max reference with
ground_levels only where those bounds do not settle it.  The chains of all
couplings are one stack, solved by eigh STACK_BYTES at a time, the
sub-stacks shared between this thread and a second one (beside), since
numpy drops the GIL in LAPACK; numpy solves a stack one matrix at a time
with the same LAPACK call, so every pair is bit for bit the one-coupling
one on either thread.  Each Sturm count runs its recurrence site by site
on arrays over the couplings.
build_h_rabi is the full-space matrix the dynamics and the polaron frame work
with.
"""

from __future__ import annotations

import collections
import threading
from dataclasses import dataclass

import numpy as np

from . import hilbert
from .hilbert import SpaceDescriptor

PARITY_VIOLATION_TOL = 1e-9
GROUND_GAP_TOL = 1e-10
# bytes of dense chain matrices one eigh call solves (_lowest)
STACK_BYTES = 1 << 16


@dataclass(frozen=True)
class ModelParams:
    """Physical frequencies and couplings, in units of the cavity frequency (omega_c = 1).

    omega0      bare g <-> e splitting
    coupling    atom-cavity coupling strength (lambda in the usual notation);
                polaron.solve_xi_eta also takes a 1-d array of them
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
        if np.any(np.asarray(self.coupling) < 0):
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
    nph, dim = space.n_photon, space.dim
    # sqrt(n), n = 1..n_max: the band of a on the Fock factor, copied so a is freed
    root = hilbert.annihilation(space).real.diagonal(1)[: nph - 1].copy()
    # a^dag a gives fl(sqrt(n) sqrt(n)), not n
    number = np.append(0.0, root * root)
    half = 0.5 * params.omega0
    h = np.zeros((dim, dim), dtype=complex)
    h.flat[:: dim + 1] = np.concatenate([number - half, number + half])
    # coupling * (a + a^dag) on the g-e and e-g blocks
    hop = params.coupling * root
    for block in (h[:nph, nph:], h[nph:, :nph]):
        block.flat[1 :: nph + 1] = hop
        block.flat[nph :: nph + 1] = hop
    return h


def parity_matrix(space: SpaceDescriptor) -> np.ndarray:
    """Photon-number parity combined with the atomic inversion.

    The diagonal matrix (|g><g| - |e><e|) (-1)^(a^dag a): +1 on {|g,even>,
    |e,odd>}, the sector that holds the vacuum |g,0>, and -1 on the complement.
    Commutes with the Rabi Hamiltonian.  parity_labels and dynamics.Sector
    read their masks off its diagonal; _chain_bands places its sites itself.
    """
    if space.atom_levels != 2:
        raise ValueError("parity is defined on the two-level space")
    fock = 1.0 - 2.0 * (np.arange(space.n_photon) % 2)
    return np.diag(np.concatenate([fock, -fock]))


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its first significant component is real positive.

    vectors may be a stack of matrices; each column of each is fixed alone.
    """
    mags = np.abs(vectors)
    first = np.argmax(mags > 1e-8 * mags.max(axis=-2, keepdims=True), axis=-2)
    pivot = np.take_along_axis(vectors, first[..., None, :], axis=-2)
    return vectors * (np.conj(pivot) / np.abs(pivot))


def _chain_bands(
    omega0: float, coupling, space: SpaceDescriptor, parity: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parity sector `parity` (+1 or -1) as the bands of a real tridiagonal chain.

    coupling is one coupling or an array of them.  Returns the diagonal, which
    no coupling changes, the off-diagonals, shape coupling.shape + (n_max,),
    and, for each site n = 0..n_max, the full-space row of its ket: |g,n>
    where n's parity matches `parity`, else |e,n>.
    """
    n = np.arange(space.n_photon)
    excited = (n % 2 == 0) != (parity > 0)
    rows = np.where(excited, space.index("e", 0), space.index("g", 0)) + n
    diag = n + np.where(excited, 0.5, -0.5) * omega0
    off = np.multiply.outer(coupling, np.sqrt(n[1:]))
    return diag, off, rows


def _chain_matrix(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Dense chain matrices from the bands: one per row of off, stacked as off is."""
    n = diag.size
    chain = np.zeros(off.shape[:-1] + (n * n,))
    chain[..., :: n + 1] = diag
    chain[..., 1 :: n + 1] = off
    chain[..., n :: n + 1] = off
    return chain.reshape(off.shape[:-1] + (n, n))


def _chain_times(diag: np.ndarray, off: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The chain (diag, off) times v, on stacks of chains and vectors."""
    tv = diag * v
    tv[..., 1:] += off * v[..., :-1]
    tv[..., :-1] += off * v[..., 1:]
    return tv


def _count_below(diag: np.ndarray, off: np.ndarray, x) -> np.ndarray:
    """Number of eigenvalues of the tridiagonal chain (diag, off) below x.

    Sturm count: the negative pivots of the LDL^T factorization of
    chain - x*I, in O(n) and without solving for any level.  A pivot that is
    exactly zero is replaced by -pivmin, as LAPACK's bisection does, so the
    next pivot stays finite; a level within a few ulps of x may be counted on
    either side.  diag (..., n), off (..., n-1) and x (...) may be stacks
    that broadcast, say over the couplings of a grid: the recurrence then
    runs site by site on arrays over the stack, and the counts have its shape.
    """
    b2 = off * off
    neg_pivmin = -np.finfo(float).tiny * np.maximum(1.0, b2.max(axis=-1))
    x = np.asarray(x)
    n = np.shape(diag)[-1]
    shape = np.broadcast_shapes(np.shape(diag)[:-1], off.shape[:-1], x.shape)
    pivot = np.empty(shape + (n,))
    np.subtract(diag, x[..., None], out=pivot)
    # site by site; each pivot[..., j] is a view the recurrence updates in place
    for j in range(n):
        row = pivot[..., j]
        if j:
            row -= b2[..., j - 1] / pivot[..., j - 1]
        if np.count_nonzero(row) < row.size:
            np.copyto(row, neg_pivmin, where=row == 0.0)
    return np.count_nonzero(pivot < 0.0, axis=-1)


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
        diag, off, rows = _chain_bands(params.omega0, params.coupling, space, parity)
        cols = slice(k * space.n_photon, (k + 1) * space.n_photon)
        w[cols], v[rows, cols] = hilbert.eigh(_chain_matrix(diag, off))
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


def require_gap(gap: float) -> None:
    """Raise ValueError when the ground level is degenerate: gap below GROUND_GAP_TOL."""
    if gap < GROUND_GAP_TOL:
        raise ValueError(f"ground level is degenerate within tolerance (gap {gap:.3e})")


def ground_state(spectrum: SpectrumResult) -> tuple[np.ndarray, float]:
    """Dressed ground state |psi_0> (phase: <g,0|psi_0> real positive) and its energy."""
    require_gap(float(spectrum.eigenvalues[1] - spectrum.eigenvalues[0]))
    return spectrum.eigenvectors[:, 0].copy(), spectrum.ground_energy


def ground_levels(
    omega0: float, coupling, space: SpaceDescriptor
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(psi_0, E0, gap) at every coupling of `coupling`, one coupling or a 1-d array.

    psi_0 has shape coupling.shape + (dim,), E0 and gap coupling.shape.  The
    +1 chains of all couplings are solved as stacks (_lowest), shared between
    this thread and a second one when there is more than one stack: numpy
    solves a stack one matrix at a time with the same LAPACK call, so each
    pair is bit for bit what ground_state(solve_spectrum(...)) gives.  The
    -1 chains get one Sturm count (_count_below) of their levels below
    E0 + GROUND_GAP_TOL, on arrays over the couplings.  Only the -1 chains
    that count a level there (a coarse truncation or deep coupling puts the
    -1 chain lower or within the tolerance) are solved too, and the lower of
    the two chains gives the level.  gap is the distance to the next level
    of either chain; below GROUND_GAP_TOL the level is degenerate
    (require_gap), which the caller judges.
    """
    if space.atom_levels != 2:
        raise ValueError("the Rabi spectrum is defined on the two-level (g, e) space")
    diag, off, rows = _chain_bands(omega0, coupling, space, 1)
    w, psi = _lowest(diag, off, rows, space.dim)
    # the -1 chain's two lowest levels and ground vector; +inf and zero where
    # it counts no level below E0 + GROUND_GAP_TOL
    odd_diag, odd_off, odd_rows = _chain_bands(omega0, coupling, space, -1)
    counted = _count_below(odd_diag, odd_off, w[..., 0] + GROUND_GAP_TOL) > 0
    other, odd_psi = np.full(w.shape, np.inf), np.zeros_like(psi)
    if np.any(counted):
        other[counted], odd_psi[counted] = _lowest(odd_diag, odd_off[counted], odd_rows, space.dim)
    odd = other[..., 0] < w[..., 0]
    low = np.where(odd[..., None], other, w)
    energy = low[..., 0]
    gap = np.minimum(low[..., 1], np.where(odd, w[..., 0], other[..., 0])) - energy
    return np.where(odd[..., None], odd_psi, psi), energy, gap


def _lowest(
    diag: np.ndarray, off: np.ndarray, rows: np.ndarray, dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """Two lowest levels and the full-space lowest eigenvector of every chain (diag, off).

    off holds one chain or a 1-d stack of them; eigh solves the stack
    STACK_BYTES of matrices at a time.  With more than one such sub-stack,
    this thread and a second one (beside) each take the next sub-stack from
    one queue until none is left, so a thread slowed by a busy core takes
    fewer, and each writes only the rows of the results its sub-stacks
    own; one sub-stack, which covers every one-coupling call, starts no
    thread.  Each sub-stack is the same eigh call on either thread, so the
    results are bit for bit the serial ones.  rows are the chain sites'
    full-space rows; each eigenvector's phase is fixed there (_fix_phases),
    after the join.
    """
    n = diag.size
    w = np.empty(off.shape[:-1] + (2,))
    psi = np.zeros(off.shape[:-1] + (dim, 1))
    step = max(1, STACK_BYTES // (8 * n * n))
    parts = [()] if off.ndim == 1 else [slice(k, k + step) for k in range(0, len(off), step)]
    todo = collections.deque(parts)  # popleft is thread-safe

    def solve() -> None:
        while True:
            try:
                s = todo.popleft()
            except IndexError:  # every sub-stack is taken
                return
            levels, v = np.linalg.eigh(_chain_matrix(diag, off[s]))
            w[s] = levels[..., :2]
            psi[s][..., rows, 0] = v[..., 0]

    if len(parts) == 1:
        solve()
    else:
        beside(solve, solve)
    return w, _fix_phases(psi)[..., 0]


def beside(work, main) -> None:
    """Run work() on a second thread while main() runs on this one.

    numpy drops the GIL in its BLAS and LAPACK calls, so two such loads
    overlap on two cores.  The thread is joined before this returns or
    raises.  An exception work raised is raised here after the join, unless
    main raised one first; a caller that needs another order catches inside
    work and main itself.
    """
    failed: list[BaseException] = []

    def run() -> None:
        try:
            work()
        except BaseException as exc:  # raised on the calling thread below
            failed.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    try:
        main()
    finally:
        thread.join()
    if failed:
        raise failed[0]


def certify_grounds(
    omega0: float,
    coupling,
    space: SpaceDescriptor,
    ground: tuple[np.ndarray, np.ndarray],
    space2: SpaceDescriptor,
    tol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Bound how far the ground pairs `ground` = (psi_0, E0) at `space` move at `space2`.

    coupling is one coupling or a 1-d array, and ground has the shapes
    ground_levels returns for it.  space2 is a larger truncation.  psi_0 is
    a parity eigenstate, as ground_levels and solve_spectrum give it.  Its
    +1 chain amplitudes v, padded with zeros, are a trial vector for the
    space2 +1 chain T2, whose leading block is the space chain T.  With
    sigma = v^T T v / v^T v, the residual of T2 is that of T plus one entry,
    coupling*sqrt(n_max+1)*v[n_max]: the bond into the first dropped site.
    rho is its norm over |v|, plus 2(n+2)*eps*(|T|_inf + that bond + |sigma|)
    for the rounding in forming it (n = n_max + 1 sites).  Some level of T2
    lies within rho of sigma, so two Sturm counts (_count_below) settle the
    rest:
      - T2 has exactly one level below sigma + rho + delta, with
        delta = max(2*rho/tol, GROUND_GAP_TOL) (2, not sqrt(2), leaves room
        under tol for |1 - |v|| and rounding).  That level is its lowest,
        mu_1, within rho of sigma, and every other level lies delta or more
        above it, so the angle between v and mu_1's eigenvector u has
        sin <= rho/delta (Davis-Kahan) and |v/|v| -+ u| <= sqrt(2)*rho/delta;
      - the space2 -1 chain has no level below sigma + rho + GROUND_GAP_TOL,
        so mu_1 is the ground level at space2 and is not degenerate.
    Returns the energy and amplitude bounds, shape coupling.shape:
    |E0 - mu_1| <= |E0 - sigma| + rho, and every |<e,n|psi_0>| moves by at
    most sqrt(2)*rho/delta + |1 - |v||.  They are NaN where the counts do
    not hold, where a bound exceeds tol, or where psi_0 lies in the -1
    chain; ground_levels at space2 then decides.  The residual, rho and
    delta are array arithmetic over the couplings, and the two Sturm counts,
    run once any coupling's bounds are within tol, one recurrence on arrays
    over them.
    """
    psi, energy = ground
    diag, off, rows = _chain_bands(omega0, coupling, space, 1)
    diag2, off2, _ = _chain_bands(omega0, coupling, space2, 1)
    n = diag.size
    v = psi[..., rows]
    norm = np.linalg.norm(v, axis=-1)
    # psi_0 in the -1 chain has no +1 amplitudes and is never certified
    scale_v = np.where(norm > 0.0, norm, 1.0)
    tv = _chain_times(diag, off, v)
    sigma = np.sum(v * tv, axis=-1) / scale_v**2
    bond = off2[..., n - 1]
    residual = np.sqrt(
        np.sum((tv - sigma[..., None] * v) ** 2, axis=-1) + (bond * v[..., -1]) ** 2
    )
    # |T|_inf, the largest row sum of |T|
    t_inf = _chain_times(np.abs(diag), np.abs(off), np.ones_like(v)).max(axis=-1)
    scale = t_inf + bond + np.abs(sigma)
    rho = (residual + 2 * (n + 2) * np.finfo(float).eps * scale * norm) / scale_v
    d_energy = np.abs(energy - sigma) + rho
    delta = np.maximum(2.0 * rho / tol, GROUND_GAP_TOL)
    d_amp = np.sqrt(2.0) * rho / delta + np.abs(1.0 - norm)
    ok = (norm > 0.0) & (np.maximum(d_energy, d_amp) <= tol)
    if np.any(ok):
        # the -1 chain has the same bonds: both counts run as one stack
        odd_diag, _, _ = _chain_bands(omega0, coupling, space2, -1)
        top = sigma + rho
        below = _count_below(
            np.stack([diag2, odd_diag]),
            off2[..., None, :],
            np.stack([top + delta, top + GROUND_GAP_TOL], axis=-1),
        )
        ok = ok & (below[..., 0] == 1) & (below[..., 1] == 0)
    return np.where(ok, d_energy, np.nan), np.where(ok, d_amp, np.nan)


def dressed_amplitude(spectrum: SpectrumResult, n: int) -> complex:
    """Amplitude c_n0 = <psi_0|e,n> of the n-photon excited-atom ket in the ground state."""
    if not 0 <= n <= spectrum.space.n_max:
        raise ValueError(f"photon index {n} outside truncation [0, {spectrum.space.n_max}]")
    idx = spectrum.space.index("e", n)
    return complex(np.conj(spectrum.eigenvectors[idx, 0]))
