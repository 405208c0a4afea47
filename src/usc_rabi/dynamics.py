"""Full time-dependent Schroedinger propagation on the 3-level (x) Fock space.

The driven Hamiltonian is the Rabi model embedded in the (g, e) sector, the
bare f level at omega_f, and a classical drive drive_amp*cos(drive_freq*t)
on the e <-> f transition.  The drive is kept with its full cosine (no
rotating-wave approximation) so the fast counter-rotating ripple at strong
driving is reproduced.

The integrator is the fourth-order commutator-free Magnus (CF4) stepper of
Alvermann & Fehske (J. Comput. Phys. 230, 5930 (2011)): with H_1,2 evaluated
at the Gauss-Legendre nodes of the step,

    U(t+dt, t) = exp(-i dt (x1 H_1 + x2 H_2)) exp(-i dt (x2 H_1 + x1 H_2)),
    x1 = (3 - 2*sqrt(3))/12,  x2 = (3 + 2*sqrt(3))/12,

which is exactly unitary per step and keeps every sampled probability stable
to ~1e-9 under step halving at the default grid.

propagate runs it on the driven parity sector {|g,even>, |e,odd>, |f,odd>}.
The Rabi coupling conserves parity and the drive couples |e,n> only to
|f,n>, so a state that starts in the sector never leaves it; the embedded
ground state starts there, and a start state with weight outside it is a
StateOffSectorError (a ValueError).  A Sector holds what a drive-free model
on one space gives every propagation of it: the sector mask, the real
sector blocks of the static part and of the drive, cut once from the
full-space builders and checked real, closed on the sector and symmetric
under S (below), the probe rows <f,1| and <f,3|, and the memo of node
eigendecompositions (below).  A caller that propagates one model at
several drives builds one and passes it to each call; without one,
propagate builds its own.  One of two integrators steps the blocks:

- folded period: when the drive is periodic (drive_freq > 0) and dt divides
  its period T = 2*pi/drive_freq to 1e-12 relative (the default dt = T/200
  and its halving T/400 do), the CF4 factors repeat every period: they are
  multiplied into the one-period propagator U(T), and each sample is read
  off psi(qT + r dt) = P_r U(T)^q psi(0), with P_r the first r factors of
  the period (Shirley, Phys. Rev. 138, B979 (1965)).  Two symmetries of the
  drive fold the period further.  It is even in time and the Gauss nodes
  sum to 1, so factor n_per-1-r is the transpose of factor r.  It changes
  sign over half a period, and S = diag(+1 on g, e; -1 on f) commutes with
  the static part and anticommutes with the drive, so for even n_per
  factor r + n_per/2 is S (factor r) S.  Only the first quarter period of
  factors is ever built (half a period when n_per is odd), in one pass that
  steps the identity through it.  Each sample is P_r applied to a segment
  start, forward, or backward by conjugation from the next one, with r at
  most that quarter period, so it is read off the rows <f,1| P_r and
  <f,3| P_r recorded by the pass: one product of them and their conjugates
  with each block of segment starts gives its samples.  Each half-step
  factor exp(-i (dt/2)(H_static + gamma V)) is entire in the drive strength
  gamma, so the pass diagonalizes at a few Chebyshev nodes in gamma, as
  many as an interpolation bound needs to hold every factor to 1e-17, and
  forms each factor as a weighted sum of the node factors: at the default
  T/200 and drive_amp a propagation makes 5 real eigendecompositions (4 at
  T/400) where one per factor would be 100 (200).  A drive so strong that the
  bound needs a node per factor, or a sector so large that the node
  factors would pass NODE_STACK_BYTES (32 MiB), diagonalizes each factor
  as it is applied instead.  Each step's drive strengths
  come from its phase on the period grid, not from drive_freq, so
  propagations at several drive frequencies with the same steps per period
  share their node eigendecompositions through the Sector's memo.  The
  norm reported is that of the segment start, and the drift guard adds the
  recorded unitarity defect of P_r, so it bounds the true drift from above.
- step loop: a step off the period grid, or no drive frequency, steps the
  sector one CF4 step at a time, applying each exponential to the state by
  a Taylor polynomial (Horner's rule) of the degree that bounds its
  remainder by 1.1e-16 at the step's norm bound.  It makes no
  eigendecomposition, so it is the oracle the folded period is tested
  against.

Both read the same probe rows (<f,1| and <f,3|) and pass the same norm-drift
guard.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import ceil

import numpy as np

from . import hilbert, rabi_core
from .hilbert import SpaceDescriptor
from .rabi_core import ModelParams

# largest ||H|| dt of one Taylor substep, and the bound on its remainder
_TAYLOR_THETA = 0.5
_TAYLOR_TOL = 1.1e-16

# Gauss-Legendre nodes and the commutator-free 4th-order Magnus weights
_GAUSS_C1 = 0.5 - np.sqrt(3.0) / 6.0
_GAUSS_C2 = 0.5 + np.sqrt(3.0) / 6.0
_CF4_X1 = (3.0 - 2.0 * np.sqrt(3.0)) / 12.0
_CF4_X2 = (3.0 + 2.0 * np.sqrt(3.0)) / 12.0

DEFAULT_NORM_TOL = 1e-9
DEFAULT_STEPS_PER_DRIVE_CYCLE = 200
MIN_STEPS_PER_DRIVE_CYCLE = 50
DEFAULT_MIN_SAMPLES = 2000
# relative tolerance for a step to count as dividing the drive period
PERIOD_GRID_RTOL = 1e-12
# bound on the max-abs interpolation error of a folded pass's half-step factor
NODE_TOL = 1e-17
# largest stack of node factors a folded pass interpolates its half steps from
NODE_STACK_BYTES = 1 << 25
# largest table of probe overlaps a folded pass reads its samples from at once
READ_BYTES = 1 << 20


class NormDriftError(RuntimeError):
    """State norm drifted beyond the configured tolerance during propagation."""


class StateOffSectorError(ValueError):
    """The start state of a propagation has weight outside the driven parity sector."""


@dataclass(frozen=True)
class PropagationConfig:
    """Time grid and integrator controls (times in 1/omega_c).

    dt must resolve the drive oscillation: dt <= 2*pi/(50*drive_freq).
    """

    t_end: float
    dt: float
    sample_every: int = 1
    norm_tol: float = DEFAULT_NORM_TOL

    def __post_init__(self):
        for name in ("t_end", "dt", "norm_tol"):
            value = getattr(self, name)
            if not 0 < value < np.inf:  # NaN fails it too
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")


def step_count(t_end: float, dt: float) -> int:
    """Steps of a run to t_end: t_end/dt rounded to the nearest whole step, at least one.

    Raises ValueError when the count does not fit an int64, the dtype of the sample steps.
    """
    steps = t_end / dt
    if not steps < 2.0**63:
        raise ValueError(
            f"t_end={t_end:.4g} is {steps:.4g} steps of dt={dt:.4g}, more than an int64 holds"
        )
    return max(1, int(round(steps)))


def default_config(params: ModelParams, t_end: float, **overrides) -> PropagationConfig:
    """Propagation defaults: dt = 2*pi/(200*drive_freq), >= 2000 samples.

    An override of None takes the default; any other value is checked by
    PropagationConfig.
    """
    if params.drive_freq <= 0:
        raise ValueError(
            f"default propagation grid needs drive_freq > 0, got {params.drive_freq:g}"
        )
    dt = overrides.pop("dt", None)
    if dt is None:
        dt = 2.0 * np.pi / (DEFAULT_STEPS_PER_DRIVE_CYCLE * params.drive_freq)
    sample_every = overrides.pop("sample_every", None)
    # checked before the default sample_every divides by dt
    config = PropagationConfig(t_end=t_end, dt=dt, **overrides)
    if sample_every is None:
        sample_every = max(1, step_count(t_end, dt) // DEFAULT_MIN_SAMPLES)
    return replace(config, sample_every=sample_every)


def check_dt(params: ModelParams, dt: float) -> None:
    """Raise ValueError unless dt resolves the drive: dt <= 2*pi/(50*drive_freq).

    Any dt passes without a drive.  The bound carries a relative slack of
    PERIOD_GRID_RTOL, so the coarsest grid T/50 passes however T is rounded.
    """
    if params.drive_freq > 0 and params.drive_amp > 0:
        dt_max = 2.0 * np.pi / (MIN_STEPS_PER_DRIVE_CYCLE * params.drive_freq)
        if dt > dt_max * (1.0 + PERIOD_GRID_RTOL):
            raise ValueError(
                f"dt={dt:.4g} too coarse to resolve the drive (need dt <= {dt_max:.4g})"
            )


@dataclass(frozen=True)
class TimeSeries:
    """Sampled observables of a propagation run.

    p_f1 and p_f3 are the populations of |f,1> and |f,3> (p_f3 is 0 below
    n_max 3).  norm is the state norm on the step loop; on the folded period
    it is the norm of the sample's segment-start column (see
    _propagate_sector).  The state is held on the driven parity sector
    alone, so no field measures a leak out of it: a Hamiltonian that couples
    the sectors is a ValueError of propagate.
    """

    times: np.ndarray
    p_f1: np.ndarray
    p_f3: np.ndarray
    norm: np.ndarray


def static_hamiltonian(params: ModelParams, space: SpaceDescriptor) -> np.ndarray:
    """Drive-free part: embedded Rabi Hamiltonian plus the f level at omega_f."""
    if space.atom_levels != 3:
        raise ValueError("the driven model lives on the 3-level space")
    nph, dim = space.n_photon, space.dim
    h = np.zeros((dim, dim), dtype=complex)
    h[: 2 * nph, : 2 * nph] = rabi_core.build_h_rabi(params, hilbert.make_space(space.n_max, 2))
    h.flat[2 * nph * (dim + 1) :: dim + 1] = params.omega_f + np.arange(nph)
    return h


def drive_operator(space: SpaceDescriptor) -> np.ndarray:
    """Drive coupling |f><e| + |e><f| (unit strength)."""
    nph = space.n_photon
    v = hilbert.atomic_op(space, "f", "e")
    np.fill_diagonal(v[nph : 2 * nph, 2 * nph :], 1.0)
    return v


def _drive_free(params: ModelParams) -> tuple[float, float, float]:
    """What static_hamiltonian reads of params: (omega0, coupling, omega_f)."""
    return params.omega0, params.coupling, params.omega_f


class Sector:
    """The driven parity sector {|g,even>, |e,odd>, |f,odd>} of one drive-free model.

    Built once from the drive-free part of params (omega0, coupling,
    omega_f; the drive is ignored) and the 3-level space, it serves every
    propagate call of that model on that space, whatever its drive or grid:

    mask    the sector on the full space (g and e keep their two-level
            indices, and the drive |f><e| + |e><f| gives f the parity of e)
    h_s     real sector block of static_hamiltonian
    v_s     real sector block of drive_operator
    s_sign  diagonal of S = diag(+1 on g, e; -1 on f) on the sector
    probe   rows <f,1| and <f,3| on the sector (the second zero below n_max 3),
            the only rows of the state a propagation reads

    A ValueError when the blocks are not real, couple the sector to the
    rest of the space, or break S h_s S = h_s and S v_s S = -v_s (the f
    level coupled to g or e other than by the drive).  It also keeps the
    real eigendecompositions of the sector Hamiltonian at the drive
    strengths (nodes) of the last folded pass that interpolated its half
    steps (node_eigh).

    Threads may share a Sector.  Its blocks and probe rows are never
    written after construction, and the memo is one attribute holding the
    pair (nodes, eigendecomposition), read once and replaced whole, so a
    call never pairs its nodes with another call's eigendecomposition.  Two
    threads that miss the memo together each diagonalize, and the memo
    keeps the later pair.
    """

    def __init__(self, params: ModelParams, space: SpaceDescriptor):
        if space.atom_levels != 3:
            raise ValueError("propagation runs on the 3-level space")
        self.model = _drive_free(params)
        self.space = space
        even = np.diag(rabi_core.parity_matrix(hilbert.make_space(space.n_max, 2))) > 0
        self.mask = np.concatenate([even, even[space.n_photon :]])
        # one at a time: two full-space matrices alive together set the peak memory
        self.h_s = self._block(static_hamiltonian(params, space))
        self.v_s = self._block(drive_operator(space))
        self.s_sign = np.where(np.flatnonzero(self.mask) < 2 * space.n_photon, 1.0, -1.0)
        # S X S = flip * X
        flip = self.s_sign[:, None] * self.s_sign
        if np.any(self.h_s[flip < 0]) or np.any(self.v_s[flip > 0]):
            raise ValueError("the f level must couple to g and e through the drive alone")
        pos = np.cumsum(self.mask) - 1
        self.probe = np.zeros((2, len(self.h_s)))
        self.probe[0, pos[space.index("f", 1)]] = 1.0
        if space.n_max >= 3:
            self.probe[1, pos[space.index("f", 3)]] = 1.0
        self._memo = (None, None)

    def _block(self, m: np.ndarray) -> np.ndarray:
        if np.any(m.imag) or np.any(m[np.ix_(self.mask, ~self.mask)]):
            raise ValueError("the driven Hamiltonian is not real and closed on the parity sector")
        # indexing the real view copies only the block, owned and C-ordered
        return m.real[np.ix_(self.mask, self.mask)]

    def node_eigh(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(w, q) of h_s + gamma v_s at each drive strength gamma of nodes, as one stacked eigh.

        Kept until a call with other nodes replaces it.
        """
        memo = self._memo  # read once: another thread may replace it meanwhile
        if not np.array_equal(nodes, memo[0]):
            eigh = np.linalg.eigh(self.h_s + nodes[:, None, None] * self.v_s)
            memo = self._memo = (nodes, eigh)
        return memo[1]


def build_h_full(params: ModelParams, space: SpaceDescriptor, t: float) -> np.ndarray:
    """Full Hamiltonian at time t, drive amplitude drive_amp*cos(drive_freq*t)."""
    return static_hamiltonian(params, space) + (
        params.drive_amp * np.cos(params.drive_freq * t)
    ) * drive_operator(space)


def embed_ground_state(psi_two_level: np.ndarray) -> np.ndarray:
    """Map a state on the (g, e) space into the 3-level space with zero f amplitudes."""
    psi_two_level = np.asarray(psi_two_level, dtype=complex)
    if psi_two_level.ndim != 1 or len(psi_two_level) % 2 != 0:
        raise ValueError("expected a flat state vector on the two-level space")
    nph = len(psi_two_level) // 2
    out = np.zeros(3 * nph, dtype=complex)
    out[: 2 * nph] = psi_two_level
    return out


def resonance_frequency(params: ModelParams, ground_energy: float, n: int = 1) -> float:
    """Drive frequency omega_f + n - ground_energy of the n-photon transfer channel (n odd).

    ground_energy is the exact spectrum's or, as an estimate, the polaron
    frame's e_approx.
    """
    if n % 2 == 0 or n < 1:
        raise ValueError(f"n must be a positive odd integer, got {n}")
    return params.omega_f + n - ground_energy


def _taylor_order(theta: float) -> int:
    """Smallest degree m whose Taylor remainder of exp on a matrix of norm theta is <= _TAYLOR_TOL.

    The remainder is at most theta^(m+1)/(m+1)! / (1 - theta/(m+2)).
    """
    m, term = 0, theta
    while term > _TAYLOR_TOL * (1.0 - theta / (m + 2)):
        m += 1
        term *= theta / (m + 1)
    return m


def _apply_exponential(h_matvec, dt: float, psi: np.ndarray, n_sub: int, order: int) -> np.ndarray:
    """psi <- exp(-i * H * dt) psi in n_sub substeps, each a degree-`order` Taylor sum by Horner.

    H is fixed across the substeps, so substepping is exact; the caller
    takes the order from its bound on ||H|| dt / n_sub (_taylor_order).
    """
    h = dt / n_sub
    for _ in range(n_sub):
        acc = psi
        for j in range(order, 0, -1):
            acc = psi + (-1j * h / j) * h_matvec(acc)
        psi = acc
    return psi


def propagate(
    params: ModelParams,
    space: SpaceDescriptor,
    config: PropagationConfig,
    initial: np.ndarray,
    sector: Sector | None = None,
) -> TimeSeries:
    """Propagate the driven Schroedinger equation and sample observables.

    The initial state must be normalized on the 3-level space (usually the
    embedded exact dressed ground state) and lie in the driven parity sector
    {|g,even>, |e,odd>, |f,odd>}: weight outside it raises
    StateOffSectorError naming the largest amplitude there.  Samples are
    taken every config.sample_every steps plus the final step; only the
    populations of |f,1> and |f,3> and the norm are kept, not the states
    (TimeSeries).  Aborts with
    NormDriftError naming the earliest sample whose norm leaves 1 +- norm_tol.

    sector is the Sector of params' drive-free model on space; one built
    for another omega0, coupling, omega_f or space is a ValueError.  Calls
    that share one share its blocks and probe rows and, on the period grid,
    the node eigendecompositions of their folded passes: the nodes depend
    on drive_amp, the steps per period and the node count alone, not on
    drive_freq, and the node count follows from dt, so a scan on one grid
    diagonalizes once unless its dt range crosses a degree of the
    interpolation bound.  Without one, propagate builds its own.  With a
    drive with drive_freq > 0 and a step that divides the drive period to
    PERIOD_GRID_RTOL, the sector runs one folded drive period at a time
    (_propagate_sector); otherwise it runs CF4 step by step (_step_loop).
    """
    if sector is None:
        sector = Sector(params, space)
    elif sector.space != space or sector.model != _drive_free(params):
        raise ValueError(
            f"the sector was built for (omega0, coupling, omega_f) = {sector.model} on "
            f"{sector.space}, not {_drive_free(params)} on {space}"
        )
    initial = np.asarray(initial, dtype=complex)
    if initial.shape != (space.dim,):
        raise ValueError(f"initial state has dim {initial.shape}, expected ({space.dim},)")
    if abs(np.linalg.norm(initial) - 1.0) > 1e-9:
        raise ValueError("initial state is not normalized")
    check_dt(params, config.dt)

    outside = np.where(sector.mask, 0.0, np.abs(initial))
    if np.any(outside):
        k = int(np.argmax(outside))
        level, n = space.level_photon(k)
        raise StateOffSectorError(
            "initial state has weight outside the driven parity sector "
            f"{{|g,even>, |e,odd>, |f,odd>}}: amplitude {outside[k]:.3g} on |{level},{n}>"
        )

    psi0 = initial[sector.mask]
    n_steps = step_count(config.t_end, config.dt)
    # sorted and distinct without np.unique, which imports numpy.ma on first use
    marks = np.append(np.arange(0, n_steps, config.sample_every), n_steps)
    n_per = _steps_per_period(params, config.dt)
    if n_per:
        amps, norms, slack = _propagate_sector(params, config.dt, sector, psi0, marks, n_per)
    else:
        amps, norms, slack = _step_loop(params, config.dt, sector, psi0, marks)

    times = marks * config.dt
    drift = np.flatnonzero(np.abs(norms - 1.0) + slack > config.norm_tol)
    if drift.size:
        k = drift[0]
        # slack bounds how far the true norm may sit from the reported one
        within = f" +- {slack[k]:.1e}" if slack[k] else ""
        raise NormDriftError(
            f"norm drifted to {norms[k]:.12f}{within} at t={times[k]:.4f} "
            f"(tolerance {config.norm_tol:g})"
        )
    p_f1, p_f3 = np.abs(amps) ** 2
    return TimeSeries(times=times, p_f1=p_f1, p_f3=p_f3, norm=norms)


def _steps_per_period(params: ModelParams, dt: float) -> int:
    """Steps per drive period T if dt divides T to PERIOD_GRID_RTOL, else 0."""
    if params.drive_freq <= 0:
        return 0
    period = 2.0 * np.pi / params.drive_freq
    n_per = int(round(period / dt))
    return n_per if abs(n_per * dt - period) <= PERIOD_GRID_RTOL * period else 0


def _cf4_gammas(params: ModelParams, t: float | np.ndarray, dt: float) -> tuple:
    """Drive strengths (gamma_a, gamma_b) of the two CF4 factors of the step from t.

    The step is exp(-i (dt/2) (H_static + gamma_b V)) exp(-i (dt/2) (H_static
    + gamma_a V)), so the factor of gamma_a is applied first.  For an array
    of step starts t, each strength is an array like it.
    """
    c1 = params.drive_amp * np.cos(params.drive_freq * (t + _GAUSS_C1 * dt))
    c2 = params.drive_amp * np.cos(params.drive_freq * (t + _GAUSS_C2 * dt))
    return 2.0 * (_CF4_X2 * c1 + _CF4_X1 * c2), 2.0 * (_CF4_X1 * c1 + _CF4_X2 * c2)


def _half_step_nodes(
    gammas: np.ndarray, tau: float, max_nodes: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Drive strengths to diagonalize at, and the weights that give each half step from them.

    E(gamma) = exp(-i tau (h_s + gamma v_s)) is entire in gamma with
    ||d^k E / dgamma^k|| <= (tau ||v_s||)^k, and ||v_s|| = 1 for the drive.
    Its degree-d interpolant at the d+1 Chebyshev nodes of [min gammas,
    max gammas], of half-width h, is then off by at most
    2 (h tau / 2)^(d+1) / (d+1)! (the Hermite-Genocchi form of the
    remainder), and d is the smallest degree that takes this to NODE_TOL.
    Row j of the weights returned gives E(gammas[j]) = sum_k weights[j, k]
    E(nodes[k]), by the barycentric formula.  None when that needs more
    than max_nodes nodes, or as many as there are distinct gammas (more
    than one): interpolating would then diagonalize no less often than the
    half steps themselves.
    """
    # sorted without np.unique, which imports numpy.ma on first use
    ordered = np.sort(gammas)
    lo, hi = ordered[0], ordered[-1]
    n_distinct = 1 + np.count_nonzero(np.diff(ordered))
    x = 0.5 * (hi - lo) * tau / 2.0
    d, bound = 0, 2.0 * x
    while bound > NODE_TOL and d + 2 < min(n_distinct, max_nodes + 1):
        d += 1
        bound *= x / (d + 1)
    if bound > NODE_TOL or d >= max_nodes:
        return None
    theta = (2 * np.arange(d + 1) + 1) * np.pi / (2 * d + 2)
    nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(theta)
    diff = gammas[:, None] - nodes
    hit = diff == 0.0
    c = np.where(hit.any(axis=1, keepdims=True), hit,
                 (-1.0) ** np.arange(d + 1) * np.sin(theta) / np.where(hit, 1.0, diff))
    return nodes, c / c.sum(axis=1, keepdims=True)


def _node_factors(w: np.ndarray, q: np.ndarray, tau: float) -> np.ndarray:
    """Stack of the half-step factors q diag(exp(-i tau w)) q^T, one per node, each polished.

    One Newton-Schulz polar step E <- E - E (E^H E - I) / 2 squares each
    factor's unitarity defect.  The interpolated half steps of a pass share
    the nodes' rounding errors, which would otherwise add up coherently
    over the pass.
    """
    k, dim = w.shape
    out = np.empty((k, dim, dim), dtype=complex)
    eye = np.eye(dim)
    for e, wj, qj in zip(out, w, q):
        np.matmul(qj * np.exp(-1j * tau * wj), qj.T, out=e)
        e -= 0.5 * (e @ (e.conj().T @ e - eye))
    return out


def _propagate_sector(
    params: ModelParams,
    dt: float,
    sector: Sector,
    psi0: np.ndarray,
    marks: np.ndarray,
    n_per: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CF4 on the blocks h_s, v_s of sector, one folded drive period at a time.

    Step r of every period applies the same CF4 factor F(r) = E(b_r) E(a_r),
    with E(gamma) = exp(-i tau (h_s + gamma v_s)), tau = dt/2, the half step at
    drive strength gamma; h_s and v_s are real, so E^T = E.
    Let P_m = F(m-1)...F(0), so U(T) = P_n_per.  Two symmetries fold a period:

    - time reversal: the Gauss nodes sum to 1 and the drive is even in t, so
      F(n_per-1-r) = F(r)^T;
    - half-period shift (n_per even): the drive changes sign over T/2, and
      S = diag(sector.s_sign) commutes with the static part and anticommutes
      with the drive, so F(r + n_per/2) = S F(r) S.

    Take segments of L = n_per/2 steps and M = S (L = n_per and M = 1 when
    n_per is odd).  Then P_L = M P_ceil(L/2)^T M P_floor(L/2), and, each P
    being unitary, P_s = M conj(P_{L-s}) M P_L.  One pass steps the identity
    ceil(L/2) steps to form M P_L, which maps phi_i to phi_{i+1}, where phi_i
    is M^i times the state at step iL (phi_2q = psi(qT)), made unitary to
    rounding by two Newton-Schulz polar steps; it is applied only up to the
    segments that hold a sample.  The state at step iL + s is
    M^i P_s phi_i: forward, P_s applied to the start column c = phi_i when
    s <= ceil(L/2), and otherwise M^(i+1) conj(P_{L-s} c) with c =
    conj(phi_{i+1}).  So every sample is P_r c for some r <= ceil(L/2), and
    the pass records, at each r a sample needs, the probe rows W P_r, with W
    the real basis rows <f,1| and <f,3| of sector.probe.  M only flips
    signs, and |<f,n| conj(x)>| = |<f,n| x>|, so |<f,n| state>| is
    |(W P_r c)_n| either way.  The segment starts that hold a sample are
    formed block by block, one seg_map matvec per segment, as the columns
    of C, with C and its table under READ_BYTES.  With R = (W P_r)_r, a
    forward sample is an entry of R C and a backward one of R conj(C), in
    modulus one of conj(R) C: one product [R; conj(R)] C, one gather.
    The amplitudes returned at marks are the probe overlaps up to a phase.

    The pass's 2 ceil(L/2) half steps are not diagonalized one by one.
    _half_step_nodes picks d+1 Chebyshev nodes on the range of their
    strengths, d the smallest degree whose interpolation bound
    2 (h tau / 2)^(d+1) / (d+1)! (h the range's half-width, ||v_s|| = 1 for
    the drive) is at most NODE_TOL.  One stacked real eigh gives the node
    factors q diag(exp(-i tau w)) q^T, each given one Newton-Schulz polar
    step (_node_factors), and every half step is the barycentric
    combination sum_k l_k(gamma) E(node_k): one weights row times the
    flattened stack, then one complex matmul to apply it.  At the presets'
    default drive (drive_amp 0.2, drive_freq 4.63) that is 5
    eigendecompositions for the 100 half steps of T/200, and 4 for the 200
    of T/400.  When the bound needs as many nodes as the pass has distinct
    strengths (a very strong drive), or a stack of node factors larger than
    NODE_STACK_BYTES (a large sector), the pass instead diagonalizes each
    half step as it applies it, one eigh and one factor at a time.

    The norm returned is ||c||.  The pass also records the unitarity defect
    d_r = ||P_r^H P_r - I||_F at each needed r, which bounds the 2-norm, so
    | ||P_r c|| - ||c|| | <= d_r ||c||; the slack returned is d_r ||c||, and
    the drift guard fires on |1 - ||c||| + d_r ||c|| > norm_tol, an upper
    bound on the true drift.

    The drive strengths of step r come from its grid phases 2*pi*(r + c_k)/n_per,
    the periodicity the fold already assumes, so the nodes depend on
    (drive_amp, n_per) and, through the degree, on dt, and the nodes'
    (w, q) on the sector and the nodes alone: sector.node_eigh keeps them
    for the next pass with the same nodes.  A pass that diagonalizes each
    half step leaves that memo alone.
    """
    h_s, v_s = sector.h_s, sector.v_s
    dim = len(h_s)
    if n_per % 2:
        n_seg, m_sign = n_per, np.ones(dim)
    else:
        n_seg, m_sign = n_per // 2, sector.s_sign
    n_mid = (n_seg + 1) // 2

    # step r on a clock that ticks once per step: the Gauss-node phases are
    # 2*pi*(r + c_k)/n_per, the same for every drive_freq on this grid; the
    # pass applies the half steps in the order a_0, b_0, a_1, b_1, ...
    grid = replace(params, drive_freq=2.0 * np.pi / n_per)
    gammas = np.stack(_cf4_gammas(grid, np.arange(n_mid), 1.0), axis=1).ravel()
    tau = 0.5 * dt
    interpolated = _half_step_nodes(gammas, tau, NODE_STACK_BYTES // (16 * dim * dim))

    def half_steps():
        """E(a_0), E(b_0), E(a_1), ... of the pass, each formed when asked for.

        Interpolated, each is a weights row times the node factors, formed
        in one buffer, so it holds until the next is asked for.  The node
        factors are formed when the pass asks for its first half step and
        dropped when it closes the generator; the sector keeps their
        eigendecompositions.  Otherwise each half step is the factor of its
        own eigh.
        """
        if interpolated is None:
            for gamma in gammas:
                w, q = np.linalg.eigh(h_s + gamma * v_s)
                yield (q * np.exp(-1j * tau * w)) @ q.T
            return
        nodes, weights = interpolated
        e_flat = _node_factors(*sector.node_eigh(nodes), tau)
        # float view of the flattened node factors, for real weights
        e_flat = e_flat.reshape(len(e_flat), -1).view(float)
        e = np.empty(e_flat.shape[1])
        for l in weights:
            np.matmul(l, e_flat, out=e)
            yield e.view(complex).reshape(dim, dim)

    # sample at step m = seg * n_seg + s with s in 1..n_seg (0 only for m = 0);
    # it is P_at applied to the start column of phi_base, conjugated when `back`
    seg = np.maximum(marks - 1, 0) // n_seg
    s = marks - seg * n_seg
    back = (s > n_mid).astype(int)  # 1: read off the backward table
    base = seg + back
    at = np.where(back, n_seg - s, s)

    # the pass: P_0 ... P_ceil(L/2), recording the probe rows and the defect at
    # every r a sample needs; then M P_L = P_ceil^T M P_floor
    needed = np.zeros(n_mid + 1, dtype=bool)
    needed[at] = True
    # slot[r]: where the needed r keeps its probe rows
    slot = np.cumsum(needed) - 1
    n_rec = slot[-1] + 1
    rows = np.empty((2, n_rec, dim), dtype=complex)
    defect = np.zeros(n_mid + 1)
    eye = np.eye(dim)
    half = half_steps()
    p_lo = p = eye.astype(complex)
    for r in range(n_mid + 1):
        if r:
            # step r-1: E(a_{r-1}), then E(b_{r-1})
            p_lo, p = p, next(half) @ p
            p = next(half) @ p
        if needed[r]:
            rows[:, slot[r]] = sector.probe @ p
            defect[r] = np.linalg.norm(p.conj().T @ p - eye)
    half.close()  # drops the node factors before the segment map
    if n_seg % 2 == 0:
        p_lo = p
    seg_map = (p.T * m_sign) @ p_lo
    for _ in range(2):
        seg_map -= 0.5 * (seg_map @ (seg_map.conj().T @ seg_map - eye))

    # base never decreases along marks: starts[k] is the k-th segment start
    # that holds a sample, and sample j reads start which[j]
    first = np.r_[True, base[1:] > base[:-1]]
    which = np.cumsum(first) - 1
    starts = base[first]

    # sample j is entry (back[j], probe row, slot[at[j]], which[j]) of the
    # forward and backward tables, formed a block of segment starts at a time
    flat = np.concatenate([rows, rows.conj()]).reshape(-1, dim)
    per = max(1, READ_BYTES // (16 * (len(flat) + dim)))
    block = np.empty((min(per, len(starts)), dim), dtype=complex)
    amps = np.empty((2, len(marks)), dtype=complex)
    norms = np.empty(len(marks))
    phi, i = psi0, 0
    for lo in range(0, len(starts), per):
        part = block[: len(starts) - lo]
        for k, start in enumerate(starts[lo : lo + per].tolist()):
            for _ in range(start - i):
                phi = seg_map @ phi
            part[k], i = phi, start
        j = slice(*np.searchsorted(which, [lo, lo + per]))
        tables = (flat @ part.T).reshape(2, 2, n_rec, -1)
        amps[:, j] = tables[back[j], :, slot[at[j]], which[j] - lo].T
        norms[j] = np.linalg.norm(part, axis=1)[which[j] - lo]
    return amps, norms, defect[at] * norms


def _step_loop(
    params: ModelParams, dt: float, sector: Sector, psi0: np.ndarray, marks: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CF4 on the blocks h_s, v_s of sector one step at a time, each exponential by Taylor.

    Makes no eigendecomposition, so it is the oracle the folded period is
    tested against.  Returns the <f,1| and <f,3| amplitudes and the state
    norm at the sample steps marks, and zero slack.
    """
    h_s, v_s = sector.h_s, sector.v_s
    # spectral-norm bound on the Hamiltonian of a half-step factor, each
    # drive strength being at most 2 (x2 - x1) drive_amp: its substeps of
    # norm at most _TAYLOR_THETA take the Taylor degree their bound needs
    h_norm = float(np.linalg.norm(h_s, 2)) + 2.0 * (_CF4_X2 - _CF4_X1) * abs(params.drive_amp)
    n_sub = max(1, ceil(h_norm * (dt / 2.0) / _TAYLOR_THETA))
    order = _taylor_order(h_norm * (dt / 2.0) / n_sub)
    h_c = h_s.astype(complex)

    amps = np.empty((2, len(marks)), dtype=complex)
    norms = np.empty(len(marks))
    psi, done = psi0, 0
    for j, mark in enumerate(marks):
        for k in range(done, mark):
            for gamma in _cf4_gammas(params, k * dt, dt):
                psi = _apply_exponential(
                    (h_c + gamma * v_s).__matmul__, dt / 2.0, psi, n_sub, order
                )
        done = mark
        amps[:, j] = sector.probe @ psi
        norms[j] = np.linalg.norm(psi)
    return amps, norms, np.zeros(len(marks))

