import numpy as np
import pytest

from usc_rabi import ModelParams, make_space, solve_spectrum, solve_xi_eta

# Frozen oracle values for omega0 = omega_c = 1, coupling = 0.5, computed by an
# independent dense-loop diagonalization at n_max = 80 and by substituting the
# fixed point back into its defining equations.
LAMBDA0 = -0.6332942354616
G0_OVERLAP = 0.9617987621900
C10_EXACT = -0.2564044613481
C30_EXACT = -0.0208701627514
XI_05 = 0.5358273635058
ETA_05 = 0.8662727365345
E_APPROX_05 = -0.6292723091498
C10_APPROX_05 = -0.2584690545518
OMEGA_P_EXACT = 4.6332942354616
OMEGA_P_APPROX = 4.6292723091498
APPROX_OVERLAP_SQ = 0.9978122041564


@pytest.fixture(scope="session")
def base_params():
    return ModelParams(omega0=1.0, coupling=0.5, omega_f=3.0)


@pytest.fixture(scope="session")
def space2():
    return make_space(40, 2)


@pytest.fixture(scope="session")
def space3():
    return make_space(40, 3)


@pytest.fixture(scope="session")
def spectrum(base_params, space2):
    return solve_spectrum(base_params, space2)


@pytest.fixture(scope="session")
def polaron_solution(base_params):
    return solve_xi_eta(base_params)


@pytest.fixture(scope="session")
def ground(spectrum):
    from usc_rabi import ground_state

    psi0, energy = ground_state(spectrum)
    return psi0, energy


@pytest.fixture
def eigh_calls(monkeypatch):
    """Shapes of the np.linalg.eigh calls made while the test runs."""
    eigh, calls = np.linalg.eigh, []

    def counting_eigh(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return calls


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return m + m.conj().T


# The full-space operators as Kronecker and dense products: the package
# writes their bands directly, and the tests hold every bit of it to these.
def kron_annihilation(space) -> np.ndarray:
    a_fock = np.zeros((space.n_photon, space.n_photon), dtype=complex)
    for n in range(1, space.n_photon):
        a_fock[n - 1, n] = np.sqrt(n)
    return np.kron(np.eye(space.atom_levels), a_fock)


def kron_atomic_op(space, bra_level: str, ket_level: str) -> np.ndarray:
    proj = np.zeros((space.atom_levels, space.atom_levels), dtype=complex)
    proj[space.level_ordinal(bra_level), space.level_ordinal(ket_level)] = 1.0
    return np.kron(proj, np.eye(space.n_photon))


def dense_h_rabi(params, space) -> np.ndarray:
    a = kron_annihilation(space)
    sx = kron_atomic_op(space, "g", "e") + kron_atomic_op(space, "e", "g")
    sz = kron_atomic_op(space, "e", "e") - kron_atomic_op(space, "g", "g")
    return 0.5 * params.omega0 * sz + a.conj().T @ a + params.coupling * (a + a.conj().T) @ sx


def dense_static_hamiltonian(params, space) -> np.ndarray:
    nph = space.n_photon
    h = np.zeros((space.dim, space.dim), dtype=complex)
    h[: 2 * nph, : 2 * nph] = dense_h_rabi(params, make_space(space.n_max, 2))
    h[2 * nph :, 2 * nph :] = np.diag(params.omega_f + np.arange(nph))
    return h


def kron_drive_operator(space) -> np.ndarray:
    return kron_atomic_op(space, "f", "e") + kron_atomic_op(space, "e", "f")


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    """Equal dtype, shape and bytes: array_equal, and the sign of every zero too."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()
