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
