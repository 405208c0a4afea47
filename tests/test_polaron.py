import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usc_rabi import (
    ModelParams,
    polaron,
    approx_ground_state,
    build_h_jc,
    build_h_rabi,
    build_s,
    c10_approx,
    dressed_amplitude,
    eigh,
    make_space,
    matrix_exponential,
    solve_spectrum,
    solve_xi_eta,
    transformed_h_rabi,
)
from conftest import (
    APPROX_OVERLAP_SQ,
    C10_APPROX_05,
    E_APPROX_05,
    ETA_05,
    XI_05,
)


class TestFixedPoint:
    def test_zero_coupling(self):
        pol = solve_xi_eta(ModelParams(omega0=1.0, coupling=0.0))
        assert pol.eta == pytest.approx(1.0, abs=1e-14)
        assert pol.xi == pytest.approx(0.5, abs=1e-14)

    def test_ultrastrong_values(self, polaron_solution):
        assert polaron_solution.xi == pytest.approx(XI_05, abs=1e-9)
        assert polaron_solution.eta == pytest.approx(ETA_05, abs=1e-9)

    def test_substitution_residuals(self, base_params, polaron_solution):
        # the defining pair evaluated at the solution
        xi, eta = polaron_solution.xi, polaron_solution.eta
        assert abs(xi - 1.0 / (1.0 + eta * base_params.omega0)) < 1e-12
        assert abs(eta - np.exp(-2.0 * base_params.coupling**2 * xi**2)) < 1e-12

    def test_small_atom_frequency_limit(self):
        pol = solve_xi_eta(ModelParams(omega0=1e-9, coupling=0.4))
        assert pol.xi == pytest.approx(1.0, abs=1e-8)
        assert pol.eta == pytest.approx(np.exp(-2.0 * 0.4**2), abs=1e-8)

    def test_renormalized_constants(self, base_params, polaron_solution):
        pol = polaron_solution
        assert pol.omega0_prime == pytest.approx(pol.eta * base_params.omega0, abs=1e-14)
        expected_lp = 2.0 * pol.eta * base_params.omega0 * pol.xi * base_params.coupling
        assert pol.lambda_prime == pytest.approx(expected_lp, abs=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(
        lam=st.floats(min_value=0.0, max_value=1.0),
        omega0=st.floats(min_value=0.1, max_value=3.0),
    )
    def test_residuals_across_parameter_plane(self, lam, omega0):
        pol = solve_xi_eta(ModelParams(omega0=omega0, coupling=lam))
        assert abs(pol.xi - 1.0 / (1.0 + pol.eta * omega0)) < 1e-12
        assert abs(pol.eta - np.exp(-2.0 * lam**2 * pol.xi**2)) < 1e-12
        assert 0.0 < pol.eta <= 1.0
        assert 0.0 < pol.xi <= 1.0

    @staticmethod
    def _plain_iteration(lam, omega0, max_iter):
        """The eta <- exp(-2 lam^2 xi^2) iteration from eta = 1; eta None if not converged."""
        eta = 1.0
        for _ in range(max_iter):
            xi = 1.0 / (1.0 + eta * omega0)
            eta_next = np.exp(-2.0 * lam**2 * xi**2)
            converged = abs(eta_next - eta) < 1e-15
            eta = eta_next
            if converged:
                return xi, eta
        return xi, None

    @settings(max_examples=60, deadline=None)
    @given(lam=st.floats(0.0, 3.0), omega0=st.floats(0.05, 5.0))
    def test_agrees_with_plain_iteration(self, lam, omega0):
        xi, eta = self._plain_iteration(lam, omega0, 200)
        if eta is not None:
            pol = solve_xi_eta(ModelParams(omega0=omega0, coupling=lam))
            assert abs(pol.xi - xi) < 1e-14 and abs(pol.eta - eta) < 1e-14

    # slope 0.926 at the single root; three roots (0.077, 0.229, 0.421)
    @pytest.mark.parametrize("lam, omega0", [(1.25, 2.0), (1.35, 2.5)])
    def test_slow_contraction_reaches_the_plain_iteration_root(self, lam, omega0):
        pol = solve_xi_eta(ModelParams(omega0=omega0, coupling=lam))
        xi, eta = self._plain_iteration(lam, omega0, 5000)
        assert abs(pol.eta - eta) < 1e-13 and abs(pol.xi - xi) < 1e-13
        assert abs(pol.eta - np.exp(-2.0 * lam**2 * pol.xi**2)) < 1e-15

    @pytest.mark.parametrize("omega0", [0.1, 1.0, 2.5, 4.0, 7.0, 10.0])
    def test_dense_grid_stops_within_25_steps(self, monkeypatch, omega0):
        # at omega0 2.5, 4, 7 and 10 these couplings' roots have f' of 0.03-0.18,
        # where rounding can leave a step jumping about 1e-15 across the root
        # until the closed bracket stops it
        cycling = [1.337, 1.353, 1.358, 1.765, 1.769, 2.642, 2.647, 3.543, 3.547]
        lams = np.union1d(np.linspace(0.0, 6.0, 601), cycling)
        full = solve_xi_eta(ModelParams(omega0=omega0, coupling=lams))
        monkeypatch.setattr(polaron, "FIXED_POINT_MAX_ITER", 25)
        many = solve_xi_eta(ModelParams(omega0=omega0, coupling=lams))
        # every element has stopped: 200 steps move none of them
        assert np.array_equal(many.eta, full.eta) and np.array_equal(many.xi, full.xi)
        for k, lam in enumerate(lams):
            one = solve_xi_eta(ModelParams(omega0=omega0, coupling=lam))
            assert one.eta == many.eta[k] and one.xi == many.xi[k]
            xi, eta = self._plain_iteration(lam, omega0, 200)
            if eta is not None:
                assert abs(one.xi - xi) < 1e-14 and abs(one.eta - eta) < 1e-14


class TestFixedPointOnArrays:
    """solve_xi_eta on an array of couplings against one call per coupling."""

    # 1.25 at omega0 = 2 takes the Newton path, 0 converges at once
    @pytest.mark.parametrize("omega0, couplings", [
        (2.0, [1.25, 0.0, 1.2, 1.3, 0.5]),
        (1.0, [0.0, 0.05, 0.5, 0.8, 3.0]),
    ])
    def test_matches_one_coupling_calls_bit_for_bit(self, omega0, couplings):
        grid = ModelParams(omega0=omega0, coupling=np.array(couplings), drive_amp=0.3)
        many = solve_xi_eta(grid)
        amps = c10_approx(grid, many)
        for k, lam in enumerate(couplings):
            params = ModelParams(omega0=omega0, coupling=lam, drive_amp=0.3)
            one = solve_xi_eta(params)
            for name, value in dataclasses.asdict(one).items():
                assert getattr(many, name)[k] == value, name
            assert amps[k] == c10_approx(params, one)

    def test_unsolved_coupling_raises_its_own_message(self, monkeypatch):
        # after 3 steps 0 has converged and 1.25 and 0.5 have not: the
        # message is the first unsolved coupling's one-coupling message
        monkeypatch.setattr(polaron, "FIXED_POINT_MAX_ITER", 3)
        with pytest.raises(ValueError) as one:
            solve_xi_eta(ModelParams(omega0=2.0, coupling=1.25))
        assert "fixed point did not converge at omega0=2, lambda=1.25: " in str(one.value)
        with pytest.raises(ValueError) as many:
            solve_xi_eta(ModelParams(omega0=2.0, coupling=np.array([0.0, 1.25, 0.5])))
        assert str(many.value) == str(one.value)


class TestGenerator:
    def test_zero_coupling_gives_identity(self):
        params = ModelParams(omega0=1.0, coupling=0.0)
        space = make_space(10, 2)
        s = build_s(params, solve_xi_eta(params), space)
        assert np.max(np.abs(s)) == 0.0
        assert np.allclose(matrix_exponential(s, -1.0), np.eye(space.dim))

    def test_antihermitian_by_construction(self, base_params, polaron_solution, space2):
        s = build_s(base_params, polaron_solution, space2)
        assert np.max(np.abs(s + s.conj().T)) == 0.0

    def test_exponentials_invert(self, base_params, polaron_solution, space2):
        s = build_s(base_params, polaron_solution, space2)
        prod = matrix_exponential(s) @ matrix_exponential(s, -1.0)
        assert np.max(np.abs(prod - np.eye(space2.dim))) < 1e-10

    def test_acts_as_identity_on_f(self, base_params, polaron_solution):
        space = make_space(10, 3)
        s = build_s(base_params, polaron_solution, space)
        u = matrix_exponential(s, -1.0)
        ket = space.basis_state("f", 1)
        assert np.allclose(u @ ket, ket, atol=1e-13)


class TestEffectiveJC:
    def test_ground_eigenvalue_is_e_approx(self, base_params, polaron_solution, space2):
        w, _ = eigh(build_h_jc(base_params, polaron_solution, space2))
        assert w[0] == pytest.approx(polaron_solution.e_approx, abs=1e-10)

    def test_reduces_to_rabi_at_zero_coupling(self):
        params = ModelParams(omega0=1.0, coupling=0.0)
        space = make_space(10, 2)
        hjc = build_h_jc(params, solve_xi_eta(params), space)
        assert np.max(np.abs(hjc - build_h_rabi(params, space))) < 1e-14

    def test_energy_benchmark(self, polaron_solution, spectrum):
        # percentage error of the approximate ground energy: about 0.65%
        assert polaron_solution.e_approx == pytest.approx(E_APPROX_05, abs=1e-9)
        rel = abs(polaron_solution.e_approx - spectrum.ground_energy) / abs(
            spectrum.ground_energy
        )
        assert 0.005 <= rel <= 0.008

    def test_conserves_excitation_number(self, base_params, polaron_solution, space2):
        from usc_rabi import annihilation, atomic_op

        a = annihilation(space2)
        n_exc = a.conj().T @ a + atomic_op(space2, "e", "e")
        hjc = build_h_jc(base_params, polaron_solution, space2)
        assert np.max(np.abs(hjc @ n_exc - n_exc @ hjc)) < 1e-12

    def test_rejects_three_level_space(self, base_params, polaron_solution):
        with pytest.raises(ValueError):
            build_h_jc(base_params, polaron_solution, make_space(10, 3))

    def test_transformed_hamiltonian_low_energy_gap(
        self, base_params, polaron_solution, space2
    ):
        # exact transform vs JC truncation: multi-photon corrections stay small
        h_t = transformed_h_rabi(base_params, polaron_solution, space2)
        w_t = np.linalg.eigvalsh(0.5 * (h_t + h_t.conj().T))
        w_jc, _ = eigh(build_h_jc(base_params, polaron_solution, space2))
        assert abs(w_t[0] - w_jc[0]) < 2e-2


class TestApproxGroundState:
    def test_zero_coupling(self):
        params = ModelParams(omega0=1.0, coupling=0.0)
        space = make_space(10, 2)
        psi = approx_ground_state(params, solve_xi_eta(params), space)
        assert abs(psi[space.index("g", 0)]) == pytest.approx(1.0, abs=1e-12)

    def test_overlap_with_exact_ground(self, base_params, polaron_solution, space2, ground):
        psi0, _ = ground
        psi = approx_ground_state(base_params, polaron_solution, space2)
        overlap = abs(np.vdot(psi0, psi)) ** 2
        assert overlap > 0.99
        assert overlap == pytest.approx(APPROX_OVERLAP_SQ, abs=1e-9)

    def test_single_photon_amplitude_matches_closed_form(
        self, base_params, polaron_solution, space2
    ):
        psi = approx_ground_state(base_params, polaron_solution, space2)
        amp = psi[space2.index("e", 1)]
        assert amp.real == pytest.approx(
            c10_approx(base_params, polaron_solution), abs=1e-10
        )


class TestC10Approx:
    def test_zero_coupling(self):
        params = ModelParams(omega0=1.0, coupling=0.0)
        assert c10_approx(params, solve_xi_eta(params)) == 0.0

    def test_ultrastrong_value(self, base_params, polaron_solution):
        assert c10_approx(base_params, polaron_solution) == pytest.approx(
            C10_APPROX_05, abs=1e-9
        )

    @pytest.mark.parametrize("lam", list(np.arange(0.05, 0.81, 0.05)))
    def test_same_sign_as_exact(self, lam):
        params = ModelParams(omega0=1.0, coupling=float(lam))
        approx = c10_approx(params, solve_xi_eta(params))
        exact = dressed_amplitude(solve_spectrum(params, make_space(40, 2)), 1).real
        assert approx < 0 and exact < 0

    @pytest.mark.parametrize("lam", [0.1, 0.2, 0.3, 0.4, 0.5])
    def test_agreement_below_half_coupling(self, lam):
        params = ModelParams(omega0=1.0, coupling=lam)
        approx = c10_approx(params, solve_xi_eta(params))
        exact = dressed_amplitude(solve_spectrum(params, make_space(40, 2)), 1).real
        assert abs(approx - exact) / abs(exact) < 0.05
