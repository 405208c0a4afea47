from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usc_rabi import (
    ModelParams,
    TwoStateModel,
    analytic_transfer,
    half_period,
    make_space,
    model_from_eigenbasis,
    model_from_polaron,
    multiphoton_model,
    solve_spectrum,
    solve_xi_eta,
)
from conftest import C10_EXACT, C30_EXACT


def _driven(drive_amp, coupling=0.5):
    return ModelParams(
        omega0=1.0, coupling=coupling, omega_f=3.0, drive_amp=drive_amp
    )


class TestPolaronModel:
    def test_zero_coupling_gives_no_oscillation(self):
        params = ModelParams(omega0=1.0, coupling=0.0, omega_f=3.0, drive_amp=0.2)
        model = model_from_polaron(params, solve_xi_eta(params))
        assert model.coupling == 0.0

    def test_coupling_value(self):
        params = _driven(0.2)
        pol = solve_xi_eta(params)
        model = model_from_polaron(params, pol)
        assert model.coupling == pytest.approx(0.0258469054552, abs=1e-9)
        assert model.coupling == pytest.approx(0.0259, abs=1e-4)

    def test_full_rabi_frequency_identity(self):
        # 2g equals coupling*xi*omega_prime/omega_c exactly
        params = _driven(0.2)
        pol = solve_xi_eta(params)
        model = model_from_polaron(params, pol)
        assert abs(2.0 * model.coupling - params.coupling * pol.xi * pol.omega_prime) < 1e-12

    def test_period_identity(self):
        # 2*pi/(2g) equals 2*pi*omega_c/(coupling*xi*omega_prime) algebraically
        params = _driven(0.2)
        pol = solve_xi_eta(params)
        model = model_from_polaron(params, pol)
        lhs = 2.0 * np.pi / (2.0 * model.coupling)
        rhs = 2.0 * np.pi / (params.coupling * pol.xi * pol.omega_prime)
        assert abs(lhs - rhs) < 1e-12


class TestEigenbasisModel:
    def test_zero_coupling_gives_no_oscillation(self):
        params = ModelParams(omega0=1.0, coupling=0.0, omega_f=3.0, drive_amp=0.2)
        spec = solve_spectrum(params, make_space(10, 2))
        assert model_from_eigenbasis(params, spec).coupling == 0.0

    def test_coupling_value(self):
        params = _driven(0.2)
        spec = solve_spectrum(params, make_space(40, 2))
        model = model_from_eigenbasis(params, spec)
        assert model.coupling == pytest.approx(0.2 * abs(C10_EXACT) / 2.0, abs=1e-9)
        assert model.coupling == pytest.approx(0.026, abs=5e-4)

    def test_cross_model_consistency(self):
        params = _driven(0.2)
        spec = solve_spectrum(params, make_space(40, 2))
        g_eig = model_from_eigenbasis(params, spec).coupling
        g_pol = model_from_polaron(params, solve_xi_eta(params)).coupling
        assert abs(g_eig - g_pol) / g_eig < 0.05

    @pytest.mark.parametrize("lam", [0.1, 0.2, 0.3, 0.4, 0.5])
    def test_models_agree_in_validity_range(self, lam):
        params = _driven(0.2, coupling=lam)
        spec = solve_spectrum(params, make_space(40, 2))
        g_eig = model_from_eigenbasis(params, spec).coupling
        g_pol = model_from_polaron(params, solve_xi_eta(params)).coupling
        if g_eig > 0:
            assert abs(g_eig - g_pol) / g_eig < 0.05


class TestMultiphotonModel:
    def test_single_photon_reduces_to_eigenbasis(self):
        params = _driven(0.2)
        spec = solve_spectrum(params, make_space(40, 2))
        m1 = multiphoton_model(params, spec, 1)
        m_eig = model_from_eigenbasis(params, spec)
        assert m1 == m_eig

    def test_even_channel_rejected(self):
        params = _driven(0.2)
        spec = solve_spectrum(params, make_space(40, 2))
        with pytest.raises(ValueError):
            multiphoton_model(params, spec, 2)

    def test_three_photon_coupling(self):
        params = _driven(0.4)
        spec = solve_spectrum(params, make_space(40, 2))
        model = multiphoton_model(params, spec, 3)
        # the target is |f,3>: its channel resonates at omega_f + 3 - E0
        off = replace(params, drive_freq=params.omega_f + 3.0 - spec.ground_energy + 0.01)
        assert multiphoton_model(off, spec, 3).detuning == pytest.approx(0.01, abs=1e-12)
        assert model.coupling == pytest.approx(0.4 * abs(C30_EXACT) / 2.0, abs=1e-9)

    def test_beyond_truncation_rejected(self):
        params = _driven(0.2)
        spec = solve_spectrum(params, make_space(4, 2))
        with pytest.raises(ValueError):
            multiphoton_model(params, spec, 5)


class TestAnalyticTransfer:
    def test_starts_at_zero(self):
        model = TwoStateModel(coupling=0.03)
        assert analytic_transfer(model, 0.0) == 0.0

    def test_full_transfer_at_half_period(self):
        model = TwoStateModel(coupling=0.03)
        assert analytic_transfer(model, half_period(model)) == pytest.approx(1.0, abs=1e-12)

    def test_half_period_value(self):
        params = _driven(0.2)
        model = model_from_polaron(params, solve_xi_eta(params))
        assert half_period(model) == pytest.approx(60.773, abs=0.01)
        assert half_period(model) == pytest.approx(61.0, abs=1.0)

    def test_zero_coupling_is_flat(self):
        model = TwoStateModel(coupling=0.0)
        t = np.linspace(0.0, 50.0, 100)
        assert np.all(analytic_transfer(model, t) == 0.0)
        assert half_period(model) == np.inf

    def test_detuning_caps_amplitude(self):
        g, delta = 0.02, 0.08
        model = TwoStateModel(coupling=g, detuning=delta)
        t = np.linspace(0.0, 500.0, 4000)
        p = analytic_transfer(model, t)
        cap = g**2 / (g**2 + delta**2 / 4.0)
        assert p.max() <= cap + 1e-12
        assert p.max() == pytest.approx(cap, rel=1e-3)

    @pytest.mark.parametrize("detuning, cap", [(0.0, 1.0), (1e-300, 1.0), (4e-170, 0.2)])
    def test_underflowing_coupling_gives_the_scaled_curve(self, detuning, cap):
        # g^2 = 1e-340 underflows to zero; the curve is that of g = 1e-10 and
        # detuning * 1e160 at times / 1e160
        tiny = TwoStateModel(coupling=1e-170, detuning=detuning)
        scaled = TwoStateModel(coupling=1e-10, detuning=detuning * 1e160)
        # the first maximum, at pi / (2 * sqrt(g^2 + delta^2/4)), is the cap
        t = np.linspace(0.0, 2.0, 17) * np.pi / (2e-170 * np.sqrt(1.0 + (detuning / 2e-170)**2))
        p = analytic_transfer(tiny, t)
        assert np.all(np.isfinite(p))
        np.testing.assert_allclose(p, analytic_transfer(scaled, t * 1e-160), rtol=1e-12,
                                   atol=1e-15)
        assert p[8] == pytest.approx(cap, rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        g=st.floats(min_value=1e-4, max_value=1.0),
        delta=st.floats(min_value=-1.0, max_value=1.0),
        t=st.floats(min_value=0.0, max_value=1e4),
    )
    def test_probability_bounds(self, g, delta, t):
        model = TwoStateModel(coupling=g, detuning=delta)
        p = float(analytic_transfer(model, t))
        assert 0.0 <= p <= 1.0
