import math
import re
import sys
import threading
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from usc_rabi import (
    ModelParams,
    NormDriftError,
    PropagationConfig,
    analytic_transfer,
    build_h_full,
    build_h_rabi,
    default_config,
    embed_ground_state,
    ground_state,
    load_experiment,
    make_space,
    model_from_eigenbasis,
    propagate,
    resonance_frequency,
    run_preset,
    solve_spectrum,
)
from usc_rabi import dynamics
from usc_rabi.presets import ConvergenceGuardError
from usc_rabi.dynamics import TimeSeries
from conftest import (
    OMEGA_P_APPROX,
    OMEGA_P_EXACT,
    assert_same_bits,
    dense_static_hamiltonian,
    kron_drive_operator,
)

N_SMALL = 12


@pytest.fixture(scope="module")
def small_setup():
    """Reduced-truncation driven setup; dynamics is converged to ~1e-12 here."""
    base = ModelParams(omega0=1.0, coupling=0.5, omega_f=3.0)
    spec = solve_spectrum(base, make_space(N_SMALL, 2))
    psi0, _ = ground_state(spec)
    omega_p = resonance_frequency(base, spec.ground_energy)
    return base, spec, embed_ground_state(psi0), omega_p


def _driven(base, drive_amp, omega_p):
    return ModelParams(
        omega0=base.omega0,
        coupling=base.coupling,
        omega_f=base.omega_f,
        drive_amp=drive_amp,
        drive_freq=omega_p,
    )


class TestBuildHFull:
    def test_rejects_two_level_space(self):
        params = ModelParams(omega0=1.0, coupling=0.5, omega_f=3.0, drive_amp=0.2, drive_freq=4.6)
        with pytest.raises(ValueError):
            build_h_full(params, make_space(8, 2), 0.0)

    def test_hermitian(self):
        params = ModelParams(omega0=1.0, coupling=0.5, omega_f=3.0, drive_amp=0.4, drive_freq=4.6)
        h = build_h_full(params, make_space(8, 3), 0.3)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12

    def test_drive_absent_at_cosine_zero(self):
        params = ModelParams(omega0=1.0, coupling=0.5, omega_f=3.0, drive_amp=0.4, drive_freq=4.6)
        space = make_space(8, 3)
        t_zero = np.pi / (2.0 * params.drive_freq)
        h = build_h_full(params, space, t_zero)
        assert abs(h[space.index("f", 2), space.index("e", 2)]) < 1e-15

    def test_drive_block_at_time_zero(self):
        params = ModelParams(omega0=1.0, coupling=0.5, omega_f=3.0, drive_amp=0.4, drive_freq=4.6)
        space = make_space(8, 3)
        h = build_h_full(params, space, 0.0)
        for n in range(space.n_photon):
            assert h[space.index("f", n), space.index("e", n)] == pytest.approx(0.4)
            assert h[space.index("e", n), space.index("f", n)] == pytest.approx(0.4)
        assert abs(h[space.index("f", 0), space.index("g", 0)]) == 0.0

    def test_undriven_spectrum_is_union(self):
        # drive off: eigenvalues are those of the Rabi block plus omega_f + n
        base = ModelParams(omega0=1.0, coupling=0.5, omega_f=3.0)
        space3 = make_space(10, 3)
        space2 = make_space(10, 2)
        w_full = np.linalg.eigvalsh(build_h_full(base, space3, 0.0))
        w_rabi = np.linalg.eigvalsh(build_h_rabi(base, space2))
        w_f = [base.omega_f + n for n in range(space3.n_photon)]
        expected = np.sort(np.concatenate([w_rabi, w_f]))
        assert np.allclose(w_full, expected, atol=1e-10)


class TestFullSpaceOperators:
    # tracemalloc peak of dynamics.Sector at n_max 80 (dim 243): 1.37 MiB
    # with the bands written in place, 3.43 MiB from Kronecker and dense
    # products, 1.92 MiB with the drive as a sum of two atomic operators
    SECTOR_PEAK_BOUND = 1.6 * 2**20

    @pytest.mark.parametrize("n_max", [1, 2, 20, 80, 160])
    def test_bit_identical_to_dense_products(self, n_max):
        space = make_space(n_max, 3)
        assert_same_bits(dynamics.drive_operator(space), kron_drive_operator(space))
        for coupling in (0.0, 1e-3, 0.5, 3.0):
            for omega0 in (0.3, 1.0, 2.5):
                params = ModelParams(omega0=omega0, coupling=coupling, omega_f=3.0)
                assert_same_bits(dynamics.static_hamiltonian(params, space),
                                 dense_static_hamiltonian(params, space))

    def test_sector_blocks_own_their_data(self, small_setup):
        sector = dynamics.Sector(small_setup[0], make_space(N_SMALL, 3))
        for block in (sector.h_s, sector.v_s):
            assert block.base is None
            assert block.dtype == np.float64 and block.flags.c_contiguous

    def test_sector_peak_memory(self, small_setup):
        space = make_space(80, 3)
        dynamics.Sector(small_setup[0], space)  # first use of any lazily loaded code
        tracemalloc.start()
        try:
            dynamics.Sector(small_setup[0], space)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < self.SECTOR_PEAK_BOUND, peak


class TestEmbedGroundState:
    def test_zero_coupling_maps_to_vacuum(self):
        spec = solve_spectrum(ModelParams(omega0=1.0, coupling=0.0), make_space(6, 2))
        psi0, _ = ground_state(spec)
        out = embed_ground_state(psi0)
        space3 = make_space(6, 3)
        assert abs(out[space3.index("g", 0)]) == pytest.approx(1.0, abs=1e-12)

    def test_norm_and_sector_structure(self, small_setup):
        _, spec, initial, _ = small_setup
        space3 = make_space(N_SMALL, 3)
        assert np.linalg.norm(initial) == pytest.approx(1.0, abs=1e-12)
        f_amps = [initial[space3.index("f", n)] for n in range(space3.n_photon)]
        assert np.max(np.abs(f_amps)) == 0.0
        psi0, _ = ground_state(spec)
        overlap = np.vdot(initial[: len(psi0)], psi0)
        assert abs(overlap) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_odd_length(self):
        with pytest.raises(ValueError):
            embed_ground_state(np.ones(7))


class TestResonanceFrequency:
    def test_exact_single_photon(self, base_params, spectrum):
        wp = resonance_frequency(base_params, spectrum.ground_energy)
        assert wp == pytest.approx(OMEGA_P_EXACT, abs=1e-9)
        assert wp == pytest.approx(4.633, abs=1e-3)

    def test_approx_single_photon(self, base_params, polaron_solution):
        wp = resonance_frequency(base_params, polaron_solution.e_approx)
        assert wp == pytest.approx(OMEGA_P_APPROX, abs=1e-9)
        assert wp == pytest.approx(4.629, abs=1e-3)

    def test_exact_three_photon(self, base_params, spectrum):
        wp = resonance_frequency(base_params, spectrum.ground_energy, n=3)
        assert wp == pytest.approx(6.633, abs=1e-3)

    def test_even_channel_rejected(self, base_params, spectrum):
        with pytest.raises(ValueError):
            resonance_frequency(base_params, spectrum.ground_energy, n=2)


class TestPropagationConfig:
    @pytest.mark.parametrize("name", ["t_end", "dt", "norm_tol"])
    @pytest.mark.parametrize("value", [np.nan, 0.0, -1.0, np.inf])
    def test_rejects_non_positive(self, name, value):
        fields = {"t_end": 5.0, "dt": 0.01, name: value}
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            PropagationConfig(**fields)

    @pytest.mark.parametrize("override", [{"dt": 0.0}, {"sample_every": 0},
                                          {"norm_tol": np.nan}])
    def test_default_config_checks_each_override(self, override):
        # an override of 0 is a value, not a request for the default
        params = ModelParams(omega0=1.0, coupling=0.5, omega_f=3.0,
                             drive_amp=0.2, drive_freq=4.6)
        with pytest.raises(ValueError):
            default_config(params, t_end=5.0, **override)

    def test_default_config_rejects_infinite_horizon(self):
        # checked before the default sample_every counts the steps to it
        params = ModelParams(omega0=1.0, coupling=0.5, omega_f=3.0,
                             drive_amp=0.2, drive_freq=4.6)
        with pytest.raises(ValueError, match="t_end must be positive and finite"):
            default_config(params, t_end=np.inf)


class TestPropagate:
    def test_undriven_f_sector_stays_empty(self, small_setup):
        base, _, initial, omega_p = small_setup
        params = _driven(base, 0.0, omega_p)
        cfg = default_config(params, t_end=20.0)
        series = propagate(params, make_space(N_SMALL, 3), cfg, initial)
        assert np.max(series.p_f1) < 1e-20
        assert np.max(series.p_f3) < 1e-20

    def test_norm_conserved(self, small_setup):
        base, _, initial, omega_p = small_setup
        params = _driven(base, 0.2, omega_p)
        cfg = default_config(params, t_end=40.0)
        series = propagate(params, make_space(N_SMALL, 3), cfg, initial)
        assert np.max(np.abs(series.norm - 1.0)) < 1e-9
        assert np.all(series.p_f1 >= 0.0) and np.all(series.p_f1 <= 1.0)

    def test_step_halving_pointwise(self, small_setup):
        base, _, initial, omega_p = small_setup
        params = _driven(base, 0.2, omega_p)
        dt = 2.0 * np.pi / (200.0 * omega_p)
        n_steps = 4400
        t_end = n_steps * dt
        space3 = make_space(N_SMALL, 3)
        s1 = propagate(params, space3, PropagationConfig(t_end=t_end, dt=dt, sample_every=4), initial)
        s2 = propagate(params, space3, PropagationConfig(t_end=t_end, dt=dt / 2, sample_every=8), initial)
        assert np.allclose(s1.times, s2.times)
        assert np.max(np.abs(s1.p_f1 - s2.p_f1)) < 1e-6

    def test_truncation_doubling_pointwise(self, small_setup):
        base, _, _, omega_p = small_setup
        params = _driven(base, 0.2, omega_p)
        cfg = default_config(params, t_end=30.0)
        out = {}
        for n_max in (10, 20):
            spec = solve_spectrum(base, make_space(n_max, 2))
            psi0, _ = ground_state(spec)
            series = propagate(params, make_space(n_max, 3), cfg, embed_ground_state(psi0))
            out[n_max] = series.p_f1
        assert np.max(np.abs(out[10] - out[20])) < 1e-6

    def test_step_loop_norm_drift_detected(self, small_setup, monkeypatch):
        # each Taylor exponential shrinks the state by 1e-11, two per step; an
        # off-grid step keeps the run on the step loop
        base, _, initial, omega_p = small_setup
        params = _driven(base, 0.2, omega_p)
        space = make_space(N_SMALL, 3)
        apply = dynamics._apply_exponential
        monkeypatch.setattr(dynamics, "_apply_exponential",
                            lambda *args: apply(*args) * (1.0 - 1e-11))
        monkeypatch.setattr(dynamics, "_propagate_sector", _refuse)
        tol = 2e-9

        def run(norm_tol):
            cfg = PropagationConfig(t_end=5.0, dt=2.0 * np.pi / (200.5 * omega_p),
                                    sample_every=10, norm_tol=norm_tol)
            return propagate(params, space, cfg, initial)

        loose = run(1e-3)
        first = np.flatnonzero(np.abs(loose.norm - 1.0) > tol)[0]
        assert loose.times[first] > 0.0
        with pytest.raises(NormDriftError, match=f"at t={loose.times[first]:.4f} "):
            run(tol)

    def test_detuned_drive_suppresses_transfer(self, small_setup):
        base, spec, initial, omega_p = small_setup
        g = model_from_eigenbasis(_driven(base, 0.2, omega_p), spec).coupling
        space3 = make_space(N_SMALL, 3)
        for sign in (-1.0, 1.0):
            params = _driven(base, 0.2, omega_p + sign * 10.0 * g)
            cfg = default_config(params, t_end=140.0)
            series = propagate(params, space3, cfg, initial)
            assert series.p_f1.max() < 0.5

    def test_resonant_transfer_matches_two_state_curve(self, small_setup):
        base, spec, initial, omega_p = small_setup
        params = _driven(base, 0.2, omega_p)
        model = model_from_eigenbasis(params, spec)
        period = np.pi / model.coupling
        cfg = default_config(params, t_end=1.02 * period)
        series = propagate(params, make_space(N_SMALL, 3), cfg, initial)
        gap = np.abs(series.p_f1 - analytic_transfer(model, series.times))
        assert gap.max() < 0.05

    def test_input_validation(self, small_setup):
        base, _, initial, omega_p = small_setup
        params = _driven(base, 0.2, omega_p)
        space3 = make_space(N_SMALL, 3)
        cfg = default_config(params, t_end=5.0)
        with pytest.raises(ValueError):
            propagate(params, make_space(N_SMALL, 2), cfg, initial[: 2 * (N_SMALL + 1)])
        with pytest.raises(ValueError):
            propagate(params, space3, cfg, 0.5 * initial)
        coarse = PropagationConfig(t_end=5.0, dt=1.0)
        with pytest.raises(ValueError):
            propagate(params, space3, coarse, initial)

    def test_coarsest_grid_passes_however_rounded(self, small_setup):
        base, _, initial, _ = small_setup
        params = _driven(base, 0.2, 3.1)
        space3 = make_space(N_SMALL, 3)
        bound = 2.0 * np.pi / (50 * 3.1)
        dt = (2.0 * np.pi / 3.1) / 50
        assert dt > bound  # one ulp above the bound as written
        series = propagate(params, space3, PropagationConfig(t_end=1.0, dt=dt), initial)
        assert np.max(np.abs(series.norm - 1.0)) < 1e-9
        with pytest.raises(ValueError, match="too coarse"):
            propagate(params, space3, PropagationConfig(t_end=1.0, dt=1.01 * bound), initial)


def _sector_mask(space):
    """{|g,even>, |e,odd>, |f,odd>}: the parity sector the drive keeps closed."""
    mask = np.zeros(space.dim, dtype=bool)
    for level, first in (("g", 0), ("e", 1), ("f", 1)):
        mask[[space.index(level, n) for n in range(first, space.n_photon, 2)]] = True
    return mask


def _embedded_ground(base, n_max):
    psi0, _ = ground_state(solve_spectrum(base, make_space(n_max, 2)))
    return embed_ground_state(psi0)


def _fields(series):
    return {f.name: getattr(series, f.name) for f in fields(TimeSeries)}


def _refuse(*args, **kwargs):
    raise AssertionError("propagate took the wrong path")


def _on_step_loop(monkeypatch, *args):
    """propagate(*args) on the step loop, whatever the grid: the folded period's oracle."""
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "_steps_per_period", lambda *_: 0)
        return propagate(*args)


class TestSectorFloquet:
    """The folded period of propagate against the step loop and a dense full-space CF4."""

    @pytest.fixture(scope="class")
    def setups(self):
        base = ModelParams(omega0=1.0, coupling=0.5, omega_f=3.0)
        out = {}
        for n_max in (12, 20):
            spec = solve_spectrum(base, make_space(n_max, 2))
            psi0, _ = ground_state(spec)
            omega_p = resonance_frequency(base, spec.ground_energy)
            out[n_max] = (embed_ground_state(psi0), omega_p)
        return base, out

    # (n_max, steps per period, sample_every, t_end in periods, drive_amp)
    @pytest.mark.parametrize("n_max, n_per, every, periods, amp", [
        (12, 200, 1, 5.37, 0.2),    # t_end off a period multiple
        (12, 200, 7, 4.0, 0.4),     # on a period multiple; 7 does not divide 200
        (20, 400, 7, 3.51, 0.2),
        (20, 200, 1, 2.2, 0.2),
        (12, 400, 1, 0.63, 0.2),    # t_end < T: every sample in the first period
        (12, 200, 7, 3.3, 0.0),     # drive off, drive_freq > 0
        (12, 201, 3, 2.6, 0.2),     # odd n_per: time reversal alone folds the period
        (20, 202, 5, 3.3, 0.2),     # half period of 101 steps, an odd segment
        (20, 50, 1, 4.4, 0.4),      # the coarsest grid propagate accepts
        (12, 200, 1, 0.2, 0.2),     # t_end < T/4: every sample steps forward
    ])
    def test_matches_step_loop(self, setups, monkeypatch, n_max, n_per, every, periods, amp):
        base, by_n = setups
        initial, omega_p = by_n[n_max]
        params = _driven(base, amp, omega_p)
        period = 2.0 * np.pi / omega_p
        cfg = PropagationConfig(t_end=periods * period, dt=period / n_per, sample_every=every)
        space = make_space(n_max, 3)
        oracle = _on_step_loop(monkeypatch, params, space, cfg, initial)
        monkeypatch.setattr(dynamics, "_step_loop", _refuse)
        fast = propagate(params, space, cfg, initial)
        want, got = _fields(oracle), _fields(fast)
        assert want.keys() == got.keys()
        for name in want:
            assert got[name].shape == want[name].shape, name
            assert np.max(np.abs(got[name] - want[name])) < 1e-10, name
        assert np.array_equal(fast.times, oracle.times)

        # strengths from the step's time r*dt, as _step_loop computes them,
        # instead of from its grid phase: the two differ by rounding alone
        gammas = dynamics._cf4_gammas
        monkeypatch.setattr(dynamics, "_cf4_gammas",
                            lambda _grid, r, _one: gammas(params, r * cfg.dt, cfg.dt))
        timed = _fields(propagate(params, space, cfg, initial))
        for name in got:
            assert np.max(np.abs(got[name] - timed[name])) < 1e-12, name

    def test_dt_on_the_grid_within_its_tolerance(self, small_setup, monkeypatch):
        # the strengths assume dt = T/n_per exactly; a dt off it by less than
        # PERIOD_GRID_RTOL still takes the folded period and agrees with the loop
        base, _, initial, omega_p = small_setup
        params = _driven(base, 0.3, omega_p)
        period = 2.0 * np.pi / omega_p
        dt = period / 200 * (1.0 + 4e-13)
        assert dynamics._steps_per_period(params, dt) == 200
        cfg = PropagationConfig(t_end=4.3 * period, dt=dt, sample_every=3)
        space = make_space(N_SMALL, 3)
        oracle = _fields(_on_step_loop(monkeypatch, params, space, cfg, initial))
        monkeypatch.setattr(dynamics, "_step_loop", _refuse)
        got = _fields(propagate(params, space, cfg, initial))
        for name in oracle:
            assert np.max(np.abs(got[name] - oracle[name])) < 1e-10, name

    @pytest.mark.parametrize("n_per", [200, 201, 202, 400])
    def test_matches_step_loop_from_f_weighted_state(self, small_setup, monkeypatch, n_per):
        # a start state with f weight and complex phases, where the ground
        # state has neither: p_f1 and p_f3 see it through the conjugated start
        # column of a mirrored sample and the S = diag(+1 on g, e; -1 on f)
        # inside seg_map; no output reads its overlap with the start state
        base, _, _, omega_p = small_setup
        params = _driven(base, 0.3, omega_p)
        space = make_space(N_SMALL, 3)
        mask = _sector_mask(space)
        rng = np.random.default_rng(7)
        initial = np.zeros(space.dim, dtype=complex)
        initial[mask] = rng.normal(size=mask.sum()) + 1j * rng.normal(size=mask.sum())
        initial /= np.linalg.norm(initial)
        period = 2.0 * np.pi / omega_p
        cfg = PropagationConfig(t_end=2.7 * period, dt=period / n_per, sample_every=3)
        oracle = _fields(_on_step_loop(monkeypatch, params, space, cfg, initial))
        monkeypatch.setattr(dynamics, "_step_loop", _refuse)
        got = _fields(propagate(params, space, cfg, initial))
        for name in oracle:
            assert np.max(np.abs(got[name] - oracle[name])) < 1e-10, name

    @pytest.mark.parametrize("n_per", [200, 200.5])   # the folded period, the step loop
    @pytest.mark.parametrize("amp, n_max", [
        pytest.param(0.2, 8, id="0.2"),
        pytest.param(0.8, 8, id="0.8"),
        pytest.param(0.2, 1, id="0.2-n_max1"),   # |f,3> is outside the space below n_max 3
        pytest.param(0.2, 2, id="0.2-n_max2"),
    ])
    def test_matches_dense_full_space_cf4(self, monkeypatch, n_per, amp, n_max):
        # CF4 on the full 3-level space, each factor a dense eigendecomposition
        # of the two Gauss-node Hamiltonians: no sector, no Taylor series
        base = ModelParams(omega0=1.0, coupling=0.5, omega_f=3.0)
        spec = solve_spectrum(base, make_space(n_max, 2))
        omega_p = resonance_frequency(base, spec.ground_energy)
        params = _driven(base, amp, omega_p)
        space = make_space(n_max, 3)
        initial = embed_ground_state(ground_state(spec)[0])
        period = 2.0 * np.pi / omega_p
        cfg = PropagationConfig(t_end=3.3 * period, dt=period / n_per, sample_every=3)
        monkeypatch.setattr(dynamics, "_step_loop" if n_per == 200 else "_propagate_sector",
                            _refuse)
        got = _fields(propagate(params, space, cfg, initial))
        if n_max < 3:
            assert np.all(got["p_f3"] == 0.0)

        dt = cfg.dt
        x1, x2 = (3.0 - 2.0 * np.sqrt(3.0)) / 12.0, (3.0 + 2.0 * np.sqrt(3.0)) / 12.0
        c1, c2 = 0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0

        def exp_step(h):
            w, q = np.linalg.eigh(h)
            return (q * np.exp(-1j * dt * w)) @ q.conj().T

        f = [space.index("f", n) for n in (1, 3) if n <= n_max]
        n_steps = dynamics.step_count(cfg.t_end, dt)
        psi, want = initial, []
        for k in range(n_steps + 1):
            if k % 3 == 0 or k == n_steps:
                p_f = np.abs(psi[f]) ** 2
                want.append((p_f[0], p_f[1] if n_max >= 3 else 0.0, np.linalg.norm(psi)))
            h1 = build_h_full(params, space, k * dt + c1 * dt)
            h2 = build_h_full(params, space, k * dt + c2 * dt)
            psi = exp_step(x1 * h1 + x2 * h2) @ (exp_step(x2 * h1 + x1 * h2) @ psi)
        want = dict(zip(("p_f1", "p_f3", "norm"), np.array(want).T))
        assert len(got["times"]) == len(want["norm"])
        for name in want:
            assert np.max(np.abs(got[name] - want[name])) < 1e-10, name

    def test_folded_period_builds_each_factor_once(self, small_setup, monkeypatch, eigh_calls):
        # 2 * n_per half-step factors per period; the two symmetries leave
        # n_per / 2 distinct ones, and the single pass builds each once, from
        # one stacked eigh of at most that many matrices
        base, _, initial, omega_p = small_setup
        params = _driven(base, 0.2, omega_p)
        period = 2.0 * np.pi / omega_p
        cfg = PropagationConfig(t_end=3.3 * period, dt=2.0 * np.pi / (200 * omega_p))
        monkeypatch.setattr(dynamics, "_step_loop", _refuse)
        propagate(params, make_space(N_SMALL, 3), cfg, initial)
        assert len(eigh_calls) == 1 and 0 < eigh_calls[0][0] <= 100

    def test_shared_factors_serve_every_drive_frequency(self, small_setup, monkeypatch,
                                                        eigh_calls):
        # on the default grid the node eigendecompositions do not depend on
        # omega_p, so a resonance scan builds one set for all its points.  At
        # drive_amp 0.2 the pass's strengths span h = 0.0995 either side of
        # their middle, and at T/200 tau = dt/2 is 2.8e-3 to 3.4e-3 here: the
        # bound 2 (h tau / 2)^(d+1) / (d+1)! first reaches NODE_TOL at d = 4
        base, _, initial, omega_p = small_setup
        space = make_space(N_SMALL, 3)
        sector = dynamics.Sector(base, space)
        monkeypatch.setattr(dynamics, "_step_loop", _refuse)
        for wp in (omega_p - 0.05, omega_p, omega_p + 1.0):
            driven = _driven(base, 0.2, wp)
            cfg = default_config(driven, t_end=3.0)
            shared = _fields(propagate(driven, space, cfg, initial, sector=sector))
            alone = _fields(propagate(driven, space, cfg, initial))
            assert all(np.array_equal(shared[f], alone[f]) for f in alone)
        # one stack of 5 nodes for the shared calls, one per unshared call
        dim = 19
        assert eigh_calls == [(5, dim, dim)] * (1 + 3)

    def test_resonance_scan_builds_one_pass_of_factors(self, tmp_path, monkeypatch, eigh_calls):
        # six points, one propagate call each, one set of node factors; the
        # spectrum's chain solves go through np.linalg.eigh too, so count the
        # driven sector's shape only: 9 chain sites and |f,1>, ..., |f,7>.
        # At Omega 0.4 (h = 0.199) and T/200 (tau 2.3e-3 to 3.4e-3 over the
        # 1-, 2- and 3-photon windows) the bound first reaches NODE_TOL at
        # d = 4, so every point has the same 5 nodes
        text = ("n_max = 8\nOmega = 0.4\nt_end = 3\nsweep_variable = delta_omega_p\n"
                "sweep_start = -0.05\nsweep_stop = 0.05\nsweep_steps = 2\n")
        path = tmp_path / "rs.cfg"
        path.write_text(text, encoding="utf-8")
        cfg = load_experiment("resonance-scan", config_path=path, out=tmp_path / "rs.csv")
        propagations = []
        propagate_fn = dynamics.propagate

        def counting_propagate(*args, **kwargs):
            propagations.append(args)
            return propagate_fn(*args, **kwargs)

        monkeypatch.setattr(dynamics, "_step_loop", _refuse)
        monkeypatch.setattr(dynamics, "propagate", counting_propagate)
        run_preset(cfg)
        assert len(propagations) == 6
        sector = [shape for shape in eigh_calls if shape[-2:] == (13, 13)]
        assert sector == [(5, 13, 13)]

    def test_reused_factors_give_the_unshared_result(self, small_setup, monkeypatch):
        # one sector per model and space, across calls that change the drive
        # and the grid, and back: every call rebuilds what it needs and
        # matches a call without one
        base, _, initial, omega_p = small_setup
        period = 2.0 * np.pi / omega_p
        static = dynamics.static_hamiltonian
        cases = [
            (0.2, 200, N_SMALL, False),
            (0.3, 200, N_SMALL, False),   # drive_amp
            (0.3, 202, N_SMALL, False),   # n_per
            (0.3, 202, 8, False),         # n_max
            (0.3, 202, 8, True),          # the static Hamiltonian
            (0.2, 200, N_SMALL, False),   # back to the first key
        ]
        sectors: dict = {}
        monkeypatch.setattr(dynamics, "_step_loop", _refuse)
        for amp, n_per, n_max, tilted in cases:
            params = _driven(base, amp, omega_p)
            space = make_space(n_max, 3)
            if tilted:
                h = static(params, space)
                h[space.index("f", 1), space.index("f", 1)] += 1e-3
                monkeypatch.setattr(dynamics, "static_hamiltonian", lambda *args, h=h: h)
            else:
                monkeypatch.setattr(dynamics, "static_hamiltonian", static)
            start = initial if n_max == N_SMALL else _embedded_ground(base, n_max)
            cfg = PropagationConfig(t_end=2.3 * period, dt=period / n_per, sample_every=4)
            if (n_max, tilted) not in sectors:
                sectors[n_max, tilted] = dynamics.Sector(params, space)
            shared = _fields(propagate(params, space, cfg, start, sector=sectors[n_max, tilted]))
            alone = _fields(propagate(params, space, cfg, start))
            assert all(np.array_equal(shared[f], alone[f]) for f in alone), (amp, n_per, n_max)

    def test_sector_shared_by_threads_pairs_nodes_with_their_own_eigh(self, small_setup):
        # two threads ask one sector for alternating node sets (4 and 5 nodes,
        # so a mismatched pair differs in shape too); every answer must be
        # the eigendecomposition of the nodes asked for.  A small sector
        # (4 states) and a short switch interval make the threads interleave
        # between the memo's reads and writes, not only inside eigh: a memo
        # kept as two attributes, set eigh first and nodes second, failed 7
        # of 8 runs
        base, *_ = small_setup
        sector = dynamics.Sector(base, make_space(2, 3))
        node_sets = [np.linspace(-0.2, 0.25, 4), np.linspace(-0.3, 0.3, 5)]
        want = [np.linalg.eigh(sector.h_s + nodes[:, None, None] * sector.v_s)
                for nodes in node_sets]
        wrong = []

        def ask(first):
            for i in range(4000):
                k = (first + i) % 2
                w, q = sector.node_eigh(node_sets[k].copy())
                if not (np.array_equal(w, want[k][0]) and np.array_equal(q, want[k][1])):
                    wrong.append((first, i))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask, args=(first,)) for first in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(switch)
        assert not wrong

    @pytest.mark.parametrize("field, value", [
        ("omega0", 1.1), ("coupling", 0.4), ("omega_f", 3.1), ("n_max", N_SMALL - 2)])
    def test_rejects_a_sector_of_another_model(self, small_setup, field, value):
        base, _, initial, omega_p = small_setup
        params = _driven(base, 0.2, omega_p)
        space = make_space(N_SMALL, 3)
        cfg = default_config(params, t_end=1.0)
        if field == "n_max":
            other = dynamics.Sector(base, make_space(value, 3))
        else:
            other = dynamics.Sector(replace(base, **{field: value}), space)
        with pytest.raises(ValueError, match="the sector was built for "):
            propagate(params, space, cfg, initial, sector=other)
        # the drive is not part of the model
        same = dynamics.Sector(_driven(base, 0.7, 1.0), space)
        assert np.array_equal(propagate(params, space, cfg, initial, sector=same).p_f1,
                              propagate(params, space, cfg, initial).p_f1)

    @pytest.mark.parametrize("preset, text, propagations, sectors", [
        # nine points
        ("resonance-scan", "n_max = 8\nOmega = 0.4\nt_end = 3\nsweep_variable = delta_omega_p\n"
                           "sweep_start = -0.05\nsweep_stop = 0.05\nsweep_steps = 3\n", 9, 1),
        # three curves
        ("fig3-evolve", "n_max = 8\nt_end = 3\n", 3, 1),
        # the base and dt/2 runs at n_max, and the run at 2*n_max
        ("convergence-report", "n_max = 8\nt_end = 10\n", 3, 2),
    ], ids=["resonance-scan", "fig3-evolve", "convergence-report"])
    def test_presets_build_one_sector_per_truncation(self, tmp_path, monkeypatch, preset, text,
                                                    propagations, sectors):
        path = tmp_path / "p.cfg"
        path.write_text(text, encoding="utf-8")
        cfg = load_experiment(preset, config_path=path, out=tmp_path / "p.csv")
        calls = {"propagate": [], "static_hamiltonian": []}
        for name, calls_of in calls.items():
            fn = getattr(dynamics, name)
            monkeypatch.setattr(dynamics, name, lambda *args, fn=fn, calls_of=calls_of, **kwargs:
                                calls_of.append(args) or fn(*args, **kwargs))
        try:
            run_preset(cfg)
        except ConvergenceGuardError:
            pass  # the small refinement study may trip its guard after the work is done
        assert len(calls["propagate"]) == propagations
        assert len(calls["static_hamiltonian"]) == sectors

    def test_samples_read_in_blocks_match_one_table(self, small_setup, monkeypatch):
        # a READ_BYTES of 1 forms each segment start in a block of its own and
        # reads its samples off tables of their own, against one block and one
        # pair of tables for the whole run
        base, _, initial, omega_p = small_setup
        params = _driven(base, 0.3, omega_p)
        period = 2.0 * np.pi / omega_p
        cfg = PropagationConfig(t_end=4.3 * period, dt=period / 200, sample_every=7)
        space = make_space(N_SMALL, 3)
        monkeypatch.setattr(dynamics, "_step_loop", _refuse)
        whole = _fields(propagate(params, space, cfg, initial))
        monkeypatch.setattr(dynamics, "READ_BYTES", 1)
        blocks = _fields(propagate(params, space, cfg, initial))
        for name in whole:
            assert np.max(np.abs(blocks[name] - whole[name])) <= 1e-15, name

    def test_peak_memory_grows_little_per_sample(self, setups, monkeypatch):
        # one sample per period at n_max 20 (sector dim 31), both runs past one
        # block of segment starts (1872 here): a sample then adds about 105
        # bytes of indices and results, where a stack of every start added
        # its 16 * 31 bytes too, about 1170 bytes in all
        base, out = setups
        initial, omega_p = out[20]
        params = _driven(base, 0.2, omega_p)
        period = 2.0 * np.pi / omega_p
        space = make_space(20, 3)
        sector = dynamics.Sector(params, space)
        monkeypatch.setattr(dynamics, "_step_loop", _refuse)
        counts, peaks = (2500, 5000), []
        for samples in counts:
            cfg = PropagationConfig(t_end=samples * period, dt=period / 200, sample_every=200)
            if not peaks:  # first use of any lazily loaded code, and the node memo
                propagate(params, space, cfg, initial, sector=sector)
            tracemalloc.start()
            try:
                propagate(params, space, cfg, initial, sector=sector)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 400 * (counts[1] - counts[0]), peaks

    def test_rejects_hamiltonian_without_half_period_symmetry(self, small_setup, monkeypatch):
        # e-f coupling inside the sector keeps it closed but breaks S H S = H,
        # on which the half-period fold rests
        base, _, initial, omega_p = small_setup
        params = _driven(base, 0.2, omega_p)
        space = make_space(N_SMALL, 3)
        h = dynamics.static_hamiltonian(params, space)
        i, j = space.index("e", 1), space.index("f", 1)
        h[i, j] = h[j, i] = 1e-3
        monkeypatch.setattr(dynamics, "static_hamiltonian", lambda *args: h)
        with pytest.raises(ValueError, match="drive alone"):
            propagate(params, space, default_config(params, t_end=1.0), initial)

    def test_repeatable(self, small_setup):
        base, _, initial, omega_p = small_setup
        params = _driven(base, 0.2, omega_p)
        cfg = default_config(params, t_end=12.0)
        space = make_space(N_SMALL, 3)
        a = _fields(propagate(params, space, cfg, initial))
        b = _fields(propagate(params, space, cfg, initial))
        assert all(np.array_equal(a[name], b[name]) for name in a)

    def test_norm_drift_names_earliest_sample(self, small_setup, monkeypatch):
        # node factors inflated by 1e-5, so the segment map, though polished
        # to unitarity, still shrinks the start column at every segment.  The
        # start state drifts by about 1e-16 and P_0 = I has no defect, so
        # t = 0 passes a 1e-15 guard and the earliest flagged sample is a later
        # one; the defect term may flag it before the column norm alone does
        base, _, initial, omega_p = small_setup
        params = _driven(base, 0.2, omega_p)
        space = make_space(N_SMALL, 3)
        tol = 1e-15
        node_factors = dynamics._node_factors
        monkeypatch.setattr(dynamics, "_node_factors",
                            lambda *args: node_factors(*args) * (1.0 + 1e-5))
        monkeypatch.setattr(dynamics, "_step_loop", _refuse)
        loose = propagate(params, space, default_config(params, t_end=12.0, norm_tol=1.0), initial)
        drift = np.abs(loose.norm - 1.0)
        assert drift[0] < tol
        t_column = loose.times[np.flatnonzero(drift > tol)[0]]
        with pytest.raises(NormDriftError) as info:
            propagate(params, space, default_config(params, t_end=12.0, norm_tol=tol), initial)
        t_named = float(re.search(r" at t=(\S+) ", str(info.value)).group(1))
        assert 0.0 < t_named <= t_column

    def test_norm_guard_adds_the_unitarity_defect(self, small_setup, monkeypatch):
        # node factors non-unitary by 5e-9 after their polar step, so every
        # half step interpolated from them is too: about 1e-8 per step.  Up
        # to t_end = T/5 every sample reads forward from psi(0), so the
        # start-column norm stays 1 and only the recorded defect of P_r can
        # show the drift
        base, _, initial, omega_p = small_setup
        params = _driven(base, 0.2, omega_p)
        space = make_space(N_SMALL, 3)
        period = 2.0 * np.pi / omega_p
        node_factors = dynamics._node_factors

        def inflated(*args):
            return node_factors(*args) * (1.0 + 5e-9)

        monkeypatch.setattr(dynamics, "_step_loop", _refuse)
        monkeypatch.setattr(dynamics, "_node_factors", inflated)

        def run(norm_tol):
            cfg = PropagationConfig(t_end=0.2 * period, dt=period / 200, norm_tol=norm_tol)
            return propagate(params, space, cfg, initial)

        loose = run(1e-3)
        assert np.max(np.abs(loose.norm - 1.0)) < 1e-14
        # the first sample after t = 0 already drifts by about 1e-8
        with pytest.raises(NormDriftError, match=f"at t={loose.times[1]:.4f} "):
            run(1e-9)
        assert loose.times[1] > 0.0

    @pytest.mark.parametrize("case", ["off-grid dt", "no drive frequency"])
    def test_other_inputs_run_the_step_loop(self, small_setup, monkeypatch, case):
        base, _, initial, omega_p = small_setup
        space = make_space(N_SMALL, 3)
        params = _driven(base, 0.2, omega_p)
        period = 2.0 * np.pi / omega_p
        dt = period / 200.5
        if case == "no drive frequency":
            dt = period / 200
            params = _driven(base, 0.2, 0.0)
        cfg = PropagationConfig(t_end=3.0, dt=dt, sample_every=3, norm_tol=1e-7)
        monkeypatch.setattr(dynamics, "_propagate_sector", _refuse)
        series = propagate(params, space, cfg, initial)
        assert np.max(np.abs(series.norm - 1.0)) < 1e-12

    @pytest.mark.parametrize("n_per", [200, 200.5])
    @pytest.mark.parametrize("state", ["mixed", "other parity"])
    def test_rejects_state_off_the_sector(self, small_setup, n_per, state):
        # the sector is {|g,even>, |e,odd>, |f,odd>}; |g,1> lies in the other one
        base, _, initial, omega_p = small_setup
        space = make_space(N_SMALL, 3)
        params = _driven(base, 0.2, omega_p)
        off = space.basis_state("g", 1)
        if state == "mixed":
            off = (initial + off) / np.linalg.norm(initial + off)
        amp = abs(off[space.index("g", 1)])
        cfg = PropagationConfig(t_end=3.0, dt=2.0 * np.pi / (n_per * omega_p))
        with pytest.raises(dynamics.StateOffSectorError,
                           match=rf"parity sector .*: amplitude {amp:.3g} on \|g,1>"):
            propagate(params, space, cfg, off)

    # a Hermitian perturbation that couples the sectors, or one that is not real
    @pytest.mark.parametrize("ket, delta", [(("g", 1), 1e-3), (("e", 1), 1e-3j)])
    def test_rejects_hamiltonian_off_the_sector(self, small_setup, monkeypatch, ket, delta):
        base, _, initial, omega_p = small_setup
        params = _driven(base, 0.2, omega_p)
        space = make_space(N_SMALL, 3)
        h = dynamics.static_hamiltonian(params, space)
        i, j = space.index("g", 0), space.index(*ket)
        h[i, j] += delta
        h[j, i] = np.conj(h[i, j])
        monkeypatch.setattr(dynamics, "static_hamiltonian", lambda *args: h)
        # on the period grid and off it: both integrators step the checked blocks
        for n_per in (200, 200.5):
            cfg = PropagationConfig(t_end=1.0, dt=2.0 * np.pi / (n_per * omega_p))
            with pytest.raises(ValueError, match="parity sector"):
                propagate(params, space, cfg, initial)


class TestHalfStepNodes:
    """The folded pass's half steps, interpolated from a few node factors, against eigh."""

    @pytest.fixture(scope="class")
    def starts(self):
        base = ModelParams(omega0=1.0, coupling=0.5, omega_f=3.0)
        return {n_max: _embedded_ground(base, n_max) for n_max in (4, 20, 40)}

    @staticmethod
    def _pass(monkeypatch, base, omega_p, amp, n_per, n_max, initial):
        """Run one folded propagation and return what its pass built its half steps from."""
        seen: dict = {}
        sector, nodes_of, factors_of = (dynamics._propagate_sector, dynamics._half_step_nodes,
                                        dynamics._node_factors)

        def spy_sector(params, dt, blocks, *rest):
            seen.update(h_s=blocks.h_s, v_s=blocks.v_s, tau=0.5 * dt)
            return sector(params, dt, blocks, *rest)

        def spy_nodes(gammas, tau, max_nodes):
            seen["gammas"] = gammas
            seen["interpolated"] = out = nodes_of(gammas, tau, max_nodes)
            if out is not None:
                seen["nodes"], seen["weights"] = out
            return out

        def spy_factors(*args):
            seen["stack"] = factors_of(*args)
            return seen["stack"]

        monkeypatch.setattr(dynamics, "_step_loop", _refuse)
        monkeypatch.setattr(dynamics, "_propagate_sector", spy_sector)
        monkeypatch.setattr(dynamics, "_half_step_nodes", spy_nodes)
        monkeypatch.setattr(dynamics, "_node_factors", spy_factors)
        params = _driven(base, amp, omega_p)
        period = 2.0 * np.pi / omega_p
        cfg = PropagationConfig(t_end=0.3 * period, dt=period / n_per)
        seen["args"] = (params, make_space(n_max, 3), cfg, initial)
        seen["series"] = propagate(*seen["args"])
        return seen

    @staticmethod
    def _step_loop_gap(monkeypatch, seen) -> float:
        """Largest gap between the pass's observables and the step loop's on the same run."""
        monkeypatch.undo()
        slow = _on_step_loop(monkeypatch, *seen["args"])
        return max(np.max(np.abs(getattr(seen["series"], f) - getattr(slow, f)))
                   for f in ("p_f1", "p_f3", "norm"))

    @staticmethod
    def _worst_gap(seen) -> float:
        """Largest max-abs gap between an interpolated half step and its eigh factor."""
        h_s, v_s, tau = seen["h_s"], seen["v_s"], seen["tau"]
        interpolated = np.tensordot(seen["weights"], seen["stack"], axes=1)
        worst = 0.0
        for gamma, got in zip(seen["gammas"], interpolated):
            w, q = np.linalg.eigh(h_s + gamma * v_s)
            worst = max(worst, np.max(np.abs(got - (q * np.exp(-1j * tau * w)) @ q.T)))
        return worst

    @pytest.mark.parametrize("n_max", [4, 20, 40])
    @pytest.mark.parametrize("amp", [0.05, 0.2, 0.8, 5.0])
    @pytest.mark.parametrize("n_per", [50, 51, 200, 400])
    def test_every_half_step_matches_its_eigh_factor(self, small_setup, starts, monkeypatch,
                                                     n_per, amp, n_max):
        base, _, _, omega_p = small_setup
        seen = self._pass(monkeypatch, base, omega_p, amp, n_per, n_max, starts[n_max])
        # the pass's 2 ceil(L/2) strengths, L = n_per/2 (n_per when odd)
        n_seg = n_per // 2 if n_per % 2 == 0 else n_per
        assert len(seen["gammas"]) == 2 * ((n_seg + 1) // 2)
        assert len(seen["nodes"]) < len(seen["gammas"])
        assert self._worst_gap(seen) <= 1e-14

    def test_no_drive_takes_one_node(self, small_setup, starts, monkeypatch, eigh_calls):
        base, _, _, omega_p = small_setup
        seen = self._pass(monkeypatch, base, omega_p, 0.0, 200, 20, starts[20])
        dim = seen["h_s"].shape[0]
        assert np.array_equal(seen["nodes"], [0.0])
        assert eigh_calls[-1] == (1, dim, dim)
        assert self._worst_gap(seen) <= 1e-14

    @pytest.mark.parametrize("n_max", [4, 20])
    def test_strong_drive_diagonalizes_no_more_than_one_per_half_step(
            self, small_setup, starts, monkeypatch, eigh_calls, n_max):
        # Omega 50 at T/50: the pass's 26 strengths span h = 26.0 either side
        # of their middle and tau = 0.0136, so the bound first reaches
        # NODE_TOL at d = 11; one eigh per distinct half step would be 26
        base, _, _, omega_p = small_setup
        seen = self._pass(monkeypatch, base, omega_p, 50.0, 50, n_max, starts[n_max])
        dim = seen["h_s"].shape[0]
        assert len(seen["gammas"]) == 26
        assert eigh_calls[-1] == (12, dim, dim)
        assert self._worst_gap(seen) <= 1e-14

    @pytest.mark.parametrize("n_max", [4, 20])
    def test_drive_too_strong_to_interpolate_diagonalizes_each_half_step(
            self, small_setup, starts, monkeypatch, eigh_calls, n_max):
        # Omega 1000 at T/50: the pass's 26 strengths span h = 520 either side
        # of their middle and tau = 0.0136, so the bound needs all 26 as
        # nodes; the pass then diagonalizes each half step as it applies it,
        # and leaves the sector's memo alone
        base, _, _, omega_p = small_setup
        seen = self._pass(monkeypatch, base, omega_p, 1000.0, 50, n_max, starts[n_max])
        dim = seen["h_s"].shape[0]
        assert len(np.unique(seen["gammas"])) == len(seen["gammas"]) == 26
        assert seen["interpolated"] is None and "stack" not in seen
        assert [c for c in eigh_calls if c[-2:] == (dim, dim)] == [(dim, dim)] * 26
        memo = dynamics.Sector(*seen["args"][:2])
        propagate(*seen["args"], sector=memo)
        assert memo._memo == (None, None)
        assert self._step_loop_gap(monkeypatch, seen) <= 1e-12

    @pytest.mark.parametrize("short", [0, 1])
    def test_node_stack_over_its_budget_diagonalizes_each_half_step(
            self, small_setup, starts, monkeypatch, eigh_calls, short):
        # the default drive at T/200 takes 5 nodes; with NODE_STACK_BYTES one
        # byte short of their stack the pass makes one eigh per half step
        base, _, _, omega_p = small_setup
        dim = 31  # n_max 20: |g,even>, |e,odd>, |f,odd>
        budget = 5 * 16 * dim * dim - short
        monkeypatch.setattr(dynamics, "NODE_STACK_BYTES", budget)
        seen = self._pass(monkeypatch, base, omega_p, 0.2, 200, 20, starts[20])
        assert seen["h_s"].shape == (dim, dim)
        sector = [c for c in eigh_calls if c[-2:] == (dim, dim)]
        if short:
            assert seen["interpolated"] is None and "stack" not in seen
            assert sector == [(dim, dim)] * 100
        else:
            assert seen["stack"].nbytes == budget
            assert sector == [(5, dim, dim)]
        assert self._step_loop_gap(monkeypatch, seen) <= 1e-12

    def test_long_horizon_matches_step_loop(self, tmp_path, monkeypatch):
        # convergence-report's base run at its defaults (n_max 40, T/200, 104
        # half-period segments): the node rounding errors must not add up over
        # the segment map's powers
        cfg = load_experiment("convergence-report", out=tmp_path / "cr.csv")
        runs = []
        propagate_fn = dynamics.propagate

        def recording_propagate(*args, **kwargs):
            runs.append((args, propagate_fn(*args, **kwargs)))
            return runs[-1][1]

        monkeypatch.setattr(dynamics, "propagate", recording_propagate)
        run_preset(cfg)
        monkeypatch.setattr(dynamics, "propagate", propagate_fn)
        args, fast = runs[0]
        params, space, prop, _ = args
        assert space.n_max == 40
        assert dynamics._steps_per_period(params, prop.dt) == 200
        slow = _on_step_loop(monkeypatch, *args)
        for name in ("p_f1", "norm"):
            assert np.max(np.abs(getattr(fast, name) - getattr(slow, name))) <= 5e-13, name


def _adaptive_exponential(h_matvec, dt, psi, n_sub, order=None):
    """The step loop's earlier kernel: Taylor terms until one is under 1e-16 of the sum."""
    h = dt / n_sub
    for _ in range(n_sub):
        acc = psi.copy()
        term = psi
        for j in range(1, 41):
            term = (-1j * h / j) * h_matvec(term)
            acc += term
            if np.linalg.norm(term) <= 1e-16 * np.linalg.norm(acc):
                break
        psi = acc
    return psi


class TestTaylorKernel:
    """The step loop's fixed-degree Horner kernel."""

    @pytest.mark.parametrize("theta", [0.0, 1e-3, 0.04, 0.145, 0.5])
    def test_degree_is_the_smallest_within_the_bound(self, theta):
        def tail(m):
            return theta ** (m + 1) / math.factorial(m + 1) / (1.0 - theta / (m + 2))

        m = dynamics._taylor_order(theta)
        assert tail(m) <= 1.1e-16
        assert m == 0 or tail(m - 1) > 1.1e-16

    @pytest.mark.parametrize("n_max", [8, 40])
    def test_matches_the_adaptive_kernel(self, monkeypatch, n_max):
        # an off-grid step (dt 0.0067 at omega_p 4.63 is T/202.5) runs the step loop
        base = ModelParams(omega0=1.0, coupling=0.5, omega_f=3.0)
        spec = solve_spectrum(base, make_space(n_max, 2))
        params = _driven(base, 0.2, resonance_frequency(base, spec.ground_energy))
        initial = embed_ground_state(ground_state(spec)[0])
        space = make_space(n_max, 3)
        cfg = PropagationConfig(t_end=6.0, dt=0.0067, sample_every=9)
        monkeypatch.setattr(dynamics, "_propagate_sector", _refuse)
        horner = _fields(propagate(params, space, cfg, initial))
        monkeypatch.setattr(dynamics, "_apply_exponential", _adaptive_exponential)
        adaptive = _fields(propagate(params, space, cfg, initial))
        for name in horner:
            assert np.max(np.abs(horner[name] - adaptive[name])) <= 1e-13, name

