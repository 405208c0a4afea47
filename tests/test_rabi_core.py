import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usc_rabi import (
    ModelParams,
    SpectrumResult,
    build_h_rabi,
    dressed_amplitude,
    ground_levels,
    ground_state,
    make_space,
    parity_labels,
    parity_matrix,
    solve_spectrum,
)
from usc_rabi import rabi_core
from conftest import C10_EXACT, C30_EXACT, G0_OVERLAP, LAMBDA0, assert_same_bits, dense_h_rabi


class TestModelParams:
    def test_rejects_nonpositive_omega0(self):
        with pytest.raises(ValueError):
            ModelParams(omega0=0.0, coupling=0.1)

    def test_rejects_negative_coupling(self):
        with pytest.raises(ValueError):
            ModelParams(omega0=1.0, coupling=-0.1)

    def test_rejects_rescaled_cavity(self):
        # omega_c = 1 is the unit of energy, not a parameter
        with pytest.raises(TypeError):
            ModelParams(omega0=1.0, coupling=0.1, omega_c=2.0)


class TestBuildHRabi:
    def test_rejects_three_level_space(self):
        with pytest.raises(ValueError):
            build_h_rabi(ModelParams(omega0=1.0, coupling=0.2), make_space(10, 3))

    @pytest.mark.parametrize("n_max", [1, 2, 20, 80, 160])
    def test_bit_identical_to_dense_products(self, n_max):
        # a^dag a's diagonal is fl(sqrt(n) sqrt(n)), 1 ulp off n for some n
        space = make_space(n_max, 2)
        for coupling in (0.0, 1e-3, 0.5, 3.0):
            for omega0 in (0.3, 1.0, 2.5):
                params = ModelParams(omega0=omega0, coupling=coupling)
                assert_same_bits(build_h_rabi(params, space), dense_h_rabi(params, space))

    def test_hermitian(self, base_params, space2):
        h = build_h_rabi(base_params, space2)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12

    def test_decoupled_eigenvalues(self):
        # coupling 0: spectrum is {+-omega0/2 + n}
        params = ModelParams(omega0=0.7, coupling=0.0)
        space = make_space(6, 2)
        spec = solve_spectrum(params, space)
        expected = sorted(
            [s * 0.35 + n for s in (-1, 1) for n in range(space.n_photon)]
        )
        assert np.allclose(spec.eigenvalues, expected, atol=1e-12)

    def test_ground_energy_matches_reported_value(self, spectrum):
        assert spectrum.ground_energy == pytest.approx(-0.633, abs=1e-3)
        assert spectrum.ground_energy == pytest.approx(LAMBDA0, abs=1e-9)


class TestGroundState:
    def test_decoupled_limit(self):
        params = ModelParams(omega0=1.0, coupling=0.0)
        space = make_space(10, 2)
        psi0, energy = ground_state(solve_spectrum(params, space))
        assert energy == pytest.approx(-0.5, abs=1e-12)
        assert abs(psi0[space.index("g", 0)]) == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_weight(self, ground, space2):
        psi0, _ = ground
        amp = psi0[space2.index("g", 0)]
        assert amp.real == pytest.approx(G0_OVERLAP, abs=1e-9)
        assert abs(amp.imag) < 1e-12

    @pytest.mark.parametrize("lam", [0.1, 0.3, 0.5, 0.7])
    def test_phase_convention(self, lam):
        space = make_space(30, 2)
        psi0, _ = ground_state(solve_spectrum(ModelParams(omega0=1.0, coupling=lam), space))
        pivot = psi0[space.index("g", 0)]
        assert pivot.real > 0 and abs(pivot.imag) < 1e-12

    def test_perturbative_shift(self):
        # second-order oracle: ground energy ~ -omega0/2 - coupling^2/(omega0 + omega_c)
        lam = 0.1
        spec = solve_spectrum(ModelParams(omega0=1.0, coupling=lam), make_space(40, 2))
        assert spec.ground_energy == pytest.approx(-0.5 - lam**2 / 2.0, abs=1e-3)

    def test_degenerate_ground_rejected(self, space2, spectrum):
        w = spectrum.eigenvalues.copy()
        w[1] = w[0] + 1e-12
        doctored = SpectrumResult(
            space=space2,
            eigenvalues=w,
            eigenvectors=spectrum.eigenvectors,
            parities=spectrum.parities,
        )
        with pytest.raises(ValueError):
            ground_state(doctored)


class TestGroundLevel:
    """ground_levels at one coupling against ground_state(solve_spectrum(...)), the oracle."""

    @pytest.mark.parametrize("n_max", [8, 40, 80])
    @pytest.mark.parametrize("lam", [0.0, 0.1, 0.5, 0.8, 1.5])
    def test_matches_full_spectrum(self, lam, n_max):
        params = ModelParams(omega0=1.0, coupling=lam)
        space = make_space(n_max, 2)
        psi0, energy, _ = ground_levels(1.0, lam, space)
        want_psi, want_energy = ground_state(solve_spectrum(params, space))
        assert abs(energy - want_energy) < 1e-12
        assert np.max(np.abs(psi0 - want_psi)) < 1e-10

    def test_lowest_level_in_the_odd_chain(self):
        # n_max = 4 is far too coarse at lambda = 3: the -1 chain dips below
        params = ModelParams(omega0=1.0, coupling=3.0)
        space = make_space(4, 2)
        spec = solve_spectrum(params, space)
        assert spec.parities[0] == -1
        psi0, energy, _ = ground_levels(1.0, 3.0, space)
        want_psi, want_energy = ground_state(spec)
        assert abs(energy - want_energy) < 1e-12
        assert np.max(np.abs(psi0 - want_psi)) < 1e-10

    def test_degenerate_level_rejected_like_ground_state(self):
        # at lambda = 4 the two parity ground levels meet to 1.4e-14
        params = ModelParams(omega0=1.0, coupling=4.0)
        space = make_space(80, 2)
        message = "ground level is degenerate within tolerance"
        with pytest.raises(ValueError, match=message):
            ground_state(solve_spectrum(params, space))
        _, _, gap = ground_levels(1.0, 4.0, space)
        with pytest.raises(ValueError, match=message):
            rabi_core.require_gap(float(gap))

    @pytest.mark.parametrize("lam, n_max, solves", [(0.5, 40, 1), (3.0, 4, 2), (4.0, 80, 2)])
    def test_solves_the_odd_chain_only_when_it_counts_a_level(self, eigh_calls, lam, n_max,
                                                              solves):
        # the -1 chain is diagonalized only when it lies lower (lambda 3 at
        # n_max 4) or within the gap tolerance (lambda 4, degenerate there)
        ground_levels(1.0, lam, make_space(n_max, 2))
        assert len(eigh_calls) == solves

    def test_rejects_three_level_space(self):
        with pytest.raises(ValueError):
            ground_levels(1.0, 0.2, make_space(10, 3))

    @pytest.mark.parametrize("extra", [None, 0, 1, "step+1"])
    @pytest.mark.parametrize("n_max", [4, 40])
    def test_stacks_are_the_full_spectrum_bit_for_bit(self, n_max, extra):
        # one coupling, one eigh stack (STACK_BYTES) and one more, and two
        # stacks and one more: three sub-stacks, which the calling thread and
        # the second one cannot share equally; at n_max 4 the -1 chain lies
        # lower from lambda 3 on
        step = max(1, rabi_core.STACK_BYTES // (8 * (n_max + 1) ** 2))
        if extra == "step+1":
            extra = step + 1
        grid = np.linspace(0.0, 3.3, 1 if extra is None else step + extra)
        space = make_space(n_max, 2)
        psi, energy, gap = rabi_core.ground_levels(1.0, grid, space)
        assert psi.shape == (grid.size, space.dim) and energy.shape == gap.shape == grid.shape
        for k, lam in enumerate(grid):
            spec = solve_spectrum(ModelParams(omega0=1.0, coupling=lam), space)
            want = spec.eigenvectors[:, 0], spec.ground_energy
            assert np.array_equal(psi[k], want[0]) and energy[k] == want[1]
            assert (gap[k] >= rabi_core.GROUND_GAP_TOL) == (
                spec.eigenvalues[1] - spec.eigenvalues[0] >= rabi_core.GROUND_GAP_TOL)

    def test_second_thread_failure_is_raised_on_the_caller(self, monkeypatch):
        # eigh fails on the second thread; the calling thread holds its first
        # sub-stack until then, so the second thread is sure to take one
        eigh, caller, failed = np.linalg.eigh, threading.current_thread(), threading.Event()

        def failing_eigh(a, *args, **kwargs):
            if threading.current_thread() is not caller:
                failed.set()
                raise np.linalg.LinAlgError("second thread failed")
            failed.wait(timeout=10.0)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        space = make_space(40, 2)
        step = max(1, rabi_core.STACK_BYTES // (8 * space.n_photon**2))
        threads = threading.active_count()
        with pytest.raises(np.linalg.LinAlgError, match="second thread failed"):
            ground_levels(1.0, np.linspace(0.0, 1.0, step + 1), space)
        assert threading.active_count() == threads
        # one sub-stack, one coupling or a whole stack, starts no thread
        monkeypatch.setattr(rabi_core, "beside", None)
        for grid in (0.5, np.linspace(0.0, 1.0, step)):
            ground_levels(1.0, grid, space)

    def test_count_stacks_as_one_chain_at_a_time(self):
        space = make_space(40, 2)
        grid = np.array([0.0, 0.5, 1.5, 3.0])
        diag, off, _ = rabi_core._chain_bands(1.0, grid, space, -1)
        shifts = np.array([-0.5, 0.0, 0.7, 2.0])
        counts = rabi_core._count_below(diag, off, shifts)
        assert counts.shape == grid.shape
        for k in range(grid.size):
            assert counts[k] == rabi_core._count_below(diag, off[k], shifts[k])
        assert rabi_core._count_below(diag, off[0], shifts[0]).shape == ()


class TestSturmCount:
    """_count_below against the chain's dense eigenvalues, the oracle."""

    @pytest.mark.parametrize("parity", [1, -1])
    @pytest.mark.parametrize("n_max", [1, 4, 40, 80])
    @pytest.mark.parametrize("lam", [0.0, 0.1, 0.5, 1.5, 4.0])
    def test_matches_dense_eigenvalues(self, lam, n_max, parity):
        # lambda = 0 has exact-zero off-diagonals, exact-zero pivots at the
        # shifts that hit a level, and degenerate levels within one chain
        params = ModelParams(omega0=1.0, coupling=lam)
        space = make_space(n_max, 2)
        diag, off, _ = rabi_core._chain_bands(params.omega0, params.coupling, space, parity)
        w = np.linalg.eigvalsh(rabi_core._chain_matrix(diag, off))
        levels = np.unique(w)
        shifts = np.concatenate([[levels[0] - 1.0], 0.5 * (levels[:-1] + levels[1:]),
                                 [levels[-1] + 1.0]])
        for x in shifts:
            assert rabi_core._count_below(diag, off, x) == np.sum(w < x)
        # a few ulps from a level either side of it is right
        for x in levels + 3 * np.spacing(np.abs(levels)):
            count = rabi_core._count_below(diag, off, x)
            assert np.sum(w < x - 1e-12 * (1 + abs(x))) <= count
            assert count <= np.sum(w < x + 1e-12 * (1 + abs(x)))

    def test_zero_pivot_counts_the_level_below(self):
        # at lambda = 0 the chain is diagonal; x on a level makes its pivot 0
        params = ModelParams(omega0=1.0, coupling=0.0)
        diag, off, _ = rabi_core._chain_bands(params.omega0, params.coupling, make_space(4, 2), 1)
        assert rabi_core._count_below(diag, off, -0.5) == 1


class TestDressedAmplitudes:
    def test_vanishes_without_coupling(self):
        spec = solve_spectrum(ModelParams(omega0=1.0, coupling=0.0), make_space(10, 2))
        assert abs(dressed_amplitude(spec, 1)) < 1e-12

    def test_single_photon_amplitude(self, spectrum):
        c10 = dressed_amplitude(spectrum, 1)
        assert c10.real == pytest.approx(C10_EXACT, abs=1e-9)
        assert abs(c10) == pytest.approx(0.26, abs=0.01)

    def test_three_photon_amplitude(self, spectrum):
        assert dressed_amplitude(spectrum, 3).real == pytest.approx(C30_EXACT, abs=1e-9)

    @pytest.mark.parametrize("lam", [0.1, 0.2, 0.4, 0.6, 0.8])
    @pytest.mark.parametrize("n", [0, 2, 4])
    def test_even_amplitudes_vanish(self, lam, n):
        spec = solve_spectrum(ModelParams(omega0=1.0, coupling=lam), make_space(30, 2))
        assert abs(dressed_amplitude(spec, n)) < 1e-9

    def test_out_of_truncation_rejected(self, spectrum):
        with pytest.raises(ValueError):
            dressed_amplitude(spectrum, spectrum.space.n_max + 1)

    def test_completeness(self, spectrum):
        rows = [spectrum.space.index("e", n) for n in range(spectrum.space.n_photon)]
        weights = np.sum(np.abs(spectrum.eigenvectors[rows]) ** 2, axis=1)
        for n in range(spectrum.space.n_max // 2 + 1):
            assert weights[n] == pytest.approx(1.0, abs=1e-8)


class TestParity:
    def test_commutes_with_hamiltonian(self, base_params, space2):
        h = build_h_rabi(base_params, space2)
        pi = parity_matrix(space2)
        assert np.max(np.abs(h @ pi - pi @ h)) < 1e-10

    def test_parity_matrix_squares_to_identity(self, space2):
        pi = parity_matrix(space2)
        assert np.allclose(pi @ pi, np.eye(space2.dim))

    def test_ground_state_is_even(self, spectrum):
        assert spectrum.parities[0] == 1.0

    def test_first_excited_is_odd_at_zero_coupling(self):
        spec = solve_spectrum(ModelParams(omega0=1.0, coupling=0.0), make_space(10, 2))
        assert spec.parities[1] == -1.0
        assert spec.parities[2] == -1.0

    def test_mixed_vector_rejected(self, space2, spectrum):
        v = spectrum.eigenvectors.copy()
        mixed = (v[:, 0] + v[:, 1]) / np.sqrt(2.0)
        v[:, 0] = mixed
        doctored = SpectrumResult(
            space=space2,
            eigenvalues=spectrum.eigenvalues,
            eigenvectors=v,
            parities=spectrum.parities,
        )
        with pytest.raises(ValueError):
            parity_labels(doctored)

    @settings(max_examples=15, deadline=None)
    @given(lam=st.floats(min_value=0.01, max_value=0.99))
    def test_random_coupling_labels(self, lam):
        spec = solve_spectrum(ModelParams(omega0=1.0, coupling=lam), make_space(24, 2))
        assert np.all(np.abs(spec.parities) == 1.0)


class TestSectorSolve:
    def test_juddian_crossing(self):
        # omega0 = 1: a +1 and a -1 level cross at E = 1 - lambda^2 when
        # lambda = sqrt(3)/4 (Braak, PRL 107, 100401 (2011))
        lam = np.sqrt(3.0) / 4.0
        params = ModelParams(omega0=1.0, coupling=lam)
        space = make_space(40, 2)
        spec = solve_spectrum(params, space)
        tie = np.flatnonzero(np.abs(spec.eigenvalues - (1.0 - lam**2)) < 1e-12)
        assert len(tie) == 2
        assert sorted(spec.parities[tie]) == [-1.0, 1.0]
        h = build_h_rabi(params, space)
        v = spec.eigenvectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(space.dim))) < 1e-12
        residuals = np.linalg.norm(h @ v - v * spec.eigenvalues, axis=0)
        assert np.max(residuals) <= 1e-12 * np.linalg.norm(h, 2)

    @pytest.mark.parametrize("n_max, omega0, lam", [
        *(pytest.param(40, 1.0, lam, id=str(lam))
          for lam in (0.0, 0.05, 0.3, np.sqrt(3.0) / 4.0, 0.8, 1.5)),
        *((n_max, omega0, lam) for n_max in (1, 2, 3, 80) for omega0 in (0.3, 1.0, 2.7)
          for lam in (0.0, 0.3, 1.5)),
        *((40, omega0, lam) for omega0 in (0.3, 2.7) for lam in (0.0, 0.3, 1.5)),
    ])
    def test_matches_full_space_oracle(self, n_max, omega0, lam):
        params = ModelParams(omega0=omega0, coupling=lam)
        space = make_space(n_max, 2)
        h = build_h_rabi(params, space)
        oracle, oracle_v = np.linalg.eigh(h)
        spec = solve_spectrum(params, space)
        w, v = spec.eigenvalues, spec.eigenvectors
        assert np.all(np.abs(w - oracle) <= 1e-12 * np.maximum(1.0, np.abs(oracle)))
        assert np.max(np.abs(v.conj().T @ v - np.eye(space.dim))) < 1e-12
        residuals = np.linalg.norm(h @ v - v * w, axis=0)
        assert np.max(residuals) <= 1e-12 * np.linalg.norm(h, 2)
        # at lambda = 0, |g,2> and |e,1> are degenerate within the +1 sector
        assert np.all(np.abs(spec.parities) == 1.0)
        for n in (1, 3):
            if n <= n_max:
                want = abs(oracle_v[space.index("e", n), 0])
                assert abs(dressed_amplitude(spec, n)) == pytest.approx(want, abs=1e-12)

    def test_vectorized_helpers_match_loop_reference(self, spectrum):
        space = spectrum.space
        rng = np.random.default_rng(7)
        vectors = spectrum.eigenvectors * np.exp(2j * np.pi * rng.random(space.dim))
        expected = vectors.copy()
        for k in range(vectors.shape[1]):
            col = vectors[:, k]
            pivot = col[np.flatnonzero(np.abs(col) > 1e-8 * np.max(np.abs(col)))[0]]
            expected[:, k] = col * (np.conj(pivot) / abs(pivot))
        # the broadcast complex product may round differently by one unit
        eps = np.finfo(float).eps
        assert np.max(np.abs(rabi_core._fix_phases(vectors) - expected)) <= 2 * eps
        even = np.array([(level == "g") == (n % 2 == 0)
                         for level, n in map(space.level_photon, range(space.dim))])
        weights = np.sum(np.abs(spectrum.eigenvectors[even]) ** 2, axis=0)
        assert np.array_equal(parity_labels(spectrum), np.where(weights >= 0.5, 1.0, -1.0))

    @pytest.mark.parametrize("n_max", [1, 2, 40])
    @pytest.mark.parametrize("lam", [0.0, 0.3, 1.5])
    def test_chains_are_the_parity_blocks(self, lam, n_max):
        params = ModelParams(omega0=1.0, coupling=lam)
        space = make_space(n_max, 2)
        h = build_h_rabi(params, space)
        signs = np.diag(parity_matrix(space))
        assert not np.any(h[np.ix_(signs > 0, signs < 0)])
        for parity in (1, -1):
            diag, off, rows = rabi_core._chain_bands(params.omega0, lam, space, parity)
            chain = rabi_core._chain_matrix(diag, off)
            assert sorted(rows) == list(np.flatnonzero(signs == parity))
            block = h[np.ix_(rows, rows)]
            assert not np.any(block.imag)
            assert np.all(np.abs(chain - block.real) <= 4 * np.spacing(np.abs(block.real)))

    def test_reads_only_the_chains(self, monkeypatch, base_params, space2, spectrum):
        def refuse(params, space):
            raise AssertionError("solve_spectrum built the full-space Hamiltonian")

        monkeypatch.setattr(rabi_core, "build_h_rabi", refuse)
        spec = solve_spectrum(base_params, space2)
        assert np.array_equal(spec.eigenvalues, spectrum.eigenvalues)

    def test_rejects_three_level_space(self):
        with pytest.raises(ValueError):
            solve_spectrum(ModelParams(omega0=1.0, coupling=0.2), make_space(10, 3))


class TestSpectrumConvergence:
    def test_ground_energy_monotone_in_coupling(self):
        energies = [
            solve_spectrum(ModelParams(omega0=1.0, coupling=lam), make_space(40, 2)).ground_energy
            for lam in np.arange(0.0, 0.81, 0.1)
        ]
        assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(energies, energies[1:]))

    @pytest.mark.parametrize("lam", [0.2, 0.5, 0.8])
    def test_truncation_doubling(self, lam):
        params = ModelParams(omega0=1.0, coupling=lam)
        e40 = solve_spectrum(params, make_space(40, 2)).ground_energy
        e80 = solve_spectrum(params, make_space(80, 2)).ground_energy
        assert abs(e40 - e80) < 1e-8
