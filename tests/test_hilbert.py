import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usc_rabi import (
    ModelParams,
    annihilation,
    atomic_op,
    build_h_rabi,
    build_s,
    eigh,
    make_space,
    matrix_exponential,
    solve_xi_eta,
)
from conftest import assert_same_bits, kron_annihilation, kron_atomic_op, random_hermitian


class TestMakeSpace:
    @pytest.mark.parametrize(
        "n_max,levels,dim", [(1, 3, 6), (40, 3, 123), (40, 2, 82)]
    )
    def test_dimensions(self, n_max, levels, dim):
        assert make_space(n_max, levels).dim == dim

    def test_index_bijection(self):
        space = make_space(5, 3)
        seen = set()
        for level in space.levels:
            for n in range(space.n_photon):
                i = space.index(level, n)
                assert space.level_photon(i) == (level, n)
                seen.add(i)
        assert seen == set(range(space.dim))

    def test_rejects_bad_truncation(self):
        with pytest.raises(ValueError):
            make_space(0, 3)

    def test_rejects_bad_level_count(self):
        with pytest.raises(ValueError):
            make_space(10, 4)


class TestAnnihilation:
    def test_lowers_single_photon(self):
        space = make_space(6, 2)
        a = annihilation(space)
        assert np.allclose(a @ space.basis_state("g", 1), space.basis_state("g", 0))

    def test_kills_vacuum(self):
        space = make_space(6, 2)
        a = annihilation(space)
        assert np.allclose(a @ space.basis_state("g", 0), 0.0)

    def test_band_sparsity(self):
        # nonzeros only on the (n, n+1) Fock band within each atomic block
        space = make_space(8, 3)
        a = annihilation(space)
        for i in range(space.dim):
            for j in range(space.dim):
                li, ni = space.level_photon(i)
                lj, nj = space.level_photon(j)
                if a[i, j] != 0:
                    assert li == lj and ni == nj - 1

    def test_commutator_on_interior_block(self):
        # [a, a^dag] = 1 away from the truncation edge (n < n_max)
        space = make_space(12, 2)
        a = annihilation(space)
        comm = a @ a.conj().T - a.conj().T @ a
        interior = [
            space.index(level, n)
            for level in space.levels
            for n in range(space.n_max)
        ]
        block = comm[np.ix_(interior, interior)]
        assert np.max(np.abs(block - np.eye(len(interior)))) < 1e-12

    @pytest.mark.parametrize("levels", [2, 3])
    @pytest.mark.parametrize("n_max", [1, 2, 20])
    def test_bit_identical_to_kronecker_product(self, n_max, levels):
        space = make_space(n_max, levels)
        assert_same_bits(annihilation(space), kron_annihilation(space))


class TestAtomicOp:
    @pytest.mark.parametrize("levels", [2, 3])
    @pytest.mark.parametrize("n_max", [1, 2, 20])
    def test_bit_identical_to_kronecker_product(self, n_max, levels):
        space = make_space(n_max, levels)
        for bra in space.levels:
            for ket in space.levels:
                assert_same_bits(atomic_op(space, bra, ket), kron_atomic_op(space, bra, ket))

    def test_lowering_transition(self):
        space = make_space(4, 2)
        sigma = atomic_op(space, "g", "e")
        assert np.allclose(sigma @ space.basis_state("e", 2), space.basis_state("g", 2))

    def test_inversion_sign_on_ground(self):
        space = make_space(4, 2)
        sz = atomic_op(space, "e", "e") - atomic_op(space, "g", "g")
        ket = space.basis_state("g", 0)
        assert np.allclose(sz @ ket, -ket)

    def test_f_transition(self):
        space = make_space(4, 3)
        op = atomic_op(space, "f", "e")
        assert np.allclose(op @ space.basis_state("e", 1), space.basis_state("f", 1))

    def test_rejects_f_in_two_level_space(self):
        space = make_space(4, 2)
        with pytest.raises(ValueError):
            atomic_op(space, "f", "e")


class TestMatrixExponential:
    def test_zero_scale_is_identity(self):
        rng = np.random.default_rng(3)
        m = random_hermitian(rng, 7)
        assert np.allclose(matrix_exponential(m, scale=0.0), np.eye(7))

    def test_one_by_one_phase(self):
        out = matrix_exponential(np.array([[1.0]]), scale=1j * np.pi)
        assert out.shape == (1, 1)
        assert abs(out[0, 0] + 1.0) < 1e-12

    def test_generator_inverse_pair(self):
        params = ModelParams(omega0=1.0, coupling=0.5)
        space = make_space(40, 2)
        s = build_s(params, solve_xi_eta(params), space)
        prod = matrix_exponential(s, -1.0) @ matrix_exponential(s, 1.0)
        assert np.max(np.abs(prod - np.eye(space.dim))) < 1e-10

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            matrix_exponential(np.array([[np.nan]]))

    def test_rejects_non_antihermitian_generator(self):
        # exp(0.5 * h) of a Hermitian h is not unitary; only anti-Hermitian
        # scale * m has the eigh form
        h = random_hermitian(np.random.default_rng(5), 6)
        with pytest.raises(ValueError):
            matrix_exponential(h, scale=0.5)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), dim=st.integers(2, 16))
    def test_antihermitian_gives_unitary(self, seed, dim):
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, dim)
        u = matrix_exponential(h, scale=-1j * 0.37)
        assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-10


class TestEigh:
    def test_sorted_diagonal(self):
        w, _ = eigh(np.diag([2.0, 1.0, 3.0]))
        assert np.allclose(w, [1.0, 2.0, 3.0])

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite(self, bad):
        # a NaN Hermiticity defect compares false, so the finite check comes first
        with pytest.raises(ValueError, match="non-finite"):
            eigh(np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_decoupled_rabi_ground(self):
        params = ModelParams(omega0=0.7, coupling=0.0)
        w, _ = eigh(build_h_rabi(params, make_space(20, 2)))
        assert w[0] == pytest.approx(-0.35, abs=1e-12)

    def test_ultrastrong_ground_energy(self):
        # reported ground energy -0.633 omega_c at coupling 0.5, omega0 = omega_c
        params = ModelParams(omega0=1.0, coupling=0.5)
        w, _ = eigh(build_h_rabi(params, make_space(40, 2)))
        assert w[0] == pytest.approx(-0.633, abs=1e-3)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), dim=st.integers(2, 20))
    def test_reconstruction(self, seed, dim):
        m = random_hermitian(np.random.default_rng(seed), dim)
        w, v = eigh(m)
        assert np.all(np.diff(w) >= 0)
        assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) < 1e-10
        recon = v @ np.diag(w) @ v.conj().T
        assert np.max(np.abs(recon - m)) < 1e-9 * max(1.0, np.max(np.abs(m)))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), dim=st.integers(1, 40))
    def test_real_tridiagonal_reconstruction(self, seed, dim):
        rng = np.random.default_rng(seed)
        off = rng.normal(size=dim - 1)
        m = np.diag(rng.normal(size=dim)) + np.diag(off, 1) + np.diag(off, -1)
        w, v = eigh(m)
        assert not np.iscomplexobj(v)
        assert np.all(np.diff(w) >= 0)
        assert np.max(np.abs(v.T @ v - np.eye(dim))) < 1e-10
        recon = v @ np.diag(w) @ v.T
        assert np.max(np.abs(recon - m)) < 1e-9 * max(1.0, np.max(np.abs(m)))

    def test_dense_and_complex_input_match_numpy(self):
        rng = np.random.default_rng(11)
        h = random_hermitian(rng, 9)
        for m in (h.real, h):
            w, v = eigh(m)
            want_w, want_v = np.linalg.eigh(m)
            assert v.dtype == want_v.dtype
            assert np.array_equal(w, want_w) and np.array_equal(v, want_v)

    def test_rejects_non_symmetric_tridiagonal(self):
        m = np.diag([1.0, 2.0, 3.0, 4.0]) + np.diag([0.5, 0.5, 0.5], 1)
        with pytest.raises(ValueError):
            eigh(m)
