import numpy as np
import pytest

from psdrank import linalg
from psdrank.errors import DomainError, InputError
from psdrank.families import derangement, euclidean_distance

from conftest import random_psd


class TestNumericalRank:
    def test_derangement3_has_full_rank(self):
        assert linalg.numerical_rank(derangement(3)) == 3

    def test_zero_matrix(self):
        assert linalg.numerical_rank(np.zeros((2, 2))) == 0

    def test_squared_distance_matrix_rank_three(self):
        assert linalg.numerical_rank(euclidean_distance(8)) == 3

    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            linalg.numerical_rank(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_near_rank_deficiency_respects_tolerance(self):
        m = np.diag([1.0, 1e-12])
        assert linalg.numerical_rank(m) == 1
        assert linalg.numerical_rank(m, tol=1e-14) == 2


class TestEigExtremes:
    def test_matches_per_matrix_eigenvalues(self):
        rng = np.random.default_rng(8)
        real = np.stack([random_psd(rng, 4, rank=r) - 0.3 * np.eye(4) for r in (1, 2, 4)])
        g = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
        herm = g + g.conj().transpose(0, 2, 1)
        for stack in (real, herm):
            lo, hi = linalg.eig_extremes(stack)
            for a, l, h in zip(stack, lo, hi):
                assert l == pytest.approx(linalg.min_eig(a), abs=1e-12)
                assert h == pytest.approx(np.linalg.eigvalsh(a)[-1], abs=1e-12)

    def test_symmetry_rule_of_min_eig_names_first_bad_index(self):
        # the min_eig rule: asymmetry above 10 * tol * (1 + max |entry|) fails
        ok = np.eye(2)
        slight = np.array([[1.0, 1e-8], [0.0, 1.0]])
        bad = np.array([[1.0, 1e-6], [0.0, 1.0]])
        linalg.min_eig(slight)
        linalg.eig_extremes(np.stack([ok, slight]))
        with pytest.raises(DomainError):
            linalg.min_eig(bad)
        with pytest.raises(DomainError, match="matrix 2 is not symmetric"):
            linalg.eig_extremes(np.stack([ok, slight, bad, bad]))

    def test_empty_and_nonfinite(self):
        lo, hi = linalg.eig_extremes(np.zeros((3, 0, 0)))
        assert lo.tolist() == hi.tolist() == [0.0, 0.0, 0.0]
        lo, hi = linalg.eig_extremes(np.zeros((0, 2, 2)))
        assert lo.shape == hi.shape == (0,)
        with pytest.raises(InputError):
            linalg.eig_extremes(np.stack([np.eye(2), np.full((2, 2), np.nan)]))
        with pytest.raises(InputError):
            linalg.eig_extremes(np.eye(2))
        with pytest.raises(DomainError):
            linalg.eig_extremes(np.zeros((2, 2, 3)))


class TestCheckSymmetric:
    def test_stack_matches_matrix_by_matrix(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 3, 3))
        a = a + a.transpose(0, 2, 1) + 1e-12 * rng.standard_normal((4, 3, 3))
        stack = linalg.check_symmetric(a)
        assert stack.shape == a.shape
        for s, m in zip(stack, a):
            assert np.array_equal(s, linalg.check_symmetric(m))
            assert np.array_equal(s, linalg.sym(m))
        assert np.array_equal(linalg.sym(a), stack)

    def test_tol_applies_to_every_matrix(self):
        slight = np.stack([np.eye(2), [[1.0, 1e-8], [0.0, 1.0]]])
        linalg.check_symmetric(slight, tol=1e-9)
        with pytest.raises(DomainError, match="matrix 1 is not symmetric"):
            linalg.check_symmetric(slight, tol=1e-11)
        with pytest.raises(DomainError, match="^matrix is not symmetric"):
            linalg.check_symmetric(slight[1], tol=1e-11)

    def test_a_ragged_list_is_an_input_error(self):
        with pytest.raises(InputError):
            linalg.check_symmetric([np.eye(2), np.eye(3)])

    @pytest.mark.parametrize("fn", [linalg.min_eig, linalg.psd_roots, linalg.vecm])
    def test_single_matrix_functions_refuse_a_stack(self, fn):
        with pytest.raises(InputError, match="2-dimensional"):
            fn(np.stack([np.eye(2)] * 3))


class TestVecm:
    def test_identity(self):
        assert np.allclose(linalg.vecm(np.eye(2)), [1.0, 1.0, 0.0])

    def test_all_ones(self):
        assert np.allclose(linalg.vecm(np.ones((2, 2))), [1.0, 1.0, np.sqrt(2.0)])

    def test_orthogonal_factor_pair_maps_to_orthogonal_vectors(self):
        a = np.array([[1.0, -1.0], [-1.0, 1.0]])
        b = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert abs(np.dot(linalg.vecm(a), linalg.vecm(b))) < 1e-12

    def test_isometry_on_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = random_psd(rng, 4)
            b = rng.standard_normal((4, 4))
            b = b + b.T
            direct = float(np.sum(a * b))
            via = float(np.dot(linalg.vecm(a), linalg.vecm(b)))
            assert abs(direct - via) <= 1e-12 * max(1.0, abs(direct))


class TestPsdRoots:
    def test_identity(self):
        r = linalg.psd_roots(np.eye(2))
        for out in (r.sqrt, r.inv_sqrt, r.pinv):
            assert np.allclose(out, np.eye(2))

    def test_diagonal(self):
        r = linalg.psd_roots(np.diag([4.0, 9.0]))
        assert np.allclose(r.sqrt, np.diag([2.0, 3.0]))
        assert np.allclose(r.inv_sqrt, np.diag([0.5, 1.0 / 3.0]))
        assert np.allclose(r.pinv, np.diag([0.25, 1.0 / 9.0]))

    def test_rank_one_square_reproduces_input(self):
        m = np.ones((2, 2))
        s = linalg.psd_roots(m).sqrt
        assert np.max(np.abs(s @ s - m)) <= 1e-12

    def test_rank_one_half_inverse_acts_on_range(self):
        m = np.ones((2, 2))
        si = linalg.psd_roots(m).inv_sqrt
        # si * m * si is the projector onto the range of m
        proj = si @ m @ si
        assert np.allclose(proj, m / 2.0)

    def test_rejects_indefinite(self):
        with pytest.raises(DomainError):
            linalg.psd_roots(np.array([[0.0, 1.0], [1.0, 0.0]]))


class TestBlockDiag:
    def test_layout_and_common_dtype(self):
        out = linalg.block_diag(np.eye(1), 2.0 * np.ones((2, 2)), np.array([[1j]]))
        expected = np.diag([1.0, 0.0, 0.0, 1j])
        expected[1:3, 1:3] = 2.0
        assert out.dtype == np.complex128 and np.array_equal(out, expected)

    def test_stacks_are_padded_matrix_by_matrix(self):
        a = np.arange(8.0).reshape(2, 2, 2)
        b = np.arange(2.0).reshape(2, 1, 1)
        out = linalg.block_diag(a, np.ones((1, 1)), b)
        assert out.shape == (2, 4, 4)
        for o, x, y in zip(out, a, b):
            assert np.array_equal(o, linalg.block_diag(x, np.ones((1, 1)), y))


def test_psd_pairs_have_nonnegative_inner_product():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = random_psd(rng, 3)
        b = random_psd(rng, 3, rank=1)
        assert float(np.sum(a * b)) >= -1e-9


def test_orthogonal_psd_pair_has_zero_product():
    # trace orthogonality of psd matrices forces the actual product to vanish
    a = np.diag([1.0, 0.0, 2.0])
    b = np.diag([0.0, 3.0, 0.0])
    assert float(np.sum(a * b)) == 0.0
    assert linalg.orth_defect(a, b) == 0.0

    v = np.array([1.0, 1.0])
    w = np.array([1.0, -1.0])
    a, b = np.outer(v, v), np.outer(w, w)
    assert abs(float(np.sum(a * b))) < 1e-12
    assert linalg.orth_defect(a, b) < 1e-12


def test_rank_factorization_roundtrip():
    rng = np.random.default_rng(8)
    m = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 5))
    u, v = linalg.rank_factorization(m)
    assert u.shape == (4, 2) and v.shape == (2, 5)
    assert np.max(np.abs(u @ v - m)) < 1e-10


def test_exact_int_rank_matches_float_rank():
    rows = [[1, 0, 1], [0, 1, -2], [1, 1, -1]]
    assert linalg.exact_int_rank(rows) == 2
    assert linalg.exact_int_rank([[0, 0], [0, 0]]) == 0
    assert linalg.exact_int_rank([[2, 4], [1, 2]]) == 1
