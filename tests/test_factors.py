import tracemalloc

import numpy as np
import pytest

from psdrank import factors, linalg
from psdrank.errors import DomainError, InputError
from psdrank.families import circulant3, derangement, euclidean_distance

from conftest import random_factorization


TOL = 1e-9


def all_factors(f):
    """Row factors then column factors, as one stack."""
    return np.concatenate([f.row_factors, f.col_factors])


class TestVerify:
    def test_catalog_passes(self, catalog_entry):
        report = factors.verify(catalog_entry.matrix, catalog_entry.factorization, tol=TOL)
        assert report.passed, f"{catalog_entry.name}: {report}"
        assert report.max_residual <= TOL

    def test_perturbed_entry_fails(self, catalog):
        entry = catalog[0]
        bad = entry.matrix.copy()
        bad[0, 1] += 1e-3
        report = factors.verify(bad, entry.factorization, tol=TOL)
        assert not report.passed
        assert report.max_residual == pytest.approx(1e-3)

    def test_indefinite_factor_fails_even_with_matching_values(self):
        # <diag(1,-1), I> = 0 entrywise but the left factor leaves the cone
        f = factors.PsdFactorization(
            "real", (np.diag([1.0, -1.0]),), (np.eye(2),)
        )
        report = factors.verify(np.array([[0.0]]), f, tol=TOL)
        assert not report.passed
        assert report.max_psd_violation == pytest.approx(1.0)

    def test_zero_entries_force_vanishing_products(self, catalog_entry):
        report = factors.verify(catalog_entry.matrix, catalog_entry.factorization, tol=TOL)
        assert report.max_orth_defect <= report.orth_bound

    def test_shape_mismatch(self, catalog):
        with pytest.raises(InputError):
            factors.verify(np.zeros((2, 2)), catalog[0].factorization)

    @pytest.mark.parametrize("case", ["disjoint-supports", "zero-matrix"])
    def test_chunked_orthogonality_check_matches_one_chunk(self, case, monkeypatch):
        rng = np.random.default_rng(7)
        k = 20
        if case == "disjoint-supports":
            # 0/1 vectors with two ones each: most pairs miss, and verify passes
            pick = lambda n: np.stack([rng.permutation(k) < 2 for _ in range(n)]).astype(float)
            a, b = pick(60), pick(60)
            m, f = a @ b.T, factors.from_nonneg_factorization(a, b)
        else:
            m, f = np.zeros((40, 40)), random_factorization(rng, 40, 40, k)[1]
        zeros = np.count_nonzero(m == 0)
        assert zeros > 2 * factors.ORTH_CHUNK // k ** 2
        chunked = factors.verify(m, f)
        monkeypatch.setattr(factors, "ORTH_CHUNK", 2 ** 40)
        whole = factors.verify(m, f)
        assert chunked.passed is whole.passed is (case == "disjoint-supports")
        assert chunked == whole

    def test_orthogonality_check_memory_is_bounded(self):
        # 10 000 zero entries against k = 20 factors: gathered at once, the
        # factor pairs alone would take 2 x 32 MB
        f = random_factorization(np.random.default_rng(3), 100, 100, 20)[1]
        tracemalloc.start()
        try:
            report = factors.verify(np.zeros((100, 100)), f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not report.passed
        assert peak < 20 * 2 ** 20


class TestFromNonneg:
    def test_identity_from_basis_vectors(self):
        e = np.eye(3)
        f = factors.from_nonneg_factorization(e, e)
        assert f.k == 3
        assert factors.verify(np.eye(3), f).passed
        for a in f.row_factors:
            assert np.count_nonzero(a - np.diag(np.diag(a))) == 0

    def test_single_row(self):
        f = factors.from_nonneg_factorization([[1.0, 1.0]],
                                              [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert factors.verify(np.array([[1.0, 1.0, 2.0]]), f).passed

    def test_circulant_against_identity_columns(self):
        m = circulant3(1.0, 2.0, 3.0)
        f = factors.from_nonneg_factorization(m, np.eye(3))
        assert factors.verify(m, f).passed

    def test_rejects_negative(self):
        with pytest.raises(InputError):
            factors.from_nonneg_factorization([[1.0, -1.0]], [[1.0, 1.0]])


class TestFromHadamardSqrt:
    def test_signed_root_of_rank_three_matrix(self):
        n = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, -2.0], [1.0, 1.0, -1.0]])
        f = factors.from_hadamard_sqrt(n)
        assert f.k == 2
        assert factors.verify(n * n, f).passed
        for g in all_factors(f):
            assert linalg.numerical_rank(g) <= 1

    def test_identity(self):
        f = factors.from_hadamard_sqrt(np.eye(2))
        assert factors.verify(np.eye(2), f).passed

    def test_linear_root_of_squared_distances(self):
        i = np.arange(5, dtype=float)
        n = i[:, None] - i[None, :]
        f = factors.from_hadamard_sqrt(n)
        assert f.k == 2
        assert factors.verify(euclidean_distance(5), f).passed


class TestDirectSum:
    def test_two_singletons(self):
        one = factors.from_nonneg_factorization([[1.0]], [[1.0]])
        f = factors.direct_sum(one, one)
        assert f.k == 2
        assert factors.verify(np.eye(2), f).passed

    def test_block_diagonal_derangements(self, catalog):
        d3 = catalog[0]
        f = factors.direct_sum(d3.factorization, d3.factorization)
        target = np.zeros((6, 6))
        target[:3, :3] = d3.matrix
        target[3:, 3:] = d3.matrix
        report = factors.verify(target, f, tol=1e-12)
        assert report.passed
        assert f.k == 4

    def test_empty_identity_element(self, catalog):
        empty = factors.PsdFactorization("real", (), ())
        assert empty.k == 0 and empty.shape == (0, 0)
        assert empty.row_factors.shape == empty.col_factors.shape == (0, 0, 0)
        f = factors.direct_sum(catalog[0].factorization, empty)
        assert f is catalog[0].factorization
        assert factors.direct_sum(empty, f) is f

    def test_field_mismatch(self, catalog):
        with pytest.raises(InputError):
            factors.direct_sum(catalog[0].factorization, catalog[2].factorization)

    def test_hermitian_blocks(self):
        h, m = factors.hermitian_derangement4(), derangement(4)
        f = factors.direct_sum(h, h)
        assert f.field == "hermitian"
        assert all_factors(f).dtype == np.complex128
        assert factors.verify(linalg.block_diag(m, m), f).passed


class TestAdd:
    def test_add_zero(self, catalog):
        d3 = catalog[0]
        zero = factors.make_factorization(
            [np.zeros((1, 1))] * 3, [np.zeros((1, 1))] * 3
        )
        f = factors.add(d3.factorization, zero)
        assert factors.verify(d3.matrix, f).passed

    def test_doubling(self, catalog):
        d3 = catalog[0]
        f = factors.add(d3.factorization, d3.factorization)
        assert factors.verify(2.0 * d3.matrix, f).passed
        assert f.k == 4

    def test_diagonal_circulant_pieces(self):
        m1, m2 = circulant3(0.0, 1.0, 0.0), circulant3(0.0, 0.0, 1.0)
        f1 = factors.from_nonneg_factorization(m1, np.eye(3))
        f2 = factors.from_nonneg_factorization(m2, np.eye(3))
        f = factors.add(f1, f2)
        assert factors.verify(circulant3(0.0, 1.0, 1.0), f).passed

    def test_shape_mismatch(self, catalog):
        with pytest.raises(InputError):
            factors.add(catalog[0].factorization, catalog[3].factorization)

    def test_hermitian_doubling(self):
        h = factors.hermitian_derangement4()
        f = factors.add(h, h)
        assert f.field == "hermitian" and f.k == 4
        assert all_factors(f).dtype == np.complex128
        assert factors.verify(2.0 * derangement(4), f).passed


class TestComposeRight:
    def test_identity_keeps_matrix(self, catalog):
        d3 = catalog[0]
        f = factors.compose_right(d3.factorization, np.eye(3))
        assert factors.verify(d3.matrix, f).passed
        assert f.k == d3.factorization.k

    def test_ones_column_sums_rows(self, catalog):
        d3 = catalog[0]
        f = factors.compose_right(d3.factorization, np.ones((3, 1)))
        assert factors.verify(np.full((3, 1), 2.0), f).passed
        expected = sum(d3.factorization.col_factors)
        assert np.allclose(f.col_factors[0], expected)

    def test_scaling(self, catalog):
        d3 = catalog[0]
        f = factors.compose_right(d3.factorization, 2.0 * np.eye(3))
        assert factors.verify(2.0 * d3.matrix, f).passed

    def test_rejects_negative(self, catalog):
        with pytest.raises(InputError):
            factors.compose_right(catalog[0].factorization, -np.eye(3))


class TestKron:
    def test_scalar_identity_factor(self, catalog):
        d3 = catalog[0]
        one = factors.from_nonneg_factorization([[1.0]], [[1.0]])
        f = factors.kron_factorization(one, d3.factorization)
        assert factors.verify(d3.matrix, f).passed

    def test_derangement_square(self, catalog):
        d3 = catalog[0]
        f = factors.kron_factorization(d3.factorization, d3.factorization)
        assert f.k == 4
        report = factors.verify(np.kron(d3.matrix, d3.matrix), f, tol=1e-10)
        assert report.passed

    def test_diagonal_identities(self):
        i2 = factors.from_nonneg_factorization(np.eye(2), np.eye(2))
        f = factors.kron_factorization(i2, i2)
        assert factors.verify(np.eye(4), f).passed


class TestHermitianEmbed:
    def test_real_valued_hermitian_input(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
        f = factors.make_factorization([a], [a], "hermitian")
        g = factors.hermitian_embed(f)
        assert g.field == "real"
        assert g.k == 4
        assert factors.verify(np.array([[10.0]]), g).passed

    def test_derangement4(self, catalog):
        d4 = catalog[2]
        g = factors.hermitian_embed(d4.factorization)
        assert g.field == "real" and g.k == 4
        assert factors.verify(d4.matrix, g, tol=TOL).passed

    def test_zero_entry_stays_zero(self, catalog):
        d4 = catalog[2]
        g = factors.hermitian_embed(d4.factorization)
        val = float(np.sum(g.row_factors[3] * g.col_factors[3]))
        assert abs(val) < 1e-12

    def test_inner_products_preserved_on_random_pairs(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            x = g @ g.conj().T
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            y = g @ g.conj().T
            f = factors.make_factorization([x], [y], "hermitian")
            emb = factors.hermitian_embed(f)
            direct = float(np.real(np.trace(x @ y)))
            via = float(np.sum(emb.row_factors[0] * emb.col_factors[0]))
            assert abs(direct - via) <= 1e-12 * max(1.0, abs(direct))

    def test_rejects_real_field(self, catalog):
        with pytest.raises(DomainError):
            factors.hermitian_embed(catalog[0].factorization)


class TestRescaleTrace:
    def test_derangement_row_sum_identity(self, catalog):
        d3 = catalog[0]
        g = factors.rescale_trace(d3.factorization, d3.matrix)
        total = sum(g.row_factors)
        assert np.max(np.abs(total - np.eye(2))) <= TOL
        for b in g.col_factors:
            assert abs(np.trace(b) - 2.0) <= TOL
        assert factors.verify(d3.matrix, g).passed

    def test_normalized_input_unchanged(self):
        rows = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        cols = [np.diag([0.5, 0.5])] * 2
        f = factors.make_factorization(rows, cols)
        g = factors.rescale_trace(f, f.matrix())
        assert np.max(np.abs(all_factors(f) - all_factors(g))) <= 1e-12

    def test_identity_columns(self):
        f = factors.from_nonneg_factorization(np.eye(2), np.eye(2))
        g = factors.rescale_trace(f, np.eye(2))
        for b in g.col_factors:
            assert abs(np.trace(b) - 1.0) <= TOL

    def test_zero_column_keeps_zero_factor(self):
        m = np.array([[1.0, 0.0], [1.0, 0.0]])
        f = factors.from_nonneg_factorization([[1.0], [1.0]], [[1.0], [0.0]])
        g = factors.rescale_trace(f, m)
        assert np.max(np.abs(g.col_factors[1])) <= 1e-12
        assert factors.verify(m, g).passed

    def test_all_zero_rows_rejected(self):
        f = factors.PsdFactorization(
            "real", (np.zeros((2, 2)),), (np.eye(2),)
        )
        with pytest.raises(DomainError):
            factors.rescale_trace(f, np.array([[0.0]]))

    def test_inner_products_preserved(self, catalog_entry):
        f = catalog_entry.factorization
        g = factors.rescale_trace(f, catalog_entry.matrix)
        assert np.max(np.abs(g.matrix() - catalog_entry.matrix)) <= TOL


class TestRescaleJohn:
    def bound(self, m, k):
        return np.sqrt(k * np.max(np.abs(m))) * (1.0 + 1e-6)

    def lam_max(self, f):
        return max(float(np.linalg.eigvalsh(g)[-1]) for g in all_factors(f))

    def test_skewed_derangement(self, catalog):
        d3 = catalog[0]
        f = d3.factorization
        skew = factors.make_factorization(
            [1000.0 * a for a in f.row_factors],
            [b / 1000.0 for b in f.col_factors],
        )
        g = factors.rescale_john(skew, d3.matrix)
        assert factors.verify(d3.matrix, g).passed
        assert self.lam_max(g) <= self.bound(d3.matrix, 2)

    def test_skewed_identity_diagonal(self):
        rows = [np.diag(np.eye(3)[i] * [100.0, 1.0, 1.0][i]) for i in range(3)]
        cols = [np.diag(np.eye(3)[i] / [100.0, 1.0, 1.0][i]) for i in range(3)]
        f = factors.make_factorization(rows, cols)
        g = factors.rescale_john(f, np.eye(3))
        assert factors.verify(np.eye(3), g).passed
        assert self.lam_max(g) <= self.bound(np.eye(3), 3)

    def test_already_balanced_stays_within_bound(self, catalog):
        d3 = catalog[0]
        g = factors.rescale_john(d3.factorization, d3.matrix)
        assert self.lam_max(g) <= self.bound(d3.matrix, 2)
        assert factors.verify(d3.matrix, g).passed

    def test_inner_products_preserved(self, catalog):
        entry = catalog[4]
        g = factors.rescale_john(entry.factorization, entry.matrix)
        assert np.max(np.abs(g.matrix() - entry.matrix)) <= TOL

    def test_large_factors(self):
        # the ellipsoid shape matrix then has eigenvalues near 1e-11, far
        # below any cutoff relative to its entries; all of them must count
        f = factors.derangement_factorization(6)
        big = factors.make_factorization([1e11 * a for a in f.row_factors], f.col_factors)
        m = 1e11 * derangement(6)
        g = factors.rescale_john(big, m)
        assert factors.verify(m, g).passed
        assert self.lam_max(g) <= self.bound(m, 3)


class TestRank1Expand:
    def test_rank_one_input_is_sparse(self, catalog):
        sq = catalog[3]  # all factors rank one
        out = factors.rank1_expand(sq.factorization)
        k = sq.factorization.k
        p, q = sq.factorization.shape
        assert out.matrix.shape == (p * k, q * k)
        # one nonzero slot per block, carrying the full entry
        for i in range(p):
            for j in range(q):
                block = out.matrix[i * k:(i + 1) * k, j * k:(j + 1) * k]
                assert np.count_nonzero(np.abs(block) > 1e-12) <= 1

    def test_derangement_block_sums(self, catalog):
        d3 = catalog[0]
        out = factors.rank1_expand(d3.factorization)
        k = 2
        sums = out.matrix.reshape(3, k, 3, k).sum(axis=(1, 3))
        assert np.max(np.abs(sums - d3.matrix)) <= TOL

    def test_identity_pattern(self):
        f = factors.from_nonneg_factorization(np.eye(2), np.eye(2))
        out = factors.rank1_expand(f)
        sums = out.matrix.reshape(2, 2, 2, 2).sum(axis=(1, 3))
        assert np.max(np.abs(sums - np.eye(2))) <= TOL
        assert set(np.round(out.matrix.ravel(), 12)) <= {0.0, 1.0}

    def test_witness_is_a_hadamard_root_of_low_rank(self, catalog):
        d3 = catalog[0]
        out = factors.rank1_expand(d3.factorization)
        assert np.max(np.abs(out.sqrt_witness ** 2 - out.matrix)) <= 1e-12
        assert linalg.numerical_rank(out.sqrt_witness) <= d3.factorization.k

    def test_expansion_factorization_verifies(self, catalog):
        d3 = catalog[0]
        out = factors.rank1_expand(d3.factorization)
        assert factors.verify(out.matrix, out.factorization).passed


class TestExplicitFamilies:
    def test_generator_matches_catalog_for_n3(self, catalog):
        f = factors.derangement_factorization(3)
        ref = catalog[0].factorization
        assert np.array_equal(all_factors(f), all_factors(ref))

    def test_generator_matches_catalog_for_n6(self, catalog):
        f = factors.derangement_factorization(6)
        ref = catalog[1].factorization
        assert all_factors(f).shape == all_factors(ref).shape
        assert np.max(np.abs(all_factors(f) - all_factors(ref))) <= 1e-15

    def test_generator_covers_intermediate_sizes(self):
        for n in range(2, 12):
            f = factors.derangement_factorization(n)
            assert factors.verify(derangement(n), f).passed

    def test_generator_refuses_non_integral_size(self):
        assert factors.derangement_factorization(3.0).k == 2
        with pytest.raises(InputError, match="integer"):
            factors.derangement_factorization(2.5)

    def test_hermitian4_matches_catalog(self, catalog):
        f = factors.hermitian_derangement4()
        ref = catalog[2].factorization
        assert all_factors(f).shape == all_factors(ref).shape
        assert np.max(np.abs(all_factors(f) - all_factors(ref))) <= 1e-15


def test_random_constructions_verify():
    rng = np.random.default_rng(17)
    for _ in range(10):
        m, f = random_factorization(rng, 3, 4, 2)
        assert factors.verify(m, f, tol=TOL).passed


def test_scale_rows_and_cols_track_the_matrix(catalog):
    d3 = catalog[0]
    f = factors.scale_rows(d3.factorization, [1.0, 2.0, 3.0])
    assert factors.verify(np.diag([1.0, 2.0, 3.0]) @ d3.matrix, f).passed
    g = factors.scale_cols(d3.factorization, [1.0, 2.0, 3.0])
    assert factors.verify(d3.matrix @ np.diag([1.0, 2.0, 3.0]), g).passed


class TestStacks:
    """Factor lists are (n, k, k) arrays, checked once per list."""

    @pytest.mark.parametrize("rows, cols", [
        ([np.eye(2), np.eye(3)], [np.eye(2)]),
        ([np.eye(2)], [np.eye(3)]),
        ([np.eye(2), np.ones((1, 2))], [np.eye(2)]),
        (np.eye(2), [np.eye(2)]),
    ], ids=["mixed-size-list", "sides-differ", "ragged", "one-matrix"])
    def test_lists_that_do_not_stack_are_input_errors(self, rows, cols):
        with pytest.raises(InputError):
            factors.make_factorization(rows, cols)
        with pytest.raises(InputError):
            factors.make_factorization(cols, rows)

    def test_an_empty_side_keeps_the_factor_size(self):
        f = factors.make_factorization([], [np.eye(2), np.ones((2, 2))])
        assert f.k == 2 and f.shape == (0, 2)
        assert f.row_factors.shape == (0, 2, 2) and f.matrix().shape == (0, 2)

    def test_the_one_check_names_the_first_bad_factor(self):
        bad = np.array([[1.0, 1e-3], [0.0, 1.0]])
        with pytest.raises(DomainError, match="column factor 2 is not symmetric"):
            factors.make_factorization([np.eye(2)], [np.eye(2), np.eye(2), bad, bad])

    def test_constructors_return_stacks(self, catalog):
        d3, h4 = catalog[0], factors.hermitian_derangement4()
        f, m = d3.factorization, d3.matrix
        padded = factors.PsdFactorization("real", np.pad(f.row_factors, ((0, 0), (0, 1), (0, 1))),
                                          np.pad(f.col_factors, ((0, 0), (0, 1), (0, 1))))
        built = [
            factors.make_factorization([], [np.eye(2)]),
            factors.make_factorization([np.eye(2)], [np.eye(2)], "hermitian"),
            factors.from_nonneg_factorization(np.eye(3), np.ones((2, 3))),
            factors.from_hadamard_sqrt(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, -2.0]])),
            factors.direct_sum(f, f), factors.direct_sum(h4, h4),
            factors.add(f, f), factors.add(h4, h4),
            factors.compose_right(f, np.ones((3, 2))), factors.compose_right(h4, np.eye(4)),
            factors.kron_factorization(f, f), factors.kron_factorization(h4, h4),
            factors.hermitian_embed(h4),
            factors.rescale_trace(f, m), factors.rescale_trace(h4),
            factors.rescale_trace(padded, m), factors.rescale_john(padded, m),
            factors.compress_to_common_span(padded, TOL)[0],
            factors.rank1_expand(f).factorization, factors.rank1_expand(h4).factorization,
            factors.scale_rows(f, [1.0, 2.0, 3.0]), factors.scale_cols(h4, np.ones(4)),
            factors.transpose(h4), factors.derangement_factorization(5),
        ]
        for g in built:
            p, q = g.shape
            dtype = np.complex128 if g.field == "hermitian" else np.float64
            assert g.row_factors.shape == (p, g.k, g.k) and g.col_factors.shape == (q, g.k, g.k)
            assert g.row_factors.dtype == g.col_factors.dtype == dtype


def test_transpose_swaps_sides(catalog):
    d3 = catalog[0]
    f = factors.transpose(d3.factorization)
    assert factors.verify(d3.matrix.T, f).passed
