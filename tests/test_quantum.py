import time
from math import log2

import numpy as np
import pytest

from psdrank import factors, families, linalg, quantum
from psdrank.errors import DomainError, InputError
from psdrank.quantum import CorrelationProtocol, Povm

PROJ2 = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]


def normalized(entry):
    m = entry.matrix / entry.matrix.sum()
    f = factors.scale_rows(entry.factorization, np.full(m.shape[0], 1.0 / entry.matrix.sum()))
    return m, f


class TestPovm:
    def test_accepts_projective(self):
        p = Povm(PROJ2)
        assert p.dim == 2 and len(p) == 2
        assert p.elements.shape == (2, 2, 2) and p.elements.dtype == np.float64

    def test_rejects_wrong_sum(self):
        with pytest.raises(InputError, match="identity"):
            Povm([np.eye(2), np.eye(2)])

    def test_rejects_non_psd_element(self):
        e = np.array([[1.0, 0.0], [0.0, -0.2]])
        with pytest.raises(InputError, match="psd"):
            Povm([e, np.eye(2) - e])

    def test_names_first_non_psd_element(self):
        e = np.array([[1.0, 0.0], [0.0, -0.2]])
        with pytest.raises(InputError, match="element 1 is not psd"):
            Povm([np.zeros((2, 2)), e, np.eye(2) - e])

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            Povm([])

    @pytest.mark.parametrize("elems", [[np.diag([1.0, 0.0]), np.diag([0.0, 1.0, 1.0])],
                                       [np.eye(2), np.ones((1, 2))], np.eye(2)],
                             ids=["mixed-size", "ragged", "one-matrix"])
    def test_rejects_lists_that_do_not_stack(self, elems):
        with pytest.raises(InputError):
            Povm(elems)


class TestToProtocol:
    def test_derangement3(self, catalog):
        entry = next(e for e in catalog if e.name == "derangement3")
        m, f = normalized(entry)
        pr = quantum.to_protocol(f, m)
        assert pr.k == 2
        assert pr.qubits == 1.0
        rep = quantum.verify_protocol(m, pr)
        assert rep.passed
        assert rep.max_residual <= 1e-9

    def test_derangement6_needs_qutrits(self, catalog):
        entry = next(e for e in catalog if e.name == "derangement6")
        m, f = normalized(entry)
        pr = quantum.to_protocol(f, m)
        assert pr.k == 3
        assert pr.qubits == pytest.approx(log2(3))
        assert quantum.verify_protocol(m, pr).passed

    def test_square_slack(self, catalog):
        entry = next(e for e in catalog if e.name == "square-slack")
        m, f = normalized(entry)
        pr = quantum.to_protocol(f, m)
        assert pr.k == 3
        assert quantum.verify_protocol(m, pr).passed

    def test_state_is_pure(self, catalog):
        entry = next(e for e in catalog if e.name == "derangement3")
        m, f = normalized(entry)
        pr = quantum.to_protocol(f, m)
        w = np.linalg.eigvalsh(pr.rho)
        assert w[-1] == pytest.approx(1.0, abs=1e-9)

    def test_uniform_diagonal_gives_entangled_pair(self):
        m = np.diag([0.5, 0.5])
        f = factors.from_nonneg_factorization(m, np.eye(2))
        pr = quantum.to_protocol(f, m)
        psi = np.eye(2).ravel() / np.sqrt(2.0)
        assert np.max(np.abs(pr.rho - np.outer(psi, psi))) <= 1e-9
        for e, p in zip(pr.alice.elements, PROJ2):
            assert np.max(np.abs(e - p)) <= 1e-9

    def test_padded_factors_are_compressed(self, catalog):
        # a zero row and column of padding on one side (or both) leaves a
        # common range of size 2; a padded other side gets a 1 in the new slot
        entry = next(e for e in catalog if e.name == "derangement3")
        m, f = normalized(entry)
        zero = lambda a: np.pad(a, ((0, 1), (0, 1)))
        one = lambda a: linalg.block_diag(a, np.ones((1, 1)))
        for pad_rows, pad_cols in ((zero, zero), (zero, one), (one, zero)):
            f3 = factors.PsdFactorization("real", tuple(map(pad_rows, f.row_factors)),
                                          tuple(map(pad_cols, f.col_factors)))
            assert factors.verify(m, f3).passed
            pr = quantum.to_protocol(f3, m)
            assert pr.k == 2
            assert quantum.verify_protocol(m, pr).passed
            for rescale in (factors.rescale_trace, factors.rescale_john):
                g = rescale(f3, m)
                assert g.k == 3 and factors.verify(m, g).passed

    def test_all_zero_row_factors_rejected(self, catalog):
        entry = next(e for e in catalog if e.name == "derangement3")
        m, f = normalized(entry)
        f0 = factors.PsdFactorization("real", tuple(np.zeros_like(a) for a in f.row_factors),
                                      f.col_factors)
        for build in (quantum.to_protocol, factors.rescale_trace, factors.rescale_john):
            with pytest.raises(DomainError):
                build(f0, m)

    def test_unnormalized_matrix_rejected(self, catalog):
        entry = next(e for e in catalog if e.name == "derangement3")
        with pytest.raises(InputError, match="normalize"):
            quantum.to_protocol(entry.factorization, entry.matrix)

    def test_hermitian_factorization_rejected(self, catalog):
        entry = next(e for e in catalog if e.name == "hermitian-derangement4")
        m = entry.matrix / entry.matrix.sum()
        with pytest.raises(DomainError):
            quantum.to_protocol(entry.factorization, m)

    def test_shape_mismatch(self, catalog):
        entry = next(e for e in catalog if e.name == "derangement3")
        _, f = normalized(entry)
        with pytest.raises(InputError):
            quantum.to_protocol(f, np.full((2, 2), 0.25))


class TestFromProtocol:
    def test_round_trip(self, catalog):
        entry = next(e for e in catalog if e.name == "derangement3")
        m, f = normalized(entry)
        pr = quantum.to_protocol(f, m)
        g = quantum.from_protocol(pr)
        rep = factors.verify(m, g)
        assert rep.passed and rep.max_residual <= 1e-9
        assert g.row_factors[0].shape == (2, 2)  # pure state keeps size k

    def test_product_state_gives_rank_one_table(self):
        p, q = np.array([0.3, 0.7]), np.array([0.6, 0.4])
        rho = np.kron(np.diag(p), np.diag(q))
        pr = CorrelationProtocol(2, Povm(PROJ2), Povm(PROJ2), rho)
        assert np.max(np.abs(pr.outcome_matrix() - np.outer(p, q))) <= 1e-12
        g = quantum.from_protocol(pr)
        assert factors.verify(np.outer(p, q), g).passed

    def test_maximally_entangled_matches_trace_formula(self):
        psi = np.eye(2).ravel() / np.sqrt(2.0)
        e = np.array([[0.7, 0.3], [0.3, 0.3]])
        alice = Povm([e, np.eye(2) - e])
        f = np.array([[0.5, -0.1], [-0.1, 0.2]])
        bob = Povm([f, np.eye(2) - f])
        pr = CorrelationProtocol(2, alice, bob, np.outer(psi, psi))
        out = pr.outcome_matrix()
        for i, a in enumerate(alice.elements):
            for j, b in enumerate(bob.elements):
                assert out[i, j] == pytest.approx(np.trace(a @ b.T) / 2.0, abs=1e-12)
        g = quantum.from_protocol(pr)
        assert factors.verify(out, g).passed

    def test_mixed_state_direct_sum_blocks(self):
        rho = np.kron(np.diag([0.5, 0.5]), np.diag([0.5, 0.5]))
        pr = CorrelationProtocol(2, Povm(PROJ2), Povm(PROJ2), rho)
        g = quantum.from_protocol(pr)
        # four spectral terms, each contributing a 1-dimensional block
        assert g.row_factors[0].shape == (4, 4)
        assert factors.verify(pr.outcome_matrix(), g).passed


def derangement_protocol(n):
    m = families.derangement(n)
    f = factors.scale_rows(factors.derangement_factorization(n), np.full(n, 1.0 / m.sum()))
    return quantum.to_protocol(f, m / m.sum())


def reference_outcome_matrix(pr):
    """The per-entry trace((F_a (x) G_b) rho) loop that outcome_matrix replaces."""
    out = np.empty((len(pr.alice), len(pr.bob)))
    for a, f in enumerate(pr.alice.elements):
        for b, g in enumerate(pr.bob.elements):
            out[a, b] = np.trace(np.kron(f, g) @ pr.rho).real
    return out


def random_povm(rng, k, n, dtype=float):
    """n random psd elements conjugated by the inverse root of their sum."""
    elems = []
    for _ in range(n):
        g = rng.standard_normal((k, k))
        if dtype is complex:
            g = g + 1j * rng.standard_normal((k, k))
        elems.append(g @ g.conj().T)
    inv = linalg.psd_roots(sum(elems)).inv_sqrt
    return Povm([linalg.sym(inv @ e @ inv) for e in elems])


def random_state(rng, k, dtype=float):
    w = rng.standard_normal((k * k, 3))
    if dtype is complex:
        w = w + 1j * rng.standard_normal((k * k, 3))
    rho = w @ w.conj().T
    return rho / np.trace(rho).real


class TestOutcomeMatrix:
    def test_derangement6_matches_reference(self):
        pr = derangement_protocol(6)
        out = pr.outcome_matrix()
        assert out.shape == (6, 6)
        assert np.max(np.abs(out - reference_outcome_matrix(pr))) <= 1e-12

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_random_protocol_matches_reference(self, dtype):
        rng = np.random.default_rng(303)
        k = 3
        pr = CorrelationProtocol(k, random_povm(rng, k, 4, dtype), random_povm(rng, k, 5, dtype),
                                 random_state(rng, k, dtype))
        assert np.iscomplexobj(pr.rho) == (dtype is complex)
        out = pr.outcome_matrix()
        assert out.shape == (4, 5) and out.dtype == np.float64
        assert np.max(np.abs(out - reference_outcome_matrix(pr))) <= 1e-12
        assert out.sum() == pytest.approx(1.0, abs=1e-12)


class TestVerifyProtocol:
    def test_detects_wrong_table(self, catalog):
        entry = next(e for e in catalog if e.name == "derangement3")
        m, f = normalized(entry)
        pr = quantum.to_protocol(f, m)
        wrong = m.copy()
        wrong[0, 0] += 0.01
        rep = quantum.verify_protocol(wrong, pr)
        assert not rep.passed
        assert rep.max_residual == pytest.approx(0.01, rel=1e-4)

    def test_report_string_mentions_verdict(self, catalog):
        entry = next(e for e in catalog if e.name == "derangement3")
        m, f = normalized(entry)
        rep = quantum.verify_protocol(m, quantum.to_protocol(f, m))
        assert "pass" in str(rep)

    def test_shape_guard(self, catalog):
        entry = next(e for e in catalog if e.name == "derangement3")
        m, f = normalized(entry)
        pr = quantum.to_protocol(f, m)
        with pytest.raises(InputError):
            quantum.verify_protocol(np.eye(4), pr)

    def test_outcome_mass_is_one(self, catalog):
        entry = next(e for e in catalog if e.name == "derangement6")
        m, f = normalized(entry)
        pr = quantum.to_protocol(f, m)
        assert pr.outcome_matrix().sum() == pytest.approx(1.0, abs=1e-9)
        assert np.trace(pr.rho) == pytest.approx(1.0, abs=1e-12)


class TestSample:
    def test_point_mass(self):
        m = np.array([[1.0]])
        pr = quantum.to_protocol(factors.from_nonneg_factorization(m, [[1.0]]), m)
        table = quantum.sample(pr, 50, seed=0)
        assert table.shape == (1, 1) and table[0, 0] == 50

    def test_seed_determinism(self, catalog):
        entry = next(e for e in catalog if e.name == "derangement3")
        m, f = normalized(entry)
        pr = quantum.to_protocol(f, m)
        a = quantum.sample(pr, 10000, seed=42)
        b = quantum.sample(pr, 10000, seed=42)
        assert np.array_equal(a, b)
        c = quantum.sample(pr, 10000, seed=43)
        assert not np.array_equal(a, c)

    def test_zero_entries_never_drawn(self, catalog):
        entry = next(e for e in catalog if e.name == "derangement3")
        m, f = normalized(entry)
        pr = quantum.to_protocol(f, m)
        table = quantum.sample(pr, 100000, seed=1)
        assert table[0, 0] == table[1, 1] == table[2, 2] == 0
        assert table.sum() == 100000

    def test_frequencies_approach_table(self, catalog):
        entry = next(e for e in catalog if e.name == "derangement3")
        m, f = normalized(entry)
        pr = quantum.to_protocol(f, m)
        n = 200000
        table = quantum.sample(pr, n, seed=7)
        tv = 0.5 * np.abs(table / n - m).sum()
        assert tv <= 0.01

    def test_negative_count_rejected(self, catalog):
        entry = next(e for e in catalog if e.name == "derangement3")
        m, f = normalized(entry)
        pr = quantum.to_protocol(f, m)
        with pytest.raises(InputError):
            quantum.sample(pr, -1)

    @pytest.mark.parametrize("count", [2.5, "5"])
    def test_non_integer_count_rejected(self, catalog, count):
        entry = next(e for e in catalog if e.name == "derangement3")
        m, f = normalized(entry)
        pr = quantum.to_protocol(f, m)
        with pytest.raises(InputError, match="integer"):
            quantum.sample(pr, count)

    def test_zero_count_gives_empty_table(self, catalog):
        entry = next(e for e in catalog if e.name == "derangement3")
        m, f = normalized(entry)
        table = quantum.sample(quantum.to_protocol(f, m), 0, seed=3)
        assert table.shape == (3, 3) and not table.any()

    # derangement(4)'s diagonal comes out of outcome_matrix as rounding noise up
    # to 8e-18, which 10^18 draws would hit without the rounding floor
    @pytest.mark.parametrize("n, count", [(3, 10 ** 12), (4, 10 ** 18)])
    def test_huge_count_costs_no_more_than_the_cells(self, n, count):
        pr = derangement_protocol(n)
        start = time.perf_counter()
        table = quantum.sample(pr, count, seed=1)
        assert time.perf_counter() - start < 1.0
        assert int(table.sum()) == count
        assert not np.diag(table).any()


class TestStateValidation:
    def test_trace_enforced(self):
        with pytest.raises(InputError, match="trace"):
            CorrelationProtocol(2, Povm(PROJ2), Povm(PROJ2), np.eye(4))

    def test_psd_enforced(self):
        rho = np.diag([0.6, 0.6, -0.1, -0.1])
        with pytest.raises(InputError, match="psd"):
            CorrelationProtocol(2, Povm(PROJ2), Povm(PROJ2), rho)

    def test_dimension_enforced(self):
        with pytest.raises(InputError):
            CorrelationProtocol(2, Povm(PROJ2), Povm(PROJ2), np.eye(2) / 2.0)
