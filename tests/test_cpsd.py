import numpy as np
import pytest

from psdrank import cpsd, families
from psdrank.cpsd import SymmetricGram
from psdrank.errors import InputError

# frozen pairing of the separating form with the cos^2 matrix: 5 - 2.5*sqrt(5)
COS2_HORN_VALUE = -0.5901699437494745


def cos2_gram(n=5):
    """Rank-one projectors of the planar unit vectors behind the cos^2 entries."""
    angles = 4.0 * np.pi * np.arange(n) / n
    us = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return SymmetricGram([np.outer(u, u) for u in us])


def random_cp_instance(rng, n=5):
    v = rng.random((n, rng.integers(1, 7)))
    return v @ v.T, SymmetricGram([np.diag(row) for row in v])


class TestSymmetricGram:
    def test_matrix_collects_inner_products(self):
        g = SymmetricGram([np.eye(2), np.diag([1.0, 0.0])])
        assert np.array_equal(g.matrix(), [[2.0, 1.0], [1.0, 1.0]])
        assert g.k == 2 and len(g) == 2
        assert g.factors.shape == (2, 2, 2) and g.factors.dtype == np.float64

    def test_rejects_indefinite_factor(self):
        with pytest.raises(InputError, match="psd"):
            SymmetricGram([np.diag([1.0, -1.0])])

    def test_names_first_indefinite_factor(self):
        with pytest.raises(InputError, match="factor 1 is not psd"):
            SymmetricGram([np.eye(2), np.diag([1.0, -1.0]), -np.eye(2)])

    def test_rejects_size_mismatch(self):
        with pytest.raises(InputError):
            SymmetricGram([np.eye(2), np.eye(3)])

    @pytest.mark.parametrize("mats", [[np.eye(2), np.ones((1, 2))], np.eye(2)],
                             ids=["ragged", "one-matrix"])
    def test_rejects_lists_that_do_not_stack(self, mats):
        with pytest.raises(InputError):
            SymmetricGram(mats)

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            SymmetricGram([])


class TestVerifyCpsd:
    def test_cos2_gram_witness(self):
        m = families.cos2_matrix(5)
        rep = cpsd.verify_cpsd(m, cos2_gram())
        assert rep.passed
        assert rep.max_residual <= 1e-9

    def test_perturbed_matrix_fails(self):
        m = families.cos2_matrix(5).copy()
        m[0, 1] += 0.1
        m[1, 0] += 0.1
        rep = cpsd.verify_cpsd(m, cos2_gram())
        assert not rep.passed
        assert rep.max_residual == pytest.approx(0.1, rel=1e-6)

    def test_diagonal_gram(self):
        rng = np.random.default_rng(0)
        m, g = random_cp_instance(rng)
        assert cpsd.verify_cpsd(m, g).passed

    def test_asymmetric_rejected(self):
        with pytest.raises(InputError):
            cpsd.verify_cpsd(np.array([[1.0, 2.0], [0.0, 1.0]]), cos2_gram(2))

    def test_rectangular_rejected(self):
        with pytest.raises(InputError, match="square"):
            cpsd.verify_cpsd(np.ones((2, 3)), cos2_gram(2))


class TestHornCertificate:
    def test_cos2_value_is_negative(self):
        value = cpsd.horn_certificate(families.cos2_matrix(5))
        assert value == pytest.approx(COS2_HORN_VALUE, abs=1e-12)
        assert value < 0

    def test_all_ones(self):
        assert cpsd.horn_certificate(np.ones((5, 5))) == pytest.approx(5.0)

    def test_zero_matrix(self):
        assert cpsd.horn_certificate(np.zeros((5, 5))) == 0.0

    def test_linearity(self):
        rng = np.random.default_rng(4)
        x, y = rng.random((5, 5)), rng.random((5, 5))
        lhs = cpsd.horn_certificate(2.0 * x - 3.0 * y)
        rhs = 2.0 * cpsd.horn_certificate(x) - 3.0 * cpsd.horn_certificate(y)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_wrong_size(self):
        with pytest.raises(InputError, match="5x5"):
            cpsd.horn_certificate(np.ones((4, 4)))

    def test_nonnegative_on_completely_positive_inputs(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            m, _ = random_cp_instance(rng)
            assert cpsd.horn_certificate(m) >= -1e-12


class TestDnnCheck:
    def test_cos2_is_doubly_nonnegative(self):
        assert cpsd.dnn_check(families.cos2_matrix(5))

    def test_indefinite_nonnegative_fails(self):
        assert not cpsd.dnn_check(families.derangement(3))

    def test_psd_with_negative_entry_fails(self):
        assert not cpsd.dnn_check(np.array([[1.0, -0.1], [-0.1, 1.0]]))

    def test_complex_rejected(self):
        with pytest.raises(InputError):
            cpsd.dnn_check(np.eye(2, dtype=complex))


def test_separation_showcase():
    # the cos^2 matrix is doubly nonnegative and completely psd, yet the
    # negative pairing with the copositive form rules out complete positivity
    m = families.cos2_matrix(5)
    assert cpsd.dnn_check(m)
    assert cpsd.verify_cpsd(m, cos2_gram()).passed
    assert cpsd.horn_certificate(m) < -0.5


def test_cone_inclusions_on_random_instances():
    # completely positive => completely psd (diagonal Grams) => doubly nonneg
    rng = np.random.default_rng(31)
    for _ in range(100):
        m, g = random_cp_instance(rng)
        assert cpsd.verify_cpsd(m, g).passed
        assert cpsd.dnn_check(m)
        assert cpsd.horn_certificate(m) >= -1e-12
