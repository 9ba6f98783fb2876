import numpy as np
import pytest

from psdrank import families, linalg
from psdrank.errors import InputError


def test_derangement3_entries():
    assert np.array_equal(families.derangement(3),
                          [[0, 1, 1], [1, 0, 1], [1, 1, 0]])


def test_derangement_symmetric_zero_diagonal():
    for n in range(2, 9):
        d = families.derangement(n)
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0)
        assert np.all(d[~np.eye(n, dtype=bool)] == 1)


def test_circulant3_layout():
    m = families.circulant3(1.0, 2.0, 3.0)
    assert m.shape == (3, 3)
    assert np.allclose(np.diag(m), 1.0)
    # each row is the previous one shifted right
    assert np.allclose(m[1], np.roll(m[0], 1))
    assert np.allclose(m[2], np.roll(m[1], 1))


def test_circulant3_constant_is_rank_one():
    m = families.circulant3(2.0, 2.0, 2.0)
    assert linalg.numerical_rank(m) == 1


def test_circulant3_margin_sign_examples():
    # inside, boundary, outside of the rank-two region
    assert families.circulant3_rank2_margin(1.0, 1.0, 1.0) > 0
    assert families.circulant3_rank2_margin(1.0, 1.0, 4.0) == pytest.approx(0.0)
    assert families.circulant3_rank2_margin(1.0, 0.1, 0.1) < 0


def test_euclidean_distance_entries_and_rank():
    m = families.euclidean_distance(5)
    i = np.arange(5, dtype=float)
    assert np.array_equal(m, (i[:, None] - i[None, :]) ** 2)
    for n in range(3, 21):
        assert linalg.numerical_rank(families.euclidean_distance(n)) == 3


def test_prime_corner_entries():
    q = families.prime_corner((2, 3, 4))
    n = np.array([2.0, 3.0, 4.0])
    assert np.array_equal(q, n[:, None] + n[None, :] - 1.0)


def test_prime_corner_rejects_nonprime_doubles():
    with pytest.raises(InputError):
        families.prime_corner((2, 3, 5))  # 2*5-1 = 9 is composite


def test_non_integral_parameters_rejected():
    # a fractional size or sequence entry is refused, never truncated
    assert families.derangement(3.0).shape == (3, 3)
    for build in (lambda: families.derangement(2.5), lambda: families.cos2_matrix(5.5),
                  lambda: families.prime_corner((2.5, 3, 4)),
                  lambda: families.partition_matrix((5.5, 12, 13)),
                  lambda: families.generate("euclidean", [float("nan")])):
        with pytest.raises(InputError, match="integer"):
            build()


def test_square_slack_entries():
    assert np.array_equal(families.square_slack(),
                          [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]])


def test_nested_rectangles_degenerate_corner():
    m = families.nested_rectangles(1.0, 1.0)
    assert m.shape == (4, 4)
    for row in m:
        assert sorted(row.tolist()) == [0.0, 0.0, 2.0, 2.0]


def test_nested_rectangles_rejects_out_of_range():
    with pytest.raises(InputError):
        families.nested_rectangles(1.2, 0.5)


def test_hexagon_slack_is_the_expected_circulant():
    m = families.hexagon_slack()
    first = [0.0, 1.0, 2.0, 2.0, 1.0, 0.0]
    for i in range(6):
        assert np.array_equal(m[i], np.roll(first, i))


def test_partition_matrix_5_12_13():
    assert np.array_equal(
        families.partition_matrix((5, 12, 13)),
        [[1, 0, 0, 25], [0, 1, 0, 144], [0, 0, 1, 169], [1, 1, 1, 0]],
    )


def test_cos2_matrix_entries():
    m = families.cos2_matrix(5)
    i = np.arange(1, 6, dtype=float)
    expected = np.cos(4 * np.pi / 5 * (i[:, None] - i[None, :])) ** 2
    assert np.max(np.abs(m - expected)) < 1e-15


def test_horn_form_entries():
    h = families.horn_form()
    expected = np.array([
        [1, -1, 1, 1, -1],
        [-1, 1, -1, 1, 1],
        [1, -1, 1, -1, 1],
        [1, 1, -1, 1, -1],
        [-1, 1, 1, -1, 1],
    ], dtype=float)
    assert np.array_equal(h, expected)
    assert h.sum() == 5.0


def test_generate_dispatch():
    assert np.array_equal(families.generate("derangement", [3]), families.derangement(3))
    assert np.array_equal(families.generate("circulant3", [1, 2, 3]),
                          families.circulant3(1, 2, 3))
    assert np.array_equal(families.generate("identity", [4]), np.eye(4))
    with pytest.raises(InputError):
        families.generate("no-such-family", [1])


def test_generated_matrices_are_nonnegative():
    cases = [
        ("derangement", [5]), ("identity", [4]), ("circulant3", [1, 2, 3]),
        ("euclidean", [6]), ("prime", [2, 3, 4]), ("square-slack", []),
        ("nested-rect-slack", [0.3, 0.7]), ("hexagon-slack", []),
        ("partition", [5, 12, 13]), ("cos2", [5]),
    ]
    for tag, params in cases:
        assert np.min(families.generate(tag, params)) >= 0.0, tag


class TestKnownFacts:
    def test_derangement6(self):
        assert families.known_facts("derangement", [6])["psd_rank"] == 3

    def test_euclidean8(self):
        facts = families.known_facts("euclidean", [8])
        assert facts["rank"] == 3
        assert facts["psd_rank"] == 2
        assert facts["sqrt_rank"] == 2

    def test_identity5(self):
        assert families.known_facts("identity", [5])["psd_rank"] == 5

    def test_square_slack(self):
        facts = families.known_facts("square-slack", [])
        assert facts["rank"] == 3 and facts["psd_rank"] == 3

    def test_hexagon(self):
        facts = families.known_facts("hexagon-slack", [])
        assert facts["rank"] == 3 and facts["psd_rank"] == 4

    def test_partition_5_12_13(self):
        facts = families.known_facts("partition", [5, 12, 13])
        assert facts["psd_rank"] == 3
        assert facts["sqrt_rank"] == 4

    def test_cos2(self):
        facts = families.known_facts("cos2", [5])
        assert facts == {"rank": 3, "psd_rank": 2, "sqrt_rank": 2}

    @pytest.mark.parametrize("tag, params", [("derangement", [2.5]), ("identity", [4.5]),
                                             ("euclidean", [3.5]), ("partition", [5.5, 12, 13]),
                                             ("cos2", [5.5])])
    def test_non_integral_member_refused(self, tag, params):
        with pytest.raises(InputError, match="integer"):
            families.known_facts(tag, params)

    def test_circulant_region_split(self):
        assert families.known_facts("circulant3", [1, 1, 4])["psd_rank"] == 2
        assert families.known_facts("circulant3", [1, 0.1, 0.1])["psd_rank"] == 3
