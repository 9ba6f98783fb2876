from itertools import product

import numpy as np
import pytest

from psdrank import bounds, factors, families, geometry, linalg, sdp
from psdrank.bounds import RankInterval
from psdrank.errors import InputError, NumericalFailure, ResourceError


def brute_force_sqrt_rank(m, tol=1e-9):
    """Oracle: enumerate every sign pattern over the nonzero entries."""
    m = np.asarray(m, dtype=float)
    base = np.sqrt(m)
    nz = np.argwhere(m > 0)
    best = min(m.shape)
    for signs in product((1.0, -1.0), repeat=len(nz)):
        w = base.copy()
        for (i, j), s in zip(nz, signs):
            w[i, j] *= s
        best = min(best, linalg.numerical_rank(w, tol))
    return best


def _assert_matches_full_enumeration(m):
    res = bounds.sqrt_rank_exact(m)
    assert res.value == brute_force_sqrt_rank(m)
    assert np.max(np.abs(res.witness ** 2 - m)) <= 1e-12
    assert linalg.numerical_rank(res.witness) == res.value


def test_rank_to_min_size():
    assert [bounds.rank_to_min_size(r) for r in range(0, 11)] == \
        [0, 1, 2, 2, 3, 3, 3, 4, 4, 4, 4]


class TestLower:
    def test_identity_block_bound(self):
        value, cert = bounds.psd_rank_lower(np.eye(5))
        assert value == 5
        assert cert["kind"] == "block"

    def test_derangement10_rank_bound(self):
        value, _ = bounds.psd_rank_lower(families.derangement(10))
        assert value == 4

    def test_all_ones(self):
        value, _ = bounds.psd_rank_lower(np.ones((3, 3)))
        assert value == 1

    def test_block_diagonal_sums(self):
        m = np.zeros((6, 6))
        m[:3, :3] = families.derangement(3)
        m[3:, 3:] = np.eye(3)
        value, _ = bounds.psd_rank_lower(m)
        assert value >= 2 + 3

    def test_triangular_corner_detected(self):
        # [[I, 1], [0, I]] splits across the zero corner
        m = np.block([[np.eye(2), np.ones((2, 2))],
                      [np.zeros((2, 2)), np.eye(2)]])
        value, _ = bounds.psd_rank_lower(m)
        assert value == 4


class TestUpper:
    def test_square_slack_via_zero_one_rank(self):
        value, _ = bounds.psd_rank_upper(families.square_slack())
        assert value <= 3

    def test_derangement6(self):
        value, cert = bounds.psd_rank_upper(families.derangement(6))
        assert value == 3
        assert cert["kind"] == "factorization-file"

    def test_wide_matrix_min_dimension(self):
        rng = np.random.default_rng(3)
        value, _ = bounds.psd_rank_upper(rng.random((2, 7)))
        assert value <= 2



class TestSqrtRank:
    def test_signed_root_drops_rank(self):
        m = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 4.0], [1.0, 1.0, 1.0]])
        res = bounds.sqrt_rank_exact(m)
        assert res.value == 2
        assert np.max(np.abs(res.witness ** 2 - m)) <= 1e-12
        assert linalg.numerical_rank(res.witness) == 2

    def test_partition_5_12_13_stays_full(self):
        res = bounds.sqrt_rank_exact(families.partition_matrix((5, 12, 13)))
        assert res.value == 4

    def test_partition_1_1_2_drops(self):
        res = bounds.sqrt_rank_exact(families.partition_matrix((1, 1, 2)))
        assert res.value == 3

    def test_prime_corner_full(self):
        res = bounds.sqrt_rank_exact(families.prime_corner((2, 3, 4)))
        assert res.value == 3

    def test_budget_error_names_bit_count(self):
        m = np.arange(1.0, 26.0).reshape(5, 5)
        with pytest.raises(ResourceError, match=r"\d+ free bits"):
            bounds.sqrt_rank_exact(m, budget=2)

    def test_budget_error_past_the_int_to_str_limit(self):
        # 14 400 free bits: 2 ** 14400 has more decimal digits than
        # int-to-str conversion allows, so the error names only the bits
        m = np.random.default_rng(0).uniform(1, 2, (121, 121))
        with pytest.raises(ResourceError, match=r"14400 free bits"):
            bounds.sqrt_rank_exact(m)
        iv = bounds.psd_rank_interval(m)
        assert iv.lower <= iv.upper == 121
        assert all(c.get("kind") != "sqrt-rank" for c in iv.certificates if c)

    def test_witness_invariants(self):
        m = families.euclidean_distance(5)
        res = bounds.sqrt_rank_exact(m)
        assert res.value == 2
        assert np.max(np.abs(res.witness ** 2 - m)) <= 1e-12
        assert res.patterns_searched >= 1

    def test_scaling_reduction_matches_full_enumeration(self):
        rng = np.random.default_rng(23)
        for shape, count in [((4, 4), 5), ((4, 5), 4), ((5, 4), 4), ((3, 6), 4)]:
            cases = 0
            while cases < count:
                m = np.round(rng.random(shape) * 3.0, 1)
                m *= rng.random(shape) < 0.7
                nonzeros = int(np.count_nonzero(m))
                if nonzeros == 0 or nonzeros > 12:
                    continue
                cases += 1
                _assert_matches_full_enumeration(m)
        # zero rows and columns inside the matrix
        base = families.circulant3(1.0, 4.0, 1.0)
        _assert_matches_full_enumeration(np.insert(base, 1, 0.0, axis=0))
        _assert_matches_full_enumeration(np.insert(base, [0, 3], 0.0, axis=1))
        _assert_matches_full_enumeration(np.insert(np.insert(UNDECIDED, 2, 0.0, axis=0),
                                                   1, 0.0, axis=1))
        _assert_matches_full_enumeration(np.insert(families.square_slack(), 4, 0.0, axis=0))
        # a rank-2 root up to noise of 1e-9, which the rank tolerance of the
        # full matrix ignores; a prefix cutoff below tol * max(p, q) * ||W||_F
        # would count the noise and drop the root's prefixes
        w = np.outer([1, 3, -2, 1], [1, 2, -1]) + np.outer([-1, 1, 1, 2], [2, -1, 1])
        noisy = w + 1e-9 * np.random.default_rng(2).standard_normal(w.shape)
        _assert_matches_full_enumeration(noisy ** 2)

    def test_search_prunes_instead_of_enumerating(self):
        # 13 free bits for the hexagon and 19 for euclidean(6)
        assert bounds.sqrt_rank_exact(families.hexagon_slack()).patterns_searched < 2 ** 13
        assert bounds.sqrt_rank_exact(families.euclidean_distance(6)).patterns_searched < 2 ** 10

    def test_full_square_root_rank_found(self):
        # no signed root drops the rank, so every target below 4 is exhausted
        for m in (families.derangement(5), families.prime_corner((2, 3, 4, 6))):
            res = bounds.sqrt_rank_exact(m)
            assert res.value == 4
            assert np.max(np.abs(res.witness ** 2 - m)) <= 1e-12

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_chunk_size_keeps_the_witness(self, monkeypatch, chunk):
        rng = np.random.default_rng(5)
        cases = [families.hexagon_slack(), families.euclidean_distance(5),
                 rng.uniform(1, 2, (3, 6)), np.round(rng.random((5, 4)) * 3.0, 1)]
        expected = [bounds.sqrt_rank_exact(m) for m in cases]
        sizes = []
        svd = np.linalg.svd

        def counting_svd(a, **kwargs):
            if a.ndim == 3:
                sizes.append(len(a))
            return svd(a, **kwargs)

        monkeypatch.setattr(bounds, "_SIGN_CHUNK", chunk)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        for m, want in zip(cases, expected):
            res = bounds.sqrt_rank_exact(m)
            assert res.value == want.value
            assert np.array_equal(res.witness, want.witness)
        assert sizes and max(sizes) <= chunk

    def test_zero_matrix(self):
        res = bounds.sqrt_rank_exact(np.zeros((2, 3)))
        assert res.value == 0

    def test_wide_matrix_is_searched_as_its_transpose(self):
        m = np.round(np.random.default_rng(11).uniform(0.5, 3.0, (4, 6)), 1)
        wide, tall = bounds.sqrt_rank_exact(m), bounds.sqrt_rank_exact(m.T)
        assert (wide.value, wide.patterns_searched) == (tall.value, tall.patterns_searched)
        assert np.array_equal(wide.witness, tall.witness.T)
        assert np.max(np.abs(wide.witness ** 2 - m)) <= 1e-12
        assert linalg.numerical_rank(wide.witness) == wide.value


class TestInterval:
    def test_boundary_circulant_exact_two(self):
        iv = bounds.psd_rank_interval(families.circulant3(1.0, 1.0, 4.0))
        assert (iv.lower, iv.upper) == (2, 2)
        assert iv.exact == 2

    def test_identity3(self):
        iv = bounds.psd_rank_interval(np.eye(3))
        assert (iv.lower, iv.upper) == (3, 3)

    def test_nested_rectangles_outside_region(self):
        iv = bounds.psd_rank_interval(families.nested_rectangles(0.9, 0.9))
        assert (iv.lower, iv.upper) == (3, 3)

    def test_derangement4(self):
        iv = bounds.psd_rank_interval(families.derangement(4))
        assert (iv.lower, iv.upper) == (3, 3)

    def test_zero_matrix(self):
        iv = bounds.psd_rank_interval(np.zeros((2, 2)))
        assert (iv.lower, iv.upper) == (0, 0)

    def test_zero_input_has_a_lower_and_an_upper_certificate(self):
        m = np.zeros((2, 3))
        iv = bounds.psd_rank_interval(m)
        assert (iv.lower, iv.upper) == (0, 0)
        lower, upper = iv.certificates
        assert (lower["value"], upper["value"]) == (0, 0)
        assert bounds.check_lower_certificate(m, lower)

    def test_rank_two_is_exact_without_solver(self, monkeypatch):
        def no_ellipse(m):
            raise AssertionError("rank <= 2 must not reach the ellipse program")

        monkeypatch.setattr(geometry, "decide_psd_rank_le_2", no_ellipse)
        m = np.outer([1.0, 2.0], [1.0, 1.0]) + np.outer([0.0, 1.0], [2.0, 1.0])
        iv = bounds.psd_rank_interval(m)
        assert (iv.lower, iv.upper) == (2, 2)

    def test_rank_two_certificate_is_given_once(self):
        m = np.array([[1.0, 2.0, 3.0, 4.0], [2.0, 3.0, 4.0, 5.0], [3.0, 4.0, 5.0, 6.0]])
        iv = bounds.psd_rank_interval(m)
        assert (iv.lower, iv.upper) == (2, 2)
        exact = [c for c in iv.certificates if c.get("argument") == "rank <= 2 is exact"]
        assert len(exact) == 1
        assert (exact[0]["rows"], exact[0]["cols"]) == ([0, 1, 2], [0, 1, 2, 3])

    @pytest.mark.parametrize("m", [families.derangement(5), families.hexagon_slack()],
                             ids=["derangement5", "hexagon"])
    def test_canonical_block_is_computed_once(self, m, monkeypatch):
        calls = {"_canonical": 0, "psd_rank_lower": 0}

        def counting(name):
            fn = getattr(bounds, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(bounds, name, counted)

        counting("_canonical")
        counting("psd_rank_lower")
        iv = bounds.psd_rank_interval(m)
        # the lower search still runs as psd_rank_lower, on the same block
        assert calls == {"_canonical": 1, "psd_rank_lower": 1}
        assert iv.lower == bounds.psd_rank_lower(m)[0]

    def test_invalid_interval_rejected(self):
        with pytest.raises(InputError):
            RankInterval(3, 2, ())

    def test_ellipse_certificate_recorded(self):
        iv = bounds.psd_rank_interval(families.circulant3(1.0, 4.0, 1.0))
        kinds = {c["kind"] for c in iv.certificates}
        assert "ellipse" in kinds

    def test_hexagon_bracket(self):
        iv = bounds.psd_rank_interval(families.hexagon_slack())
        assert iv.lower <= 4 <= iv.upper
        # rank three and not rank-two: the ellipse run settles the lower end
        assert iv.lower >= 3


# on its raw pair the ellipse program ends undecided on this rank-3 matrix
# and its transpose: margins -7.2e-7 and -6.6e-7 with dual values short of
# CERT_TOL; on the frame of decide_psd_rank_le_2 both get a certified no
UNDECIDED = np.array([[0, 3, 2], [1, 3, 4], [1, 1, 1], [2, 1, 0]], dtype=float)


def undecided_solve(problem):
    return sdp.SdpSolution("numerical-failure", None, None)


@pytest.mark.parametrize("m", [UNDECIDED, UNDECIDED.T], ids=["rows", "transposed"])
def test_ellipse_no_closes_the_interval_at_three(m):
    iv = bounds.psd_rank_interval(m)
    assert (iv.lower, iv.upper, iv.exact) == (3, 3, 3)


@pytest.mark.parametrize("m", [UNDECIDED, UNDECIDED.T], ids=["rows", "transposed"])
def test_undecided_ellipse_keeps_the_other_bounds(m, monkeypatch):
    monkeypatch.setattr(sdp, "solve", undecided_solve)
    with pytest.raises(NumericalFailure):
        geometry.decide_psd_rank_le_2(m)
    iv = bounds.psd_rank_interval(m)
    assert (iv.lower, iv.upper, iv.exact) == (2, 3, None)
    found = [c for c in iv.certificates if c["kind"] == "ellipse"]
    assert len(found) == 1
    assert found[0]["answer"] is None
    assert "undecided" in found[0]["reason"]
    assert found[0]["rows"] == list(range(m.shape[0]))
    assert found[0]["cols"] == list(range(m.shape[1]))


def test_ellipse_that_fails_certify_leaves_the_interval_open():
    # closed-form margin -3e-7: psd rank 3, but the solver's yes fails certify
    m = families.nested_rectangles(0.9950043145286394, 0.09983343162183952)
    iv = bounds.psd_rank_interval(m)
    assert (iv.lower, iv.upper, iv.exact) == (2, 3, None)
    found = [c for c in iv.certificates if c["kind"] == "ellipse"]
    assert len(found) == 1
    assert found[0]["answer"] is None
    assert "re-check" in found[0]["reason"]


def test_families_with_known_facts_are_bracketed():
    cases = [
        ("derangement", [n]) for n in range(2, 9)
    ] + [
        ("euclidean", [n]) for n in range(3, 9)
    ] + [
        ("identity", [n]) for n in range(1, 7)
    ] + [
        ("square-slack", []), ("hexagon-slack", []),
        ("partition", [5, 12, 13]), ("cos2", [5]),
        ("circulant3", [1.0, 1.0, 4.0]), ("circulant3", [1.0, 0.1, 0.1]),
        ("nested-rect-slack", [0.6, 0.8]), ("nested-rect-slack", [0.9, 0.9]),
    ]
    for tag, params in cases:
        facts = families.known_facts(tag, params)
        if "psd_rank" not in facts:
            continue
        m = families.generate(tag, params)
        iv = bounds.psd_rank_interval(m)
        target = facts["psd_rank"]
        lo, hi = (target, target) if np.isscalar(target) else target
        assert iv.lower <= lo and hi <= iv.upper or (iv.lower, iv.upper) == (lo, hi), \
            f"{tag}{params}: [{iv.lower},{iv.upper}] vs {target}"


def test_sqrt_value_never_below_psd_interval():
    for tag, params in [("derangement", [3]), ("euclidean", [5]),
                        ("square-slack", []), ("partition", [5, 12, 13])]:
        m = families.generate(tag, params)
        res = bounds.sqrt_rank_exact(m)
        iv = bounds.psd_rank_interval(m)
        assert iv.lower <= res.value


def test_rank_to_min_size_matches_search():
    for r in range(2000):
        k = 0
        while k * (k + 1) // 2 < r:
            k += 1
        assert bounds.rank_to_min_size(r) == k, r


CIRC = families.circulant3(1.0, 1.3, 0.4)


@pytest.mark.parametrize("m", [
    np.vstack([CIRC, np.zeros((1, 3))]),
    np.hstack([CIRC, np.zeros((3, 1))]),
    np.vstack([CIRC, CIRC[1]]),
    np.vstack([CIRC, 3.0 * CIRC[2]]),
    np.diag([3.0, 1.0, 1.0]) @ CIRC,
], ids=["zero-row", "zero-column", "duplicate-row", "row-times-3", "row-scaled-by-3"])
def test_redundant_lines_keep_ellipse_decision(m):
    iv = bounds.psd_rank_interval(m)
    assert (iv.lower, iv.upper) == (2, 2)
    cert = next(c for c in iv.certificates if c["kind"] == "ellipse")
    assert cert["answer"] is True
    pair = geometry.polytopes_from_matrix(m[np.ix_(cert["rows"], cert["cols"])])
    assert geometry.certify(pair, cert["ellipse"]).passed


def test_upper_certificate_names_its_block():
    d = families.derangement(4)
    m = np.vstack([d, np.zeros((1, 4)), d[0]])
    iv = bounds.psd_rank_interval(m)
    up = iv.certificates[1]
    assert (up["rows"], up["cols"]) == ([0, 1, 2, 3], [0, 1, 2, 3])
    assert up["kind"] == "factorization-file" and up["value"] == iv.upper == 3


def _random_sparse(rng, p, q, density):
    return np.round(rng.random((p, q)) * 3.0, 1) * (rng.random((p, q)) < density)


def _lower_cases():
    cases = [families.generate(tag, params) for tag, params in [
        ("square-slack", []), ("hexagon-slack", []), ("partition", [5, 12, 13]),
        ("partition", [1, 1, 2]), ("prime", [2, 3, 4]), ("cos2", [5]),
        ("nested-rect-slack", [0.6, 0.8]), ("circulant3", [1.0, 0.1, 0.1]),
    ]]
    cases += [families.generate(tag, [n]) for tag in ("identity", "derangement", "euclidean")
              for n in range(1, 10)]
    rng = np.random.default_rng(11)
    cases += [_random_sparse(rng, p, q, density)
              for p, q in [(5, 4), (8, 8), (10, 7), (13, 13)] for density in (0.2, 0.35, 0.5)
              for _ in range(3)]
    cases.append(np.block([[np.eye(2), np.ones((2, 2))], [np.zeros((2, 2)), np.eye(2)]]))
    return cases


def test_lower_certificates_recheck():
    for m in _lower_cases():
        value, cert = bounds.psd_rank_lower(m)
        assert cert["value"] == value
        assert "truncated" not in cert
        assert bounds.check_lower_certificate(m, cert), m


class TestLowerCertificateCheck:
    def test_overclaimed_leaf_rejected(self):
        m = np.eye(4)
        value, cert = bounds.psd_rank_lower(m)
        leaf = dict(cert["parts"][0], value=2)
        assert not bounds.check_lower_certificate(m, {**cert, "parts": [leaf] + cert["parts"][1:]})

    def test_split_across_nonzero_rejected(self):
        # with the parts swapped, the corner claimed zero is the block of ones
        m = np.block([[np.eye(2), np.ones((2, 2))], [np.zeros((2, 2)), np.eye(2)]])
        value, cert = bounds.psd_rank_lower(m)
        assert value == 4 and cert["split"] == "triangular"
        swapped = {**cert, "parts": cert["parts"][::-1]}
        assert not bounds.check_lower_certificate(m, swapped)

    def test_overlapping_parts_rejected(self):
        m = np.eye(3)
        _, cert = bounds.psd_rank_lower(m)
        parts = cert["parts"]
        shared = dict(parts[1], rows=parts[0]["rows"])
        tampered = {**cert, "parts": [parts[0], shared, parts[2]]}
        assert not bounds.check_lower_certificate(m, tampered)

    def test_value_above_parts_rejected(self):
        m = np.eye(3)
        _, cert = bounds.psd_rank_lower(m)
        assert not bounds.check_lower_certificate(m, {**cert, "value": 4})


def test_corner_that_no_single_row_avoids():
    # the zero corner under the top-left derangement is avoided by all four
    # lower rows together, but each lower row also avoids one column of its own
    d = families.derangement(4)
    m = np.block([[d, np.ones((4, 4))], [np.zeros((4, 4)), d]])
    value, cert = bounds.psd_rank_lower(m)
    assert value == 6
    assert bounds.check_lower_certificate(m, cert)


@pytest.mark.parametrize("name", ["_NODE_BUDGET", "_CORNER_BUDGET"])
def test_lower_budget_truncates_to_a_valid_bound(monkeypatch, name):
    rng = np.random.default_rng(11)
    m = _random_sparse(rng, 13, 13, 0.35)
    full, _ = bounds.psd_rank_lower(m)
    for budget in (1, 2, 5, 20):
        monkeypatch.setattr(bounds, name, budget)
        value, cert = bounds.psd_rank_lower(m)
        assert cert["truncated"] is True
        assert value <= full
        assert bounds.check_lower_certificate(m, cert)


def _no_sign_search(*args, **kwargs):
    raise AssertionError("sign search ran")


def test_upper_skips_sign_search_at_the_rank_floor(monkeypatch):
    monkeypatch.setattr(bounds, "sqrt_rank_exact", _no_sign_search)
    value, cert = bounds.psd_rank_upper(families.derangement(6))
    assert (value, cert["kind"]) == (3, "factorization-file")


def test_interval_skips_sign_search_once_settled(monkeypatch):
    monkeypatch.setattr(bounds, "sqrt_rank_exact", _no_sign_search)
    for m in (families.euclidean_distance(6), np.eye(9), families.derangement(6),
              families.circulant3(1.0, 0.1, 0.1)):
        iv = bounds.psd_rank_interval(m)
        assert iv.exact is not None


def test_interval_skips_ellipse_once_settled(monkeypatch):
    # rank 3, lower bound 2 and the derangement factorization of size 2
    def no_ellipse(m):
        raise AssertionError("ellipse test ran")
    monkeypatch.setattr(geometry, "decide_psd_rank_le_2", no_ellipse)
    for m in (families.derangement(3), 2.5 * families.derangement(3)):
        iv = bounds.psd_rank_interval(m)
        assert (iv.lower, iv.upper) == (2, 2)
        assert iv.certificates[1]["kind"] == "factorization-file"


def _cube_slack(d):
    """Slack matrix of the d-cube: vertices {0, 1}^d, facets x_i >= 0 and x_i <= 1."""
    v = np.array(list(product((0.0, 1.0), repeat=d)))
    return np.hstack([v, 1.0 - v])


def _cross_polytope_slack(d):
    """Slack matrix of the d-cross-polytope: vertices +-e_i, facets s.x <= 1, s in {-1, 1}^d."""
    s = np.array(list(product((-1.0, 1.0), repeat=d)))
    return 1.0 - np.vstack([np.eye(d), -np.eye(d)]) @ s.T


@pytest.mark.parametrize("m, rank", [
    (_cube_slack(4), 5), (_cube_slack(4).T, 5), (_cross_polytope_slack(4), 5), (_cube_slack(5), 6),
], ids=["4-cube", "4-cube transposed", "4-cross-polytope", "5-cube"])
def test_two_level_polytopes_close_by_the_all_plus_root(m, rank):
    # 2-level polytopes are psd-minimal: the all-plus root of the slack
    # matrix has rank d + 1, which the lower bound already reaches; the sign
    # search's budget (41 free bits for the 4-cube) is never consulted
    iv = bounds.psd_rank_interval(m)
    assert (iv.lower, iv.upper) == (rank, rank)
    up = iv.certificates[1]
    assert (up["kind"], up["argument"], up["value"]) == ("sqrt-rank", "all-plus root", rank)
    f = factors.from_hadamard_sqrt(np.sqrt(m))
    assert f.k == rank
    assert factors.verify(m, f).passed


def test_interval_runs_sign_search_while_open(monkeypatch):
    # rank 4, so the lower end is 3, and the all-plus root has rank 4; only
    # a signed root of rank 3 brings the upper end down, and the search
    # tries no target at or above the all-plus root's rank
    m = families.partition_matrix((1, 1, 2))
    _, root_rank = bounds._all_plus_root(m, linalg.DEFAULT_TOL)
    assert root_rank == 4
    targets = []
    first_root = bounds._first_root

    def recording(base, free, r, tol):
        targets.append(r)
        return first_root(base, free, r, tol)

    monkeypatch.setattr(bounds, "_first_root", recording)
    iv = bounds.psd_rank_interval(m)
    assert (iv.lower, iv.upper) == (3, 3)
    assert iv.certificates[1]["kind"] == "sqrt-rank"
    assert iv.certificates[1]["patterns"] >= 1
    assert targets == [3]
