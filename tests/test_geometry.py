import numpy as np
import pytest

from psdrank import factors, families, geometry, linalg, sdp
from psdrank.errors import DomainError, InputError, NumericalFailure
from psdrank.geometry import Ellipse, PolyhedronH, PolytopeV, SandwichPair

from conftest import (centered_square_pair, compute_multipliers, ellipse_path,
                      nested_rectangles_pair, square_pair)

CIRCLE_FORM = np.diag([0.5, 0.5, -1.0])
AXIS_FORM = np.diag([9.0 / 25.0, 16.0 / 25.0, -36.0 / 25.0])


def certificate(pair, theta):
    lams = compute_multipliers(pair, theta)
    return Ellipse(theta, lams)


@pytest.fixture(scope="module")
def by_name(catalog):
    return {e.name: e for e in catalog}


class TestSlackMatrix:
    def test_square_pair_reproduces_slack(self, by_name):
        pair = square_pair()
        s = geometry.slack_matrix(pair.inner, pair.outer)
        assert np.array_equal(s, by_name["square-slack"].matrix)

    def test_centered_square_pair_reproduces_slack(self, by_name):
        pair = centered_square_pair()
        s = geometry.slack_matrix(pair.inner, pair.outer)
        assert np.array_equal(s, by_name["nested-squares-circle"].matrix)

    def test_nested_rectangles_pair_matches_family(self):
        pair = nested_rectangles_pair(0.3, 0.7)
        s = geometry.slack_matrix(pair.inner, pair.outer)
        assert np.max(np.abs(s - families.nested_rectangles(0.3, 0.7))) <= 1e-12

    def test_single_point_inside(self):
        p = PolytopeV([[0.0, 0.0]])
        q = square_pair().outer
        s = geometry.slack_matrix(p, q)
        assert s.shape == (1, 4)
        assert np.array_equal(s[0], [1.0, 1.0, 0.0, 0.0])

    def test_outside_vertex_named_in_error(self):
        p = PolytopeV([[0.0, 0.0], [5.0, 0.0]])
        q = square_pair().outer
        with pytest.raises(DomainError, match="vertex 1"):
            geometry.slack_matrix(p, q)

    def test_tiny_negative_slack_clipped(self):
        p = PolytopeV([[1.0 + 1e-13, 0.0]])
        q = square_pair().outer
        s = geometry.slack_matrix(p, q)
        assert s[0, 0] == 0.0


class TestPolytopesFromMatrix:
    @pytest.mark.parametrize("name", ["derangement3", "square-slack",
                                      "nested-squares-circle"])
    def test_round_trip_up_to_row_scaling(self, by_name, name):
        m = by_name[name].matrix
        pair = geometry.polytopes_from_matrix(m)
        s = geometry.slack_matrix(pair.inner, pair.outer)
        expected = m / m.sum(axis=1, keepdims=True)
        assert np.max(np.abs(s - expected)) <= 1e-9

    def test_rank_two_gives_segment(self):
        pair = geometry.polytopes_from_matrix([[1.0, 3.0], [2.0, 2.0]])
        assert pair.inner.dimension == 1
        s = geometry.slack_matrix(pair.inner, pair.outer)
        assert np.max(np.abs(s - [[0.25, 0.75], [0.5, 0.5]])) <= 1e-9

    def test_zero_row_rejected(self):
        with pytest.raises(InputError, match="positive sum"):
            geometry.polytopes_from_matrix([[1.0, 1.0], [0.0, 0.0]])

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            geometry.polytopes_from_matrix([[1.0, -1.0], [1.0, 1.0]])

    def test_complex_rejected(self):
        with pytest.raises(InputError):
            geometry.polytopes_from_matrix(np.eye(2, dtype=complex))

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_empty_rejected(self, shape):
        with pytest.raises(InputError):
            geometry.polytopes_from_matrix(np.zeros(shape))

    @pytest.mark.parametrize("make", [
        lambda by_name: by_name["derangement3"].matrix,
        lambda by_name: by_name["square-slack"].matrix,
        lambda by_name: by_name["nested-squares-circle"].matrix,
        lambda by_name: families.circulant3(1.0, 1.5, 1.2),
        lambda by_name: families.nested_rectangles(0.3, 0.7),
    ], ids=["derangement3", "square-slack", "nested-squares-circle", "circulant3",
            "nested-rectangles"])
    def test_vertices_are_centered_on_uncorrelated_axes(self, by_name, make):
        # _frame whitens by the per-axis variances alone, which needs this chart
        verts = geometry.polytopes_from_matrix(make(by_name)).inner.vertices
        assert np.max(np.abs(verts.mean(axis=0))) <= 1e-12
        cov = verts.T @ verts / len(verts)
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) <= 1e-12 * np.trace(cov)

    def test_dimension_matches_rank_minus_one(self):
        m = families.circulant3(1.0, 1.5, 1.2)
        pair = geometry.polytopes_from_matrix(m)
        assert pair.inner.dimension == 2
        assert pair.outer.dimension == 2


class TestPairValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            SandwichPair(PolytopeV([[0.0]]), square_pair().outer)

    def test_nonfinite_vertex(self):
        with pytest.raises(InputError):
            PolytopeV([[np.inf, 0.0]])

    def test_offset_count(self):
        with pytest.raises(InputError):
            PolyhedronH([[1.0, 0.0]], [1.0, 2.0])


class TestCertify:
    def test_circle_on_centered_squares(self):
        pair = centered_square_pair()
        e = certificate(pair, CIRCLE_FORM)
        chk = geometry.certify(pair, e)
        assert chk.passed
        assert chk.worst <= 1e-9

    def test_axis_ellipse_on_centered_squares(self):
        pair = centered_square_pair()
        e = certificate(pair, AXIS_FORM)
        chk = geometry.certify(pair, e)
        assert chk.passed
        assert chk.worst <= 1e-9

    def test_wrong_trace_flagged(self):
        pair = centered_square_pair()
        e = certificate(pair, CIRCLE_FORM)
        bad = Ellipse(e.theta * 1.5, e.multipliers * 1.5)
        chk = geometry.certify(pair, bad)
        assert not chk.passed
        assert chk.trace_error >= 0.4

    def test_small_ellipse_misses_vertices(self):
        pair = centered_square_pair()
        theta = np.diag([0.5, 0.5, -0.5])  # radius 1 circle, vertices outside
        e = Ellipse(theta, compute_multipliers(pair, theta))
        chk = geometry.certify(pair, e)
        assert not chk.passed
        assert chk.vertex_violation >= 0.4

    def test_large_ellipse_escapes_outer_square(self):
        pair = centered_square_pair()
        theta = np.diag([0.5, 0.5, -5.0])  # radius > 3 circle
        e = Ellipse(theta, compute_multipliers(pair, theta))
        chk = geometry.certify(pair, e)
        assert not chk.passed
        assert max(chk.facet_violation, chk.multiplier_violation) > 0.0

    def test_vacuous_facet_checks_only_its_multiplier_sign(self):
        # a facet 0 . x <= 0 is the whole plane; its block would be Theta itself
        base = centered_square_pair()
        pair = SandwichPair(base.inner, PolyhedronH(np.vstack([base.outer.normals, [0.0, 0.0]]),
                                                    np.append(base.outer.offsets, 0.0)))
        lams = compute_multipliers(base, CIRCLE_FORM)
        assert geometry.certify(pair, Ellipse(CIRCLE_FORM, np.append(lams, 0.0))).passed
        chk = geometry.certify(pair, Ellipse(CIRCLE_FORM, np.append(lams, -1.0)))
        assert not chk.passed and chk.multiplier_violation == 1.0

    def test_nonfinite_multipliers_rejected(self):
        with pytest.raises(InputError, match="multipliers must be finite"):
            Ellipse(CIRCLE_FORM, [0.0, np.nan, 0.0, 0.0])

    def test_evaluate_sign_convention(self):
        e = Ellipse(CIRCLE_FORM, np.zeros(4))
        assert e.evaluate([0.0, 0.0]) < 0.0
        assert abs(e.evaluate([1.0, 1.0])) <= 1e-12
        assert e.evaluate([2.0, 0.0]) > 0.0


# closed-form margin -3e-7, so psd rank 3; the program's margin lies inside
# FEAS_TOL and its ellipse, mapped back, fails certify at 1e-7
FAILS_RECHECK = families.nested_rectangles(0.9950043145286394, 0.09983343162183952)


class TestEllipseProgram:
    def test_trace_is_fixed_by_the_variables(self):
        pair = geometry.polytopes_from_matrix(families.circulant3(1.0, 1.3, 0.4))
        f = pair.outer.offsets.size
        program = geometry.ellipse_program(pair)
        assert program.n == 5 + f
        assert set(vars(program)) == {"n", "blocks"}
        assert [g.shape[-1] for g in program.blocks] == [1, 3]
        v = len(pair.inner.vertices)
        rng = np.random.default_rng(3)
        for x in rng.standard_normal((5, program.n)):
            rows, facets = program.block_values(x)
            e = Ellipse(geometry._theta(x), x[5:])
            assert abs(np.trace(e.a_form) - 1.0) <= 1e-12
            # the leading 2x2 of every facet block is A itself
            assert facets.shape == (f, 3, 3)
            assert np.allclose(facets[:, :2, :2], e.a_form, atol=1e-12)
            forms = geometry._facet_forms(pair.outer.normals, pair.outer.offsets)
            assert np.allclose(facets, e.theta - x[5:, None, None] * forms, atol=1e-12)
            # the vertex rows read -q(v) of the same Theta, the sign rows lam
            assert rows.shape == (v + f, 1, 1)
            assert np.allclose(rows[:v, 0, 0], [-e.evaluate(p) for p in pair.inner.vertices],
                               atol=1e-12)
            assert np.array_equal(rows[v:, 0, 0], x[5:])

    @pytest.mark.parametrize("pair", [
        geometry.polytopes_from_matrix(families.circulant3(1.0, 1.3, 0.4)),
        geometry.polytopes_from_matrix(families.nested_rectangles(0.6, 0.3)),
        nested_rectangles_pair(0.6, 0.3),
    ], ids=["circulant3", "nested-rectangles", "nested-rectangles-pair"])
    def test_margins_match_the_program(self, pair):
        program = geometry.ellipse_program(pair)
        v = len(pair.inner.vertices)
        rng = np.random.default_rng(27)
        for x in rng.standard_normal((8, program.n)):
            ones, threes = np.split(program.margins(x), [v + program.n - 5])
            rows, lam, facets = geometry._margins(pair, geometry._theta(x), x[5:])
            for got, want in ((np.concatenate([rows, lam]), ones), (facets, threes)):
                assert np.allclose(np.sort(got), np.sort(want),
                                   rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_facet_forms_read_the_halfplanes(self):
        # <F_j, (x, 1)(x, 1)^T> = g_j . x - h_j, facet by facet
        rng = np.random.default_rng(8)
        normals, offsets = rng.standard_normal((4, 2)), rng.standard_normal(4)
        points = rng.standard_normal((6, 2))
        forms = geometry._facet_forms(normals, offsets)
        h = np.hstack([points, np.ones((6, 1))])
        got = np.einsum("pa,jab,pb->pj", h, forms, h)
        assert np.allclose(got, points @ normals.T - offsets, atol=1e-12)

    def test_origin_is_the_half_identity(self):
        pair = geometry.polytopes_from_matrix(families.circulant3(1.0, 1.3, 0.4))
        theta = geometry._theta(np.zeros(geometry.ellipse_program(pair).n))
        assert np.array_equal(theta, np.diag([0.5, 0.5, 0.0]))


class TestDecide:
    def test_rank_two_immediate_yes(self):
        m = np.outer([1.0, 2.0, 1.0], [1.0, 1.0, 2.0]) + np.outer([2.0, 1.0, 0.0], [0.0, 1.0, 1.0])
        ans, cert = geometry.decide_psd_rank_le_2(m)
        assert ans is True and cert is None

    def test_boundary_circulant_solved_by_program(self):
        # rank 3 but psd rank exactly 2, tight against the region boundary
        m = families.circulant3(1.0, 4.0, 1.0)
        ans, e = geometry.decide_psd_rank_le_2(m)
        assert ans is True
        pair = geometry.polytopes_from_matrix(m)
        assert geometry.certify(pair, e).passed

    def test_rank_four_immediate_no(self):
        ans, cert = geometry.decide_psd_rank_le_2(np.eye(4))
        assert ans is False and cert is None

    def test_interior_circulant_yes_with_certificate(self):
        m = families.circulant3(1.0, 1.5, 1.2)
        ans, e = geometry.decide_psd_rank_le_2(m)
        assert ans is True
        pair = geometry.polytopes_from_matrix(m)
        assert geometry.certify(pair, e).passed

    def test_exterior_circulant_no(self):
        ans, cert = geometry.decide_psd_rank_le_2(families.circulant3(1.0, 0.1, 0.1))
        assert ans is False and cert is None

    def test_square_slack_no(self, by_name):
        ans, _ = geometry.decide_psd_rank_le_2(by_name["square-slack"].matrix)
        assert ans is False

    def test_boundary_rectangles_accepted(self):
        ans, e = geometry.decide_psd_rank_le_2(families.nested_rectangles(0.6, 0.8))
        assert ans is True
        assert e is not None

    # cells within 1e-4 of the region boundary, where the raw pair left the
    # circulant cells undecided, and thin rectangles, where a frame without
    # an eigenvalue floor degenerates the ellipse
    @pytest.mark.parametrize("m, expected", [
        (families.circulant3(1.0, 0.03796994707274237, 1.4277180618023644), False),
        (families.circulant3(1.0, 1.281192012170504, 0.0173766133800122), False),
        (families.nested_rectangles(5.2360301663873745e-05, 0.21786219176842264), True),
        (families.nested_rectangles(9.224281988483098e-05, 0.3510325702651294), True),
    ], ids=["circulant-a", "circulant-b", "thin-rectangle-a", "thin-rectangle-b"])
    def test_near_boundary_cells_get_the_closed_form_answer(self, m, expected):
        ans, e = geometry.decide_psd_rank_le_2(m)
        assert ans is expected
        if ans:
            pair = geometry.polytopes_from_matrix(m)
            assert geometry.certify(pair, e).passed
            assert factors.verify(m, geometry.factorization_from_ellipse(m, pair, e)).passed

    def test_yes_that_fails_certify_is_undecided(self):
        with pytest.raises(NumericalFailure, match="re-check"):
            geometry.decide_psd_rank_le_2(FAILS_RECHECK)

    def test_constant_column_keeps_its_facet_unscaled(self):
        # a constant column is a facet with a numerically zero normal; scaled
        # to a unit normal its offset would swamp the program
        m = np.hstack([families.circulant3(1.0, 1.3, 0.4), np.ones((3, 1))])
        ans, e = geometry.decide_psd_rank_le_2(m)
        assert ans is True
        pair = geometry.polytopes_from_matrix(m)
        assert geometry.certify(pair, e).passed
        assert factors.verify(m, geometry.factorization_from_ellipse(m, pair, e)).passed


ZERO_COLUMN = np.hstack([families.circulant3(1.0, 1.3, 0.4), np.zeros((3, 1))])


class TestVacuousFacet:
    # a zero column is the facet 0 . x <= 0; psd rank 2 like the matrix without it
    @pytest.mark.parametrize("m", [
        ZERO_COLUMN,
        np.hstack([np.zeros((4, 1)), families.nested_rectangles(0.75, 0.3)]),
    ], ids=["circle", "solver"])
    def test_zero_column_keeps_the_answer_yes(self, m):
        ans, e = geometry.decide_psd_rank_le_2(m)
        assert ans is True
        pair = geometry.polytopes_from_matrix(m)
        zero = np.flatnonzero(~m.any(axis=0))
        assert geometry._vacuous(pair.outer).nonzero()[0].tolist() == zero.tolist()
        assert np.all(e.multipliers[zero] == 0.0)
        assert geometry.certify(pair, e).passed
        assert factors.verify(m, geometry.factorization_from_ellipse(m, pair, e)).passed
        kept = np.delete(m, zero, axis=1)
        assert geometry.decide_psd_rank_le_2(kept)[0] is True

    def test_frame_drops_vacuous_facets(self):
        pair = geometry.polytopes_from_matrix(ZERO_COLUMN)
        framed, _, s, keep = geometry._frame(pair)
        assert keep.tolist() == [True, True, True, False]
        assert framed.outer.offsets.size == s.size == 3


def circle_margin(m):
    """Smallest program margin of the framed pair's centered circle."""
    framed = geometry._frame(geometry.polytopes_from_matrix(m))[0]
    return geometry.ellipse_program(framed).margins(geometry._circle_candidate(framed)).min()


class TestCirclePrecheck:
    @pytest.mark.parametrize("m", [
        families.circulant3(1.0, 1.5, 1.2),
        np.hstack([families.circulant3(1.0, 1.3, 0.4), np.ones((3, 1))]),
        ZERO_COLUMN,
    ], ids=["circulant", "constant-column", "zero-column"])
    def test_fitting_circle_decides_without_the_solver(self, m, monkeypatch):
        def refuse(*args):
            raise AssertionError("solver path taken on a cell the circle decides")

        monkeypatch.setattr(sdp, "solve", refuse)
        monkeypatch.setattr(geometry, "ellipse_program", refuse)
        ans, e = geometry.decide_psd_rank_le_2(m)
        assert ans is True
        pair = geometry.polytopes_from_matrix(m)
        assert geometry.certify(pair, e).passed
        assert factors.verify(m, geometry.factorization_from_ellipse(m, pair, e)).passed

    @pytest.mark.parametrize("m, expected", [
        (families.circulant3(1.0, 0.1, 0.1), False),
        (families.nested_rectangles(0.75, 0.3), True),
    ], ids=["circulant-no", "rectangle-yes"])
    def test_other_cells_reach_the_solver(self, m, expected, monkeypatch):
        calls = []
        solve = sdp.solve
        monkeypatch.setattr(sdp, "solve", lambda problem: calls.append(1) or solve(problem))
        assert circle_margin(m) < sdp.DECISIVE
        ans, _ = geometry.decide_psd_rank_le_2(m)
        assert calls == [1]
        assert ans is expected

    @pytest.mark.parametrize("family", ["circulant3", "nested_rectangles"])
    def test_circle_decides_only_strictly_feasible_cells(self, family):
        rng = np.random.default_rng(26)
        decided = 0
        for _ in range(60):
            if family == "circulant3":
                b, c = 2.0 * rng.random(2)
                m, margin = families.circulant3(1.0, b, c), families.circulant3_rank2_margin(1.0, b, c)
            else:
                a, b = 0.02 + 0.96 * rng.random(2)
                m, margin = families.nested_rectangles(a, b), 1.0 - a * a - b * b
            if linalg.numerical_rank(m) != 3 or circle_margin(m) < sdp.DECISIVE:
                continue
            decided += 1
            framed = geometry._frame(geometry.polytopes_from_matrix(m))[0]
            assert margin > 0
            assert sdp.solve(geometry.ellipse_program(framed)).status == "feasible"
        assert decided >= 10


class TestExtraction:
    def test_circle_gives_rank_one_rows(self, by_name):
        m = by_name["nested-squares-circle"].matrix
        pair = centered_square_pair()
        e = certificate(pair, CIRCLE_FORM)
        f = geometry.factorization_from_ellipse(m, pair, e)
        rep = factors.verify(m, f)
        assert rep.passed and rep.max_residual <= 1e-8
        assert [linalg.numerical_rank(a) for a in f.row_factors] == [1, 1, 1, 1]
        assert [linalg.numerical_rank(b) for b in f.col_factors] == [2, 2, 2, 2]

    def test_axis_ellipse_gives_singular_columns(self, by_name):
        m = by_name["nested-squares-axis-ellipse"].matrix
        pair = centered_square_pair()
        e = certificate(pair, AXIS_FORM)
        f = geometry.factorization_from_ellipse(m, pair, e)
        rep = factors.verify(m, f)
        assert rep.passed and rep.max_residual <= 1e-8
        assert [linalg.numerical_rank(a) for a in f.row_factors] == [2, 2, 2, 2]
        assert [linalg.numerical_rank(b) for b in f.col_factors] == [2, 1, 2, 1]

    def test_row_rescaled_matrix_accepted(self, by_name):
        m = by_name["nested-squares-circle"].matrix * np.array([[1.0], [2.0], [0.5], [3.0]])
        pair = centered_square_pair()
        e = certificate(pair, CIRCLE_FORM)
        f = geometry.factorization_from_ellipse(m, pair, e)
        assert factors.verify(m, f).passed

    def test_mismatched_matrix_rejected(self, by_name):
        pair = centered_square_pair()
        e = certificate(pair, CIRCLE_FORM)
        m = by_name["nested-squares-circle"].matrix.copy()
        m[0, 0] += 0.5
        with pytest.raises((InputError, DomainError)):
            geometry.factorization_from_ellipse(m, pair, e)

    def test_rank_requirement(self, by_name):
        pair = centered_square_pair()
        e = certificate(pair, CIRCLE_FORM)
        with pytest.raises(DomainError, match="rank"):
            geometry.factorization_from_ellipse(np.ones((4, 4)), pair, e)

    def test_augmented_matrix_extra_factors_full(self, by_name):
        m = by_name["augmented-fullrank"].matrix
        ans, e = geometry.decide_psd_rank_le_2(m)
        assert ans is True
        pair = geometry.polytopes_from_matrix(m)
        f = geometry.factorization_from_ellipse(m, pair, e)
        rep = factors.verify(m, f)
        assert rep.passed and rep.max_residual <= 1e-8
        assert linalg.numerical_rank(f.row_factors[3]) == 2
        assert linalg.numerical_rank(f.col_factors[3]) == 2


class TestEllipsePath:
    @pytest.mark.parametrize("t", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_blend_still_certifies(self, t):
        pair = centered_square_pair()
        e0 = certificate(pair, CIRCLE_FORM)
        e1 = certificate(pair, AXIS_FORM)
        mid = ellipse_path(e0, e1, t)
        assert geometry.certify(pair, mid).passed

    def test_endpoints_reproduce_inputs(self):
        pair = centered_square_pair()
        e0 = certificate(pair, CIRCLE_FORM)
        e1 = certificate(pair, AXIS_FORM)
        assert np.max(np.abs(ellipse_path(e0, e1, 0.0).theta - e0.theta)) <= 1e-12
        assert np.max(np.abs(ellipse_path(e0, e1, 1.0).theta - e1.theta)) <= 1e-12

    def test_parameter_range(self):
        pair = centered_square_pair()
        e0 = certificate(pair, CIRCLE_FORM)
        with pytest.raises(InputError):
            ellipse_path(e0, e0, 1.5)

    def test_blended_factorizations_differ(self, by_name):
        # the path yields genuinely different factorizations of one matrix
        m = by_name["nested-squares-circle"].matrix
        pair = centered_square_pair()
        e0 = certificate(pair, CIRCLE_FORM)
        e1 = certificate(pair, AXIS_FORM)
        mid = ellipse_path(e0, e1, 0.5)
        f0 = geometry.factorization_from_ellipse(m, pair, e0)
        fm = geometry.factorization_from_ellipse(m, pair, mid)
        assert factors.verify(m, fm).passed
        assert np.max(np.abs(f0.row_factors[0] - fm.row_factors[0])) > 1e-3


class TestMvee:
    def test_two_segments_give_unit_ball(self):
        shapes = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        res = sdp.min_volume_shape(shapes)
        assert np.max(np.abs(res.p - np.eye(2))) <= 1e-5

    def test_axis_aligned_closed_form(self):
        # diagonal shapes: optimal P_ii is 1 over the largest i-th entry
        shapes = [np.diag([4.0, 1.0]), np.diag([1.0, 9.0])]
        res = sdp.min_volume_shape(shapes)
        assert np.max(np.abs(res.p - np.diag([0.25, 1.0 / 9.0]))) <= 1e-5

    def test_rotation_equivariance(self):
        shapes = [np.diag([4.0, 1.0]), np.diag([1.0, 9.0])]
        c, s = np.cos(0.5), np.sin(0.5)
        r = np.array([[c, -s], [s, c]])
        base = sdp.min_volume_shape(shapes).p
        rotated = sdp.min_volume_shape([r @ s_ @ r.T for s_ in shapes]).p
        assert np.max(np.abs(rotated - r @ base @ r.T)) <= 1e-5

    def test_containment_margins_reported(self):
        res = sdp.min_volume_shape([np.eye(3)])
        assert np.min(res.containment_margins) >= -1e-9
        assert res.polar_slack <= 1e-8

    def test_failed_containment_raises(self, monkeypatch):
        # centering that lands on P = 2I leaves the unit ball outside
        monkeypatch.setattr(sdp, "_center", lambda cones, c, x, *rest: (4.0 * x, 0))
        with pytest.raises(NumericalFailure, match="containment"):
            sdp.min_volume_shape([np.eye(2)])
