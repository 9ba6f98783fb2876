import numpy as np
import pytest

from psdrank import factors, families, geometry, linalg, sdp
from psdrank.errors import DomainError, InputError, NumericalFailure
from psdrank.sdp import SdpProblem

from conftest import (StackedCongruenceCone, coefficient_blocks, damped_center,
                      nested_rectangles_pair, newton_direction)


def sym(rng, *shape):
    """Random symmetric matrices, shape (.., s, s)."""
    a = rng.standard_normal(shape)
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def feasible_problem(rng, n, groups):
    """Plant a strictly feasible point with margin at least 1/2 per block;
    groups lists (s, B) for a group of B blocks of size s."""
    x0 = rng.standard_normal(n)
    out = []
    for s, count in groups:
        fs = sym(rng, n, count, s, s)
        r = rng.standard_normal((count, s, s))
        slack = r @ r.transpose(0, 2, 1) + 0.5 * np.eye(s)
        out.append(np.concatenate([(slack - np.tensordot(x0, fs, axes=1))[None], fs]))
    return SdpProblem(n, out), x0


def infeasible_problem(rng, n, s):
    """Farkas pair: a scalar block forces <Z, second block> <= -1 < 0."""
    z = sym(rng, s, s)
    z = z @ z.T + 0.1 * np.eye(s)
    coeffs = sym(rng, n + 1, 1, s, s)
    scalar = -np.tensordot(coeffs, z, axes=2)
    scalar[0] -= 1.0
    return SdpProblem(n, [scalar[:, :, None, None], coeffs])


def scalar_group(*coeffs):
    """The 1x1 group whose coefficient i is coeffs[i], one entry per block."""
    return np.array(coeffs, dtype=float)[:, :, None, None]


class TestProblemValidation:
    def test_block_arity(self):
        # a wrong leading length: two coefficient matrices for two variables
        with pytest.raises(InputError):
            SdpProblem(2, [np.stack([np.eye(2), np.eye(2)])[:, None]])

    def test_asymmetric_coefficient(self):
        with pytest.raises(DomainError):
            SdpProblem(1, [np.stack([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]])[:, None]])

    def test_one_asymmetric_block_in_a_group(self):
        group = np.broadcast_to(np.eye(2), (2, 3, 2, 2)).copy()
        group[1, 2, 0, 1] = 1.0
        # coefficient 1 of block 2 is matrix 1 * 3 + 2 of the group
        with pytest.raises(DomainError, match="block matrix 5 "):
            SdpProblem(1, [group])

    def test_ragged_group(self):
        # coefficient matrices of two sizes in one group
        with pytest.raises(InputError):
            SdpProblem(1, [[np.eye(2)[None], np.eye(3)[None]]])
        with pytest.raises(InputError):
            SdpProblem(1, [[np.zeros((2, 2, 2)), np.zeros((2, 3, 3))]])

    def test_group_needs_four_axes(self):
        # a per-block (n+1, s, s) stack is not a group
        with pytest.raises(InputError):
            SdpProblem(1, [np.stack([np.eye(2), np.eye(2)])])
        with pytest.raises(InputError):
            SdpProblem(1, [np.zeros((2, 0, 2, 2))])

    @pytest.mark.parametrize("shape", [(2, 1, 0, 0), (2, 3, 0, 0), (2, 1, 2, 0), (2, 1, 0, 2)])
    def test_empty_blocks_rejected(self, shape):
        with pytest.raises(InputError, match="s >= 1"):
            SdpProblem(1, [np.zeros(shape)])

    def test_non_square_blocks(self):
        with pytest.raises(DomainError):
            SdpProblem(1, [np.zeros((2, 1, 2, 3))])

    def test_no_blocks(self):
        with pytest.raises(InputError):
            SdpProblem(1, [])

    def test_margins_evaluates_section(self):
        # a 2x2 group x I, then the 1x1 group x + 1 and x - 1
        p = SdpProblem(1, [np.stack([np.zeros((2, 2)), np.eye(2)])[:, None],
                           scalar_group([1.0, -1.0], [1.0, 1.0])])
        assert np.allclose(p.margins([3.0]), [3.0, 4.0, 2.0])

    def test_margins_match_the_checked_eigenvalues_bitwise(self):
        # margins only symmetrizes the sections; the checked path through
        # linalg.eig_extremes must give the same bits
        rng = np.random.default_rng(31)
        programs = [feasible_problem(rng, 4, [(1, 3), (2, 2), (3, 2)])[0],
                    geometry.ellipse_program(nested_rectangles_pair(0.4, 0.7)),
                    geometry.ellipse_program(
                        geometry.polytopes_from_matrix(families.circulant3(1.0, 1.3, 0.4)))]
        for p in programs:
            for scale in (1e-3, 1.0, 30.0):
                x = scale * rng.standard_normal(p.n)
                ref = np.concatenate([linalg.eig_extremes(v)[0] for v in p.block_values(x)])
                assert np.array_equal(p.margins(x), ref)


class TestFeasibility:
    def test_margin_point_on_request(self):
        # 1 + x >= 0 and 3 - x >= 0
        sol = sdp.solve(SdpProblem(1, [scalar_group([1.0, 3.0], [1.0, -1.0])]))
        assert sol.status == "feasible"
        assert abs(sol.x[0] - 1.0) <= 1e-4

    def test_empty_interval_infeasible(self):
        # x >= 1 and x <= -1
        sol = sdp.solve(SdpProblem(1, [scalar_group([-1.0, -1.0], [1.0, -1.0])]))
        assert sol.status == "infeasible"
        cert = sol.certificate
        assert cert["kind"] == "separating-dual"
        assert cert["value"] <= -1e-6
        assert cert["residual"] <= 1e-7 * cert["scale"]

    def test_random_feasible_batch(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            # two 1x1 groups apart, both joined into the diagonal cone
            p, _ = feasible_problem(rng, 3, [(1, 2), (2, 2), (1, 1), (3, 1)])
            sol = sdp.solve(p)
            assert sol.status == "feasible"
            assert sol.margin >= -1e-7
            assert np.all(sol.block_margins >= -1e-7)

    def test_random_infeasible_batch(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = infeasible_problem(rng, 3, 3)
            sol = sdp.solve(p)
            assert sol.status == "infeasible"
            cert = sol.certificate
            assert cert["value"] <= -1e-6
            assert cert["residual"] <= 1e-7 * cert["scale"]

    def test_certificate_blocks_are_psd(self):
        rng = np.random.default_rng(5)
        p = infeasible_problem(rng, 2, 3)
        sol = sdp.solve(p)
        for z in sol.certificate["blocks"]:
            assert np.min(np.linalg.eigvalsh(z)) >= -1e-9


class TestBarrierKernel:
    """One flattened cone per group against a plain per-block reference."""

    # (size, count) per group
    GROUPS = [(1, 3), (2, 2), (3, 2)]

    def setup_method(self):
        rng = np.random.default_rng(23)
        self.n = 4
        # the planted point sits inside every block
        problem, self.x_in = feasible_problem(rng, self.n, self.GROUPS)
        self.groups = problem.blocks
        self.weights = [rng.uniform(0.5, 3.0, g.shape[1]) for g in self.groups]
        self.cones = [sdp._cone(g, w) for g, w in zip(self.groups, self.weights)]

    def reference(self, x):
        """Per-block values, barrier, gradient and Hessian via inv and slogdet."""
        values, bar = [], 0.0
        grad, hess = np.zeros(self.n), np.zeros((self.n, self.n))
        for group, weights in zip(self.groups, self.weights):
            for blk, w in zip(group.transpose(1, 0, 2, 3), weights):
                f = blk[0] + np.tensordot(x, blk[1:], axes=1)
                values.append(f)
                if np.min(np.linalg.eigvalsh(f)) <= 0:
                    bar = np.inf
                    continue
                _, logdet = np.linalg.slogdet(f)
                fi_g = [np.linalg.inv(f) @ g for g in blk[1:]]
                bar -= w * logdet
                grad -= w * np.array([np.trace(a) for a in fi_g])
                hess += w * np.array([[np.trace(a @ b) for b in fi_g] for a in fi_g])
        return values, bar, grad, hess

    def test_cones_group_by_size(self):
        assert [type(c).__name__ for c in self.cones] == ["_DiagCone", "_Cone", "_Cone"]

    def test_values_barrier_and_derivatives_agree_inside(self):
        x = self.x_in
        ref_values, ref_bar, ref_grad, ref_hess = self.reference(x)
        assert np.isfinite(ref_bar)
        ref = np.concatenate([v.reshape(-1) for v in ref_values])
        got = np.concatenate([cone.values(x).reshape(-1) for cone in self.cones])
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        facs = [cone.factor(x) for cone in self.cones]
        bar = sum(fac[0] for fac in facs)
        grad = sum(cone.grad_hess(fac)[0] for cone, fac in zip(self.cones, facs))
        hess = sum(cone.grad_hess(fac)[1] for cone, fac in zip(self.cones, facs))
        assert abs(bar - ref_bar) <= 1e-12 * max(1.0, abs(ref_bar))
        assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))
        assert np.max(np.abs(hess - ref_hess)) <= 1e-12 * np.max(np.abs(ref_hess))

    def test_barrier_is_infinite_outside(self):
        # far enough along +-(1, .., 1) some block of every cone turns indefinite
        for cone in self.cones:
            outside = None
            for scale in (1e1, 1e2, 1e3, 1e4):
                for sign in (1.0, -1.0):
                    x = self.x_in + sign * scale * np.ones(self.n)
                    v = cone.values(x)
                    v = v.reshape(-1, 1, 1) if v.ndim == 1 else v
                    if np.min(np.linalg.eigvalsh(v)) < 0:
                        outside = x
                        break
                if outside is not None:
                    break
            assert outside is not None
            assert cone.factor(outside) is None
            assert self.reference(outside)[1] == np.inf

    def test_potential_and_center_reject_outside_start(self):
        x = self.x_in + 1e4 * np.ones(self.n)
        assert sdp._factor(self.cones, np.zeros(self.n), x) == (np.inf, None)
        with pytest.raises(NumericalFailure):
            sdp._center(self.cones, np.zeros(self.n), x)


class TestCongruenceCone:
    """The congruence kernel against the generic kernel over the coefficient stack."""

    @staticmethod
    def roots(rng, d, n):
        """n symmetric roots with top eigenvalue <= 1; every third has rank 1."""
        out = []
        for b in range(n):
            g = rng.standard_normal((d, 1 if b % 3 == 0 else d))
            w, v = np.linalg.eigh(g @ g.T)
            r = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
            out.append(r / np.linalg.eigvalsh(r)[-1])
        return np.stack(out)

    @pytest.mark.parametrize("d, n", [(2, 3), (3, 6), (5, 8)])
    def test_kernel_matches_coefficient_stack(self, d, n):
        rng = np.random.default_rng(40 + d)
        # an own block X >= 0 plus blocks c I +- R X R with c >= 1
        consts = np.r_[0.0, rng.uniform(1.0, 2.0, n)]
        roots = np.concatenate([np.eye(d)[None], self.roots(rng, d, n)])
        signs = np.r_[1.0, rng.choice([-1.0, 1.0], n)]
        weights = rng.uniform(0.5, 3.0, n + 1)
        new = sdp._CongruenceCone(consts, roots, signs, weights)
        ref = sdp._cone(coefficient_blocks(consts, roots, signs), weights)
        for _ in range(3):
            # eigenvalues of X in [0.1, 0.5] keep every block positive definite
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            x = linalg.vecm((q * rng.uniform(0.1, 0.5, d)) @ q.T)
            v_ref = ref.values(x)
            assert np.max(np.abs(new.values(x) - v_ref)) <= 1e-10 * np.max(np.abs(v_ref))
            f_new, f_ref = new.factor(x), ref.factor(x)
            assert abs(f_new[0] - f_ref[0]) <= 1e-10 * max(1.0, abs(f_ref[0]))
            (g_new, h_new), (g_ref, h_ref) = new.grad_hess(f_new), ref.grad_hess(f_ref)
            assert np.max(np.abs(g_new - g_ref)) <= 1e-10 * np.max(np.abs(g_ref))
            assert np.max(np.abs(h_new - h_ref)) <= 1e-10 * np.max(np.abs(h_ref))
            assert np.array_equal(new.smat(x), linalg.sym(new.smat(x)))

    @pytest.mark.parametrize("case", ["derangement6", "derangement10", "derangement15",
                                      "derangement21", "derangement28", "rank-deficient"])
    def test_min_volume_shape_matches_stacked_path(self, case, monkeypatch):
        if case == "rank-deficient":
            rng = np.random.default_rng(5)
            vs = rng.standard_normal((6, 4))
            shapes = [np.outer(v, v) for v in vs] + [np.diag([1.0, 2.0, 0.0, 0.0])]
        else:
            f = factors.derangement_factorization(int(case[len("derangement"):]))
            shapes = factors.compress_to_common_span(f, linalg.DEFAULT_TOL)[0].row_factors
        got = sdp.min_volume_shape(shapes)
        monkeypatch.setattr(sdp, "_CongruenceCone", StackedCongruenceCone)
        ref = sdp.min_volume_shape(shapes)
        assert got.newton_steps == ref.newton_steps > 0
        assert np.max(np.abs(got.p - ref.p)) <= 1e-12 * np.max(np.abs(ref.p))
        assert np.min(got.containment_margins) >= -1e-9

    def test_newton_steps_count_stages(self, monkeypatch):
        # centering steps plus one per path stage, as in SdpSolution
        center = sdp._center
        counted = []

        def counting(*args, **kwargs):
            out = center(*args, **kwargs)
            counted.append(out[1] + 1)
            return out

        monkeypatch.setattr(sdp, "_center", counting)
        res = sdp.min_volume_shape([np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.ones((2, 2))])
        assert len(counted) > 1
        assert res.newton_steps == sum(counted)


class TestLineMin:
    """The exact line minimizer against the potential on a dense grid."""

    @staticmethod
    def line_potential(cones, c_lin, x, dx, alphas):
        base = sdp._factor(cones, c_lin, x)[0]
        return np.array([sdp._factor(cones, c_lin, x + a * dx)[0] - base for a in alphas])

    @pytest.mark.parametrize("bounded", [True, False])
    def test_matches_dense_grid(self, bounded):
        rng = np.random.default_rng(37)
        n = 4
        if bounded:
            # a Newton direction of a far-off potential: some block leaves
            # the cone at a finite a_max
            problem, x = feasible_problem(rng, n, [(1, 2), (2, 2), (3, 1)])
            cones = [sdp._cone(g) for g in problem.blocks]
            c_lin = 30.0 * rng.standard_normal(n)
            dx = newton_direction(cones, c_lin, x)[0]
        else:
            # every block is S_b + x_0 I + ...: along e_0 every block grows
            cones = []
            for s, count in ((1, 2), (2, 2), (3, 1)):
                r = rng.standard_normal((count, s, s))
                cones.append(sdp._cone(np.concatenate([
                    (r @ r.transpose(0, 2, 1) + 0.5 * np.eye(s))[None],
                    np.broadcast_to(np.eye(s), (1, count, s, s)),
                    sym(rng, n - 1, count, s, s)])))
            x, dx = np.zeros(n), np.eye(n)[0]
            c_lin = np.zeros(n)
        facs = sdp._factor(cones, c_lin, x)[1]
        mu, w = map(np.concatenate, zip(*(cone.slopes(fac, dx) for cone, fac in zip(cones, facs))))
        if not bounded:
            c_lin[0] = 0.3 * float(w @ mu)
        assert (mu.min() < 0) == bounded
        a_max = -1.0 / mu.min() if bounded else 50.0
        alpha = sdp._line_min(float(c_lin @ dx), mu, w)
        grid = np.linspace(0.0, a_max, 5001)[1:-1]
        h = self.line_potential(cones, c_lin, x, dx, grid)
        best = int(np.argmin(h))
        assert 0 < best < grid.size - 1
        assert abs(alpha - grid[best]) <= 2.0 * (grid[1] - grid[0])
        h_alpha = self.line_potential(cones, c_lin, x, dx, [alpha])[0]
        assert h_alpha <= h[best] + 1e-12 * (1.0 + abs(h[best]))

    def test_unbounded_line_raises(self):
        # no mu is negative, so no block ever leaves the cone: a positive
        # c.dx still bounds h below, a negative one leaves h' < 0 everywhere
        assert sdp._line_min(0.1, np.array([0.5, 2.0]), np.ones(2)) > 0
        with pytest.raises(NumericalFailure):
            sdp._line_min(-1.0, np.array([0.5, 2.0]), np.ones(2))

    def test_far_pole_from_rounding_keeps_the_minimizer(self):
        # eigenvalues of +-1e-22 left by rounding put a_max near 7e21
        mu = np.array([0.68, 0.68, 0.45, -1.4e-22, 1.4e-22])
        w = np.ones(mu.size)
        clean = sdp._line_min(0.68, mu[:3], w[:3])
        assert 0.5 < clean < 50.0
        assert abs(sdp._line_min(0.68, mu, w) - clean) <= 1e-9 * clean


class TestCentering:
    """_center against the damped Newton reference of conftest."""

    @staticmethod
    def case(kind):
        if kind == "congruence":
            # a John program stage: own block X >= 0 at weight 50, I - R X R
            rng = np.random.default_rng(31)
            d, nb = 3, 5
            roots = np.concatenate([np.eye(d)[None], TestCongruenceCone.roots(rng, d, nb)])
            cone = sdp._CongruenceCone(np.r_[0.0, np.ones(nb)], roots, np.r_[1.0, -np.ones(nb)],
                                       np.r_[50.0, np.ones(nb)])
            return [cone], np.zeros(d * (d + 1) // 2), linalg.vecm(0.5 * np.eye(d))
        # mixed 1x1, 2x2 and 3x3 blocks in a box, far from the center of a
        # steep linear term
        rng = np.random.default_rng(29)
        n = 4
        problem, x0 = feasible_problem(rng, n, TestBarrierKernel.GROUPS)
        groups = problem.blocks + [sdp._box_blocks(n, n, 10.0)]
        cones = [sdp._cone(g, rng.uniform(0.5, 3.0, g.shape[1])) for g in groups]
        return cones, 20.0 * rng.standard_normal(n), x0

    @pytest.mark.parametrize("kind", ["blocks", "congruence"])
    def test_matches_damped_reference_in_fewer_steps(self, kind):
        cones, c_lin, x0 = self.case(kind)
        x, steps = sdp._center(cones, c_lin, x0)
        _, ref_steps = damped_center(cones, c_lin, x0)
        # the reference run to float resolution, then its last Newton step
        x_ref, _ = damped_center(cones, c_lin, x0, inner_tol=0.0)
        x_ref = x_ref + newton_direction(cones, c_lin, x_ref)[0]
        assert np.max(np.abs(x - x_ref)) <= 1e-9 * np.max(np.abs(x_ref))
        assert steps < ref_steps

    @pytest.mark.parametrize("kind", ["blocks", "congruence"])
    def test_returned_point_is_centered(self, kind):
        cones, c_lin, x0 = self.case(kind)
        x, _ = sdp._center(cones, c_lin, x0)
        assert newton_direction(cones, c_lin, x)[1] <= 1e-10

    @pytest.mark.parametrize("kind", ["blocks", "congruence"])
    def test_quadratic_phase_takes_full_steps(self, kind, monkeypatch):
        cones, c_lin, x0 = self.case(kind)
        center, _ = sdp._center(cones, c_lin, x0)
        # back off from the start toward the center until the decrement is
        # below 1/16, where every later decrement stays
        start = x0
        while newton_direction(cones, c_lin, start)[1] > 0.05:
            start = 0.5 * (start + center)
        assert newton_direction(cones, c_lin, start)[1] > 1e-4

        def no_line_search(*args):
            raise AssertionError("line search in the quadratic phase")

        monkeypatch.setattr(sdp, "_line_min", no_line_search)
        x, steps = sdp._center(cones, c_lin, start)
        assert steps >= 2
        assert np.max(np.abs(x - center)) <= 1e-9 * np.max(np.abs(center))


    def test_stop_returns_the_first_iterate_it_accepts(self):
        cones, c_lin, x0 = self.case("blocks")
        _, full_steps = sdp._center(cones, c_lin, x0)
        seen = []

        def third(x):
            seen.append(x.copy())
            return len(seen) == 3

        assert full_steps > 3
        x, steps = sdp._center(cones, c_lin, x0, stop=third)
        assert len(seen) == steps == 3
        assert np.array_equal(x, seen[-1])


class TestEllipseSection:
    def test_boundary_family_is_feasible(self):
        pair = geometry.polytopes_from_matrix(families.circulant3(1.0, 1.0, 4.0))
        sol = sdp.solve(geometry.ellipse_program(pair))
        assert sol.status in ("feasible", "optimal")

    def test_outside_region_is_infeasible(self):
        pair = nested_rectangles_pair(0.9, 0.9)
        sol = sdp.solve(geometry.ellipse_program(pair))
        assert sol.status == "infeasible"

    def test_solve_is_bit_identical_on_repeat(self):
        pair = geometry.polytopes_from_matrix(families.circulant3(1.0, 1.3, 0.4))
        program = geometry.ellipse_program(pair)
        a = sdp.solve(program)
        b = sdp.solve(program)
        assert a.status == b.status == "feasible"
        assert np.array_equal(a.x, b.x)
        assert a.newton_steps == b.newton_steps

    def test_solve_ends_at_the_first_decisive_iterate(self, monkeypatch):
        center = sdp._center
        stages = []

        def recording(cones, c_lin, x0, stop=None):
            # tau at the stage's start, then at every iterate stop is asked about
            taus = [float(x0[-1])]
            stages.append(taus)

            def spy(x):
                taus.append(float(x[-1]))
                return stop(x)

            return center(cones, c_lin, x0, stop=spy)

        monkeypatch.setattr(sdp, "_center", recording)
        pair = geometry.polytopes_from_matrix(families.circulant3(1.0, 1.3, 0.4))
        sol = sdp.solve(geometry.ellipse_program(pair))
        assert sol.status == "feasible"
        assert sol.margin >= sdp.DECISIVE
        final = stages[-1]
        assert final[-1] >= sdp.DECISIVE > final[-2]
        assert all(tau < sdp.DECISIVE for taus in stages[:-1] for tau in taus)


class TestMinVolumeShape:
    def test_single_ball(self):
        res = sdp.min_volume_shape([4.0 * np.eye(2)])
        assert np.max(np.abs(res.p - np.eye(2) / 4.0)) <= 1e-6
        assert res.polar_slack <= 1e-8

    def test_two_segments_need_unit_ball(self):
        # segments to (1,0) and (0,1): smallest symmetric ellipse has P = I
        shapes = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        res = sdp.min_volume_shape(shapes)
        assert np.max(np.abs(res.p - np.eye(2))) <= 1e-5

    def test_containment_margins_nonnegative(self):
        rng = np.random.default_rng(2)
        shapes = []
        for _ in range(4):
            r = rng.standard_normal((3, 3))
            shapes.append(r @ r.T)
        res = sdp.min_volume_shape(shapes)
        assert np.min(res.containment_margins) >= -1e-8

    def test_degenerate_union_rejected(self):
        with pytest.raises(InputError):
            sdp.min_volume_shape([np.diag([1.0, 0.0]), np.diag([2.0, 0.0])])
