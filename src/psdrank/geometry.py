"""Planar geometry behind psd rank 2: slack matrices, sandwich pairs,
the ellipse feasibility program, and factorization extraction.

A rank-3 nonnegative matrix is, after row normalization, the slack matrix of
a polygon P nested in a polyhedron Q. Its psd rank is 2 exactly when some
ellipse E satisfies P inside E inside Q; that containment is an SDP in the
quadratic form of E, with one multiplier per facet of Q tying E inside each
halfplane. Every such facet block holds the quadratic part of E as its
leading 2x2, so the program needs no separate psd block for it. A
certifying ellipse converts into an explicit size-2 factorization through a
fixed linear section of the 2x2 psd cone.

The question is invariant under affine maps of the plane, so the pair is
built in one chart: P is centered on its principal axes, read off one SVD
of the centered slack matrix. The solver sees that chart scaled per axis
(_frame), and its ellipse comes back to the chart by the same diagonal map.
Before the program is built, the framed pair's centered circle is screened
by _margins, the one evaluation of an ellipse on a pair; when it fits it
answers yes without the solver. certify re-checks every yes by _margins. A
vacuous facet 0 . x <= 0 (a zero column) gets multiplier 0 and no block.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, sdp
from .errors import DomainError, InputError, NumericalFailure
from .factors import PsdFactorization, make_factorization
from .linalg import DEFAULT_TOL

DEGENERATE_EIG = 1e-10


@dataclass(frozen=True)
class PolytopeV:
    vertices: np.ndarray  # (v, n)

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        if v.shape[0] < 1:
            raise InputError("polytope needs at least one vertex")
        if not np.all(np.isfinite(v)):
            raise InputError("vertices must be finite")
        object.__setattr__(self, "vertices", v)

    @property
    def dimension(self) -> int:
        return self.vertices.shape[1]


@dataclass(frozen=True)
class PolyhedronH:
    normals: np.ndarray  # (f, n), rows a_j
    offsets: np.ndarray  # (f,), values b_j; a_j . x <= b_j

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.normals, dtype=float))
        b = np.asarray(self.offsets, dtype=float).reshape(-1)
        if a.shape[0] != b.size or a.shape[0] < 1:
            raise InputError("need one offset per inequality")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise InputError("inequalities must be finite")
        object.__setattr__(self, "normals", a)
        object.__setattr__(self, "offsets", b)

    @property
    def dimension(self) -> int:
        return self.normals.shape[1]


@dataclass(frozen=True)
class SandwichPair:
    inner: PolytopeV
    outer: PolyhedronH

    def __post_init__(self):
        if self.inner.dimension != self.outer.dimension:
            raise InputError("inner and outer dimensions differ")

    def raw_slacks(self) -> np.ndarray:
        return self.outer.offsets[None, :] - self.inner.vertices @ self.outer.normals.T


def slack_matrix(p: PolytopeV, q: PolyhedronH, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Nonnegative matrix of slacks b_j - a_j . x_i; errors if P is not inside Q."""
    pair = SandwichPair(p, q)
    s = pair.raw_slacks()
    scale = linalg.scale_of(s)
    if np.min(s) < -tol * scale:
        worst = np.unravel_index(np.argmin(s), s.shape)
        raise DomainError(
            f"vertex {worst[0]} violates inequality {worst[1]} by {-float(s.min()):.3e}"
        )
    s = np.where(np.abs(s) <= tol * scale, 0.0, s)
    return s


def polytopes_from_matrix(m, tol: float = DEFAULT_TOL) -> SandwichPair:
    """Sandwich pair in R^(rank-1) whose slack matrix is the row-normalized input.

    Rows are rescaled to sum to one (a psd-rank-preserving diagonal
    scaling), giving N with column mean c. N - 1 c^T = U S V^T has rank
    rank(N) - 1, since N 1 = 1; keeping those terms, vertex i is row i of
    U S and facet j is -V_j . x <= c_j, so the slacks c_j + (U S V^T)_ij
    are N exactly. The vertices come out centered, on uncorrelated axes
    with variances S_k^2 / p (the principal axes of the vertex set).
    """
    mm = linalg.as_nonnegative(m, tol)
    sums = mm.sum(axis=1)
    if not sums.size or np.min(sums) <= tol * linalg.scale_of(mm):
        raise InputError("every row must have positive sum")
    norm = mm / sums[:, None]

    k = linalg.numerical_rank(norm, tol) - 1
    offsets = norm.mean(axis=0)
    u, s, vt = np.linalg.svd(norm - offsets, full_matrices=False)
    return SandwichPair(PolytopeV(u[:, :k] * s[:k]), PolyhedronH(-vt[:k].T, offsets))


# ---------------------------------------------------------------------------
# ellipses


@dataclass(frozen=True)
class Ellipse:
    theta: np.ndarray       # 3x3 symmetric [[A, b], [b^T, c]]
    multipliers: np.ndarray  # one per outer inequality

    def __post_init__(self):
        t = linalg.check_symmetric(np.asarray(self.theta, dtype=float), name="ellipse form")
        if t.shape != (3, 3):
            raise InputError("ellipse form must be 3x3")
        object.__setattr__(self, "theta", t)
        object.__setattr__(self, "multipliers", np.asarray(self.multipliers, dtype=float).reshape(-1))
        if not np.all(np.isfinite(self.multipliers)):
            raise InputError("ellipse multipliers must be finite")

    @property
    def a_form(self) -> np.ndarray:
        return self.theta[:2, :2]

    @property
    def b_vec(self) -> np.ndarray:
        return self.theta[:2, 2]

    @property
    def c_val(self) -> float:
        return float(self.theta[2, 2])

    def is_degenerate(self, tol: float = DEGENERATE_EIG) -> bool:
        return float(np.linalg.eigvalsh(self.a_form)[0]) < tol  # theta is checked in __post_init__

    def evaluate(self, x) -> float:
        """Quadratic q(x); the ellipse is {x : q(x) <= 0}."""
        h = np.append(np.asarray(x, dtype=float), 1.0)
        return float(h @ self.theta @ h)


def _facet_forms(normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """(f, 3, 3) forms F_j of the halfplanes g_j . x <= h_j: <F_j, (x, 1)(x, 1)^T>
    is g_j . x - h_j."""
    out = np.zeros((len(offsets), 3, 3))
    out[:, :2, 2] = normals / 2.0
    out[:, 2, :2] = normals / 2.0
    out[:, 2, 2] = -offsets
    return out


@dataclass(frozen=True)
class EllipseCheck:
    trace_error: float
    psd_violation: float
    vertex_violation: float
    facet_violation: float
    multiplier_violation: float
    passed: bool

    @property
    def worst(self) -> float:
        return max(self.trace_error, self.psd_violation, self.vertex_violation,
                   self.facet_violation, self.multiplier_violation)


def _vacuous(outer: PolyhedronH) -> np.ndarray:
    """Mask of the facets 0 . x <= 0 within DEFAULT_TOL: the whole plane, no block."""
    return np.maximum(np.abs(outer.normals).max(axis=1), np.abs(outer.offsets)) <= DEFAULT_TOL


def _margins(pair: SandwichPair, theta: np.ndarray, lam: np.ndarray):
    """(-q(v) per vertex, lam, the smallest eigenvalue of every non-vacuous
    facet block theta - lam_j F_j) of the ellipse (theta, lam) on a planar
    pair: >= 0 where a constraint holds, ellipse_program's margins at x for
    theta = _theta(x), lam = x[5:]."""
    verts, outer = pair.inner.vertices, pair.outer
    h = np.hstack([verts, np.ones((len(verts), 1))])
    blocks = theta - lam[:, None, None] * _facet_forms(outer.normals, outer.offsets)
    facets = np.linalg.eigvalsh(blocks)[~_vacuous(outer), 0]
    return -np.einsum("va,ab,vb->v", h, theta, h), lam, facets


def certify(pair: SandwichPair, e: Ellipse, tol: float = 1e-7) -> EllipseCheck:
    """Re-check the three certificate constraint families at tolerance tol, the
    vertex, facet and multiplier ones by _margins (no block for a vacuous facet)."""
    a = e.a_form
    trace_error = abs(float(np.trace(a)) - 1.0)
    psd_violation = max(0.0, -linalg.min_eig(a))
    if e.multipliers.size != pair.outer.offsets.size:
        raise InputError("multiplier count does not match the outer inequality count")
    rows, lam, facets = _margins(pair, e.theta, e.multipliers)
    vertex_violation, multiplier_violation, facet_violation = (
        max(0.0, -float(np.min(g, initial=0.0))) for g in (rows, lam, facets))
    worst = max(trace_error, psd_violation, vertex_violation, facet_violation, multiplier_violation)
    return EllipseCheck(trace_error, psd_violation, vertex_violation,
                        facet_violation, multiplier_violation, worst <= tol)


def _theta(x) -> np.ndarray:
    """Theta at variables (u, a12, b1, b2, c, ..): trace 1 in its quadratic part."""
    u, a12, b1, b2, c = x[:5]
    return np.array([[0.5 + u, a12, b1], [a12, 0.5 - u, b2], [b1, b2, c]])


# (6, 3, 3): Theta's constant term, then d Theta / d (u, a12, b1, b2, c)
_THETA_COEFFS = np.array([_theta(e) for e in np.eye(6, 5, -1)])
_THETA_COEFFS[1:] -= _THETA_COEFFS[0]


def ellipse_program(pair: SandwichPair) -> sdp.SdpProblem:
    """The containment SDP: find Theta and multipliers lam_j >= 0 with
    every vertex inside and every facet S-procedure block
    Theta - lam_j F_j psd.

    Variables: (u, a12, b1, b2, c, lam_1..lam_f), read by _theta, whose
    A = [[1/2 + u, a12], [a12, 1/2 - u]] has trace 1 for every x: the scale
    of Theta is fixed by the parametrization, so the program has no
    equality, and x = 0 is A = I/2. A needs no block of its own: F_j is
    zero in its top-left 2x2, so A is the leading 2x2 of every facet
    block, and a psd facet block (minus tau I, in the margin program)
    makes A (minus tau I) psd. A PolyhedronH has at least one facet, so
    the program has two groups: the 1x1 vertex rows and multiplier signs,
    and the 3x3 facet blocks. A vacuous facet's block is Theta itself, never
    psd: decide builds the program on the _frame pair, which has none.
    """
    verts = pair.inner.vertices
    normals, offsets = pair.outer.normals, pair.outer.offsets
    if pair.inner.dimension != 2:
        raise InputError("ellipse program needs a planar pair")
    f = normals.shape[0]
    n = 5 + f
    v, j = len(verts), np.arange(f)

    # 1x1 group: the vertex rows q(x) = <Theta, h h^T> <= 0 with h = (x, 1),
    # then the multiplier signs lam_j >= 0
    h = np.hstack([verts, np.ones((v, 1))])
    quads = (h[:, :, None] * h[:, None, :]).reshape(v, 9)
    rows = np.zeros((n + 1, v + f, 1, 1))
    rows[:6, :v, 0, 0] = -(quads @ _THETA_COEFFS.reshape(6, 9).T).T
    rows[6 + j, v + j] = 1.0

    # 3x3 group: the facet blocks Theta - lam_j F_j
    facets = np.zeros((n + 1, f, 3, 3))
    facets[:6] = _THETA_COEFFS[:, None]
    facets[6 + j, j] = -_facet_forms(normals, offsets)

    return sdp.SdpProblem(n=n, blocks=[rows, facets])


# variance floor of the whitening frame, relative to the total vertex
# variance: a full whitening stretches thin pairs until the ellipse degenerates
FRAME_RIDGE = 1e-2


def _frame(pair: SandwichPair):
    """(framed pair, h, s, keep): the pair, less its vacuous facets, under the
    map y = d * x, facet j of keep divided by the length s_j of its normal.

    The vertices of a polytopes_from_matrix pair are centered on
    uncorrelated axes, so with v_k the mean of x_k^2 over the vertices,
    d_k = (v_k + FRAME_RIDGE sum(v))^-1/2 whitens them, and h = diag(d, 1)
    maps (x, 1) to (y, 1), so a framed form Theta' pulls back to
    h Theta' h. A facet whose normal alone is numerically zero (a constant
    column: the halfplane is the whole plane) keeps s_j = 1.
    """
    verts = pair.inner.vertices
    var = np.mean(verts * verts, axis=0)
    d = 1.0 / np.sqrt(var + FRAME_RIDGE * var.sum())
    keep = ~_vacuous(pair.outer)
    # a . x <= b reads (a / d) . y <= b
    normals = pair.outer.normals[keep] / d
    offsets = pair.outer.offsets[keep]
    s = np.linalg.norm(normals, axis=1)
    s = np.where(s > DEFAULT_TOL * np.abs(offsets), s, 1.0)
    framed = SandwichPair(PolytopeV(verts * d), PolyhedronH(normals / s[:, None], offsets / s))
    return framed, np.diag(np.append(d, 1.0)), s, keep


def _circle_candidate(framed: SandwichPair) -> np.ndarray:
    """ellipse_program variables of the centered circle |y|^2 <= R^2 of a
    _frame pair: Theta = diag(1/2, 1/2, -R^2/2).

    A facet g . y <= h with |g| = 1 leaves its block the Schur complement
    (h^2 - R^2)/2 - (lam - h)^2/2 of the leading I/2, largest at lam = h.
    A facet with a numerically zero normal has corner lam h - R^2/2, which
    lam = (1/2 + R^2/2)/h sets to 1/2; a nonpositive offset keeps lam = 0.
    R^2 sits midway between the largest squared vertex norm and the
    smallest squared offset of a unit-normal facet, so the vertex rows and
    those Schur complements all get at least a quarter of that gap.
    """
    verts = framed.inner.vertices
    normals, offsets = framed.outer.normals, framed.outer.offsets
    unit = np.linalg.norm(normals, axis=1) > 0.5
    r2 = 0.5 * (np.max(np.sum(verts * verts, axis=1)) + np.min(offsets[unit] ** 2))
    flat = np.divide(0.5 + 0.5 * r2, offsets, out=np.zeros_like(offsets), where=offsets > 0)
    return np.concatenate([[0.0, 0.0, 0.0, 0.0, -0.5 * r2], np.where(unit, offsets, flat)])


def decide_psd_rank_le_2(m):
    """(answer, certificate): is the psd rank of m at most 2?

    Matrices of usual rank <= 2 are a yes without a certificate (psd rank is
    at most the rank); rank >= 4 is a no since a size-2 factorization forces
    rank <= 3. The rank-3 core builds the planar pair of polytopes_from_matrix
    and works on its _frame, without vacuous facets, where the vertices have
    about unit spread and every facet a unit normal; near the boundary of
    the psd-rank-2 region the raw pair's scales leave the margin and the
    dual both short of a decision. In that frame a centered circle often
    fits (_circle_candidate): when its _margins reach sdp.DECISIVE, the
    margin at which solve's path stops as feasible, it is the framed answer
    and no program is built. Otherwise solve decides the ellipse_program.
    A framed ellipse Theta' with multipliers lambda' maps back to
    Theta = h Theta' h and lambda_j = lambda'_j / s_j (0 on a vacuous
    facet), divided by the trace of the quadratic part, so the certificate
    is for the pair polytopes_from_matrix(m) itself. A yes, from the circle
    or from solve, is returned only once certify passes on that pair; a
    certificate that fails it, as a solver margin inside FEAS_TOL can after
    the back-map, raises NumericalFailure like an undecided program.
    """
    mm = linalg.as_matrix(m)
    r = linalg.numerical_rank(mm)
    if r <= 2:
        return True, None
    if r >= 4:
        return False, None

    pair = polytopes_from_matrix(mm)
    framed, h, s, keep = _frame(pair)
    x = _circle_candidate(framed)
    if np.concatenate(_margins(framed, _theta(x), x[5:])).min() < sdp.DECISIVE:
        sol = sdp.solve(ellipse_program(framed))
        if sol.status == "infeasible":
            return False, None
        if sol.status != "feasible":
            raise NumericalFailure(f"ellipse program undecided (margin {sol.margin}, gap {sol.gap})")
        x = sol.x
    theta = h @ _theta(x) @ h
    tr = float(np.trace(theta[:2, :2]))
    lam = np.zeros(keep.size)
    lam[keep] = np.clip(x[5:], 0.0, None) / s / tr
    ellipse = Ellipse(theta / tr, lam)
    check = certify(pair, ellipse)
    if not check.passed:
        raise NumericalFailure(f"ellipse certificate fails its re-check (worst {check.worst:.2e})")
    return True, ellipse


# ---------------------------------------------------------------------------
# factorization extraction


def _psd_section_maps(e: Ellipse):
    """Linear map phi with phi(psd cone of S^2) = cone over the ellipse.

    The section X = [[x1, x2], [x2, x3]] -> (x1+x3, x1-x3, 2 x2) carries the
    cone onto w1 >= |(w2, w3)|; a permutation plus the affine disk-to-ellipse
    map then lands on cone{(x, 1) : q(x) <= 0}.
    """
    if e.is_degenerate():
        raise DomainError("degenerate certificate: quadratic part is singular")
    roots = linalg.psd_roots(e.a_form)
    center = -roots.pinv @ e.b_vec
    rho = float(e.b_vec @ roots.pinv @ e.b_vec) - e.c_val
    if rho < DEGENERATE_EIG:
        raise DomainError("degenerate certificate: empty or pointlike ellipse")
    sq = np.sqrt(rho)

    # disk cone (u1, u2, s) -> plane point (x, s): x = s*center + sq*inv_sqrt(A) u
    t_aff = np.zeros((3, 3))
    t_aff[:2, :2] = sq * roots.inv_sqrt
    t_aff[:2, 2] = center
    t_aff[2, 2] = 1.0
    perm = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    return t_aff @ perm  # applied after the section map


def _sections(w):
    """[[w0 + w1, w2], [w2, w0 - w1]] for every row w of a (B, 3) array: the
    adjoint of the section map, and twice its inverse."""
    w0, w1, w2 = w.T
    return np.stack([w0 + w1, w2, w2, w0 - w1], axis=-1).reshape(-1, 2, 2)


def factorization_from_ellipse(m, pair: SandwichPair, e: Ellipse,
                               tol: float = DEFAULT_TOL) -> PsdFactorization:
    """Size-2 psd factorization of m from an ellipse certificate of its pair.

    Row factors are preimages of the homogenized vertices under the cone
    isomorphism, scaled per row to undo the slack normalization; column
    factors are adjoint images of the facet functionals (h_j, -g_j).
    """
    mm = linalg.as_matrix(m)
    if np.iscomplexobj(mm):
        raise InputError("matrix must be real")
    if linalg.numerical_rank(mm) != 3:
        raise DomainError("extraction needs a rank-3 matrix")
    slack = pair.raw_slacks()
    if mm.shape != slack.shape:
        raise InputError("matrix shape does not match the pair")
    msums = mm.sum(axis=1)
    ssums = slack.sum(axis=1)
    if np.any(ssums <= tol):
        raise DomainError("pair has a vertex with all-zero slack")
    ratios = msums / ssums
    if np.max(np.abs(mm - ratios[:, None] * slack)) > 1e-6 * linalg.scale_of(mm):
        raise InputError("matrix is not a row rescaling of the pair's slack matrix")

    fwd = _psd_section_maps(e)
    inv = np.linalg.inv(fwd)

    vertices = pair.inner.vertices
    w = np.column_stack([vertices, np.ones(len(vertices))]) @ inv.T
    y = np.column_stack([-pair.outer.normals, pair.outer.offsets]) @ fwd
    return make_factorization(ratios[:, None, None] * (_sections(w) / 2.0), _sections(y), "real")

