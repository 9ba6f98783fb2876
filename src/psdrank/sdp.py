"""Small dense semidefinite feasibility solver over block LMI constraints.

Problems are affine sections of psd cones: each block is a coefficient list
(F0, F1, .., Fn) meaning F0 + sum_i x_i F_i >= 0, and the caller groups the
blocks by size, one (n+1, B, s, s) stack per group. There are no equality
constraints; a caller parametrizes any it needs into its variables, as
geometry.ellipse_program does for the trace of its ellipse. solve decides
whether the section is nonempty through an always-strictly-feasible
max-margin reformulation: maximize tau subject to every block minus tau I
staying psd, in a box |x_i| <= BOX. A plain logarithmic-barrier path
follower with Newton centering runs it inside solve. On the feasible side
it ends at the first Newton iterate with tau >= DECISIVE, which need not
finish its centering stage: every iterate in the barrier domain already
has each block minus tau I positive definite, and that iterate is the
answer. On the infeasible side the barrier's dual, normalized to trace 1
and re-verified, is a separating certificate. solve takes no settings:
GAP_TOL, FEAS_TOL and the other tolerances below are module constants.
Everything is dense and deterministic; intended for block sizes up to ~30
and a few hundred variables.

The barrier kernel makes one cone per group and keeps its coefficients
flattened, one row per variable, so a section is
F0 + (x @ G).reshape(B, s, s): one matmul for every block of the group.
All 1x1 groups, the margin cap and the box bounds form one diagonal cone
with a closed-form gradient and Hessian. Each Newton iterate costs one
batched eigendecomposition per cone: it gives the log-determinant, the
domain check, F^-1 for the gradient and Hessian, and F^-1/2 for the
eigenvalues mu of F^-1/2 dF F^-1/2 along the Newton direction dx. With
those the potential along dx is a c.dx - sum w log(1 + a mu) in closed
form, and the step is its exact minimizer (the plane search of
Vandenberghe & Boyd, "Semidefinite programming", SIAM Review 1996) until
the Newton decrement falls to 1/4, the full step after that; no trial
point is factored.

Determinant maximization over one symmetric d x d matrix X = smat(x) uses a
congruence cone instead: every block is F_b = c_b I + sigma_b R_b X R_b, so
the cone keeps the stacked roots R_b and no coefficient rows. With
W_b = R_b F_b^-1 R_b the gradient is -sum_b w_b sigma_b vecm(W_b) and the
Hessian sum_b w_b <E_a, W_b E_c W_b> is one (d^2 x B)(B x d^2) product,
read at the index pairs of the vecm basis E_a.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InputError, NumericalFailure

# a separating dual is reported only if its value reaches -CERT_TOL
CERT_TOL = 1e-6
# the max-margin path stops once its duality gap is at most GAP_TOL
GAP_TOL = 1e-8
# a margin of at least -FEAS_TOL is feasible; residuals are judged against it
FEAS_TOL = 1e-7
# a max-margin iterate with margin at least DECISIVE ends the path as feasible
DECISIVE = 1e-6
# centering ends once the squared Newton decrement is at most 2 INNER_TOL
INNER_TOL = 1e-10
# growth of the barrier path parameter per centering stage
MU = 20.0
# Newton steps one centering may take before it fails
MAX_NEWTON = 120
# half-width of the box on the variables of the max-margin program
BOX = 1e6
# relative polar slack at which min_volume_shape ends its path
SLACK_TOL = 1e-8


@dataclass
class SdpProblem:
    """Blocks F0 + sum_i x_i F_i >= 0 in n variables, grouped by size by the
    caller: each entry of blocks is an (n+1, B, s, s) stack, coefficient
    matrix i of each of its B blocks of size s. Any number of groups, in
    any order, and two groups may share a size; every check runs once per
    group. block_values and margins answer group by group."""

    n: int
    blocks: list

    def __post_init__(self):
        self.n = int(self.n)
        if self.n < 0:
            raise InputError("variable count must be nonnegative")
        clean = []
        for group in self.blocks:
            try:
                group = np.asarray(group, dtype=float)
            except ValueError:
                raise InputError("block group is not an (n+1, B, s, s) array") from None
            if group.ndim != 4 or len(group) != self.n + 1 or min(group.shape[1:]) == 0:
                raise InputError(f"block group must be an ({self.n + 1}, B, s, s) stack "
                                 f"with B >= 1 and s >= 1, got shape {group.shape}")
            clean.append(linalg.check_symmetric(group.reshape((-1,) + group.shape[2:]),
                                                name="block matrix").reshape(group.shape))
        if not clean:
            raise InputError("problem has no constraint blocks")
        self.blocks = clean

    def block_values(self, x):
        """F0 + sum_i x_i F_i of every group at x, (B, s, s) each."""
        x = np.asarray(x, dtype=float)
        return [_section(*_flat(group), x) for group in self.blocks]

    def margins(self, x):
        """Smallest eigenvalue of every block at x, group after group. The
        sections are combinations of coefficients __post_init__ checked, so
        they are only symmetrized, not checked again."""
        return np.concatenate([np.linalg.eigvalsh(linalg.sym(v))[:, 0]
                               for v in self.block_values(x)])


@dataclass(frozen=True)
class SdpSolution:
    """What solve found. block_margins holds the smallest eigenvalue of every
    block at x, group by group in the problem's order of groups; the
    certificate's blocks are one (B, s, s) stack of duals per group."""

    status: str
    x: np.ndarray | None
    block_margins: np.ndarray | None
    margin: float | None = None
    gap: float | None = None
    certificate: dict | None = None
    newton_steps: int = 0


# ---------------------------------------------------------------------------
# barrier core over size-grouped, flattened block stacks


def _section(f0, g, x):
    """F0 + sum_i x_i G_i, the G_i flattened into the rows of g; keeps f0's shape."""
    return f0 + (x @ g).reshape(f0.shape)


def _flat(group):
    """Group (n+1, B, s, s) as its constant terms (B, s, s) and (n, B*s*s) rows."""
    return group[0], group.reshape(len(group), -1)[1:]


class _Cone:
    """Weighted log-det barrier over B stacked s x s blocks.

    f0 is (B, s, s); row i of g (n, B*s*s) holds G_i of every block.
    factor(x) eigen-decomposes every block once, F = V diag(lam) V^T, and
    scales the coefficients to L^T G_i L with L = V diag(lam^-1/2), so
    F^-1 = L L^T: tr(F^-1 G_i) is the trace of a scaled section, the
    Hessian entry tr(F^-1 G_i F^-1 G_j) is the inner product of two, and
    the line eigenvalues are those of sum_i dx_i L^T G_i L.
    """

    def __init__(self, f0, g, weights):
        self.f0 = f0
        self.g = g
        self.g4 = g.reshape((len(g),) + f0.shape)
        self.w = np.asarray(weights, dtype=float)

    def values(self, x):
        return _section(self.f0, self.g, x)

    def factor(self, x):
        """(-sum_b w_b log det F_b, sections(L)) at x; None off the domain."""
        lam, vec = np.linalg.eigh(self.values(x))
        if not lam[:, 0].min() > 0:
            return None
        root = vec * (1.0 / np.sqrt(lam))[:, None, :]
        return -float(self.w @ np.log(lam).sum(axis=1)), self.sections(root)

    def sections(self, root):
        """The scaled coefficients L^T G_i L, (n, B, s, s)."""
        return root.transpose(0, 2, 1) @ self.g4 @ root

    def grad_hess(self, fac):
        scaled = fac[1]
        wscaled = self.w[:, None, None] * scaled
        grad = -np.trace(wscaled, axis1=2, axis2=3).sum(axis=1)
        return grad, wscaled.reshape(len(scaled), -1) @ scaled.reshape(len(scaled), -1).T

    def slopes(self, fac, dx):
        """Eigenvalues of F^-1/2 dF F^-1/2 along dx, with their weights."""
        scaled = fac[1]
        mu = np.linalg.eigvalsh((dx @ scaled.reshape(len(dx), -1)).reshape(scaled.shape[1:]))
        return mu.reshape(-1), np.repeat(self.w, mu.shape[-1])


class _DiagCone(_Cone):
    """The 1x1 blocks as scalar rows d = f0 + g^T x > 0: f0 is (B,), g is (n, B).

    The scaled sections are the rows g / d.
    """

    def factor(self, x):
        d = self.values(x)
        if not d.min() > 0:
            return None
        return -float(self.w @ np.log(d)), self.g / d

    def grad_hess(self, fac):
        gd = fac[1]
        return -(gd @ self.w), (gd * self.w) @ gd.T

    def slopes(self, fac, dx):
        return dx @ fac[1], self.w


class _CongruenceCone(_Cone):
    """Blocks F_b = c_b I + sigma_b R_b X R_b in X = smat(x); roots is (B, d, d).

    factor(x) keeps the R-sections R_b L_b, L_b = V_b diag(lam_b^-1/2), so
    W_b = R_b F_b^-1 R_b is their Gram product and the line matrix along
    dX is sigma_b (R_b L_b)^T dX (R_b L_b).

    Entry ((i,k),(j,l)) of sum_b w_b vec(W_b) vec(W_b)^T is the Kronecker
    entry ((i,j),(k,l)) of sum_b w_b W_b (x) W_b; a vecm coordinate sits at
    the positions (i,j) and (j,i), so the Hessian reads that product at two
    index grids.
    """

    def __init__(self, consts, roots, signs, weights):
        d = roots.shape[-1]
        self.f0 = np.asarray(consts, dtype=float)[:, None, None] * np.eye(d)
        self.roots = roots
        self.signs = np.asarray(signs, dtype=float)
        self.left = self.signs[:, None, None] * roots
        self.w = np.asarray(weights, dtype=float)
        # vecm order: the diagonal, then the strict upper triangle row by row;
        # row a of basis is vec(E_a), 1 on the diagonal, 1/sqrt(2) at (i,j)
        # and (j,i) off it
        iu, ju = np.triu_indices(d, 1)
        i, j = np.r_[np.arange(d), iu], np.r_[np.arange(d), ju]
        unit = np.where(i == j, 1.0, 1.0 / math.sqrt(2.0))
        self.basis = np.zeros((len(i), d * d))
        self.basis[np.arange(len(i)), i * d + j] = unit
        self.basis[np.arange(len(i)), j * d + i] = unit
        half = np.where(i == j, 0.5, unit)
        self.pair = 2.0 * np.outer(half, half)
        row, col = i[:, None] * d, j[:, None] * d
        self.hess_at = ((row + i) * d * d + col + j, (row + j) * d * d + col + i)

    def smat(self, x):
        return (x @ self.basis).reshape(self.f0.shape[1:])

    def values(self, x):
        return self.f0 + self.left @ self.smat(x) @ self.roots

    def sections(self, root):
        """The R-sections R_b L_b, (B, d, d)."""
        return self.roots @ root

    def grad_hess(self, fac):
        rsec = fac[1]
        wb = (rsec @ rsec.transpose(0, 2, 1)).reshape(len(self.w), -1)
        grad = -(self.basis @ ((self.w * self.signs) @ wb))
        kron = ((self.w[:, None] * wb).T @ wb).reshape(-1)
        return grad, self.pair * (kron[self.hess_at[0]] + kron[self.hess_at[1]])

    def slopes(self, fac, dx):
        rsec = fac[1]
        mu = np.linalg.eigvalsh(self.signs[:, None, None]
                                * (rsec.transpose(0, 2, 1) @ self.smat(dx) @ rsec))
        return mu.reshape(-1), np.repeat(self.w, mu.shape[-1])


def _cone(group, weights=None):
    """The barrier of one (n+1, B, s, s) group, unit weights by default; a
    _DiagCone when s is 1."""
    f0, g = _flat(group)
    w = np.ones(group.shape[1]) if weights is None else weights
    return _DiagCone(f0.reshape(-1), g, w) if group.shape[-1] == 1 else _Cone(f0, g, w)


def _box_blocks(n, nvar, box):
    """The 1x1 group of box + x_i >= 0 and box - x_i >= 0 on the first n of nvar variables."""
    group = np.zeros((nvar + 1, 2 * n, 1, 1))
    group[0] = box
    i = np.arange(n)
    group[i + 1, 2 * i] = 1.0
    group[i + 1, 2 * i + 1] = -1.0
    return group


def _factor(cones, c_lin, x):
    """(potential, factors) at x: c_lin.x plus the cone barriers, and every
    cone's factor; (inf, None) as soon as one cone leaves its domain."""
    phi = float(c_lin @ x)
    facs = []
    for cone in cones:
        fac = cone.factor(x)
        if fac is None:
            return np.inf, None
        phi += fac[0]
        facs.append(fac)
    return phi, facs


def _line_min(c_dx, mu, w):
    """Minimizer of h(a) = a c_dx - sum w log(1 + a mu) over 0 < a < a_max.

    h is the potential along a Newton direction less its value at a = 0,
    with mu the eigenvalues of F^-1/2 dF F^-1/2 over every block; the first
    block leaves the cone at a_max = -1/min mu, never if no mu is negative.
    h is convex with h'(0) < 0, so the root of h' is kept in a bracket
    [lo, hi] with h'(lo) < 0 <= h'(hi), bisecting whenever a step would
    leave it. The step goes to the root of the model p + q/(a_max - a) that
    matches h' and h'' at a: it keeps the pole of the nearest block exactly,
    where plain Newton creeps toward it.
    """
    neg = float(mu.min())
    if neg >= 0 and c_dx <= 0:
        # h' < 0 everywhere: no block ever leaves the cone
        raise NumericalFailure("potential unbounded along the Newton direction")
    a_max = -1.0 / neg if neg < 0 else np.inf
    lo, hi = 0.0, a_max
    a = 1.0 if a_max > 1.0 else 0.5 * a_max
    for _ in range(64):
        r = mu / (1.0 + a * mu)
        d1 = c_dx - float(w @ r)
        d2 = float(w @ (r * r))
        if d1 < 0:
            lo = a
        else:
            hi = a
        # the model root as a step from a; a Newton step when a_max is inf
        den = d2 - d1 / (a_max - a)
        nxt = a - d1 / den if den > 0 else hi
        if abs(nxt - a) <= 1e-9 * a:
            return a
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi) if hi < np.inf else 2.0 * a
        a = nxt
    return a


def _center(cones, c_lin, x0, stop=None):
    """Newton minimization of c_lin.x + sum of weighted block barriers from
    x0, which must lie inside every cone.

    Each iterate is factored once per cone, which gives the potential, the
    gradient and Hessian, and the eigenvalues of the blocks along the Newton
    direction dx. While the Newton decrement lambda exceeds 1/4 the step is
    the exact minimizer of the potential along dx (_line_min); from there on
    it is the full step, which stays inside the Dikin ellipsoid and keeps
    the quadratic convergence exact. A converged iterate returns x + dx.
    When stop is given, the first accepted iterate x with stop(x) true is
    returned as it is, with the steps that reached it. Returns (x, steps).
    """
    x = np.asarray(x0, dtype=float).copy()
    n = x.size
    phi, facs = _factor(cones, c_lin, x)
    if facs is None:
        raise NumericalFailure("centering started outside the cone domain")
    for step in range(MAX_NEWTON):
        grad = c_lin.copy()
        hess = np.zeros((n, n))
        for cone, fac in zip(cones, facs):
            g, h = cone.grad_hess(fac)
            grad += g
            hess += h
        hess = 0.5 * (hess + hess.T)
        ridge = 0.0
        for _ in range(4):
            try:
                dx = np.linalg.solve(hess + ridge * np.eye(n) if ridge else hess, -grad)
                break
            except np.linalg.LinAlgError:
                ridge = max(ridge * 100, 1e-12 * (1 + np.abs(hess).max()))
        else:
            raise NumericalFailure("singular Newton system during centering")
        decrement = float(dx @ hess @ dx)
        # the predicted decrease is about half the decrement; once it drops
        # below the floating point resolution of the potential no further
        # progress is representable, however large the path weight got
        if decrement <= 2 * INNER_TOL or decrement <= 64.0 * np.finfo(float).eps * (1.0 + abs(phi)):
            return x + dx, step
        if decrement <= 0.0625:
            alpha = 1.0
        else:
            parts = [cone.slopes(fac, dx) for cone, fac in zip(cones, facs)]
            mu, w = map(np.concatenate, zip(*parts))
            alpha = _line_min(float(c_lin @ dx), mu, w)
        xn = x + alpha * dx
        if np.array_equal(xn, x):
            return x, step
        x = xn
        phi, facs = _factor(cones, c_lin, x)
        if facs is None:
            raise NumericalFailure("Newton step left the cone domain during centering")
        if stop is not None and stop(x):
            return x, step + 1
    raise NumericalFailure("Newton iteration cap exceeded during centering")


# ---------------------------------------------------------------------------
# public solve


def solve(problem: SdpProblem) -> SdpSolution:
    """Decide whether the block section of problem is nonempty.

    The status is "feasible" with the max-margin point x, whose block
    margins are at least -FEAS_TOL; "infeasible" with a trace-1 separating
    dual of value at most -CERT_TOL, re-verified numerically; or
    "numerical-failure" when the margin and the dual settle neither answer.

    The max-margin path runs in (x, tau) from x = 0, growing its parameter t
    by MU per centering stage. It ends at the first Newton iterate whose tau
    reaches DECISIVE, mid-stage if need be, or after a stage whose dual
    passes _certified; otherwise it stops once its duality gap nu / t
    reaches GAP_TOL, or at the last finished stage when a centering fails.
    newton_steps counts the centering steps plus one per path stage.
    Deterministic.
    """
    p = problem
    n = p.n

    groups = _margin_blocks(p)
    nu = sum(g.shape[1] * g.shape[-1] for g in groups)
    tau0 = min(p.margins(np.zeros(n)).min(), 1.0) - 1.0
    x = np.zeros(n + 1)
    x[n] = tau0
    c_obj = np.zeros(n + 1)
    c_obj[n] = -1.0
    cones = [_cone(g) for g in groups]
    t = 1.0
    steps = 0
    last = None
    while True:
        try:
            x, used = _center(cones, t * c_obj, x, stop=lambda y: y[n] >= DECISIVE)
        except NumericalFailure:
            # keep the last finished stage: the decision bands stay sound
            # at any achieved gap, and deeper t values exceed float64 anyway
            if last is None:
                return SdpSolution("numerical-failure", None, None, newton_steps=steps)
            x, t = last
            break
        steps += used + 1
        tau, gap = float(x[n]), nu / t
        if tau >= DECISIVE:
            # every iterate in the domain has each block minus tau I
            # positive definite, so this one proves strict feasibility;
            # refining the margin further only pushes x toward the box scale
            break
        if tau + gap < -FEAS_TOL:
            cert = _margin_certificate(p, x, t)
            if _certified(cert):
                return SdpSolution("infeasible", None, None, margin=tau, gap=gap,
                                   certificate=cert, newton_steps=steps)
        last = (x, t)
        if gap <= GAP_TOL:
            break
        t *= MU

    tau, gap = float(x[n]), nu / t
    if tau < -FEAS_TOL:
        # every stage that ends the loop here already had its dual, if it
        # separates at all, rejected by _certified above
        cert = _margin_certificate(p, x, t) if tau + gap < -FEAS_TOL else None
        return SdpSolution("numerical-failure", None, None, margin=tau, gap=gap,
                           certificate=cert, newton_steps=steps)
    margins = p.margins(x[:n])
    return SdpSolution("feasible", x[:n], margins, margin=float(margins.min()),
                       gap=gap, newton_steps=steps)


def _certified(cert) -> bool:
    """Does an infeasibility certificate pass its value and residual checks?"""
    return (cert is not None and cert["value"] <= -CERT_TOL
            and cert["residual"] <= FEAS_TOL * cert["scale"])


def _margin_blocks(p: SdpProblem):
    """Groups of the margin problem in variables (x, tau), each block minus
    tau I: first one 1x1 group that joins p's 1x1 groups, the cap tau <= 1
    and the box, in that order; then p's larger groups in their order."""
    n = p.n
    ext = [np.concatenate([g, np.broadcast_to(-np.eye(g.shape[-1]), (1,) + g.shape[1:])])
           for g in p.blocks]
    cap = np.zeros((n + 2, 1, 1, 1))
    cap[0] = 1.0
    cap[n + 1] = -1.0
    diag = [g for g in ext if g.shape[-1] == 1] + [cap, _box_blocks(n, n + 1, BOX)]
    return [np.concatenate(diag, axis=1)] + [g for g in ext if g.shape[-1] > 1]


def _margin_certificate(p: SdpProblem, x_full, t):
    """Normalized dual of the margin problem, box terms dropped: one
    (B, s, s) stack of duals per group of p."""
    n = p.n
    x = x_full[:n]
    tau = x_full[n]
    zs = []
    for f in p.block_values(x):
        try:
            z = np.linalg.inv(f - tau * np.eye(f.shape[-1])) / t
        except np.linalg.LinAlgError:
            return None
        zs.append(0.5 * (z + z.transpose(0, 2, 1)))
    total_tr = sum(float(np.trace(z, axis1=1, axis2=2).sum()) for z in zs)
    if total_tr <= 0:
        return None
    zs = [z / total_tr for z in zs]
    # (<Z, F0>, <Z, F1>, .., <Z, Fn>) summed over the blocks
    pairing = sum(g.reshape(n + 1, -1) @ z.reshape(-1) for z, g in zip(zs, p.blocks))
    # trace of each dual is <= 1, so residuals are judged against the
    # coefficient magnitudes rather than absolutely
    gscale = max(float(np.linalg.norm(g[1:].reshape(n, g.shape[1], -1), axis=-1).max(initial=0.0))
                 for g in p.blocks)
    return {
        "kind": "separating-dual",
        "blocks": zs,
        "value": float(pairing[0]),
        "residual": float(np.max(np.abs(pairing[1:]), initial=0.0)),
        "scale": max(1.0, gscale),
    }


# ---------------------------------------------------------------------------
# determinant maximization: minimum-volume origin-symmetric enclosing ellipsoid


@dataclass(frozen=True)
class MveeResult:
    p: np.ndarray
    containment_margins: np.ndarray
    polar_slack: float
    newton_steps: int = 0


def min_volume_shape(shapes) -> MveeResult:
    """Shape matrix P of the min-volume origin-symmetric ellipsoid containing
    all {u : S - u u^T >= 0} for S in shapes.

    Maximizes log det P subject to S^(1/2) P S^(1/2) <= I via the barrier
    path, the same centering (INNER_TOL) and path growth (MU) as solve;
    running the path parameter to 10 (number of shapes) / SLACK_TOL makes
    the polar bound max_{v: S - vv^T >= 0} v' P^-1 v <= d * max_trace-ish
    hold with relative slack <= SLACK_TOL, and containment is exact at every
    interior central point. The result is re-checked: a containment margin
    min eig(I - S^(1/2) P S^(1/2)) below -1e-9 raises NumericalFailure.
    newton_steps counts the centering steps plus one per path stage.
    """
    shapes = linalg.check_symmetric(shapes, name="shape")
    if shapes.ndim != 3 or len(shapes) == 0 or np.iscomplexobj(shapes):
        raise InputError(f"need a nonempty list of real shapes, got shape {shapes.shape}")
    d = shapes.shape[1]
    total = shapes.sum(axis=0)
    wmax = float(np.linalg.eigvalsh(total)[-1])
    if wmax <= 0 or linalg.numerical_rank(total) < d:
        raise InputError("shape union does not span the space")

    w, v = np.linalg.eigh(shapes)
    w = np.clip(w, 0.0, None)
    lam_max = float(w[:, -1].max())
    # work at unit top eigenvalue so the barrier sees O(1) coefficients no
    # matter how the caller scaled the shapes; undone on the optimal P below
    roots = (v * np.sqrt(w)[:, None, :]) @ v.transpose(0, 2, 1) / np.sqrt(lam_max)

    # the own block X >= 0 (weight t) and one block I - R X R per shape
    n_shapes = len(shapes)
    cone = _CongruenceCone(np.r_[0.0, np.ones(n_shapes)],
                           np.concatenate([np.eye(d)[None], roots]),
                           np.r_[1.0, -np.ones(n_shapes)], np.ones(n_shapes + 1))
    x = linalg.vecm(0.5 * np.eye(d))

    t_final = max(10.0 * n_shapes / SLACK_TOL, 1.0)
    t = 1.0
    steps = 0
    while True:
        cone.w[0] = t
        x, used = _center([cone], np.zeros(x.size), x)
        steps += used + 1
        if t >= t_final:
            break
        t = min(t * MU, t_final)

    p = cone.smat(x)
    margins = linalg.eig_extremes(np.eye(d) - roots @ p @ roots)[0]
    if np.min(margins) < -1e-9:
        raise NumericalFailure("containment check failed after optimization")
    return MveeResult(p / lam_max, margins, n_shapes / t, steps)
