"""Shared fixtures: a catalog of classical psd factorizations with exact entries.

Every factorization below is transcribed literally and was cross-checked
against the defining inner products M_ij = <A_i, B_j> with an independent
numpy-only script before being frozen here. Tests treat these as ground
truth; nothing in the catalog is produced by the package itself.
"""

import numpy as np
import pytest

from psdrank import geometry, linalg, sdp
from psdrank.errors import DomainError, InputError
from psdrank.factors import make_factorization
from psdrank.geometry import Ellipse, PolyhedronH, PolytopeV, SandwichPair


class CatalogEntry:
    def __init__(self, name, matrix, factorization):
        self.name = name
        self.matrix = np.asarray(matrix, dtype=complex if np.iscomplexobj(matrix) else float)
        self.factorization = factorization

    def __repr__(self):
        return f"CatalogEntry({self.name})"


def _sym(rows):
    return np.array(rows, dtype=float)


# 3x3 zero-diagonal all-ones matrix with its classical size-2 factorization.
D3 = _sym([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
D3_ROWS = [_sym([[1, 0], [0, 0]]), _sym([[0, 0], [0, 1]]), _sym([[1, -1], [-1, 1]])]
D3_COLS = [_sym([[0, 0], [0, 1]]), _sym([[1, 0], [0, 0]]), _sym([[1, 1], [1, 1]])]

# 6x6 version through size-3 factors: basis projectors plus the three
# difference forms on the row side, their half-filled complements on the
# column side.
D6 = np.ones((6, 6)) - np.eye(6)


def _basis_proj(i, k=3):
    e = np.zeros(k)
    e[i] = 1.0
    return np.outer(e, e)


def _diff_form(i, j, k=3):
    z = np.zeros((k, k))
    z[i, i] = z[j, j] = 1.0
    z[i, j] = z[j, i] = -1.0
    return z


D6_ROWS = [_basis_proj(0), _basis_proj(1), _basis_proj(2),
           _diff_form(0, 1), _diff_form(0, 2), _diff_form(1, 2)]
D6_COLS = [
    _sym([[0, 0, 0], [0, 1, 0.5], [0, 0.5, 1]]),
    _sym([[1, 0, 0.5], [0, 0, 0], [0.5, 0, 1]]),
    _sym([[1, 0.5, 0], [0.5, 1, 0], [0, 0, 0]]),
    _sym([[1, 1, 0.5], [1, 1, 0.5], [0.5, 0.5, 1]]),
    _sym([[1, 0.5, 1], [0.5, 1, 0.5], [1, 0.5, 1]]),
    _sym([[1, 0.5, 0.5], [0.5, 1, 1], [0.5, 1, 1]]),
]

# 4x4 zero-diagonal all-ones matrix: Hermitian size-2 factors built from a
# primitive cube root of unity.
D4 = np.ones((4, 4)) - np.eye(4)
_W = np.exp(2j * np.pi / 3)
D4_ROWS = [a.astype(complex) for a in D3_ROWS] + [np.array([[1, _W], [np.conj(_W), 1]])]
D4_COLS = [b.astype(complex) for b in D3_COLS] + [np.array([[1, -_W], [-np.conj(_W), 1]])]

# Slack matrix of the unit square against itself, rank-one size-3 factors.
MSQUARE = _sym([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]])
SQUARE_US = [np.array(v, dtype=float) for v in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]]
SQUARE_VS = [np.array(v, dtype=float) for v in [(1, 0, 0), (1, -1, 0), (0, 1, -1), (0, 0, 1)]]

# Slack matrix of a square nested in its doubled copy; two genuinely
# different size-2 factorizations, one from the inscribed circle (row factors
# all rank one) and one from a 4x3-axis ellipse (column factors 2 and 4 rank
# one).
MDIFF = _sym([[3, 3, 1, 1], [1, 3, 3, 1], [1, 1, 3, 3], [3, 1, 1, 3]])
_AL = 1.0 / np.sqrt(2.0)
DIFF_CIRCLE_ROWS = [
    _sym([[1 + _AL, _AL], [_AL, 1 - _AL]]),
    _sym([[1 - _AL, _AL], [_AL, 1 + _AL]]),
    _sym([[1 - _AL, -_AL], [-_AL, 1 + _AL]]),
    _sym([[1 + _AL, -_AL], [-_AL, 1 - _AL]]),
]
DIFF_CIRCLE_COLS = [
    _sym([[1 + _AL, 0], [0, 1 - _AL]]),
    _sym([[1, _AL], [_AL, 1]]),
    _sym([[1 - _AL, 0], [0, 1 + _AL]]),
    _sym([[1, -_AL], [-_AL, 1]]),
]
DIFF_AXIS_ROWS = [
    _sym([[5 / 3, 1 / 2], [1 / 2, 1 / 3]]),
    _sym([[1 / 3, 1 / 2], [1 / 2, 5 / 3]]),
    _sym([[1 / 3, -1 / 2], [-1 / 2, 5 / 3]]),
    _sym([[5 / 3, -1 / 2], [-1 / 2, 1 / 3]]),
]
DIFF_AXIS_COLS = [
    _sym([[7 / 4, 0], [0, 1 / 4]]),
    _sym([[1, 1], [1, 1]]),
    _sym([[1 / 4, 0], [0, 7 / 4]]),
    _sym([[1, -1], [-1, 1]]),
]

# Augmented 4x4 matrix whose every size-2 factorization needs a rank-two row
# factor and a rank-two column factor; the explicit factors extend the 3x3
# ones above.
MAUG = _sym([[0, 1, 1, 2], [1, 0, 1, 2], [1, 1, 0, 6], [1, 1, 3, 3]])
AUG_ROWS = D3_ROWS + [_sym([[1, 0.5], [0.5, 1]])]
AUG_COLS = D3_COLS + [_sym([[2, -1], [-1, 2]])]

# Partition-style matrix for the weights (5, 12, 13): no rank-3 Hadamard
# square root exists, yet this size-3 factorization does.
MPART = _sym([[1, 0, 0, 25], [0, 1, 0, 144], [0, 0, 1, 169], [1, 1, 1, 0]])
PART_ROWS = [_basis_proj(0), _basis_proj(1), _basis_proj(2),
             _sym([[1, 0, -5 / 13], [0, 1, -12 / 13], [-5 / 13, -12 / 13, 1]])]
PART_COLS = [_basis_proj(0), _basis_proj(1), _basis_proj(2),
             np.outer([5.0, 12.0, 13.0], [5.0, 12.0, 13.0])]


def build_catalog():
    return [
        CatalogEntry("derangement3", D3, make_factorization(D3_ROWS, D3_COLS)),
        CatalogEntry("derangement6", D6, make_factorization(D6_ROWS, D6_COLS)),
        CatalogEntry("hermitian-derangement4", D4,
                     make_factorization(D4_ROWS, D4_COLS, "hermitian")),
        CatalogEntry("square-slack", MSQUARE,
                     make_factorization([np.outer(u, u) for u in SQUARE_US],
                                        [np.outer(v, v) for v in SQUARE_VS])),
        CatalogEntry("nested-squares-circle", MDIFF,
                     make_factorization(DIFF_CIRCLE_ROWS, DIFF_CIRCLE_COLS)),
        CatalogEntry("nested-squares-axis-ellipse", MDIFF,
                     make_factorization(DIFF_AXIS_ROWS, DIFF_AXIS_COLS)),
        CatalogEntry("augmented-fullrank", MAUG, make_factorization(AUG_ROWS, AUG_COLS)),
        CatalogEntry("partition-5-12-13", MPART, make_factorization(PART_ROWS, PART_COLS)),
    ]


@pytest.fixture(scope="session")
def catalog():
    return build_catalog()


@pytest.fixture(params=[e.name for e in build_catalog()])
def catalog_entry(request, catalog):
    return next(e for e in catalog if e.name == request.param)


def square_pair():
    """Unit square against itself, ordered so the slack matrix is the
    circulant 0/1 square slack matrix."""
    verts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    normals = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
    offsets = [1.0, 1.0, 0.0, 0.0]
    return SandwichPair(PolytopeV(verts), PolyhedronH(normals, offsets))


def nested_rectangles_pair(a, b):
    """[-a, a] x [-b, b] inside [-1, 1]^2 with the standard facet order."""
    a, b = float(a), float(b)
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise InputError("rectangle half-widths must lie in [0, 1]")
    verts = [(a, b), (-a, b), (-a, -b), (a, -b)]
    normals = [(-1.0, 0.0), (0.0, -1.0), (1.0, 0.0), (0.0, 1.0)]
    offsets = [1.0, 1.0, 1.0, 1.0]
    return SandwichPair(PolytopeV(verts), PolyhedronH(normals, offsets))


def centered_square_pair(half=1.0, outer_half=2.0):
    """Square [-half, half]^2 inside [-outer, outer]^2; slack rows follow the
    vertex order (-,-), (-,+), (+,+), (+,-) and facet order +y, +x, -y, -x."""
    h, o = float(half), float(outer_half)
    verts = [(-h, -h), (-h, h), (h, h), (h, -h)]
    normals = [(0.0, 1.0), (1.0, 0.0), (0.0, -1.0), (-1.0, 0.0)]
    offsets = [o, o, o, o]
    return SandwichPair(PolytopeV(verts), PolyhedronH(normals, offsets))


def ellipse_path(e0, e1, t):
    """Convex combination of two certificates for the same pair; the combined
    form is renormalized to unit trace and inherits combined multipliers."""
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise InputError("path parameter must lie in [0, 1]")
    if e0.multipliers.size != e1.multipliers.size:
        raise InputError("certificates have different facet counts")
    theta = (1 - t) * e0.theta + t * e1.theta
    lams = (1 - t) * e0.multipliers + t * e1.multipliers
    tr = float(np.trace(theta[:2, :2]))
    if tr <= 0:
        raise DomainError("combined form has nonpositive trace")
    return Ellipse(theta / tr, lams / tr)


def random_psd(rng, k, rank=None):
    """Random psd matrix, optionally rank-limited."""
    r = k if rank is None else rank
    g = rng.standard_normal((k, r))
    return g @ g.T


def random_factorization(rng, p, q, k):
    """Random factorization together with the matrix it factors."""
    rows = [random_psd(rng, k) for _ in range(p)]
    cols = [random_psd(rng, k) for _ in range(q)]
    f = make_factorization(rows, cols)
    return f.matrix(), f


def compute_multipliers(pair, theta, tol=1e-9):
    """Best facet multipliers for a given form: per facet, the lambda >= 0
    maximizing the minimum eigenvalue of theta - lambda * facet form."""
    theta = linalg.check_symmetric(np.asarray(theta, dtype=float), name="ellipse form")
    lams = []
    for form in geometry._facet_forms(pair.outer.normals, pair.outer.offsets):

        def margin(lam):
            return linalg.min_eig(theta - lam * form)

        hi = 1.0
        while margin(hi * 2) > margin(hi) and hi < 1e8:
            hi *= 2
        lo = 0.0
        for _ in range(200):
            m1 = lo + (hi - lo) / 3
            m2 = hi - (hi - lo) / 3
            if margin(m1) < margin(m2):
                lo = m1
            else:
                hi = m2
            if hi - lo < tol * max(1.0, hi):
                break
        lams.append(0.5 * (lo + hi))
    return np.array(lams)


def sym_basis(d):
    """vecm-ordered basis of d x d symmetric matrices (diagonal first)."""
    mats = []
    for i in range(d):
        e = np.zeros((d, d))
        e[i, i] = 1.0
        mats.append(e)
    r = 1.0 / np.sqrt(2.0)
    for i in range(d):
        for j in range(i + 1, d):
            e = np.zeros((d, d))
            e[i, j] = e[j, i] = r
            mats.append(e)
    return np.stack(mats)


def coefficient_blocks(consts, roots, signs):
    """The (nvar+1, B, d, d) group of the blocks c I + sigma R X R, coefficients
    [c I, sigma R E_a R for every basis E_a] per root: how min_volume_shape
    built its blocks before the congruence cone."""
    d = roots.shape[-1]
    basis = sym_basis(d)
    blocks = [np.concatenate([c * np.eye(d)[None], np.stack([s * (r @ e @ r) for e in basis])])
              for c, r, s in zip(consts, roots, signs)]
    return np.stack(blocks, axis=1)


class StackedCongruenceCone(sdp._CongruenceCone):
    """The congruence cone evaluated by the generic kernel over
    coefficient_blocks; patched in for sdp._CongruenceCone it is the
    coefficient-stack path of min_volume_shape."""

    def __init__(self, consts, roots, signs, weights):
        super().__init__(consts, roots, signs, weights)
        self.f0, self.g = sdp._flat(coefficient_blocks(consts, roots, signs))
        self.g4 = self.g.reshape((len(self.g),) + self.f0.shape)

    values = sdp._Cone.values
    sections = sdp._Cone.sections
    grad_hess = sdp._Cone.grad_hess
    slopes = sdp._Cone.slopes


def newton_direction(cones, c_lin, x):
    """(dx, dx' H dx) for c_lin.x plus the cone barriers at x: the Newton
    step and its squared decrement."""
    n = x.size
    grad, hess = np.array(c_lin, dtype=float), np.zeros((n, n))
    for cone in cones:
        g, h = cone.grad_hess(cone.factor(x))
        grad += g
        hess += h
    hess = 0.5 * (hess + hess.T)
    dx = np.linalg.solve(hess, -grad)
    return dx, float(dx @ hess @ dx)


def damped_center(cones, c_lin, x0, inner_tol=1e-10, max_newton=120):
    """Damped Newton centering as sdp._center ran it before its exact line
    search: the step starts at 1/(1 + lambda) while the decrement lambda
    exceeds 1/4 and at 1 after, and halves until the Armijo test holds, the
    potential of each trial read from the cones' factors. Returns (x, steps)
    at the first iterate that passes the stopping tests, whose own Newton
    step is not taken."""
    def potential(x):
        facs = [cone.factor(x) for cone in cones]
        if any(fac is None for fac in facs):
            return np.inf
        return float(c_lin @ x) + sum(fac[0] for fac in facs)

    x = np.asarray(x0, dtype=float).copy()
    phi = potential(x)
    assert phi < np.inf
    for step in range(max_newton):
        dx, decrement = newton_direction(cones, c_lin, x)
        if decrement <= 2 * inner_tol or decrement <= 64.0 * np.finfo(float).eps * (1.0 + abs(phi)):
            return x, step
        lam = np.sqrt(decrement)
        alpha = 1.0 if lam <= 0.25 else 1.0 / (1.0 + lam)
        # the directional derivative along a Newton step is -decrement
        for _ in range(80):
            xn = x + alpha * dx
            phin = potential(xn)
            if phin < np.inf and (phin <= phi - 0.25 * alpha * decrement or alpha < 1e-14):
                break
            alpha *= 0.5
        else:
            raise AssertionError("line search failed")
        if np.array_equal(xn, x):
            return x, step
        x, phi = xn, phin
    raise AssertionError("Newton iteration cap exceeded")
