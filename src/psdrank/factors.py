"""Psd factorizations of nonnegative matrices and the operations that build them.

A factorization of a p x q nonnegative matrix M is a list of k x k psd row
factors A_1..A_p and column factors B_1..B_q with trace(A_i B_j) = M_ij.
The field tag is "real" (symmetric factors) or "hermitian".
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, sdp
from .errors import DomainError, InputError
from .linalg import DEFAULT_TOL, rank_to_min_size


# floats one gathered stack of verify's orthogonality check holds, about
ORTH_CHUNK = 2 ** 18


@dataclass(frozen=True)
class PsdFactorization:
    """Row factors A_1..A_p and column factors B_1..B_q as (p, k, k) and
    (q, k, k) stacks of float64 or complex128, always complex128 for the
    field "hermitian". The constructor stacks any sequences of equal-size
    matrices, an empty one as a (0, k, k) stack, and checks nothing;
    make_factorization checks."""

    field: str
    row_factors: np.ndarray
    col_factors: np.ndarray

    def __post_init__(self):
        sides = {name: np.asarray(getattr(self, name)) for name in ("row_factors", "col_factors")}
        k = max(a.shape[-1] for a in sides.values())
        dtype = (np.complex128 if self.field == "hermitian"
                 else np.result_type(np.float64, *sides.values()))
        for name, a in sides.items():
            object.__setattr__(self, name, a.astype(dtype, copy=False).reshape(len(a), k, k))

    @property
    def k(self) -> int:
        return self.row_factors.shape[1]

    @property
    def shape(self) -> tuple:
        return (len(self.row_factors), len(self.col_factors))

    def matrix(self) -> np.ndarray:
        """Reconstruct M from trace(A_i B_j)."""
        return self._traces().real

    def _traces(self) -> np.ndarray:
        """trace(A_i B_j), complex for Hermitian factors; verify reads both parts."""
        return np.einsum("aij,bij->ab", self.row_factors, self.col_factors.conj())


@dataclass(frozen=True)
class VerificationReport:
    max_residual: float
    max_psd_violation: float
    max_orth_defect: float
    orth_bound: float
    passed: bool
    imag_residual: float = 0.0

    def __str__(self):
        verdict = "pass" if self.passed else "FAIL"
        return (
            f"{verdict}: residual {self.max_residual:.3e}, "
            f"psd violation {self.max_psd_violation:.3e}, "
            f"orthogonality defect {self.max_orth_defect:.3e} "
            f"(bound {self.orth_bound:.3e})"
        )


def make_factorization(row_factors, col_factors, field: str | None = None) -> PsdFactorization:
    """Assemble and sanity-check a factorization from two lists (or stacks) of
    equal-size matrices, with one check_symmetric call per list."""
    rows = linalg.check_symmetric(row_factors, name="row factor")
    cols = linalg.check_symmetric(col_factors, name="column factor")
    if rows.ndim != 3 or cols.ndim != 3:
        raise InputError("factors must come as lists of matrices")
    sizes = {a.shape[1] for a in (rows, cols) if len(a)}
    if len(sizes) > 1:
        raise InputError(f"factor sizes differ: {sorted(sizes)}")
    is_complex = np.iscomplexobj(rows) or np.iscomplexobj(cols)
    if field is None:
        field = "hermitian" if is_complex else "real"
    if field not in ("real", "hermitian"):
        raise InputError(f"unknown field tag '{field}'")
    if field == "real" and is_complex:
        raise InputError("real factorization contains complex factors")
    return PsdFactorization(field, rows, cols)


def verify(m, f: PsdFactorization, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Check residuals, factor psd-ness and orthogonality at zero entries.

    The orthogonality bound follows from trace(A B) = sum of squared inner
    products of the factor columns: trace(A B) <= eps with A, B psd forces
    max |(A B)_{uv}| <= sqrt(eps * lmax(A) * lmax(B)).
    """
    mm = linalg.as_matrix(m)
    p, q = f.shape
    if mm.shape != (p, q):
        raise InputError(f"matrix shape {mm.shape} does not match factorization {p}x{q}")
    scale_m = linalg.scale_of(mm)

    if p == 0 or q == 0:
        return VerificationReport(0.0, 0.0, 0.0, 0.0, True)

    traces = f._traces()
    imag = float(np.max(np.abs(traces.imag)))
    max_residual = float(np.max(np.abs(traces.real - mm.real)))
    if np.iscomplexobj(mm) and np.max(np.abs(mm.imag)) > tol * scale_m:
        raise InputError("matrix to verify has complex entries")

    stack = np.concatenate([f.row_factors, f.col_factors])
    lmin, lmax = linalg.eig_extremes(stack, name="factor")
    max_viol = max(0.0, -float(lmin.min()))
    fac_scale = linalg.scale_of(stack)
    zr, zc = np.nonzero(mm.real <= tol * scale_m)
    # the zero entries go in chunks, so the gathered factor pairs stay near
    # ORTH_CHUNK floats however many zeros m has
    step = max(1, ORTH_CHUNK // max(f.k, 1) ** 2)
    defects = np.empty(zr.size)
    for i in range(0, zr.size, step):
        part = slice(i, i + step)
        defects[part] = linalg.orth_defect(f.row_factors[zr[part]], f.col_factors[zc[part]])
    eps = np.maximum(mm.real[zr, zc], 0.0) + tol * scale_m
    lmax_rows, lmax_cols = np.maximum(lmax[:p][zr], tol), np.maximum(lmax[p:][zc], tol)
    bounds = 2.0 * np.sqrt(eps * lmax_rows * lmax_cols) + tol
    max_defect = float(defects.max(initial=0.0))
    orth_bound = float(bounds.max(initial=0.0))

    passed = (
        max_residual <= tol * scale_m
        and max_viol <= tol * fac_scale
        and imag <= tol * fac_scale * max(1, f.k)
        and bool(np.all(defects <= bounds))
    )
    return VerificationReport(max_residual, max_viol, max_defect, orth_bound, passed, imag)


# ---------------------------------------------------------------------------
# constructors


def from_nonneg_factorization(a_vecs, b_vecs) -> PsdFactorization:
    """Diagonal psd factorization of M_ij = <a_i, b_j> from nonnegative vectors."""
    aa = np.atleast_2d(np.asarray(a_vecs, dtype=float))
    bb = np.atleast_2d(np.asarray(b_vecs, dtype=float))
    if aa.shape[1] != bb.shape[1]:
        raise InputError("vector lengths differ between the two sides")
    if np.min(aa, initial=0.0) < 0 or np.min(bb, initial=0.0) < 0:
        raise InputError("vectors must be nonnegative")
    eye = np.eye(aa.shape[1])
    return make_factorization(aa[:, :, None] * eye, bb[:, :, None] * eye, "real")


def from_hadamard_sqrt(n, tol: float = DEFAULT_TOL) -> PsdFactorization:
    """Rank-one factorization of n∘n from a rank factorization of n."""
    nn = linalg.as_matrix(n, "sqrt matrix")
    u, v = linalg.rank_factorization(nn, tol)
    return make_factorization(_outers(u), _outers(v.T), "real")


def _outers(vecs):
    """The rank-one forms v v^* of the rows of vecs, as a stack."""
    return vecs[:, :, None] * vecs[:, None, :].conj()


def direct_sum(f: PsdFactorization, g: PsdFactorization) -> PsdFactorization:
    """Factorization of diag(M, N) by block-diagonal padding."""
    if g.k == 0 and g.shape == (0, 0):
        return f
    if f.k == 0 and f.shape == (0, 0):
        return g
    field = _require_same_field(f, g)
    zf, zg = np.zeros((f.k, f.k)), np.zeros((g.k, g.k))
    rows = np.concatenate([linalg.block_diag(f.row_factors, zg),
                           linalg.block_diag(zf, g.row_factors)])
    cols = np.concatenate([linalg.block_diag(f.col_factors, zg),
                           linalg.block_diag(zf, g.col_factors)])
    return make_factorization(rows, cols, field)


def add(f: PsdFactorization, g: PsdFactorization) -> PsdFactorization:
    """Factorization of M + N by stacking both on a common block diagonal."""
    if f.shape != g.shape:
        raise InputError(f"shapes differ: {f.shape} vs {g.shape}")
    field = _require_same_field(f, g)
    return make_factorization(linalg.block_diag(f.row_factors, g.row_factors),
                              linalg.block_diag(f.col_factors, g.col_factors), field)


def compose_right(f: PsdFactorization, n) -> PsdFactorization:
    """Factorization of M N for entrywise-nonnegative N: new columns sum old ones."""
    nn = linalg.as_matrix(n, "n")
    if np.min(nn.real, initial=0.0) < 0:
        raise InputError("composition matrix must be nonnegative")
    q = len(f.col_factors)
    if nn.shape[0] != q:
        raise InputError(f"composition matrix needs {q} rows, got {nn.shape[0]}")
    return make_factorization(f.row_factors, np.einsum("tj,tuv->juv", nn, f.col_factors), f.field)


def kron_factorization(f: PsdFactorization, g: PsdFactorization) -> PsdFactorization:
    """Factorization of kron(M, N) via Kronecker products of factors."""
    field = _require_same_field(f, g)

    def kron(a, b):
        # np.kron of every pair, pairs in row-major order of (index in a, index in b)
        k = a.shape[1] * b.shape[1]
        return np.einsum("sij,tuv->stiujv", a, b).reshape(len(a) * len(b), k, k)

    return make_factorization(kron(f.row_factors, g.row_factors),
                              kron(f.col_factors, g.col_factors), field)


def hermitian_embed(f: PsdFactorization) -> PsdFactorization:
    """Real 2k x 2k factorization of the same matrix from a Hermitian one."""
    if f.field != "hermitian":
        raise DomainError("factorization is already real")

    def embed(a):
        re, im = a.real, a.imag
        return np.block([[re, im], [-im, re]]) / np.sqrt(2.0)

    return make_factorization(embed(f.row_factors), embed(f.col_factors), "real")


# ---------------------------------------------------------------------------
# rescalings


def rescale_trace(f: PsdFactorization, m=None, tol: float = DEFAULT_TOL) -> PsdFactorization:
    """Conjugate by (sum A_i)^(-1/2) so the row factors sum to the identity.

    Column factors then satisfy trace(B'_j) = sum_i M_ij; columns with zero
    sum are returned as exactly zero factors. If the row factors span only a
    subspace, the rescaling happens on that subspace and sum A'_i is the
    orthogonal projector onto it.
    """
    col_sums = None
    if m is not None:
        mm = linalg.as_matrix(m)
        if mm.shape != f.shape:
            raise InputError("matrix shape does not match the factorization")
        col_sums = np.sum(mm.real, axis=0)
        m_scale = linalg.scale_of(mm)
    f, restore = compress_to_common_span(f, tol, rows_only=True)
    k = f.k
    s = f.row_factors.sum(axis=0)
    roots = linalg.psd_roots(s, tol)
    if roots.rank < k:
        raise DomainError("row factors sum to a singular matrix after compression")
    rows = linalg.sym(roots.inv_sqrt @ f.row_factors @ roots.inv_sqrt)
    if col_sums is not None:
        zero_col = col_sums <= tol * m_scale * len(rows)
    else:
        colsum = linalg.pair_value(s, f.col_factors)
        zero_col = np.abs(colsum) <= tol * linalg.scale_of(s) * linalg.scales_of(f.col_factors) * k
    cols = linalg.sym(roots.sqrt @ f.col_factors @ roots.sqrt)
    cols = np.where(zero_col[:, None, None], 0.0, cols)
    return restore(PsdFactorization(f.field, rows, cols))


def rescale_john(f: PsdFactorization, m=None, tol: float = DEFAULT_TOL) -> PsdFactorization:
    """Conjugate so every factor eigenvalue is at most sqrt(k * max entry of M).

    Computes the minimum-volume origin-symmetric ellipsoid containing the
    union of the row-factor ellipsoids {u : A_i - u u^T psd} and conjugates by
    the scaled inverse of its defining map. Degenerate spans are reduced to
    the common range first and embedded back afterwards.
    """
    if f.field != "real":
        raise DomainError("John rescaling needs real factors; apply hermitian_embed first")
    if m is not None:
        mm = linalg.as_matrix(m)
        if mm.shape != f.shape:
            raise InputError("matrix shape does not match the factorization")
        max_m = float(np.max(mm.real, initial=0.0))
    else:
        max_m = float(np.max(f.matrix(), initial=0.0))
    if max_m <= tol:
        raise DomainError("matrix is numerically zero; eigenvalue bound is unattainable")
    f, restore = compress_to_common_span(f, tol)

    shape = sdp.min_volume_shape(f.row_factors)
    # P is positive definite and scales like 1 / max entry of the factors,
    # so no eigenvalue cutoff applies to it
    roots = linalg.psd_roots(shape.p, tol=0.0)
    c = f.k ** 0.25 * max_m ** 0.25
    left = c * roots.sqrt
    left_inv = roots.inv_sqrt / c
    rows = linalg.sym(left @ f.row_factors @ left.T)
    cols = linalg.sym(left_inv.T @ f.col_factors @ left_inv)
    return restore(PsdFactorization("real", rows, cols))


def compress_to_common_span(f: PsdFactorization, tol: float, rows_only: bool = False):
    """Restrict f to the common range of its factor sums; also return the map back.

    The row sum is compressed first, then, unless rows_only, the column sum
    of the restricted factors. A range keeps the eigenvectors of the sum
    above the psd cutoff tol * (1 + max |entry|); an empty range raises
    DomainError, since every factor on that side then vanishes.
    """
    rows, cols = f.row_factors, f.col_factors
    span = None
    for side in (0,) if rows_only else (0, 1):
        s = linalg.sym((rows, cols)[side].sum(axis=0))
        w, v = np.linalg.eigh(s)
        keep = w > tol * linalg.scale_of(s)
        if not keep.any():
            raise DomainError("all factors on one side vanish")
        if keep.all():
            continue
        basis = v[:, keep]
        rows = linalg.sym(basis.conj().T @ rows @ basis)
        cols = linalg.sym(basis.conj().T @ cols @ basis)
        span = basis if span is None else span @ basis
    if span is None:
        return f, lambda g: g

    def restore(g: PsdFactorization) -> PsdFactorization:
        def back(mats):
            return linalg.sym(span @ mats @ span.conj().T)
        return PsdFactorization(g.field, back(g.row_factors), back(g.col_factors))

    return PsdFactorization(f.field, rows, cols), restore


# ---------------------------------------------------------------------------
# expansions


@dataclass(frozen=True)
class Rank1Expansion:
    matrix: np.ndarray
    factorization: PsdFactorization
    sqrt_witness: np.ndarray


def rank1_expand(f: PsdFactorization, tol: float = DEFAULT_TOL) -> Rank1Expansion:
    """Blow M up to a pk x qk matrix admitting a rank-one factorization.

    Each factor is split into k spectral rank-one pieces (padded with zeros);
    entry ((i,s),(j,r)) of the expanded matrix is the squared inner product of
    the corresponding vectors, so the k x k block sums reproduce M and the
    matrix of unsquared inner products is a Hadamard square root of rank <= k.
    """
    k = f.k
    p, q = f.shape

    def spectral_vectors(stack):
        # the k vectors of each factor as the rows of a (n, k, k) stack
        w, v = np.linalg.eigh(stack)
        return np.swapaxes(v * np.sqrt(np.clip(w, 0.0, None))[:, None, :], 1, 2)

    row_vecs = spectral_vectors(f.row_factors)
    col_vecs = spectral_vectors(f.col_factors)
    # block (i, j) is row_vecs[i]^* col_vecs[j]^T
    blocks = row_vecs.conj()[:, None] @ np.swapaxes(col_vecs, 1, 2)[None]
    witness = blocks.transpose(0, 2, 1, 3).reshape(p * k, q * k)
    n = np.abs(witness) ** 2 if np.iscomplexobj(witness) else witness**2
    expansion = make_factorization(_outers(row_vecs.reshape(p * k, k)),
                                   _outers(col_vecs.reshape(q * k, k)), f.field)
    return Rank1Expansion(n, expansion, witness)


# ---------------------------------------------------------------------------
# explicit family factorization


def derangement_factorization(n: int) -> PsdFactorization:
    """Size min{k : n <= k(k+1)/2} factorization of the n x n zero-diagonal ones matrix.

    Row factors are the k coordinate projectors followed by the difference
    forms F_{s,t} = (e_s - e_t)(e_s - e_t)^T in lexicographic pair order; the
    column factors are the companion half-integer matrices.
    """
    n = linalg.as_int(n, "derangement size")
    if n < 1:
        raise InputError("derangement size must be positive")
    k = rank_to_min_size(n)
    pairs = [(s, t) for s in range(k) for t in range(s + 1, k)]

    rows = []
    cols = []
    for i in range(k):
        a = np.zeros((k, k))
        a[i, i] = 1.0
        rows.append(a)
        b = 0.5 * (np.eye(k) + np.ones((k, k)))
        b[i, :] = 0.0
        b[:, i] = 0.0
        cols.append(b)
    for s, t in pairs:
        a = np.zeros((k, k))
        a[s, s] = a[t, t] = 1.0
        a[s, t] = a[t, s] = -1.0
        rows.append(a)
        b = 0.5 * (np.eye(k) + np.ones((k, k)))
        b[s, t] += 0.5
        b[t, s] += 0.5
        cols.append(b)
    return make_factorization(rows[:n], cols[:n], "real")


def hermitian_derangement4() -> PsdFactorization:
    """Hermitian size-2 factorization of the 4 x 4 derangement matrix."""
    w = np.exp(2j * np.pi / 3)
    rows = [
        np.array([[1, 0], [0, 0]], dtype=complex),
        np.array([[0, 0], [0, 1]], dtype=complex),
        np.array([[1, -1], [-1, 1]], dtype=complex),
        np.array([[1, w], [np.conj(w), 1]]),
    ]
    cols = [
        np.array([[0, 0], [0, 1]], dtype=complex),
        np.array([[1, 0], [0, 0]], dtype=complex),
        np.array([[1, 1], [1, 1]], dtype=complex),
        np.array([[1, -w], [-np.conj(w), 1]]),
    ]
    return make_factorization(rows, cols, "hermitian")


def scale_rows(f: PsdFactorization, scales) -> PsdFactorization:
    """Factorization of diag(scales) @ M via scaled row factors."""
    s = np.asarray(scales, dtype=float)
    if s.ndim != 1 or s.size != len(f.row_factors):
        raise InputError("need one nonnegative scale per row")
    if np.any(s < 0):
        raise InputError("row scales must be nonnegative")
    return PsdFactorization(f.field, s[:, None, None] * f.row_factors, f.col_factors)


def scale_cols(f: PsdFactorization, scales) -> PsdFactorization:
    """Factorization of M @ diag(scales) via scaled column factors."""
    s = np.asarray(scales, dtype=float)
    if s.ndim != 1 or s.size != len(f.col_factors):
        raise InputError("need one nonnegative scale per column")
    if np.any(s < 0):
        raise InputError("column scales must be nonnegative")
    return PsdFactorization(f.field, f.row_factors, s[:, None, None] * f.col_factors)


def transpose(f: PsdFactorization) -> PsdFactorization:
    """Factorization of M^T (swap row and column factors)."""
    return PsdFactorization(f.field, f.col_factors, f.row_factors)


def _require_same_field(f: PsdFactorization, g: PsdFactorization) -> str:
    if f.field != g.field:
        raise InputError(f"field tags differ: {f.field} vs {g.field}")
    return f.field
