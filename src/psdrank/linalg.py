"""Dense linear algebra kernel: ranks, psd tests, matrix roots, vectorization.

Conventions: matrices are numpy arrays (real float64 or complex128), the inner
product on (Hermitian) matrices is trace(A B), and every tolerance scales with
1 + max absolute entry of the operand.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .errors import DomainError, InputError

DEFAULT_TOL = 1e-9


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Validate a 2-d finite array-like and return it as float64/complex128."""
    a = np.asarray(m)
    if a.ndim != 2:
        raise InputError(f"{name} must be 2-dimensional, got shape {a.shape}")
    if a.size and not np.iscomplexobj(a):
        a = a.astype(np.float64, copy=False)
    if a.size and not np.all(np.isfinite(a)):
        raise InputError(f"{name} contains NaN or Inf entries")
    return a


def as_int(x, what: str) -> int:
    """x as an int; a non-integral value is refused rather than truncated."""
    try:
        v = int(x)
        integral = float(x) == v
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise InputError(f"{what} must be an integer, got {x!r}")
    return v


def as_float(x, what: str) -> float:
    """x as a finite float; anything else is refused."""
    try:
        v = float(x)
    except (TypeError, ValueError):
        raise InputError(f"{what} must be a number, got {x!r}")
    if not np.isfinite(v):
        raise InputError(f"{what} must be finite, got {x!r}")
    return v


def as_nonnegative(m, tol: float = DEFAULT_TOL, name: str = "matrix") -> np.ndarray:
    """Real input with entries >= -tol * (1 + max |entry|), clipped at zero."""
    a = as_matrix(m, name)
    if np.iscomplexobj(a):
        raise InputError(f"{name} must be real")
    if np.min(a, initial=0.0) < -tol * scale_of(a):
        raise InputError(f"{name} must be nonnegative")
    return np.clip(a, 0.0, None)


def scale_of(m) -> float:
    a = np.asarray(m)
    return 1.0 + (float(np.max(np.abs(a))) if a.size else 0.0)


def scales_of(stack) -> np.ndarray:
    """scale_of of a matrix, or of every matrix in a (B, p, q) stack."""
    return 1.0 + np.abs(np.asarray(stack)).max(axis=(-2, -1), initial=0.0)


def sym(m: np.ndarray) -> np.ndarray:
    """Symmetric (Hermitian) part of a square matrix, or of every matrix in a
    (B, k, k) stack."""
    return 0.5 * (m + np.swapaxes(m, -1, -2).conj())


def check_symmetric(m, tol: float = DEFAULT_TOL, name: str = "matrix") -> np.ndarray:
    """Symmetric (Hermitian) part of a k x k matrix, or of every matrix in a
    (B, k, k) stack such as a list of equal-size matrices (an empty list is a
    (0, 0, 0) stack), after checking that it is finite and square and that no
    matrix departs from its transpose by more than 10 tol (1 + max |entry|).
    For a stack the error names the first bad index."""
    try:
        a = np.asarray(m)
    except ValueError:
        raise InputError(f"{name}s must be matrices of one shape") from None
    if a.ndim == 1 and a.size == 0:
        a = a.reshape(0, 0, 0)
    if a.ndim not in (2, 3):
        raise InputError(f"{name} must be a matrix or a stack of matrices, got shape {a.shape}")
    if not np.iscomplexobj(a):
        a = a.astype(np.float64, copy=False)
    if not np.all(np.isfinite(a)):
        raise InputError(f"{name} contains NaN or Inf entries")
    if a.shape[-1] != a.shape[-2]:
        raise DomainError(f"{name} must be square, got shape {a.shape[-2:]}")
    trans = np.swapaxes(a, -1, -2).conj()
    asym = np.abs(a - trans).max(axis=(-2, -1), initial=0.0)
    bad = np.flatnonzero(asym > 10 * tol * scales_of(a))
    if bad.size:
        which = f"{name} {bad[0]}" if a.ndim == 3 else name
        raise DomainError(f"{which} is not symmetric/Hermitian within tolerance")
    return 0.5 * (a + trans)


def numerical_rank(m, tol: float = DEFAULT_TOL) -> int:
    """Number of singular values above tol * max(p, q) * sigma_max."""
    a = as_matrix(m)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * max(a.shape) * s[0]))


def rank_to_min_size(r: int) -> int:
    """Smallest k with r <= k(k+1)/2; matrices of rank r need psd factors this big."""
    k = (isqrt(8 * r + 1) - 1) // 2
    return k if k * (k + 1) // 2 >= r else k + 1


def min_eig(m) -> float:
    a = check_symmetric(as_matrix(m))
    if a.size == 0:
        return 0.0
    return float(np.linalg.eigvalsh(a)[0])


def eig_extremes(stack, name: str = "matrix"):
    """(smallest, largest) eigenvalue of every matrix in a (B, k, k) stack,
    from one eigvalsh call after check_symmetric; empty matrices read 0.0."""
    a = check_symmetric(stack, name=name)
    if a.ndim != 3:
        raise InputError(f"{name} stack must be 3-dimensional, got shape {a.shape}")
    if a.shape[1] == 0:
        return np.zeros(len(a)), np.zeros(len(a))
    w = np.linalg.eigvalsh(a)
    return w[:, 0], w[:, -1]


def check_psd_stack(mats, tol: float = DEFAULT_TOL, name: str = "matrix") -> np.ndarray:
    """The symmetric (B, k, k) stack of a nonempty list of equal-size psd
    matrices, checked by one check_symmetric and one eigvalsh call; psd means
    min eigenvalue >= -tol * (1 + max |entry|), and the InputError names the
    first matrix that fails."""
    a = check_symmetric(mats, tol, name)
    if a.ndim != 3 or len(a) == 0:
        raise InputError(f"need a nonempty list of {name}s, got shape {a.shape}")
    if a.shape[1]:
        bad = np.flatnonzero(np.linalg.eigvalsh(a)[:, 0] < -tol * scales_of(a))
        if bad.size:
            raise InputError(f"{name} {bad[0]} is not psd")
    return a


def vecm(m) -> np.ndarray:
    """Isometric vectorization of a symmetric matrix.

    Ordering: the k diagonal entries first, then the strict upper triangle
    row by row scaled by sqrt(2), so that <vecm(X), vecm(Y)> = trace(X Y).
    """
    a = check_symmetric(as_matrix(m))
    k = a.shape[0]
    iu = np.triu_indices(k, 1)
    return np.concatenate([np.diagonal(a), np.sqrt(2.0) * a[iu]])


@dataclass(frozen=True)
class PsdRoots:
    sqrt: np.ndarray
    inv_sqrt: np.ndarray
    pinv: np.ndarray
    rank: int


def psd_roots(m, tol: float = DEFAULT_TOL) -> PsdRoots:
    """Square root, pseudo-inverse square root and pseudo-inverse of a psd matrix.

    Eigenvalues below the psd-test cutoff tol * (1 + max |entry|) are treated
    as zero; a genuinely negative spectrum raises DomainError.
    """
    a = check_symmetric(as_matrix(m))
    cutoff = tol * scale_of(a)
    w, v = np.linalg.eigh(a)
    if a.size and w[0] < -cutoff:
        raise DomainError(f"matrix is not psd (min eigenvalue {w[0]:.3e})")
    w = np.clip(w, 0.0, None)
    keep = w > cutoff
    sqrt_w = np.sqrt(w)
    inv_sqrt_w = np.where(keep, 1.0 / np.where(keep, sqrt_w, 1.0), 0.0)
    inv_w = np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0)

    def build(d):
        return sym((v * d) @ v.conj().T)

    return PsdRoots(build(sqrt_w), build(inv_sqrt_w), build(inv_w), int(keep.sum()))


def block_diag(*mats) -> np.ndarray:
    """Block-diagonal matrix of the given blocks, in order; for (B, r, c)
    stacks, one per index, with 2-d blocks broadcast over the stack. The
    dtype is the common result type of the blocks."""
    lead = np.broadcast_shapes(*(m.shape[:-2] for m in mats))
    out = np.zeros(lead + (sum(m.shape[-2] for m in mats), sum(m.shape[-1] for m in mats)),
                   dtype=np.result_type(*mats))
    r = c = 0
    for m in mats:
        out[..., r:r + m.shape[-2], c:c + m.shape[-1]] = m
        r, c = r + m.shape[-2], c + m.shape[-1]
    return out


def pair_value(a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL):
    """trace(A B) for symmetric/Hermitian factors, or for every pair of two
    broadcast (B, k, k) stacks, asserting real results."""
    v = np.sum(a * b.conj(), axis=(-2, -1))
    imag = np.abs(v.imag)
    if np.any(imag > tol * (scales_of(a) * scales_of(b)) * max(1, a.shape[-1])):
        raise DomainError(f"inner product has non-negligible imaginary part {imag.max():.3e}")
    return v.real


def orth_defect(a: np.ndarray, b: np.ndarray):
    """max |(A B)_{uv}|, for every pair of two broadcast stacks; near zero
    whenever trace(A B) ~ 0 with A, B psd."""
    return np.abs(a @ b).max(axis=(-2, -1), initial=0.0)


def rank_factorization(m, tol: float = DEFAULT_TOL):
    """SVD-based rank factorization m = u @ v with inner dimension = rank."""
    a = as_matrix(m)
    r = numerical_rank(a, tol)
    if r == 0:
        return np.zeros((a.shape[0], 0)), np.zeros((0, a.shape[1]))
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    return u[:, :r] * s[:r], vt[:r, :]


def exact_int_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination."""
    m = [list(map(int, r)) for r in rows]
    if not m or not m[0]:
        return 0
    nrow, ncol = len(m), len(m[0])
    rank = 0
    r = 0
    prev = 1
    for c in range(ncol):
        piv = next((i for i in range(r, nrow) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nrow):
            for j in range(c + 1, ncol):
                m[i][j] = (m[i][j] * m[r][c] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        rank += 1
        if r == nrow:
            break
    return rank
