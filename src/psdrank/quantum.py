"""One-way quantum correlation protocols matching a nonnegative matrix.

A size-k psd factorization of a probability table turns into a pair of POVMs
and a shared state on two k-level systems whose outcome distribution is the
table; the reverse direction reads a factorization back out of any protocol.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from math import log2

import numpy as np

from . import linalg
from .errors import DomainError, InputError
from .factors import PsdFactorization, compress_to_common_span, make_factorization
from .linalg import DEFAULT_TOL


@dataclass(frozen=True)
class Povm:
    """A finite measurement: psd elements summing to the identity, held as
    one (n, d, d) stack."""

    elements: np.ndarray

    def __init__(self, elements, tol: float = DEFAULT_TOL):
        elems = linalg.check_psd_stack(elements, tol, "measurement element")
        d = elems.shape[1]
        if np.max(np.abs(elems.sum(axis=0) - np.eye(d))) > 1e-9 * (1 + d):
            raise InputError("measurement elements must sum to the identity")
        object.__setattr__(self, "elements", elems)

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    def __len__(self):
        return len(self.elements)


@dataclass(frozen=True)
class CorrelationProtocol:
    """Local measurements plus a shared state on a k*k joint system."""

    k: int
    alice: Povm
    bob: Povm
    rho: np.ndarray

    def __post_init__(self):
        rho = linalg.check_symmetric(self.rho, DEFAULT_TOL)
        if rho.shape[0] != self.k * self.k:
            raise InputError(f"state must be {self.k * self.k} dimensional")
        if self.alice.dim != self.k or self.bob.dim != self.k:
            raise InputError("measurement dimensions must match k")
        if abs(np.trace(rho).real - 1.0) > 1e-9:
            raise InputError("state must have unit trace")
        if linalg.min_eig(rho) < -1e-9 * linalg.scale_of(rho):
            raise InputError("state must be psd")
        object.__setattr__(self, "rho", rho)

    @property
    def qubits(self) -> float:
        """Qubits each side must send/hold: log2 of the local dimension."""
        return log2(self.k)

    def outcome_matrix(self) -> np.ndarray:
        """Joint outcome probabilities p(a, b) = trace((F_a (x) G_b) rho) as a matrix."""
        k = self.k
        f = self.alice.elements.reshape(-1, k * k)
        g = self.bob.elements.reshape(-1, k * k)
        # p(a, b) = sum F_a[i, j] G_b[m, l] rho[(j, l), (i, m)], the einsum
        # "aij,bml,jlim->ab"; contracting G with rho first costs q k^4 + p q k^2
        # multiplications where the three-way einsum costs p q k^4
        r = self.rho.reshape(k, k, k, k).transpose(3, 1, 2, 0).reshape(k * k, k * k)
        return (f @ (g @ r).T).real


def to_protocol(f: PsdFactorization, m, tol: float = DEFAULT_TOL) -> CorrelationProtocol:
    """Build the protocol whose outcome distribution is m.

    Requires the entries of m to sum to one; normalize first otherwise. The
    factors are first restricted to the common range of their sums
    (factors.compress_to_common_span) and the sums are inverted there, so
    rank-deficient sums are fine as long as the factorization is genuine;
    k is then the dimension of that range.
    """
    mm = linalg.as_matrix(m)
    if np.iscomplexobj(mm):
        raise InputError("probability table must be real")
    total = float(mm.sum())
    if abs(total - 1.0) > 1e-9:
        raise InputError(
            f"entries sum to {total:.6g}, not 1; normalize the matrix first"
        )
    if f.field != "real":
        raise DomainError("protocols are built for real factorizations")
    if f.shape != mm.shape:
        raise InputError(f"factorization is {f.shape}, matrix is {mm.shape}")

    f, _ = compress_to_common_span(f, tol)
    k = f.k

    ra = linalg.psd_roots(linalg.sym(f.row_factors.sum(axis=0)), tol)
    rb = linalg.psd_roots(linalg.sym(f.col_factors.sum(axis=0)), tol)

    alice = Povm(linalg.sym(ra.inv_sqrt @ f.row_factors @ ra.inv_sqrt), tol=1e-6)
    bob = Povm(linalg.sym(rb.inv_sqrt @ f.col_factors @ rb.inv_sqrt), tol=1e-6)
    psi = np.kron(ra.sqrt, rb.sqrt) @ np.eye(k).ravel()
    rho = np.outer(psi, psi)
    rho = rho / np.trace(rho)
    return CorrelationProtocol(k, alice, bob, rho)


def from_protocol(pr: CorrelationProtocol, tol: float = DEFAULT_TOL) -> PsdFactorization:
    """Read a psd factorization of the outcome matrix from any protocol.

    Each eigenvector of the state contributes a block; pure states give
    factors of size k, mixed states a direct sum over the spectral terms.
    """
    k = pr.k
    w, vecs = np.linalg.eigh(pr.rho)
    keep = [t for t in range(len(w)) if w[t] > tol * max(1.0, w.max())]
    if not keep:
        raise DomainError("state has no usable spectral weight")

    row_blocks, col_blocks = [], []
    for t in keep:
        kmat = np.sqrt(w[t]) * vecs[:, t].reshape(k, k)
        u, s, vt = np.linalg.svd(kmat)
        half = s > 0
        left = u[:, half] * np.sqrt(s[half])
        right = vt[half].T * np.sqrt(s[half])
        row_blocks.append(linalg.sym(left.T @ pr.alice.elements @ left))
        col_blocks.append(linalg.sym(right.T @ pr.bob.elements @ right))

    return make_factorization(linalg.block_diag(*row_blocks), linalg.block_diag(*col_blocks))


@dataclass(frozen=True)
class ProtocolReport:
    """Verification summary for a protocol against its target table."""

    max_residual: float
    completeness_residual: float
    state_psd_violation: float
    trace_error: float
    passed: bool

    def __str__(self):
        verdict = "pass" if self.passed else "FAIL"
        return (f"protocol {verdict}: residual {self.max_residual:.3e}, "
                f"completeness {self.completeness_residual:.3e}, "
                f"state eig {self.state_psd_violation:.3e}, "
                f"trace {self.trace_error:.3e}")


def verify_protocol(m, pr: CorrelationProtocol, tol: float = 1e-7) -> ProtocolReport:
    """Check the protocol reproduces m and is physically well formed."""
    mm = linalg.as_matrix(m)
    if mm.shape != (len(pr.alice), len(pr.bob)):
        raise InputError(f"matrix is {mm.shape}, protocol has "
                         f"{len(pr.alice)}x{len(pr.bob)} outcomes")
    residual = float(np.max(np.abs(pr.outcome_matrix() - mm)))
    eye = np.eye(pr.k)
    comp = max(
        float(np.max(np.abs(pr.alice.elements.sum(axis=0) - eye))),
        float(np.max(np.abs(pr.bob.elements.sum(axis=0) - eye))),
    )
    psd_viol = max(0.0, -linalg.min_eig(pr.rho))
    tr_err = abs(float(np.trace(pr.rho)) - 1.0)
    scale = linalg.scale_of(mm)
    passed = (residual <= tol * scale and comp <= tol
              and psd_viol <= tol and tr_err <= tol)
    return ProtocolReport(residual, comp, psd_viol, tr_err, passed)


def sample(pr: CorrelationProtocol, count: int, seed: int | None = None) -> np.ndarray:
    """Run the protocol count times; returns the p x q table of outcome counts.

    The table is one multinomial draw over the cells of the outcome matrix, so
    it has the law of count independent outcome pairs while time and memory
    grow with the number of cells, not with count. Probabilities within
    rounding error of zero (at most k^4 machine epsilons) are zero, and a cell
    of probability zero is never drawn. The same seed always yields the same
    table.
    """
    try:
        count = operator.index(count)
    except TypeError:
        raise InputError(f"count must be an integer, got {count!r}") from None
    if count < 0:
        raise InputError("count must be nonnegative")
    probs = pr.outcome_matrix().ravel()
    support = np.flatnonzero(probs > pr.k ** 4 * np.finfo(float).eps)
    total = probs[support].sum()
    if total <= 0:
        raise DomainError("protocol has no outcome mass to sample")
    rng = np.random.default_rng(seed)
    flat = np.zeros(probs.size, dtype=np.int64)
    flat[support] = rng.multinomial(count, probs[support] / total)
    return flat.reshape(len(pr.alice), len(pr.bob))
