"""Completely psd matrices: symmetric Gram factorizations and obstructions.

A symmetric matrix is completely psd when it is the Gram matrix of psd
matrices. Membership is generally hard (the cone is not even known to be
closed), so this module only verifies given factorizations and evaluates
necessary conditions: the doubly nonnegative check and a fixed separating
form for the 5x5 cos^2 family.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import families, linalg
from .errors import InputError
from .factors import VerificationReport, make_factorization, verify
from .linalg import DEFAULT_TOL


@dataclass(frozen=True)
class SymmetricGram:
    """One list of psd factors used on both sides: M_ij = <A_i, A_j>, held
    as one (n, k, k) stack."""

    factors: np.ndarray

    def __init__(self, factors, tol: float = DEFAULT_TOL):
        object.__setattr__(self, "factors", linalg.check_psd_stack(factors, tol, "factor"))

    @property
    def k(self) -> int:
        return self.factors.shape[1]

    def __len__(self):
        return len(self.factors)

    def matrix(self) -> np.ndarray:
        return np.einsum("aij,bij->ab", self.factors, self.factors)


def verify_cpsd(m, g: SymmetricGram, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Residual check of M_ij = <A_i, A_j>; the output side is psd for free."""
    mm = linalg.as_matrix(m)
    if mm.shape[0] != mm.shape[1]:
        raise InputError("completely psd matrices are square")
    if np.max(np.abs(mm - mm.T)) > tol * linalg.scale_of(mm):
        raise InputError("matrix must be symmetric")
    f = make_factorization(g.factors, g.factors)
    return verify(mm, f, tol=tol)


def horn_certificate(m) -> float:
    """Value of the separating form on a 5x5 matrix; negative rules out cpsd.

    The form is copositive, so every completely psd (indeed every doubly
    nonnegative plus copositive-dual) 5x5 matrix pairs nonnegatively with it.
    """
    mm = linalg.as_matrix(m)
    if mm.shape != (5, 5):
        raise InputError("the certificate form is 5x5")
    h = families.horn_form()
    return float(np.sum(h * mm))


def dnn_check(m, tol: float = DEFAULT_TOL) -> bool:
    """Doubly nonnegative test: entrywise nonnegative and psd."""
    mm = linalg.as_matrix(m)
    if np.iscomplexobj(mm):
        raise InputError("matrix must be real")
    if mm.shape[0] != mm.shape[1] or np.max(np.abs(mm - mm.T)) > tol * linalg.scale_of(mm):
        raise InputError("matrix must be square and symmetric")
    if np.min(mm) < -tol:
        return False
    return linalg.min_eig(linalg.sym(mm)) >= -tol * linalg.scale_of(mm)
