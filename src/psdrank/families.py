"""Structured nonnegative matrix families with exactly known invariants.

Every generator builds the matrix entrywise from its defining formula (no
floating point noise beyond the formula itself), and known_facts() reports the
invariants that are rigorously established for the family.
"""
from __future__ import annotations

import math

import numpy as np

from . import linalg
from .linalg import rank_to_min_size
from .errors import InputError


def derangement(n: int) -> np.ndarray:
    """n x n matrix with zero diagonal and ones elsewhere."""
    n = _check_size(n)
    return np.ones((n, n)) - np.eye(n)


def identity(n: int) -> np.ndarray:
    return np.eye(_check_size(n))


def circulant3(a: float, b: float, c: float) -> np.ndarray:
    """3 x 3 circulant with first row (a, b, c)."""
    a, b, c = (_check_nonneg(x, "circulant3 entry") for x in (a, b, c))
    return np.array([[a, b, c], [c, a, b], [b, c, a]])


def circulant3_rank2_margin(a: float, b: float, c: float) -> float:
    """2(ab+bc+ca) - (a^2+b^2+c^2); psd rank <= 2 iff this is >= 0."""
    return 2.0 * (a * b + b * c + c * a) - (a * a + b * b + c * c)


def euclidean_distance(n: int) -> np.ndarray:
    """Entries (i - j)^2 for i, j = 1..n."""
    n = _check_size(n)
    idx = np.arange(n, dtype=float)
    return (idx[:, None] - idx[None, :]) ** 2


def prime_corner(seq) -> np.ndarray:
    """Entries n_i + n_j - 1 for an increasing sequence with every 2 n_i - 1 prime."""
    s = [linalg.as_int(x, "prime family entry") for x in seq]
    if len(s) < 1 or any(x <= 0 for x in s):
        raise InputError("prime family needs a sequence of positive integers")
    if any(s[i] >= s[i + 1] for i in range(len(s) - 1)):
        raise InputError("prime family sequence must be strictly increasing")
    for x in s:
        if not _is_prime(2 * x - 1):
            raise InputError(f"2*{x}-1 = {2 * x - 1} is not prime")
    arr = np.array(s, dtype=float)
    return arr[:, None] + arr[None, :] - 1.0


def square_slack() -> np.ndarray:
    """Slack matrix of the unit square against itself (vertices vs facets)."""
    return np.array(
        [
            [1.0, 1.0, 0.0, 0.0],
            [0.0, 1.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, 1.0],
            [1.0, 0.0, 0.0, 1.0],
        ]
    )


def nested_rectangles(a: float, b: float) -> np.ndarray:
    """Slack matrix of the rectangle [-a,a] x [-b,b] inside the square [-1,1]^2."""
    a = float(a)
    b = float(b)
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise InputError("nested-rect parameters must lie in [0, 1]")
    return np.array(
        [
            [1 + a, 1 + b, 1 - a, 1 - b],
            [1 - a, 1 + b, 1 + a, 1 - b],
            [1 - a, 1 - b, 1 + a, 1 + b],
            [1 + a, 1 - b, 1 - a, 1 + b],
        ]
    )


def hexagon_slack() -> np.ndarray:
    """6 x 6 circulant with first row (0, 1, 2, 2, 1, 0): a hexagon slack matrix."""
    v = [0.0, 1.0, 2.0, 2.0, 1.0, 0.0]
    return np.array([[v[(j - i) % 6] for j in range(6)] for i in range(6)])


def partition_matrix(values) -> np.ndarray:
    """(n+1) x (n+1) block matrix [[I, a*a], [1^T, 0]] for positive integers a."""
    a = [linalg.as_int(x, "partition family entry") for x in values]
    if len(a) < 1 or any(x <= 0 for x in a):
        raise InputError("partition family needs positive integers")
    n = len(a)
    m = np.zeros((n + 1, n + 1))
    m[:n, :n] = np.eye(n)
    m[:n, n] = np.array(a, dtype=float) ** 2
    m[n, :n] = 1.0
    return m


def cos2_matrix(n: int = 5) -> np.ndarray:
    """Entries cos^2(4 pi (i - j) / n); the n = 5 instance separates cp from cpsd."""
    n = _check_size(n)
    idx = np.arange(n)
    return np.cos(4.0 * np.pi * (idx[:, None] - idx[None, :]) / n) ** 2


def horn_form() -> np.ndarray:
    """The 5 x 5 alternating +-1 form certifying non-complete-positivity."""
    return np.array(
        [
            [1.0, -1.0, 1.0, 1.0, -1.0],
            [-1.0, 1.0, -1.0, 1.0, 1.0],
            [1.0, -1.0, 1.0, -1.0, 1.0],
            [1.0, 1.0, -1.0, 1.0, -1.0],
            [-1.0, 1.0, 1.0, -1.0, 1.0],
        ]
    )


FAMILIES = {
    "derangement": (derangement, 1),
    "identity": (identity, 1),
    "circulant3": (circulant3, 3),
    "euclidean": (euclidean_distance, 1),
    "prime": (prime_corner, None),
    "square-slack": (square_slack, 0),
    "nested-rect-slack": (nested_rectangles, 2),
    "hexagon-slack": (hexagon_slack, 0),
    "partition": (partition_matrix, None),
    "cos2": (cos2_matrix, 1),
    "horn": (horn_form, 0),
}


def generate(tag: str, params=()) -> np.ndarray:
    """Build a family member from its tag and parameter list."""
    if tag not in FAMILIES:
        raise InputError(f"unknown family '{tag}' (known: {', '.join(sorted(FAMILIES))})")
    fn, arity = FAMILIES[tag]
    params = list(params)
    if arity is None:
        return fn(params)
    if len(params) != arity:
        raise InputError(f"family '{tag}' takes {arity} parameter(s), got {len(params)}")
    return fn(*params)


def known_facts(tag: str, params=()) -> dict:
    """Rigorously known invariants of a family member.

    Keys (present when known): rank, psd_rank (int or (lo, hi)), sqrt_rank,
    nonneg_rank. Values refer to the exact member, not the family in general.
    """
    params = list(params)
    if tag == "derangement":
        n = linalg.as_int(params[0], "size parameter")
        return {"rank": n if n != 1 else 0, "psd_rank": rank_to_min_size(n) if n > 1 else 0}
    if tag == "identity":
        n = linalg.as_int(params[0], "size parameter")
        return {"rank": n, "psd_rank": n, "sqrt_rank": n, "nonneg_rank": n}
    if tag == "circulant3":
        a, b, c = map(float, params)
        if a == b == c:
            r = 0 if a == 0 else 1
            return {"rank": r, "psd_rank": r, "sqrt_rank": r}
        psd = 2 if circulant3_rank2_margin(a, b, c) >= 0 else 3
        return {"rank": 3, "psd_rank": psd}
    if tag == "euclidean":
        n = linalg.as_int(params[0], "size parameter")
        if n == 1:
            return {"rank": 0, "psd_rank": 0, "sqrt_rank": 0}
        if n == 2:
            return {"rank": 2, "psd_rank": 2, "sqrt_rank": 2}
        return {"rank": 3, "psd_rank": 2, "sqrt_rank": 2}
    if tag == "prime":
        k = len(params)
        return {"rank": min(k, 2), "psd_rank": min(k, 2), "sqrt_rank": k, "nonneg_rank": min(k, 2)}
    if tag == "square-slack":
        return {"rank": 3, "psd_rank": 3, "sqrt_rank": 3, "nonneg_rank": 4}
    if tag == "nested-rect-slack":
        a, b = map(float, params)
        if a == b == 0.0:
            psd = 1
        elif a * a + b * b <= 1.0:
            psd = 2
        else:
            psd = 3
        return {"rank": 1 if a == b == 0.0 else 3, "psd_rank": psd}
    if tag == "hexagon-slack":
        return {"rank": 3, "psd_rank": 4}
    if tag == "partition":
        n = len(params)
        facts = {"rank": n + 1, "psd_rank": (rank_to_min_size(n + 1), n + 1)}
        entries = tuple(linalg.as_int(x, "partition family entry") for x in params)
        if entries == (5, 12, 13):
            facts["psd_rank"] = 3
            facts["sqrt_rank"] = n + 1
        if entries == (1, 1, 2):
            facts["sqrt_rank"] = n
        return facts
    if tag == "cos2":
        if params and linalg.as_int(params[0], "size parameter") == 5:
            return {"rank": 3, "psd_rank": 2, "sqrt_rank": 2}
        return {}
    if tag == "horn":
        return {"rank": 5}
    raise InputError(f"unknown family '{tag}'")


def _check_size(n) -> int:
    n = linalg.as_int(n, "size parameter")
    if n < 1:
        raise InputError("size parameter must be a positive integer")
    return n


def _check_nonneg(x, what: str) -> float:
    x = float(x)
    if not math.isfinite(x) or x < 0:
        raise InputError(f"{what} must be finite and nonnegative")
    return x


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True
