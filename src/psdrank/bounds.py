"""Certified bounds on psd rank and the exact square-root rank search.

Lower bounds come from the usual-rank inequality rank <= k(k+1)/2 and from
zero-pattern block splits; upper bounds from min(p, q), the all-plus
Hadamard square root, signed square roots, and explicit family
factorizations. The square-root rank is found by a sign search over row
prefixes below the all-plus root's rank: the signs on a spanning forest of
the nonzero bipartite graph are fixed to plus, and a prefix is dropped as
soon as its singular values rule out every completion (see sqrt_rank_exact).

psd_rank_lower and psd_rank_interval first drop zero rows and columns and
keep one row (column) of each set of positive multiples; neither step
changes the psd rank. psd_rank_upper and sqrt_rank_exact bound m as given.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry, linalg
from .errors import InputError, NumericalFailure, ResourceError
from .linalg import DEFAULT_TOL, rank_to_min_size


# free sign bits the square-root rank search may enumerate by default
SQRT_BUDGET = 20


@dataclass(frozen=True)
class BoundOptions:
    tol: float = DEFAULT_TOL
    sqrt_budget: int = SQRT_BUDGET


# the lower-bound search evaluates at most this many distinct blocks and
# lists at most this many zero corners to split them at; past either, the
# best bound so far comes back marked truncated
_NODE_BUDGET = 10_000
_CORNER_BUDGET = 100_000


@dataclass(frozen=True)
class RankInterval:
    lower: int
    upper: int
    certificates: tuple

    def __post_init__(self):
        if self.lower > self.upper:
            raise InputError(f"empty interval [{self.lower}, {self.upper}]")

    @property
    def exact(self) -> int | None:
        return self.lower if self.lower == self.upper else None


@dataclass(frozen=True)
class SqrtRankResult:
    value: int
    witness: np.ndarray
    patterns_searched: int


def _support(mm, tol):
    return mm > tol * linalg.scale_of(mm)


def _canonical(mm, tol):
    """(rows, cols) kept: no zero line, one line per set of positive multiples."""
    sup = _support(mm, tol)
    rows = np.flatnonzero(sup.any(axis=1))
    cols = np.flatnonzero(sup.any(axis=0))
    if rows.size == 0:
        return rows, cols
    block = np.where(sup, mm, 0.0)
    rows = rows[_distinct_directions(block[np.ix_(rows, cols)], tol)]
    cols = cols[_distinct_directions(block[np.ix_(rows, cols)].T, tol)]
    return rows, cols


def _distinct_directions(a, tol):
    """Positions of the first row of each set of rows equal up to a positive factor."""
    unit = a / np.max(a, axis=1, keepdims=True)
    kept = []
    for i in range(unit.shape[0]):
        if not kept or np.min(np.max(np.abs(unit[kept] - unit[i]), axis=1)) > tol:
            kept.append(i)
    return np.array(kept, dtype=int)


# ---------------------------------------------------------------------------
# lower bounds


def psd_rank_lower(m, opts: BoundOptions | None = None, *, _kept=None):
    """(value, certificate): a proven lower bound on the psd rank.

    The certificate records which argument wins: the square-root-of-rank
    bound on a block, or a split of a block over its zero pattern into
    parts whose bounds add up. Every certificate names its block by the row
    and column indices of m it keeps (see check_lower_certificate). The
    search stops early where no split can gain; past its budget the bound
    found so far comes back with "truncated": True.

    _kept is private: psd_rank_interval passes an m already through
    linalg.as_nonnegative with the (rows, cols) _canonical found for it, so
    the canonical block is computed once per interval.
    """
    opts = opts or BoundOptions()
    if _kept is None:
        m = linalg.as_nonnegative(m, opts.tol)
        _kept = _canonical(m, opts.tol)
    rows, cols = _kept
    if rows.size == 0:
        return 0, {"kind": "rank-bound", "rank": 0, "value": 0, "rows": [], "cols": []}
    search = _LowerSearch(m, opts.tol)
    value, cert = search.node(_mask(rows), _mask(cols))
    if search.truncated:
        cert = {**cert, "truncated": True}
    return value, cert


def _mask(indices) -> int:
    out = 0
    for i in indices:
        out |= 1 << int(i)
    return out


def _members(mask: int) -> list:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class _LowerSearch:
    """Branch and bound over blocks (row set, column set) of one matrix.

    Sets are bit masks of row and column indices. A block's value depends
    on the block alone, so each is evaluated once. psd rank(M[R, C]) <=
    min(|R|, |C|) caps every bound: a block stops at its cap, and splits
    are tried in order of their parts' summed caps until none can beat the
    block's best.

    A block of several connected components splits into them. A connected
    block splits as [[M1, Q], [0, M2]] at each maximal zero corner
    (R2, C1): C1 is an intersection of the column sets that single rows
    avoid and R2 holds every row that is zero on C1. Any zero corner lies
    inside a maximal one whose parts contain its parts, so no other split
    gives more.
    """

    def __init__(self, mm, tol):
        sup = _support(mm, tol)
        self.mm, self.tol = mm, tol
        self.row_nbrs = [_mask(np.flatnonzero(row)) for row in sup]
        self.col_nbrs = [_mask(np.flatnonzero(col)) for col in sup.T]
        self.nodes_left = _NODE_BUDGET
        self.corners_left = _CORNER_BUDGET
        self.truncated = False
        self.memo = {}

    def _reach(self, mask, nbrs):
        out = 0
        for i in _members(mask):
            out |= nbrs[i]
        return out

    def node(self, rows, cols):
        """(value, certificate) of the block, or None once the budget is spent."""
        # drop the lines that are zero inside the block
        rows &= self._reach(cols, self.col_nbrs)
        cols &= self._reach(rows, self.row_nbrs)
        key = (rows, cols)
        if key in self.memo:
            return self.memo[key]
        if self.nodes_left == 0:
            self.truncated = True
            return None
        self.nodes_left -= 1

        ri, ci = _members(rows), _members(cols)
        r = linalg.numerical_rank(self.mm[np.ix_(ri, ci)], self.tol)
        best = rank_to_min_size(r)
        cert = {"kind": "rank-bound", "rank": int(r), "value": int(best),
                "rows": ri, "cols": ci}
        cap = min(len(ri), len(ci))
        if best < cap:
            comps = self._components(rows, cols)
            if len(comps) > 1:
                split, levels = "components", [[comps]]
            else:
                split, levels = "triangular", self._corner_levels(rows, cols)
            for level in levels:
                for parts in level:
                    if sum(_cap(*part) for part in parts) <= best:
                        break
                    found = self._split_value(best, parts)
                    if found is not None:
                        best, part_certs = found
                        cert = {"kind": "block", "split": split, "parts": part_certs,
                                "value": int(best), "rows": ri, "cols": ci}
                if best >= cap:
                    break
        self.memo[key] = (int(best), cert)
        return self.memo[key]

    def _components(self, rows, cols):
        comps = []
        left = rows
        while left:
            r = left & -left
            while True:
                c = cols & self._reach(r, self.row_nbrs)
                grown = rows & self._reach(c, self.col_nbrs)
                if grown == r:
                    break
                r = grown
            comps.append((r, c))
            left &= ~r
        return comps

    def _corner_levels(self, rows, cols):
        """Splits [(R1, C1), (R2, C2)] at the maximal zero corners, in levels.

        Level k holds the corners whose C1 first appears as an intersection
        of k of the column sets single rows avoid; each level is listed
        largest caps first and built only when the one before did not reach
        the block's cap.
        """
        avoided = sorted({cols & ~self.row_nbrs[i] for i in _members(rows)} - {0})
        seen, level = set(avoided), avoided
        while level:
            yield self._splits_at(rows, cols, level)
            grown = []
            for c1 in level:
                for a in avoided:
                    c = c1 & a
                    if c and c not in seen:
                        if self.corners_left == 0:
                            self.truncated = True
                            return
                        self.corners_left -= 1
                        seen.add(c)
                        grown.append(c)
            level = grown

    def _splits_at(self, rows, cols, corners):
        splits = []
        for c1 in corners:
            r1 = rows & self._reach(c1, self.col_nbrs)
            parts = [(r1, c1), (rows & ~r1, cols & ~c1)]
            splits.append((-sum(_cap(*part) for part in parts), c1, parts))
        splits.sort(key=lambda t: t[:2])
        return [parts for _, _, parts in splits]

    def _split_value(self, best, parts):
        """(sum of part values, part certificates) if the sum beats best."""
        caps = [_cap(r, c) for r, c in parts]
        reachable = sum(caps)
        certs = []
        for (r, c), cap in zip(parts, caps):
            if reachable <= best:
                return None
            found = self.node(r, c)
            if found is None:
                return None
            reachable += found[0] - cap
            certs.append(found[1])
        return (reachable, certs) if reachable > best else None


def _cap(rows: int, cols: int) -> int:
    """min(|R|, |C|): no block of that size has a larger psd rank."""
    return min(rows.bit_count(), cols.bit_count())


def check_lower_certificate(m, cert, tol: float = DEFAULT_TOL) -> bool:
    """Re-verify a psd_rank_lower certificate from its recorded index sets.

    Leaves must have the recorded rank, and their value may not exceed the
    size that rank forces. A split's parts must use disjoint rows and
    columns of their block and be separated by zeros: between every two
    parts of a component split, in the corner below the first part of a
    triangular split. Then the block contains a block-triangular
    submatrix, whose psd rank is at least the sum of its diagonal parts',
    and the value may not exceed that sum.
    """
    mm = linalg.as_nonnegative(m, tol)
    zero = ~_support(mm, tol)

    def separated(a, b):
        return bool(zero[np.ix_(a["rows"], b["cols"])].all())

    def valid(c, rows, cols):
        if not (set(c["rows"]) <= rows and set(c["cols"]) <= cols):
            return False
        if c["kind"] == "rank-bound":
            rank = linalg.numerical_rank(mm[np.ix_(c["rows"], c["cols"])], tol)
            return rank == c["rank"] and c["value"] <= rank_to_min_size(rank)
        if c["kind"] != "block":
            return False
        parts = c["parts"]
        for key in ("rows", "cols"):
            used = [i for p in parts for i in p[key]]
            if len(used) != len(set(used)):
                return False
        if c["split"] == "components":
            apart = all(separated(a, b) for a in parts for b in parts if a is not b)
        elif c["split"] == "triangular" and len(parts) == 2:
            apart = separated(parts[1], parts[0])
        else:
            return False
        return (apart and c["value"] <= sum(p["value"] for p in parts)
                and all(valid(p, set(c["rows"]), set(c["cols"])) for p in parts))

    return valid(cert, set(range(mm.shape[0])), set(range(mm.shape[1])))


# ---------------------------------------------------------------------------
# upper bounds


def psd_rank_upper(m, opts: BoundOptions | None = None):
    """(value, certificate): a constructive upper bound on the psd rank.

    The sign search for the square-root rank runs only when no cheaper
    candidate already meets rank_to_min_size(rank), which no upper bound
    can beat.
    """
    opts = opts or BoundOptions()
    mm = linalg.as_nonnegative(m, opts.tol)
    r = linalg.numerical_rank(mm, opts.tol)
    candidates = _cheap_upper_candidates(mm, r, opts.tol)
    if min(v for v, _ in candidates) > rank_to_min_size(r):
        try:
            res = sqrt_rank_exact(mm, budget=opts.sqrt_budget, tol=opts.tol)
        except ResourceError:
            pass  # past the budget the cheap candidates stand
        else:
            candidates.append((res.value, {"kind": "sqrt-rank", "value": int(res.value),
                                           "patterns": res.patterns_searched}))
    value, cert = min(candidates, key=lambda t: t[0])
    return int(value), cert


def _cheap_upper_candidates(mm, r, tol):
    p, q = mm.shape
    candidates = []

    # listed first so ties resolve to the constructive certificate
    fam = _derangement_like(mm, tol)
    if fam is not None:
        n = mm.shape[0]
        k = rank_to_min_size(n) if n > 1 else (0 if fam == 0.0 else 1)
        candidates.append((k, {"kind": "factorization-file", "family": "derangement",
                               "scale": fam, "value": int(k)}))

    candidates.append((min(p, q), {"kind": "rank-bound", "argument": "min(p,q)",
                                   "value": int(min(p, q))}))
    if r <= 2:
        candidates.append((r, {"kind": "rank-bound", "argument": "rank <= 2 is exact",
                               "value": int(r)}))

    _, root_rank = _all_plus_root(mm, tol)
    candidates.append((root_rank, {"kind": "sqrt-rank", "argument": "all-plus root",
                                   "value": root_rank}))
    return candidates


def _derangement_like(mm, tol):
    """Positive scale c if m = c * (ones - identity), else None."""
    p, q = mm.shape
    if p != q or p < 2:
        return None
    off = mm[~np.eye(p, dtype=bool)]
    c = float(off[0])
    scale = linalg.scale_of(mm)
    if c <= tol * scale:
        return None
    if np.max(np.abs(off - c)) > tol * scale or np.max(np.abs(np.diag(mm))) > tol * scale:
        return None
    return c


# ---------------------------------------------------------------------------
# exact square-root rank


def sqrt_rank_exact(m, budget: int = SQRT_BUDGET, tol: float = DEFAULT_TOL) -> SqrtRankResult:
    """Minimum rank over all Hadamard square roots, by a sign search over
    row prefixes that prunes on rank.

    The all-plus root is the first witness, and the search tries only the
    targets below its rank. Scaling rows and columns by -1 preserves rank,
    so the signs along a spanning forest of the nonzero bipartite graph are
    fixed to plus; only the remaining nonzero entries, the free bits, take
    either sign. For each target r from rank_to_min_size(rank m) up to the
    all-plus root's rank minus one, _first_root extends row prefixes one row
    at a time by every sign choice of that row's free bits and drops a
    prefix once more than r of its singular values exceed
    tol * max(p, q) * ||base||_F. The cutoff is sound: every signed root W
    has sigma_max(W) <= ||W||_F = ||base||_F, and adding rows never lowers a
    singular value (interlacing), so no completion of a dropped prefix
    passes the test a full matrix must pass: at most r singular values
    above tol * max(p, q) * sigma_max(W). So the first target whose search
    finds a full matrix that passes is the value, and that matrix the
    witness; when no target passes, the all-plus root stands.

    patterns_searched counts the prefixes evaluated. It is far below
    2**(free bits) when the rank prunes early, and can exceed it when
    nothing prunes (derangement(6): 19 free bits, 559 104 prefixes). A
    witness rank below min(p, q) is recomputed in exact integer arithmetic
    when every entry is an integer.
    """
    mm = linalg.as_nonnegative(m, tol)
    base, value = _all_plus_root(mm, tol)
    free = np.array(_non_forest_edges(base > 0), dtype=int).reshape(-1, 2)
    if len(free) > budget:
        raise ResourceError(f"sign search needs {len(free)} free bits; budget is {budget}")

    witness, searched = base, 0
    for r in range(rank_to_min_size(linalg.numerical_rank(mm, tol)), value):
        found, evaluated = _first_root(base, free, r, tol)
        searched += evaluated
        if found is not None:
            rank, flips = found
            witness = _signed(base, free, flips)[0]
            value = _checked_rank(witness, rank)
            break
    return SqrtRankResult(value, witness, searched)


# prefixes the sign search evaluates with one batched SVD
_SIGN_CHUNK = 4096


def _first_root(base, free, r, tol):
    """((rank, flips), prefixes evaluated) for the first signed root of rank
    at most r, or (None, prefixes evaluated) when there is none.

    Depth first over chunks of at most _SIGN_CHUNK prefixes: a stack item
    (rows, parents, start, stop) stands for the prefixes t in [start, stop)
    of that many rows, prefix t extending parent t >> b by b free bits read
    from t's low bits. The first level sets rows 0..r at once, since a
    prefix of at most r rows has at most r singular values.
    """
    p, q = base.shape
    # free lists its entries row by row, so prefixes of k rows flag the
    # first ends[k - 1] of them
    ends = np.cumsum(np.bincount(free[:, 0], minlength=p))
    cut = tol * max(p, q) * np.linalg.norm(base)
    evaluated = 0
    stack = [(r + 1, np.zeros((1, 0), dtype=bool), 0, 1 << int(ends[r]))]
    while stack:
        rows, parents, start, stop = stack.pop()
        end = min(stop, start + _SIGN_CHUNK)
        if end < stop:
            stack.append((rows, parents, end, stop))
        b = int(ends[rows - 1]) - parents.shape[1]
        t = np.arange(start, end)
        flips = np.hstack([parents[t >> b], ((t[:, None] >> np.arange(b)) & 1).astype(bool)])
        evaluated += len(flips)
        sv = np.linalg.svd(_signed(base[:rows], free, flips), compute_uv=False)
        if rows < p:
            kept = flips[np.count_nonzero(sv > cut, axis=1) <= r]
            if len(kept):
                stack.append((rows + 1, kept, 0, len(kept) << int(ends[rows] - ends[rows - 1])))
            continue
        ranks = np.count_nonzero(sv > tol * max(p, q) * sv[:, :1], axis=1)
        i = int(np.argmin(ranks))
        if ranks[i] <= r:
            return (int(ranks[i]), flips[i:i + 1]), evaluated
    return None, evaluated


def _signed(rows, free, flips):
    """One copy of rows per row of flips, negated at the free entries it flags.

    flips covers the first flips.shape[1] free entries, which all lie in rows.
    """
    out = np.broadcast_to(rows, (len(flips),) + rows.shape).copy()
    i, j = free[:flips.shape[1]].T
    out[:, i, j] = rows[i, j] * np.where(flips, -1.0, 1.0)
    return out


def _non_forest_edges(support):
    """Nonzero positions not on a spanning forest of the row/column graph."""
    p, q = support.shape
    parent = list(range(p + q))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    free = []
    for i, j in np.argwhere(support):
        ra, rb = find(int(i)), find(int(p + j))
        if ra == rb:
            free.append((int(i), int(j)))
        else:
            parent[ra] = rb
    return free


def _all_plus_root(mm, tol):
    """(root, rank): sqrt(m) on the support of m with every sign plus, and
    its rank under the test sqrt_rank_exact applies to a full signed root."""
    root = np.where(_support(mm, tol), np.sqrt(mm), 0.0)
    return root, _checked_rank(root, linalg.numerical_rank(root, tol))


def _checked_rank(witness, rank):
    """rank, after a Bareiss re-check when it is below min(p, q) and every
    witness entry is an integer; NumericalFailure when the two disagree."""
    rounded = np.round(witness)
    if rank >= min(witness.shape) or \
            np.max(np.abs(witness - rounded)) > 1e-12 * (1 + np.max(np.abs(witness))):
        return rank
    exact = linalg.exact_int_rank([[int(x) for x in row] for row in rounded])
    if exact != rank:
        raise NumericalFailure(
            f"witness rank disagrees between floating point ({rank}) and exact ({exact})"
        )
    return rank


# ---------------------------------------------------------------------------
# the combined interval


def psd_rank_interval(m, opts: BoundOptions | None = None) -> RankInterval:
    """Best certified bracket on the psd rank, exact through rank 3 regions.

    Works on the canonical block of m (no zero lines, no two lines positive
    multiples of each other), which it also passes to the upper bounds.
    After the lower bound and the cheap upper bounds, rank <= 2 settles the
    psd rank as the rank. At rank 3, while the interval is still open below
    3, the ellipse containment program settles whether it is 2; an undecided
    program is recorded with answer None and its reason and leaves the
    interval to the other bounds. The upper and ellipse certificates record
    the rows and columns of m they were built from. The square-root rank
    sign search runs only while the interval is still open.
    """
    opts = opts or BoundOptions()
    mm = linalg.as_nonnegative(m, opts.tol)
    rows, cols = _canonical(mm, opts.tol)
    if rows.size == 0:
        return RankInterval(0, 0, ({"kind": "rank-bound", "rank": 0, "value": 0},))
    block = mm[np.ix_(rows, cols)]

    kept = {"rows": rows.tolist(), "cols": cols.tolist()}
    lo, lo_cert = psd_rank_lower(mm, opts, _kept=(rows, cols))
    r = linalg.numerical_rank(block, opts.tol)
    up, up_cert = min(_cheap_upper_candidates(block, r, opts.tol), key=lambda t: t[0])
    certs = [lo_cert, {**up_cert, **kept}]

    # rank <= 2 is exact; the cheap upper bound already carries that certificate
    if r <= 2:
        return RankInterval(int(r), int(r), tuple(certs))

    if r == 3 and lo < min(up, 3):
        try:
            answer, ellipse = geometry.decide_psd_rank_le_2(block)
        except NumericalFailure as exc:
            # an undecided program settles nothing; the other bounds stand
            certs.append({"kind": "ellipse", "answer": None, "reason": str(exc), **kept})
        else:
            found = {"kind": "ellipse", "answer": bool(answer), **kept}
            if answer:
                certs.append({**found, "ellipse": ellipse})
                return RankInterval(2, 2, tuple(certs))
            certs.append(found)
            lo = max(lo, 3)

    if lo < up:
        # lo < up puts up above rank_to_min_size(r), so this runs the sign search
        value, cert = psd_rank_upper(block, opts)
        if value < up:
            up, certs[1] = value, {**cert, **kept}

    up = max(up, lo)
    return RankInterval(int(lo), int(up), tuple(certs))
