"""Invariances of psd rank, checked as properties of the computed bounds.

Permuting, transposing or positively scaling rows and columns, and appending
zero rows or copies of rows, leave the psd rank unchanged, so they must leave
the lower bound and the certified interval unchanged as well. Direct sums and
Kronecker products of nonzero matrices have psd rank at least that of each
part and at most the sum (product) of the parts' ranks, and the block-diagonal
and Kronecker factorizations built from the parts' factors verify. On
matrices with few distinct entries the upper bound stays within the
interpolation count C(d - 1 + r, d - 1).
"""
from math import comb

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from psdrank import bounds, factors, linalg

from conftest import random_factorization

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)


@st.composite
def matrices(draw, max_side=5):
    p = draw(st.integers(1, max_side))
    q = draw(st.integers(1, max_side))
    entries = draw(st.lists(st.integers(0, 4), min_size=p * q, max_size=p * q))
    return np.array(entries, dtype=float).reshape(p, q)


@st.composite
def few_valued(draw, max_side=6):
    """Nonnegative matrices whose entries take one to three distinct values."""
    values = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 4.0]),
                           min_size=1, max_size=3, unique=True))
    p = draw(st.integers(1, max_side))
    q = draw(st.integers(1, max_side))
    entries = draw(st.lists(st.sampled_from(values), min_size=p * q, max_size=p * q))
    return np.array(entries).reshape(p, q)


def interpolation_count(m):
    """C(d - 1 + r, d - 1) for d distinct entries and rank r. The polynomial
    f of degree d - 1 with f(v) = sqrt(v) on those values writes the all-plus
    root as sum_k c_k m^(hadamard k), so its rank is at most this count."""
    d = np.unique(m).size
    return comb(d - 1 + linalg.numerical_rank(m), d - 1)


@st.composite
def variants(draw, max_side=5):
    """(matrix, the same matrix after one psd-rank-preserving change)"""
    m = draw(matrices(max_side))
    p, q = m.shape
    kind = draw(st.sampled_from(["permute", "transpose", "scale", "zero", "duplicate"]))
    if kind == "permute":
        rows = draw(st.permutations(range(p)))
        cols = draw(st.permutations(range(q)))
        return m, m[np.ix_(rows, cols)]
    if kind == "transpose":
        return m, m.T
    if kind == "scale":
        factor = st.sampled_from([0.25, 0.5, 2.0, 3.0, 7.0])
        d_rows = draw(st.lists(factor, min_size=p, max_size=p))
        d_cols = draw(st.lists(factor, min_size=q, max_size=q))
        return m, np.diag(d_rows) @ m @ np.diag(d_cols)
    if kind == "zero":
        row = np.zeros(q)
    else:
        row = draw(st.sampled_from([1.0, 2.5])) * m[draw(st.integers(0, p - 1))]
    return m, np.insert(m, draw(st.integers(0, p)), row, axis=0)


@PROPERTY
@given(variants(max_side=6))
def test_lower_bound_invariant(pair):
    m, changed = pair
    assert bounds.psd_rank_lower(changed)[0] == bounds.psd_rank_lower(m)[0]


@PROPERTY
@given(variants(max_side=4))
def test_interval_invariant(pair):
    m, changed = pair
    a, b = bounds.psd_rank_interval(m), bounds.psd_rank_interval(changed)
    assert (b.lower, b.upper) == (a.lower, a.upper)


@PROPERTY
@given(few_valued().filter(np.any))
def test_upper_bound_within_min_size_and_interpolation_count(m):
    iv = bounds.psd_rank_interval(m)
    for upper in (bounds.psd_rank_upper(m)[0], iv.upper):
        assert upper <= min(m.shape)
        assert upper <= interpolation_count(m)
    # the upper certificate never falls below the lower end, so the interval
    # needs no clamp, and the lower end is at least the lower bound's
    assert bounds.psd_rank_lower(m)[0] <= iv.lower <= iv.certificates[1]["value"]


def block_diag(m, n):
    out = np.zeros((m.shape[0] + n.shape[0], m.shape[1] + n.shape[1]))
    out[:m.shape[0], :m.shape[1]] = m
    out[m.shape[0]:, m.shape[1]:] = n
    return out


nonzero_parts = matrices(max_side=3).filter(np.any)


@PROPERTY
@given(nonzero_parts, nonzero_parts)
def test_direct_sum_interval_brackets_parts(m, n):
    a, b = bounds.psd_rank_interval(m), bounds.psd_rank_interval(n)
    lower = bounds.psd_rank_interval(block_diag(m, n)).lower
    assert max(a.lower, b.lower) <= lower <= a.upper + b.upper


@PROPERTY
@given(nonzero_parts, nonzero_parts)
def test_kron_lower_bound_brackets_parts(m, n):
    lower = bounds.psd_rank_lower(np.kron(m, n))[0]
    assert lower >= max(bounds.psd_rank_lower(m)[0], bounds.psd_rank_lower(n)[0])
    assert lower <= bounds.psd_rank_interval(m).upper * bounds.psd_rank_interval(n).upper


shapes = st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))


@PROPERTY
@given(shapes, shapes, st.integers(0, 2 ** 32 - 1))
def test_direct_sum_and_kron_factorizations_verify(size_f, size_g, seed):
    rng = np.random.default_rng(seed)
    m, f = random_factorization(rng, *size_f)
    n, g = random_factorization(rng, *size_g)
    total = factors.direct_sum(f, g)
    assert total.k == f.k + g.k
    assert factors.verify(block_diag(m, n), total).passed
    product = factors.kron_factorization(f, g)
    assert product.k == f.k * g.k
    assert factors.verify(np.kron(m, n), product).passed
