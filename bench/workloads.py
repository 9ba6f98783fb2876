"""The three benchmark workloads: inputs made from a seed, one op each.

A workload hands out passes. A pass is a fixed list of operations whose
inputs come from `numpy.random.default_rng([seed, pass index])`, so every
pass has the same make-up and the same count of operations while its
seeded inputs differ from pass to pass. Each operation calls the public API
of psdrank, returns its outputs as plain arrays, and is judged by a check
from `oracles`, which never calls into psdrank.

psdrank must be importable when this module is imported; `run.py` puts the
checkout's `src` directory on the path first.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import psdrank
import psdrank.cli
import psdrank.formats

import oracles


@dataclass
class Op:
    label: str
    run: Callable[[], dict]
    check: Callable[[dict], list]
    # the fault an op runs into on every pass; such an op counts as failed
    # without making the run incorrect
    known_fault: str | None = None


def _rng(seed: int, pass_index: int) -> np.random.Generator:
    # SeedSequence takes nonnegative entropy only; a negative seed wraps
    return np.random.default_rng([seed % 2 ** 64, pass_index])


def _circulant3(a, b, c) -> np.ndarray:
    return np.array([[a, b, c], [c, a, b], [b, c, a]], dtype=float)


def _nested_rectangles(a, b) -> np.ndarray:
    """Slack matrix of [-a, a] x [-b, b] inside [-1, 1]^2."""
    return np.array([
        [1 + a, 1 + b, 1 - a, 1 - b],
        [1 - a, 1 + b, 1 + a, 1 - b],
        [1 - a, 1 - b, 1 + a, 1 + b],
        [1 + a, 1 - b, 1 - a, 1 + b],
    ])


# ---------------------------------------------------------------------------
# rank2-grid: the psd-rank-2 decision over the two planar families


# cells per side of the stratified grids; one pass is 8*8 + 6*6 = 100 ops
CIRCULANT_SIDE = 8
NESTED_SIDE = 6


def _rank2_run(m: np.ndarray) -> dict:
    answer, ellipse = psdrank.decide_psd_rank_le_2(m)
    out = {"answer": bool(answer), "theta": None}
    if answer and ellipse is not None:
        pair = psdrank.polytopes_from_matrix(m)
        report = psdrank.certify(pair, ellipse)
        fact = psdrank.factorization_from_ellipse(m, pair, ellipse, tol=1e-7)
        out.update(
            theta=ellipse.theta, multipliers=ellipse.multipliers,
            vertices=pair.inner.vertices, normals=pair.outer.normals,
            offsets=pair.outer.offsets, certify_passed=bool(report.passed),
            rows=fact.row_factors, cols=fact.col_factors,
        )
    return out


def _rank2_op(label: str, m: np.ndarray, margin: float) -> Op:
    case = {"matrix": m, "margin": margin}
    return Op(label, lambda: _rank2_run(m), lambda out: oracles.check_rank2(case, out))


class Rank2Grid:
    """circulant3(1, b, c) over [0, 2]^2 and nested_rectangles(a, b) over
    (0, 1)^2, one uniformly jittered point per grid cell."""

    name = "rank2-grid"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def ops(self, pass_index: int) -> list:
        rng = _rng(self.seed, pass_index)
        out = []
        side = CIRCULANT_SIDE
        jitter = rng.random((side, side, 2))
        for i in range(side):
            for j in range(side):
                b = 2.0 * (i + jitter[i, j, 0]) / side
                c = 2.0 * (j + jitter[i, j, 1]) / side
                out.append(_rank2_op(f"circulant3(1, {b:.4f}, {c:.4f})",
                                     _circulant3(1.0, b, c), oracles.circulant_margin(b, c)))
        side = NESTED_SIDE
        jitter = rng.random((side, side, 2))
        for i in range(side):
            for j in range(side):
                # 1 - jitter lies in (0, 1], so a and b stay inside (0, 1)
                a = (i + 1.0 - jitter[i, j, 0]) / (side + 1.0)
                b = (j + 1.0 - jitter[i, j, 1]) / (side + 1.0)
                out.append(_rank2_op(f"nested_rectangles({a:.4f}, {b:.4f})",
                                     _nested_rectangles(a, b), oracles.nested_margin(a, b)))
        return out


# ---------------------------------------------------------------------------
# bounds-catalog: `psdrank bounds FILE` over the family catalog


# identity(9) is the largest member whose lower-bound search still ends in
# seconds; identity(10) takes close to ten
IDENTITY_SIZES = range(2, 10)
DERANGEMENT_SIZES = range(2, 16)
EUCLIDEAN_SIZES = range(2, 8)
# seeded members per family and pass, drawn this far from the region
# boundary; with 16 of them the median operation of a pass falls inside
# this cluster of similar ellipse tests rather than at its edge
SEEDED_MEMBERS = 8
SEEDED_MARGIN = 0.05
ZERO_ROW_FAULT = ("bounds.psd_rank_interval skips the ellipse test when a row "
                  "sums to 0, so a zero row turns psd rank 2 into [2, 3]")



def _fixed_catalog() -> list:
    """(label, matrix, (lo, hi)) with the psd rank in [lo, hi] by closed form."""
    cat = []
    for n in IDENTITY_SIZES:
        cat.append((f"identity({n})", np.eye(n), (n, n)))
    for n in DERANGEMENT_SIZES:
        k = oracles.min_psd_size(n)
        cat.append((f"derangement({n})", np.ones((n, n)) - np.eye(n), (k, k)))
    for n in EUCLIDEAN_SIZES:
        # (i - j)^2 = <(i, 1), (1, -j)>^2 is a size-2 factorization by
        # rank-one forms, and rank 2 or 3 rules out size 1
        idx = np.arange(n, dtype=float)
        cat.append((f"euclidean({n})", (idx[:, None] - idx[None, :]) ** 2, (2, 2)))
    # polygons of psd rank d + 1 = 3 are exactly the triangles and
    # quadrilaterals (Gouveia, Robinson, Thomas 2013); hexagons have 4
    square = np.array([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]], dtype=float)
    cat.append(("square-slack", square, (3, 3)))
    v = [0.0, 1.0, 2.0, 2.0, 1.0, 0.0]
    hexagon = np.array([[v[(j - i) % 6] for j in range(6)] for i in range(6)])
    cat.append(("hexagon-slack", hexagon, (4, 4)))
    for a in ((5, 12, 13), (1, 1, 2)):
        # [[I, a*a], [1^T, 0]] has determinant -sum(a^2) != 0, so rank 4:
        # psd rank between the size bound 3 and min(p, q) = 4
        m = np.zeros((4, 4))
        m[:3, :3] = np.eye(3)
        m[:3, 3] = np.array(a, dtype=float) ** 2
        m[3, :3] = 1.0
        cat.append((f"partition{a}", m, (3, 4)))
    # n_i + n_j - 1 has rank 2, and psd rank equals rank up to rank 2
    s = np.array([2.0, 3.0, 4.0])
    cat.append(("prime(2, 3, 4)", s[:, None] + s[None, :] - 1.0, (2, 2)))
    # cos^2(t_i - t_j) = trace(u_i u_i^T u_j u_j^T) for unit u_i in the
    # plane: a size-2 factorization of a rank-3 matrix
    idx = np.arange(5)
    cos2 = np.cos(4.0 * np.pi * (idx[:, None] - idx[None, :]) / 5) ** 2
    cat.append(("cos2(5)", cos2, (2, 2)))
    return cat


def _seeded_members(rng: np.random.Generator) -> list:
    """SEEDED_MEMBERS circulant3 and nested-rect members each, half of them
    inside the psd-rank-2 region and half outside, so that every pass has
    the same mix of answers."""
    out = []
    families = (
        ("circulant3(1, {:.4f}, {:.4f})", (0.0, 2.0), oracles.circulant_margin,
         lambda x, y: _circulant3(1.0, x, y)),
        ("nested_rectangles({:.4f}, {:.4f})", (0.02, 0.98), oracles.nested_margin,
         _nested_rectangles),
    )
    for label, (lo, hi), margin_of, build in families:
        wanted = {True: SEEDED_MEMBERS // 2, False: SEEDED_MEMBERS // 2}
        while any(wanted.values()):
            x, y = rng.uniform(lo, hi, 2)
            margin = margin_of(x, y)
            inside = margin > 0
            if abs(margin) >= SEEDED_MARGIN and wanted[inside]:
                wanted[inside] -= 1
                k = 2 if inside else 3
                out.append((label.format(x, y), build(x, y), (k, k)))
    return out


def _write_matrix(m: np.ndarray, path: str) -> None:
    doc = {"rows": int(m.shape[0]), "cols": int(m.shape[1]),
           "data": [[float(x) for x in row] for row in m]}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _bounds_run(path: str) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = psdrank.cli.main(["bounds", path])
    return {"code": code, "stdout": buf.getvalue()}


class BoundsCatalog:
    """One `psdrank bounds FILE` per catalog member, through psdrank.cli.main."""

    name = "bounds-catalog"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def ops(self, pass_index: int) -> list:
        rng = _rng(self.seed, pass_index)
        members = _fixed_catalog() + _seeded_members(rng)
        zero_row = np.vstack([_circulant3(1.0, 1.3, 0.4), np.zeros((1, 3))])
        members.append(("circulant3(1, 1.3, 0.4) + zero row", zero_row, (2, 2)))
        # a seeded order spreads the cluster of similar members that holds
        # the median over the whole pass, so op_p50_ms does not hinge on the
        # machine's speed during one half-second stretch
        members = [members[i] for i in rng.permutation(len(members))]
        out = []
        for idx, (label, m, truth) in enumerate(members):
            path = os.path.join(self.workdir, f"pass{pass_index}-member{idx}.json")
            _write_matrix(m, path)
            case = {"truth": truth}
            fault = ZERO_ROW_FAULT if label.endswith("zero row") else None
            out.append(Op(label, lambda path=path: _bounds_run(path),
                          lambda res, case=case: oracles.check_bounds(case, res), fault))
        return out


# ---------------------------------------------------------------------------
# factor-protocol: factorization -> rescalings -> protocol -> samples


DERANGEMENT_FACTOR_SIZES = (6, 10, 15, 21, 28)
DRAWS = 10 ** 6
GRAM_SIZE = (5, 3)  # five 3 x 3 psd factors
GRAM_DELTA = 1e-4


def _random_psd(rng, k: int, count: int) -> list:
    out = []
    for _ in range(count):
        x = rng.standard_normal((k, k))
        out.append(x @ x.T)
    return out


def _random_factorization(rng, k: int, p: int, q: int):
    rows, cols = _random_psd(rng, k, p), _random_psd(rng, k, q)
    return psdrank.make_factorization(rows, cols, "real"), oracles.reconstruct(rows, cols)


def _pipeline_run(f, m: np.ndarray, sample_seed: int, gram: list, gram_m: np.ndarray) -> dict:
    out = {"rows": f.row_factors, "cols": f.col_factors}
    out["verify_passed"] = bool(psdrank.verify(m, f).passed)
    g = psdrank.rescale_trace(f, m)
    out["trace_rows"], out["trace_cols"] = g.row_factors, g.col_factors
    h = psdrank.rescale_john(f, m)
    out["john_rows"], out["john_cols"] = h.row_factors, h.col_factors

    total = float(m.sum())
    p = m / total
    normalized = psdrank.make_factorization(f.row_factors, [b / total for b in f.col_factors], "real")
    pr = psdrank.to_protocol(normalized, p)
    out["alice"], out["bob"], out["rho"] = pr.alice.elements, pr.bob.elements, pr.rho
    out["protocol_passed"] = bool(psdrank.verify_protocol(p, pr).passed)
    back = psdrank.from_protocol(pr)
    out["back_rows"], out["back_cols"] = back.row_factors, back.col_factors
    out["back_passed"] = bool(psdrank.verify(p, back).passed)
    out["counts"] = psdrank.sample(pr, DRAWS, seed=sample_seed)
    out["counts_again"] = psdrank.sample(pr, DRAWS, seed=sample_seed)

    text = json.dumps(psdrank.formats.encode_protocol(pr))
    pr2 = psdrank.formats.decode_protocol(json.loads(text))
    out["json_alice"], out["json_bob"], out["json_rho"] = pr2.alice.elements, pr2.bob.elements, pr2.rho

    sg = psdrank.SymmetricGram(gram)
    out["cpsd_passed"] = bool(psdrank.verify_cpsd(gram_m, sg).passed)
    bumped = gram_m.copy()
    bumped[0, 1] += GRAM_DELTA
    bumped[1, 0] += GRAM_DELTA
    report = psdrank.verify_cpsd(bumped, sg)
    out["cpsd_perturbed_passed"] = bool(report.passed)
    out["cpsd_perturbed_residual"] = float(report.max_residual)
    return out


class FactorProtocol:
    """The full factorization pipeline on derangement factorizations,
    Kronecker products, direct sums and rank-one expansions of seeded random
    factorizations, and the real embedding of the Hermitian derangement(4)."""

    name = "factor-protocol"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def _cases(self, rng) -> list:
        cases = []
        for n in DERANGEMENT_FACTOR_SIZES:
            cases.append((f"derangement_factorization({n})", psdrank.derangement_factorization(n),
                          np.ones((n, n)) - np.eye(n), None))
        f1, m1 = _random_factorization(rng, 2, 3, 3)
        f2, m2 = _random_factorization(rng, 2, 3, 4)
        cases.append(("kron(random 3x3 k=2, random 3x4 k=2)",
                      psdrank.kron_factorization(f1, f2), np.kron(m1, m2), None))
        f1, m1 = _random_factorization(rng, 2, 3, 3)
        f2, m2 = _random_factorization(rng, 3, 4, 3)
        block = np.zeros((7, 6))
        block[:3, :3], block[3:, 3:] = m1, m2
        cases.append(("direct_sum(random 3x3 k=2, random 4x3 k=3)",
                      psdrank.direct_sum(f1, f2), block, None))
        f1, m1 = _random_factorization(rng, 3, 4, 4)
        expansion = psdrank.rank1_expand(f1).factorization
        # the expanded matrix is checked against m1 through its 3 x 3 block
        # sums; its entries are recomputed from the expansion's factors
        expanded = oracles.reconstruct(expansion.row_factors, expansion.col_factors)
        cases.append(("rank1_expand(random 4x4 k=3)", expansion, expanded, (m1, 3)))
        cases.append(("hermitian_embed(hermitian_derangement4())",
                      psdrank.hermitian_embed(psdrank.hermitian_derangement4()),
                      np.ones((4, 4)) - np.eye(4), None))
        return cases

    def ops(self, pass_index: int) -> list:
        rng = _rng(self.seed, pass_index)
        out = []
        for label, f, m, blocks_of in self._cases(rng):
            gram = _random_psd(rng, GRAM_SIZE[1], GRAM_SIZE[0])
            gram_m = oracles.reconstruct(gram, gram)
            sample_seed = int(rng.integers(2 ** 31))
            case = {"matrix": m, "draws": DRAWS, "delta": GRAM_DELTA, "blocks_of": blocks_of}
            out.append(Op(
                label,
                lambda f=f, m=m, s=sample_seed, g=gram, gm=gram_m: _pipeline_run(f, m, s, g, gm),
                lambda res, case=case: oracles.check_pipeline(case, res),
            ))
        return out


WORKLOADS = {w.name: w for w in (Rank2Grid, BoundsCatalog, FactorProtocol)}
