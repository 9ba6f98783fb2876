"""End-to-end checks of the package's headline guarantees.

Each test is a single verdict over one advertised capability, with the
tolerance and the wall-clock budget stated inline. Budgets are generous on
purpose; they guard against algorithmic regressions, not machine noise.
"""
import time
from itertools import product

import numpy as np
import pytest

from psdrank import bounds, cli, cpsd, factors, families, formats, linalg, quantum
from psdrank.cpsd import SymmetricGram

from conftest import build_catalog, random_factorization


class Budget:
    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc == (None, None, None):
            assert self.elapsed < self.limit, \
                f"took {self.elapsed:.1f}s, budget {self.limit}s"
        return False


def test_01_catalog_factorizations_verify():
    # every catalog factorization reproduces its matrix to 1e-9
    with Budget(1.0):
        for entry in build_catalog():
            rep = factors.verify(entry.matrix, entry.factorization, tol=1e-9)
            assert rep.passed, f"{entry.name}: {rep}"
            assert rep.max_residual <= 1e-9, entry.name


def test_02_circulant_grid_matches_quadratic_region(tmp_path):
    # 41x41 grid over b, c in [0, 2]: the rank-2 decision agrees with the
    # sign of 2(ab+bc+ca) - (a^2+b^2+c^2) wherever that margin exceeds 1e-4
    with Budget(10.0):
        out = tmp_path / "grid.csv"
        assert cli.main(["region", "circulant", "--grid", "41", "-o", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "b,c,decision"
        assert len(lines) == 1 + 41 * 41
        checked = 0
        for line in lines[1:]:
            bs, cs, decision = line.split(",")
            b, c = float(bs), float(cs)
            margin = 2.0 * (b + b * c + c) - (1.0 + b * b + c * c)
            if abs(margin) <= 1e-4:
                continue
            assert decision == ("1" if margin > 0 else "0"), (b, c, margin)
            checked += 1
        assert checked >= 41 * 41 - 41  # at most one diagonal's worth skipped


def test_03_nested_rectangle_grid_matches_circle(tmp_path):
    # 21x21 interior grid: rank-2 holds exactly when a^2 + b^2 <= 1
    with Budget(5.0):
        out = tmp_path / "grid.csv"
        assert cli.main(["region", "nested-rect", "--grid", "21", "-o", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 21 * 21
        for line in lines[1:]:
            astr, bstr, decision = line.split(",")
            a, b = float(astr), float(bstr)
            assert decision == ("1" if a * a + b * b <= 1.0 else "0"), (a, b)


def test_04_derangement_intervals_collapse():
    # the certified interval is a point at the minimal size with
    # k(k+1)/2 >= n, and the upper certificate is the explicit family file
    with Budget(10.0):
        for n in range(2, 16):
            iv = bounds.psd_rank_interval(families.derangement(n))
            k = bounds.rank_to_min_size(n)
            assert (iv.lower, iv.upper) == (k, k), n
            upper_kinds = [c["kind"] for c in iv.certificates if c]
            assert "factorization-file" in upper_kinds, n


def test_05_square_root_rank_anchors():
    with Budget(3.0):
        cases = [
            (np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 4.0], [1.0, 1.0, 1.0]]), 2),
            (families.partition_matrix((5, 12, 13)), 4),
            (families.prime_corner((2, 3, 4)), 3),
            (families.prime_corner((2, 3, 4, 6)), 4),
        ] + [(families.euclidean_distance(n), 2) for n in range(2, 7)]
        for m, expected in cases:
            res = bounds.sqrt_rank_exact(m)
            assert res.value == expected
            assert np.max(np.abs(res.witness ** 2 - m)) <= 1e-9


def test_06_rescaling_contracts():
    # trace mode: row factors sum to the identity and each column factor
    # trace equals its column sum; john mode: factor eigenvalues stay below
    # sqrt(k * max entry); both preserve every inner product to 1e-9
    with Budget(2.0):
        targets = []
        for entry in build_catalog():
            targets.append((entry.matrix, entry.factorization))
            f = entry.factorization
            scaled = factors.PsdFactorization(
                f.field,
                tuple(1e3 * a for a in f.row_factors),
                tuple(1e-3 * b for b in f.col_factors),
            )
            targets.append((entry.matrix, scaled))
        for m, f in targets:
            g = factors.rescale_trace(f, m)
            k = g.k
            total = sum(g.row_factors)
            assert np.max(np.abs(total - np.eye(k))) <= 1e-9
            colsums = np.asarray(m).sum(axis=0)
            for j, b in enumerate(g.col_factors):
                assert abs(np.trace(b).real - colsums[j]) <= 1e-9
            assert np.max(np.abs(g.matrix() - m)) <= 1e-9

            if f.field == "real":
                h = factors.rescale_john(f, m)
                cap = np.sqrt(h.k * np.max(np.abs(m))) * (1.0 + 1e-6)
                for a in list(h.row_factors) + list(h.col_factors):
                    assert float(np.linalg.eigvalsh(a)[-1]) <= cap
                assert np.max(np.abs(h.matrix() - m)) <= 1e-9


def test_07_quantum_protocols_round_trip_and_sample():
    with Budget(1.0):
        for n in (3, 6):
            m = families.derangement(n)
            m = m / m.sum()
            f = factors.derangement_factorization(n)
            f = factors.scale_rows(f, np.full(n, 1.0 / families.derangement(n).sum()))
            pr = quantum.to_protocol(f, m)
            rep = quantum.verify_protocol(m, pr, tol=1e-8)
            assert rep.passed and rep.max_residual <= 1e-8
            back = quantum.from_protocol(pr)
            assert factors.verify(m, back, tol=1e-8).passed

        m = families.derangement(3) / 6.0
        f = factors.scale_rows(factors.derangement_factorization(3), np.full(3, 1 / 6.0))
        pr = quantum.to_protocol(f, m)
        count = 1_000_000
        table = quantum.sample(pr, count, seed=2024)
        tv = 0.5 * float(np.abs(table / count - m).sum())
        assert tv <= 0.005


def test_08_complete_psd_separation():
    with Budget(5.0):
        m = families.cos2_matrix(5)
        angles = 4.0 * np.pi * np.arange(5) / 5
        us = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        gram = SymmetricGram([np.outer(u, u) for u in us])
        assert cpsd.verify_cpsd(m, gram).passed
        assert cpsd.horn_certificate(m) < 0.0
        assert cpsd.dnn_check(m)

        rng = np.random.default_rng(77)
        for _ in range(100):
            v = rng.random((5, rng.integers(1, 7)))
            mm = v @ v.T
            g = SymmetricGram([np.diag(row) for row in v])
            assert cpsd.verify_cpsd(mm, g).passed
            assert cpsd.dnn_check(mm)
            assert cpsd.horn_certificate(mm) >= -1e-12


def test_09_structure_preservation():
    with Budget(2.0):
        # zero entries force orthogonal factor pairs
        for entry in build_catalog():
            rep = factors.verify(entry.matrix, entry.factorization)
            assert rep.max_orth_defect <= 1e-8, entry.name

        # the identity needs a full-size block per basis direction
        for n in range(1, 11):
            value, cert = bounds.psd_rank_lower(np.eye(n))
            assert value == n, n

        rng = np.random.default_rng(404)
        for _ in range(50):
            m1, f1 = random_factorization(rng, 2, 3, 2)
            m2, f2 = random_factorization(rng, 3, 2, 2)

            fk = factors.kron_factorization(f1, f2)
            assert np.max(np.abs(fk.matrix() - np.kron(m1, m2))) <= 1e-9

            fd = factors.direct_sum(f1, f2)
            md = np.zeros((5, 5))
            md[:2, :3] = m1
            md[2:, 3:] = m2
            assert np.max(np.abs(fd.matrix() - md)) <= 1e-9

            m3, f3 = random_factorization(rng, 2, 3, 3)
            fa = factors.add(f1, f3)
            assert np.max(np.abs(fa.matrix() - (m1 + m3))) <= 1e-9

            w = rng.random((3, 2))
            fc = factors.compose_right(f1, w)
            assert np.max(np.abs(fc.matrix() - m1 @ w)) <= 1e-9


def test_10_lower_bound_search_stays_small():
    # a block stops at min(p, q) and none is evaluated twice, so the
    # identity settles at its component split and a sparse 13x13 matrix
    # needs a few hundred blocks; both certificates re-check
    with Budget(0.1):
        value, cert = bounds.psd_rank_lower(np.eye(16))
    assert value == 16
    assert bounds.check_lower_certificate(np.eye(16), cert)

    rng = np.random.default_rng(1313)
    m = np.round(rng.random((13, 13)) * 3.0, 1) * (rng.random((13, 13)) < 0.3)
    with Budget(0.5):
        value, cert = bounds.psd_rank_lower(m)
    assert value == 10 and "truncated" not in cert
    assert bounds.check_lower_certificate(m, cert)
