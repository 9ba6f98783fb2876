"""Checks of psdrank outputs that never call into psdrank.

Every check takes plain numpy arrays and numbers and returns a list of
error strings; an empty list means the output is correct. The expected
answers come from closed forms (the quadratic regions of the rank-2
families, k(k+1)/2 >= n for derangements, n for identities) or from
recomputing a product with einsum, never from a stored copy of earlier
output and never from psdrank itself.
"""
from __future__ import annotations

import json
import math

import numpy as np

# relative tolerance for reconstructions and certificates; the solver
# returns boundary-tight ellipses at its 1e-8 gap, so 1e-7 is the
# tightest level every certificate meets (psdrank.certify uses it too)
TOL = 1e-7
# cells of the rank-2 grid whose closed-form margin is this close to zero
# are exempt from the answer check: either answer is within solver tolerance
BAND = 1e-6


def circulant_margin(b: float, c: float) -> float:
    """2(ab + bc + ca) - (a^2 + b^2 + c^2) at a = 1; psd rank <= 2 iff >= 0."""
    return 2.0 * (b + b * c + c) - (1.0 + b * b + c * c)


def nested_margin(a: float, b: float) -> float:
    """1 - (a^2 + b^2); the rectangle fits an ellipse inside the square iff >= 0."""
    return 1.0 - (a * a + b * b)


def min_psd_size(n: int) -> int:
    """Smallest k with k(k+1)/2 >= n."""
    k = (math.isqrt(8 * n + 1) - 1) // 2
    return k if k * (k + 1) // 2 >= n else k + 1


def scale(m) -> float:
    return 1.0 + float(np.max(np.abs(m)))


def reconstruct(rows, cols) -> np.ndarray:
    """M[i, j] = trace(A_i B_j) for (Hermitian) factor stacks."""
    a = np.asarray(rows)
    b = np.asarray(cols)
    return np.einsum("aij,bij->ab", a, b.conj()).real


def check_factorization(m, rows, cols, what: str, tol: float = TOL) -> list:
    errors = []
    m = np.asarray(m, dtype=float)
    got = reconstruct(rows, cols)
    if got.shape != m.shape:
        return [f"{what}: reconstructs a {got.shape} matrix, expected {m.shape}"]
    resid = float(np.max(np.abs(got - m)))
    if resid > tol * scale(m):
        errors.append(f"{what}: reconstruction residual {resid:.3e}")
    fac_scale = max(scale(g) for g in list(rows) + list(cols))
    worst = min(float(np.linalg.eigvalsh(g)[0]) for g in list(rows) + list(cols))
    if worst < -tol * fac_scale:
        errors.append(f"{what}: factor eigenvalue {worst:.3e} < 0")
    return errors


# ---------------------------------------------------------------------------
# rank2-grid


def check_rank2(case: dict, out: dict) -> list:
    """case: matrix, margin; out: answer and, for a yes with certificate,
    theta, multipliers, vertices, normals, offsets, certify_passed, rows, cols."""
    m = np.asarray(case["matrix"], dtype=float)
    errors = []
    margin = case["margin"]
    if abs(margin) > BAND and bool(out["answer"]) != (margin > 0):
        errors.append(f"decision {out['answer']} contradicts closed-form margin {margin:.3e}")
    if not out["answer"]:
        return errors
    if out.get("theta") is None:
        if np.linalg.matrix_rank(m, tol=1e-9 * scale(m) * max(m.shape)) > 2:
            errors.append("yes without a certificate on a rank-3 matrix")
        return errors

    if not out["certify_passed"]:
        errors.append("psdrank.certify rejects its own certificate")
    theta = np.asarray(out["theta"], dtype=float)
    lam = np.asarray(out["multipliers"], dtype=float)
    verts = np.asarray(out["vertices"], dtype=float)
    normals = np.asarray(out["normals"], dtype=float)
    offsets = np.asarray(out["offsets"], dtype=float)

    # the pair must be the row-normalized matrix, or the ellipse certifies
    # some other polygon
    slack = offsets[None, :] - verts @ normals.T
    rownorm = m / m.sum(axis=1, keepdims=True)
    if slack.shape != m.shape or np.max(np.abs(slack - rownorm)) > TOL:
        errors.append("sandwich pair does not reproduce the row-normalized matrix")

    if abs(np.trace(theta[:2, :2]) - 1.0) > TOL:
        errors.append(f"quadratic part has trace {np.trace(theta[:2, :2]):.9f}")
    hom = np.hstack([verts, np.ones((verts.shape[0], 1))])
    q = np.einsum("vi,ij,vj->v", hom, theta, hom)
    if q.size and float(q.max()) > TOL:
        errors.append(f"vertex outside the ellipse, q = {float(q.max()):.3e}")
    if lam.shape != offsets.shape:
        errors.append("one multiplier per facet expected")
    else:
        if lam.size and float(lam.min()) < 0.0:
            errors.append("negative facet multiplier")
        for g, h, lj in zip(normals, offsets, lam):
            facet = np.zeros((3, 3))
            facet[:2, 2] = facet[2, :2] = g / 2.0
            facet[2, 2] = -h
            low = float(np.linalg.eigvalsh(theta - lj * facet)[0])
            if low < -TOL:
                errors.append(f"facet block eigenvalue {low:.3e}")
                break
    errors += check_factorization(m, out["rows"], out["cols"], "extracted factorization")
    return errors


# ---------------------------------------------------------------------------
# bounds-catalog


def check_bounds(case: dict, out: dict) -> list:
    """case: truth (lo, hi), the closed-form psd rank or a range holding it;
    out: exit code and captured stdout of `psdrank bounds FILE`."""
    if out["code"] != 0:
        return [f"exit code {out['code']}"]
    try:
        doc = json.loads(out["stdout"])
        lower, upper, exact = int(doc["lower"]), int(doc["upper"]), doc["exact"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc}"]
    lo, hi = case["truth"]
    errors = []
    if lower > upper:
        errors.append(f"empty interval [{lower}, {upper}]")
    if lower > hi or upper < lo:
        errors.append(f"interval [{lower}, {upper}] misses psd rank in [{lo}, {hi}]")
    if lo == hi == 2 and not (lower == upper == 2 and exact == 2):
        errors.append(f"psd rank 2 by closed form, interval [{lower}, {upper}] not exact")
    return errors


# ---------------------------------------------------------------------------
# factor-protocol


def tv_bound(draws: int, cells: int) -> float:
    """Total-variation distance the empirical table exceeds with probability
    below 1e-12: E[TV] <= sqrt(cells / draws) / 2 by Cauchy-Schwarz, and TV
    moves by at most 1/draws per draw, so McDiarmid adds sqrt(ln(1e12) / 2n)."""
    return 0.5 * math.sqrt(cells / draws) + math.sqrt(math.log(1e12) / (2.0 * draws))


def check_pipeline(case: dict, out: dict) -> list:
    """case: matrix M, draws, Gram perturbation delta and, for a rank-one
    expansion, (parent matrix, block size); out: every pipeline output."""
    m = np.asarray(case["matrix"], dtype=float)
    errors = []
    if case["blocks_of"] is not None:
        parent, kb = case["blocks_of"]
        sums = m.reshape(parent.shape[0], kb, parent.shape[1], kb).sum(axis=(1, 3))
        if np.max(np.abs(sums - parent)) > TOL * scale(parent):
            errors.append("rank-one expansion does not sum back to its matrix")
    if not out["verify_passed"]:
        errors.append("psdrank.verify rejects a valid factorization")
    errors += check_factorization(m, out["rows"], out["cols"], "input factorization")

    errors += check_factorization(m, out["trace_rows"], out["trace_cols"], "rescale_trace")
    row_sum = np.sum(np.asarray(out["trace_rows"]), axis=0)
    if np.max(np.abs(row_sum - np.eye(row_sum.shape[0]))) > TOL:
        errors.append("rescale_trace row factors do not sum to I")

    errors += check_factorization(m, out["john_rows"], out["john_cols"], "rescale_john")
    kj = np.asarray(out["john_rows"][0]).shape[0]
    cap = math.sqrt(kj * float(m.max())) * (1.0 + 1e-6)
    top = max(float(np.linalg.eigvalsh(g)[-1]) for g in list(out["john_rows"]) + list(out["john_cols"]))
    if top > cap:
        errors.append(f"rescale_john eigenvalue {top:.6g} above sqrt(k max M) = {cap:.6g}")

    p = m / m.sum()
    alice = np.asarray(out["alice"])
    bob = np.asarray(out["bob"])
    rho = np.asarray(out["rho"])
    kp = alice.shape[1]
    for name, povm in (("alice", alice), ("bob", bob)):
        if min(float(np.linalg.eigvalsh(e)[0]) for e in povm) < -TOL:
            errors.append(f"{name} POVM element not psd")
        if np.max(np.abs(povm.sum(axis=0) - np.eye(kp))) > TOL:
            errors.append(f"{name} POVM does not sum to I")
    if abs(np.trace(rho) - 1.0) > TOL or float(np.linalg.eigvalsh(rho)[0]) < -TOL:
        errors.append("state is not a density matrix")
    # <psi| F_i (x) G_j |psi> = trace(kron(F_i, G_j) rho), with rho indexed
    # as rho[(b, d), (a, c)] against F[a, b] G[c, d]
    r4 = rho.reshape(kp, kp, kp, kp)
    outcome = np.einsum("iab,jcd,bdac->ij", alice, bob, r4).real
    if outcome.shape != p.shape or np.max(np.abs(outcome - p)) > TOL:
        errors.append("protocol outcome table does not match M / sum(M)")
    if not out["protocol_passed"]:
        errors.append("psdrank.verify_protocol rejects the protocol")
    errors += check_factorization(p, out["back_rows"], out["back_cols"], "from_protocol")
    if not out["back_passed"]:
        errors.append("psdrank.verify rejects the factorization read back from the protocol")

    draws = case["draws"]
    counts = np.asarray(out["counts"])
    if counts.shape != p.shape or int(counts.sum()) != draws or counts.min() < 0:
        errors.append("sample table does not hold the drawn count")
    elif not np.array_equal(counts, np.asarray(out["counts_again"])):
        errors.append("two samples with one seed differ")
    else:
        tv = 0.5 * float(np.abs(counts / draws - p).sum())
        if tv > tv_bound(draws, p.size):
            errors.append(f"sample total variation {tv:.4g} above {tv_bound(draws, p.size):.4g}")

    same = (np.array_equal(np.asarray(out["json_alice"]), alice)
            and np.array_equal(np.asarray(out["json_bob"]), bob)
            and np.array_equal(np.asarray(out["json_rho"]), rho))
    if not same:
        errors.append("protocol changed in the JSON round trip")

    if not out["cpsd_passed"]:
        errors.append("verify_cpsd rejects a genuine Gram factorization")
    delta = case["delta"]
    if out["cpsd_perturbed_passed"] or not 0.5 * delta <= out["cpsd_perturbed_residual"] <= 1.5 * delta:
        errors.append("verify_cpsd misjudges a Gram matrix perturbed by "
                      f"{delta:.1e} (residual {out['cpsd_perturbed_residual']:.3e})")
    return errors
