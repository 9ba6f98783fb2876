"""Oracle self-test: every deliberately wrong result must be flagged.

For each workload, take real outputs of a few operations from pass 0,
confirm the oracle accepts them, then apply each corruption below and
confirm the oracle rejects the result. `run.py` calls `failures()` before
it measures anything and reports the run as incorrect if one is left
unflagged; `python3 bench/selftest.py` runs it on its own.
"""
from __future__ import annotations

import copy
import json
import os
import sys
import tempfile

import numpy as np


def _scaled(seq, i, factor):
    out = [np.array(x, copy=True) for x in seq]
    out[i] = out[i] * factor
    return out


def _set(key, value):
    def corrupt(out):
        out[key] = value
        return out
    return corrupt


def _edit(key, fn):
    def corrupt(out):
        out[key] = fn(np.array(out[key], copy=True))
        return out
    return corrupt


def _theta(fn):
    return _edit("theta", fn)


def _add_at(idx, value):
    def fn(a):
        a[idx] += value
        return a
    return fn


RANK2_YES = {
    "flipped answer": _set("answer", False),
    "certify disagrees": _set("certify_passed", False),
    "quadratic part off trace 1": _theta(lambda t: np.diag([1.01, 1.01, 1.0]) @ t @ np.diag([1.01, 1.01, 1.0])),
    "vertices outside the ellipse": _theta(_add_at((2, 2), 1.0)),
    "ellipse leaves the outer polygon": _theta(_add_at((2, 2), -10.0)),
    "negative multiplier": _edit("multipliers", _add_at(0, -1.0)),
    "pair from another matrix": _edit("vertices", lambda v: v + 0.1),
    "wrong row factor": lambda out: {**out, "rows": _scaled(out["rows"], 0, 1.5)},
    "non-psd column factor": lambda out: {**out, "cols": _scaled(out["cols"], 0, -1.0)},
    "yes without a certificate": _set("theta", None),
}
RANK2_NO = {"flipped answer": _set("answer", True)}


def _bounds_doc(lower, upper):
    def corrupt(out):
        doc = json.loads(out["stdout"])
        doc.update(lower=lower, upper=upper, exact=lower if lower == upper else None)
        return {**out, "stdout": json.dumps(doc)}
    return corrupt


BOUNDS_RANK2 = {
    "nonzero exit": _set("code", 1),
    "unreadable output": _set("stdout", "{"),
    "interval misses the rank": _bounds_doc(3, 3),
    "rank 2 not exact": _bounds_doc(2, 3),
    "empty interval": _bounds_doc(3, 2),
}


def _move_mass(counts):
    counts = counts.copy()
    flat = counts.reshape(-1)
    src, dst = int(np.argmax(flat)), int(np.argmin(flat))
    moved = flat.sum() // 50
    flat[src] -= moved
    flat[dst] += moved
    return counts


def _swap01(seq):
    out = [np.array(x, copy=True) for x in seq]
    out[0], out[1] = out[1], out[0]
    return out


def _shift_psd(seq):
    out = [np.array(x, copy=True) for x in seq]
    eye = np.eye(out[0].shape[0])
    out[0] = out[0] - 0.5 * eye
    out[1] = out[1] + 0.5 * eye
    return out


PIPELINE = {
    "verify disagrees": _set("verify_passed", False),
    "trace rows not summing to I": lambda out: {**out, "trace_rows": _scaled(out["trace_rows"], 0, 1.1)},
    "john eigenvalues above the cap": lambda out: {
        **out,
        "john_rows": [10.0 * np.asarray(a) for a in out["john_rows"]],
        "john_cols": [0.1 * np.asarray(b) for b in out["john_cols"]],
    },
    "john factors off the matrix": lambda out: {**out, "john_cols": _scaled(out["john_cols"], 0, 0.5)},
    "POVM element not psd": lambda out: {**out, "alice": _shift_psd(out["alice"])},
    "POVM not summing to I": lambda out: {**out, "bob": _scaled(out["bob"], 0, 1.1)},
    "state off trace 1": _edit("rho", lambda r: 1.1 * r),
    "outcome table permuted": lambda out: {**out, "alice": _swap01(out["alice"])},
    "verify_protocol disagrees": _set("protocol_passed", False),
    "read-back factorization wrong": lambda out: {**out, "back_rows": _scaled(out["back_rows"], 0, 2.0)},
    "read-back verify disagrees": _set("back_passed", False),
    "sample count off": _edit("counts", _add_at((0, 0), 1)),
    "same seed, other table": _edit("counts_again", lambda c: _move_mass(c)),
    "sample far from the table": lambda out: {**out, "counts": _move_mass(out["counts"]),
                                              "counts_again": _move_mass(out["counts"])},
    "JSON round trip changes the state": _edit("json_rho", lambda r: r * (1.0 + 1e-12)),
    "cpsd rejects a genuine Gram": _set("cpsd_passed", False),
    "cpsd accepts a perturbed Gram": _set("cpsd_perturbed_passed", True),
    "cpsd residual wrong": _set("cpsd_perturbed_residual", 0.0),
}


def _cases(wl):
    """(op, real output, corruption table) triples from pass 0 of a workload."""
    ops = wl.ops(0)
    if wl.name == "rank2-grid":
        picked = {}
        for op in ops:
            res = op.run()
            kind = "no" if not res["answer"] else "yes" if res["theta"] is not None else None
            if kind and kind not in picked:
                picked[kind] = (op, res, RANK2_YES if kind == "yes" else RANK2_NO)
            if len(picked) == 2:
                break
        return list(picked.values())
    if wl.name == "bounds-catalog":
        return [(op, op.run(), BOUNDS_RANK2) for op in ops
                if op.label in ("cos2(5)", "prime(2, 3, 4)")]
    return [(ops[0], ops[0].run(), PIPELINE)]


def failures(wl) -> list:
    """Descriptions of oracle mistakes; empty when every check holds."""
    out = []
    for op, res, table in _cases(wl):
        if op.check(res):
            out.append(f"{op.label}: oracle rejects the real output {op.check(res)}")
            continue
        for what, corrupt in table.items():
            if not op.check(corrupt(copy.deepcopy(res))):
                out.append(f"{op.label}: oracle accepts '{what}'")
    return out


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads

    bad = 0
    with tempfile.TemporaryDirectory(dir=root) as workdir:
        for name, cls in workloads.WORKLOADS.items():
            found = failures(cls(0, workdir))
            bad += len(found)
            for line in found:
                print(f"{name}: {line}", file=sys.stderr)
            print(f"{name}: {'ok' if not found else f'{len(found)} oracle mistakes'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
