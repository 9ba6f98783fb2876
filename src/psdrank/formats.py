"""JSON encodings for matrices, factorizations, ellipses, protocols and Gram factors.

Matrices are stored row major as {"rows": p, "cols": q, "data": [[...]]};
complex entries are two-element [re, im] lists. NaN and infinity are rejected
on both paths. All loaders accept either a path or an already-parsed dict.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from . import cpsd, linalg, quantum
from .errors import InputError
from .factors import PsdFactorization, make_factorization
from .geometry import Ellipse

_FIELDS = ("real", "hermitian")


def _entry_in(x, where):
    if isinstance(x, (int, float)):
        return _finite(x, where)
    if isinstance(x, list) and len(x) == 2 and all(isinstance(t, (int, float)) for t in x):
        return complex(_finite(x[0], where), _finite(x[1], where))
    raise InputError(f"{where}: entries must be numbers or [re, im] pairs")


def _finite(x, where) -> float:
    """float(x), refusing NaN, infinity and integers too large for a float."""
    try:
        v = float(x)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise InputError(f"{where}: entries must be finite")
    return v


def _items(x, what: str) -> list:
    """x itself if it is a JSON list; anything else is refused."""
    if not isinstance(x, list):
        raise InputError(f"{what} must be a list, got {type(x).__name__}")
    return x


def encode_matrix(m) -> dict:
    arr = np.asarray(m)
    if arr.ndim != 2:
        raise InputError("only two dimensional arrays are encoded")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise InputError("matrix entries must be finite")
    data = arr.real.astype(float).tolist()
    if np.iscomplexobj(arr):  # [re, im] only where im is nonzero
        data = [[r if i == 0.0 else [r, i] for r, i in zip(*z)] for z in zip(data, arr.imag.tolist())]
    return {"rows": int(arr.shape[0]), "cols": int(arr.shape[1]), "data": data}


def decode_matrix(obj, where: str = "matrix") -> np.ndarray:
    if not isinstance(obj, dict) or not {"rows", "cols", "data"} <= set(obj):
        raise InputError(f"{where}: expected keys rows, cols, data")
    p, q = linalg.as_int(obj["rows"], f"{where} rows"), linalg.as_int(obj["cols"], f"{where} cols")
    data = obj["data"]
    if not isinstance(data, list) or len(data) != p:
        raise InputError(f"{where}: data must have {p} rows")
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != q:
            raise InputError(f"{where}: row {i} must have {q} entries")
    if p == 0 or q == 0:
        return np.zeros((p, q))
    try:  # plain numbers in one call; pairs, strings, mixed rows, huge ints entry by entry
        arr = np.array(data)
    except ValueError:
        arr = np.empty(0)
    if arr.shape != (p, q) or arr.dtype.kind not in "biuf":
        arr = np.array([[_entry_in(x, where) for x in row] for row in data])
    elif not np.all(np.isfinite(arr)):
        raise InputError(f"{where}: entries must be finite")
    if arr.dtype == object:
        raise InputError(f"{where}: entries must be numbers or [re, im] pairs")
    return arr if arr.dtype.kind in "fc" else arr.astype(float)


def encode_factorization(f: PsdFactorization) -> dict:
    return {
        "k": f.k,
        "field": f.field,
        "row_factors": [encode_matrix(a) for a in f.row_factors],
        "col_factors": [encode_matrix(b) for b in f.col_factors],
    }


def decode_factorization(obj) -> PsdFactorization:
    if not isinstance(obj, dict) or not {"row_factors", "col_factors"} <= set(obj):
        raise InputError("factorization: expected keys row_factors, col_factors")
    field = obj.get("field")
    if field is not None and field not in _FIELDS:
        raise InputError(f"factorization: field must be one of {_FIELDS}")
    rows = [decode_matrix(a, "row factor") for a in _items(obj["row_factors"], "row_factors")]
    cols = [decode_matrix(b, "col factor") for b in _items(obj["col_factors"], "col_factors")]
    return make_factorization(rows, cols, field=field)


def encode_ellipse(e: Ellipse) -> dict:
    return {
        "theta": encode_matrix(e.theta),
        "multipliers": [float(x) for x in e.multipliers],
    }


def decode_ellipse(obj) -> Ellipse:
    if not isinstance(obj, dict) or not {"theta", "multipliers"} <= set(obj):
        raise InputError("ellipse: expected keys theta, multipliers")
    theta = decode_matrix(obj["theta"], "ellipse theta")
    mults = tuple(linalg.as_float(x, "ellipse multiplier")
                  for x in _items(obj["multipliers"], "ellipse multipliers"))
    return Ellipse(theta, mults)


def encode_protocol(pr) -> dict:
    return {
        "k": pr.k,
        "alice": [encode_matrix(e) for e in pr.alice.elements],
        "bob": [encode_matrix(e) for e in pr.bob.elements],
        "rho": encode_matrix(pr.rho),
    }


def decode_protocol(obj):
    if not isinstance(obj, dict) or not {"k", "alice", "bob", "rho"} <= set(obj):
        raise InputError("protocol: expected keys k, alice, bob, rho")
    k = linalg.as_int(obj["k"], "protocol k")
    alice = quantum.Povm([decode_matrix(e, "alice element") for e in _items(obj["alice"], "alice")])
    bob = quantum.Povm([decode_matrix(e, "bob element") for e in _items(obj["bob"], "bob")])
    rho = decode_matrix(obj["rho"], "state")
    return quantum.CorrelationProtocol(k, alice, bob, rho)


def encode_gram(g) -> dict:
    return {"k": g.k, "factors": [encode_matrix(a) for a in g.factors]}


def decode_gram(obj):
    if not isinstance(obj, dict) or "factors" not in obj:
        raise InputError("gram: expected key factors")
    return cpsd.SymmetricGram([decode_matrix(a, "gram factor")
                               for a in _items(obj["factors"], "gram factors")])


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}")


def dump_json(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def load_matrix(path) -> np.ndarray:
    return decode_matrix(load_json(path), where=str(path))


def save_matrix(m, path) -> None:
    dump_json(encode_matrix(m), path)
