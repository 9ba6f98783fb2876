"""Command line front end.

One subcommand per operation; every certificate-producing command writes its
certificate to a file so it can be independently re-verified later. Exit
codes: 0 affirmative/pass, 1 negative/fail, 2 usage or input error,
3 numerical failure.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys

import numpy as np

from . import bounds, cpsd, factors, families, formats, geometry, linalg, quantum
from .errors import InputError, NumericalFailure, PsdRankError

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _positive_float(text, name) -> float:
    v = linalg.as_float(text, name)
    if not v > 0:
        raise InputError(f"{name} must be positive")
    return v


def _positive_int(text, name, allow_zero: bool = False) -> int:
    v = linalg.as_int(text, name)
    if v < 0 or (v == 0 and not allow_zero):
        raise InputError(f"{name} must be positive")
    return v


# (args attribute, environment variable, parser, default) of each global
# setting; a flag wins over its variable, which wins over the default
_SETTINGS = (
    ("tol", "PSDRANK_TOL", _positive_float, linalg.DEFAULT_TOL),
    ("sqrt_budget", "PSDRANK_SQRT_BUDGET", _positive_int, bounds.SQRT_BUDGET),
    ("seed", "PSDRANK_SEED", functools.partial(_positive_int, allow_zero=True), None),
)


def _resolve_settings(args) -> None:
    """Replace each global flag on args by its value; every setting given,
    by flag or by environment variable, is parsed."""
    for name, var, parse, value in _SETTINGS:
        if var in os.environ:
            value = parse(os.environ[var], var)
        flag = getattr(args, name)
        if flag is not None:
            value = parse(flag, "--" + name.replace("_", "-"))
        setattr(args, name, value)


def _encode(obj):
    """json.dumps hook: the one non-JSON value a certificate holds is an Ellipse."""
    if isinstance(obj, geometry.Ellipse):
        return formats.encode_ellipse(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, default=_encode))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args) -> int:
    m = families.generate(args.family, [linalg.as_float(p, "parameter") for p in args.params])
    doc = formats.encode_matrix(m)
    if args.output:
        formats.dump_json(doc, args.output)
    else:
        _emit(doc)
    return EXIT_PASS


def _cmd_bounds(args) -> int:
    m = formats.load_matrix(args.matrix)
    opts = bounds.BoundOptions(tol=args.tol, sqrt_budget=args.sqrt_budget)
    interval = bounds.psd_rank_interval(m, opts)
    _emit({
        "lower": interval.lower,
        "upper": interval.upper,
        "exact": interval.exact,
        "certificates": interval.certificates,
    })
    return EXIT_PASS


def _cmd_rank2(args) -> int:
    m = formats.load_matrix(args.matrix)
    answer, ellipse = geometry.decide_psd_rank_le_2(m)
    if ellipse is not None:
        formats.dump_json(formats.encode_ellipse(ellipse), args.output)
    _emit({"psd_rank_le_2": bool(answer),
           "certificate": args.output if ellipse is not None else None})
    return EXIT_PASS if answer else EXIT_FAIL


def _cmd_extract_fact(args) -> int:
    m = formats.load_matrix(args.matrix)
    ellipse = formats.decode_ellipse(formats.load_json(args.ellipse))
    pair = geometry.polytopes_from_matrix(m)
    f = geometry.factorization_from_ellipse(m, pair, ellipse)
    formats.dump_json(formats.encode_factorization(f), args.output)
    report = factors.verify(m, f, tol=1e-7)
    _emit({"written": args.output, "max_residual": report.max_residual})
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_verify(args) -> int:
    m = formats.load_matrix(args.matrix)
    f = formats.decode_factorization(formats.load_json(args.factorization))
    report = factors.verify(m, f, tol=args.tol)
    _emit({
        "passed": report.passed,
        "max_residual": report.max_residual,
        "max_psd_violation": report.max_psd_violation,
        "max_orth_defect": report.max_orth_defect,
        "orth_bound": report.orth_bound,
    })
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_sqrt_rank(args) -> int:
    m = formats.load_matrix(args.matrix)
    res = bounds.sqrt_rank_exact(m, budget=args.sqrt_budget, tol=args.tol)
    doc = {"value": res.value, "patterns_searched": res.patterns_searched,
           "witness": formats.encode_matrix(res.witness)}
    if args.output:
        formats.dump_json(doc, args.output)
    _emit({"value": res.value, "patterns_searched": res.patterns_searched})
    return EXIT_PASS


def _cmd_rescale(args) -> int:
    m = formats.load_matrix(args.matrix)
    f = formats.decode_factorization(formats.load_json(args.factorization))
    if args.mode == "trace":
        out = factors.rescale_trace(f, m, tol=args.tol)
    else:
        out = factors.rescale_john(f, m, tol=args.tol)
    formats.dump_json(formats.encode_factorization(out), args.output)
    _emit({"written": args.output, "mode": args.mode, "k": out.k})
    return EXIT_PASS


def _cmd_quantum(args) -> int:
    if args.action == "to-protocol":
        f = formats.decode_factorization(formats.load_json(args.factorization))
        m = formats.load_matrix(args.matrix)
        pr = quantum.to_protocol(f, m, tol=args.tol)
        formats.dump_json(formats.encode_protocol(pr), args.output)
        _emit({"written": args.output, "k": pr.k, "qubits": pr.qubits})
        return EXIT_PASS
    if args.action == "from-protocol":
        pr = formats.decode_protocol(formats.load_json(args.protocol))
        f = quantum.from_protocol(pr, tol=args.tol)
        formats.dump_json(formats.encode_factorization(f), args.output)
        _emit({"written": args.output, "k": f.k})
        return EXIT_PASS
    if args.action == "verify":
        m = formats.load_matrix(args.matrix)
        pr = formats.decode_protocol(formats.load_json(args.protocol))
        report = quantum.verify_protocol(m, pr, tol=1e-7)
        _emit({
            "passed": report.passed,
            "max_residual": report.max_residual,
            "completeness_residual": report.completeness_residual,
            "state_psd_violation": report.state_psd_violation,
            "trace_error": report.trace_error,
        })
        return EXIT_PASS if report.passed else EXIT_FAIL
    pr = formats.decode_protocol(formats.load_json(args.protocol))
    table = quantum.sample(pr, args.count, seed=args.seed)
    doc = {"counts": [[int(x) for x in row] for row in table], "total": int(table.sum())}
    if args.output:
        formats.dump_json(doc, args.output)
    _emit(doc)
    return EXIT_PASS


def _cmd_cpsd(args) -> int:
    m = formats.load_matrix(args.matrix)
    if args.action == "verify":
        g = formats.decode_gram(formats.load_json(args.gram))
        report = cpsd.verify_cpsd(m, g, tol=args.tol)
        _emit({"passed": report.passed, "max_residual": report.max_residual})
        return EXIT_PASS if report.passed else EXIT_FAIL
    if args.action == "horn":
        value = cpsd.horn_certificate(m)
        _emit({"value": value, "excludes_cpsd": value < 0})
        return EXIT_PASS if value < 0 else EXIT_FAIL
    ok = cpsd.dnn_check(m, tol=args.tol)
    _emit({"doubly_nonnegative": bool(ok)})
    return EXIT_PASS if ok else EXIT_FAIL


# family -> (grid values for --grid, the matrix at a grid point)
_REGIONS = {
    "circulant": (lambda grid: np.linspace(0.0, 2.0, grid),
                  lambda b, c: families.circulant3(1.0, b, c)),
    "nested-rect": (lambda grid: np.linspace(0.0, 1.0, grid + 2)[1:-1],
                    families.nested_rectangles),
}


def _cmd_region(args) -> int:
    grid = args.grid
    if grid < 1:
        raise InputError(f"--grid must be at least 1, got {grid}")
    values, family = _REGIONS[args.family]
    vals = [float(v) for v in values(grid)]
    lines = ["b,c,decision"]
    for b, c in itertools.product(vals, vals):
        try:
            answer, _ = geometry.decide_psd_rank_le_2(family(b, c))
            decision = "1" if answer else "0"
        except NumericalFailure:
            decision = "fail"
        lines.append(f"{b!r},{c!r},{decision}")
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# wiring


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psdrank",
        description="psd rank bounds, certificates, and factorization tools",
    )
    parser.add_argument("--tol", help=f"numerical tolerance (default {linalg.DEFAULT_TOL})")
    parser.add_argument("--sqrt-budget", dest="sqrt_budget",
                        help="free sign bits allowed in square-root rank search "
                             f"(default {bounds.SQRT_BUDGET})")
    parser.add_argument("--seed", help="seed for sampling commands")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a family matrix")
    p.add_argument("family", choices=sorted(families.FAMILIES))
    p.add_argument("params", nargs="*")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("bounds", help="certified psd rank interval")
    p.add_argument("matrix")
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("rank2", help="decide psd rank <= 2")
    p.add_argument("matrix")
    p.add_argument("-o", "--output", default="ellipse.json")
    p.set_defaults(fn=_cmd_rank2)

    p = sub.add_parser("extract-fact", help="factorization from an ellipse certificate")
    p.add_argument("matrix")
    p.add_argument("ellipse")
    p.add_argument("-o", "--output", default="factorization.json")
    p.set_defaults(fn=_cmd_extract_fact)

    p = sub.add_parser("verify", help="check a psd factorization against a matrix")
    p.add_argument("matrix")
    p.add_argument("factorization")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser(
        "sqrt-rank", help="exact square-root rank",
        description="Exact square-root rank: the smallest rank of a Hadamard square root, "
                    "by a sign search over row prefixes that drops a prefix once more "
                    "singular values than the target rank exceed the cutoff "
                    "tol * max(p, q) * ||sqrt(m)||_F, which no completion can undo. "
                    "patterns_searched counts the prefixes evaluated; it can exceed "
                    "2**(free sign bits) when nothing prunes, as for derangement(6).")
    p.add_argument("matrix")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=_cmd_sqrt_rank)

    p = sub.add_parser("rescale", help="re-scale a factorization")
    p.add_argument("matrix")
    p.add_argument("factorization")
    p.add_argument("--mode", choices=("trace", "john"), default="trace")
    p.add_argument("-o", "--output", default="rescaled.json")
    p.set_defaults(fn=_cmd_rescale)

    p = sub.add_parser("quantum", help="correlation protocol tools")
    qs = p.add_subparsers(dest="action", required=True)
    q = qs.add_parser("to-protocol")
    q.add_argument("factorization")
    q.add_argument("matrix")
    q.add_argument("-o", "--output", default="protocol.json")
    q = qs.add_parser("from-protocol")
    q.add_argument("protocol")
    q.add_argument("-o", "--output", default="factorization.json")
    q = qs.add_parser("verify")
    q.add_argument("matrix")
    q.add_argument("protocol")
    q = qs.add_parser("sample")
    q.add_argument("protocol")
    q.add_argument("-n", "--count", type=int, default=1000)
    q.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=_cmd_quantum)

    p = sub.add_parser("cpsd", help="completely psd checks")
    cs = p.add_subparsers(dest="action", required=True)
    c = cs.add_parser("verify")
    c.add_argument("matrix")
    c.add_argument("gram")
    c = cs.add_parser("horn")
    c.add_argument("matrix")
    c = cs.add_parser("dnn")
    c.add_argument("matrix")
    p.set_defaults(fn=_cmd_cpsd)

    p = sub.add_parser("region", help="decision grid CSV for the rank-2 regions")
    p.add_argument("family", choices=tuple(_REGIONS))
    p.add_argument("--grid", type=int, default=41)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=_cmd_region)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        _resolve_settings(args)
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early (`psdrank gen ... | head`); point
        # stdout at devnull so the flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except PsdRankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
