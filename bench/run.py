"""Benchmark runner for psdrank: one workload per process, closed loop.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

NAME is rank2-grid, bounds-catalog or factor-protocol (see README.md);
`all` runs each of them in a process of its own and prints one result line
per workload. A single caller issues one operation after another. Whole
passes run until the next one would end after S seconds, with at least
MIN_PASSES of them, so every run attempts the same operations in the same
proportions. Every output is checked against the oracles in `oracles.py`.

With --trace 0 the last stdout line is a JSON object holding `correct`,
`attempted`, `failed` and the end-to-end metrics. With --trace 1 the run
installs span wrappers, runs pass 0 once, writes the spans as JSON lines
under .bench_out/ and reports the per-layer metrics instead; it is
incorrect when a metric its workload must move reads zero.

psdrank is imported from the checkout's src/ directory and nowhere else;
without it the run exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
NAMES = ("rank2-grid", "bounds-catalog", "factor-protocol")
MIN_PASSES = 2
SETUP_REPEATS = 5
CHILD_TIMEOUT = 170
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p99_ms": "ms", "peak_rss_mb": "MB"}


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _setup_seconds(name: str, seed: int, workdir: str) -> float:
    """Median over fresh interpreters of import plus pass-0 input building."""
    probe = os.path.join(ROOT, "bench", "setup_probe.py")
    times = []
    for _ in range(SETUP_REPEATS):
        res = subprocess.run([sys.executable, probe, name, str(seed), workdir],
                             capture_output=True, text=True, timeout=60)
        if res.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {res.stderr.strip()}")
        times.append(float(res.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _run_op(op):
    """(seconds, errors) of one operation; a raised error is a failed op."""
    start = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # the op failed; keep the loop running
        return time.perf_counter() - start, [f"{type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - start
    return elapsed, op.check(out)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []

    def add(self, op, errors) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            if op.known_fault is None:
                self.unexpected.append(f"{op.label}: {'; '.join(errors)}")


def _p99(latencies: list) -> float:
    """Nearest rank: the smallest latency with 99% of the ops at or below it."""
    ordered = sorted(latencies)
    return ordered[-(-99 * len(ordered) // 100) - 1]


def _timed(wl, seconds: float, tally: Tally) -> dict:
    """Per-pass wall time and op latency quantiles, each a median over passes."""
    walls, p50s, p99s = [], [], []
    start = time.perf_counter()
    while True:
        latencies = []
        for op in wl.ops(len(walls)):
            dt, errors = _run_op(op)
            latencies.append(dt)
            tally.add(op, errors)
        walls.append(sum(latencies))
        p50s.append(statistics.median(latencies))
        p99s.append(_p99(latencies))
        _log(f"{wl.name}: pass {len(walls) - 1}: {len(latencies)} ops in {walls[-1]:.3f} s")
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_PASSES and elapsed + statistics.median(walls) > seconds:
            break
    return {
        "wall_s": statistics.median(walls),
        "op_p50_ms": 1e3 * statistics.median(p50s),
        "op_p99_ms": 1e3 * statistics.median(p99s),
    }


def _traced(wl, seed: int, tally: Tally) -> tuple:
    import tracing

    tracer = tracing.Tracer(wl.name)
    ops = wl.ops(0)
    wall = 0.0
    tracer.install()
    try:
        for idx, op in enumerate(ops):
            tracer.op = idx
            dt, errors = _run_op(op)
            wall += dt
            tally.add(op, errors)
    finally:
        tracer.uninstall()
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{wl.name}-seed{seed}.jsonl")
    tracer.dump(path, seed)
    _log(f"{wl.name}: traced pass 0: {len(ops)} ops in {wall:.3f} s, {len(tracer.spans)} spans in {path}")
    metrics = tracing.layer_metrics(tracer.spans)
    missing = tracing.missing_coverage(wl.name, metrics)
    for name in missing:
        _log(f"{wl.name}: per-layer metric {name} reads 0; its wrapper is never reached")
    return ({name: {"value": metrics[name], "unit": unit} for name, unit, _ in tracing.PER_LAYER},
            not missing)


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not os.path.isfile(os.path.join(SRC, "psdrank", "__init__.py")):
        _log(f"no psdrank sources under {SRC}")
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    try:
        setup_s = None if trace else _setup_seconds(name, seed, workdir)
        sys.path.insert(0, SRC)
        import psdrank
        import selftest
        import workloads

        if os.path.dirname(os.path.abspath(psdrank.__file__)) != os.path.join(SRC, "psdrank"):
            _log(f"psdrank was imported from {psdrank.__file__}, not from {SRC}")
            return 2
        wl = workloads.WORKLOADS[name](seed, workdir)
        # the self-test also warms every layer before anything is timed
        oracle_mistakes = selftest.failures(wl)
        for line in oracle_mistakes:
            _log(f"{name}: self-test: {line}")
        tally = Tally()
        if trace:
            metrics, covered = _traced(wl, seed, tally)
        else:
            values = {"setup_s": setup_s, **_timed(wl, seconds, tally),
                      "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
            metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
            covered = True
        for line in tally.unexpected:
            _log(f"{name}: failed: {line}")
        result = {
            "correct": not tally.unexpected and not oracle_mistakes and covered,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": metrics,
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process; one summary line per workload."""
    summary, status = {}, 0
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0"]
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT)
        lines = res.stdout.strip().splitlines()
        if res.returncode != 0 or not lines:
            _log(f"{name}: exit status {res.returncode}")
            status = status or res.returncode or 1
            continue
        doc = json.loads(lines[-1])
        summary[name] = doc
        shown = ", ".join(f"{k} {v['value']:.6g} {v['unit']}" for k, v in doc["metrics"].items())
        print(f"{name}: correct {doc['correct']}, attempted {doc['attempted']}, "
              f"failed {doc['failed']}; {shown}")
    if not status:
        print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
