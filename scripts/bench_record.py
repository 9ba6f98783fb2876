"""Record a BENCH_<n>.json: paired benchmark runs of a parent checkout and
this one, plus what bench/run.py does not measure.

Usage:
    python3 scripts/bench_record.py --parent DIR --out BENCH_<n>.json
        [--pairs 3] [--seed 4242] [--seconds 35]

DIR is a checkout of the parent commit, made with `git archive` or
`git clone`. For each pair and each workload of BENCHMARK.json, both
checkouts run their own `bench/run.py --workload W` back to back,
alternating from pair to pair which side runs first, so the two runs of a
pair follow each other; each side also runs one traced pass
(`--workload all --trace 1 --seed 1`). A probe process per side
then imports psdrank from that checkout's src/ and records:
    - the `src/` line count (`wc -l` over its .py files);
    - the in-process `cli.main` wall time of `region circulant --grid 41`
      and `region nested-rect --grid 21`, median of REGION_REPEATS, and the
      number of `sdp.solve` calls and `geometry.ellipse_program` builds in
      one more, counted run of each (a rank-3 cell that reaches neither was
      decided by the closed-form circle);
    - how many intervals of a fixed list `psd_rank_interval` closes
      (see closed_interval_list), and the wall time of its calls, per
      group of the list and in total.

    python3 scripts/bench_record.py --probe DIR
prints the probe's JSON for one checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

REGION_REPEATS = 3
RANDOM_PAIRS = 300


def _bench(checkout, workload, *args):
    """Last stdout line of `bench/run.py --workload workload` in checkout, parsed."""
    res = subprocess.run([sys.executable, os.path.join(checkout, "bench", "run.py"),
                          "--workload", workload, *map(str, args)],
                         cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(res.stdout.strip().splitlines()[-1])


def _regular_polygon_slack(n):
    """Slack matrix of the regular n-gon: vertex i against the edge j, j+1."""
    t = 2 * np.pi * np.arange(n) / n
    verts = np.stack([np.cos(t), np.sin(t)], axis=1)
    mid = t + np.pi / n
    normals = np.stack([np.cos(mid), np.sin(mid)], axis=1)
    return np.clip(np.cos(np.pi / n) - verts @ normals.T, 0.0, None)


def _random_nested_pairs(count):
    """Slack matrices of seeded nested polygon pairs: 5 to 9 facets a.x <= 1
    with unit normals at sorted uniform angles, and 5 to 9 vertices at
    uniform angles on the circle of radius 1.2, all scaled by 0.995 until
    every slack exceeds 1e-3."""
    rng = np.random.default_rng(1)
    out = []
    for _ in range(count):
        a = np.sort(rng.uniform(0, 2 * np.pi, rng.integers(5, 10)))
        normals = np.stack([np.cos(a), np.sin(a)], axis=1)
        t = np.sort(rng.uniform(0, 2 * np.pi, rng.integers(5, 10)))
        verts = 1.2 * np.stack([np.cos(t), np.sin(t)], axis=1)
        while np.min(1.0 - verts @ normals.T) <= 1e-3:
            verts *= 0.995
        out.append(1.0 - verts @ normals.T)
    return out


def closed_interval_list():
    """(group, label, matrix): the bounds-catalog workload's fixed members and
    the intervals the ROADMAP Baseline lists as open."""
    import workloads
    from psdrank import families

    items = [("catalog", label, m) for label, m, _ in workloads._fixed_catalog()]
    for n in (5, 6, 7, 8, 16, 32):
        items.append(("polygon", f"polygon({n})", _regular_polygon_slack(n)))
    for n in (8, 16):
        items.append(("perturbed", f"eye({n}) + 1e-3", np.eye(n) + 1e-3))
    c = families.circulant3(1.0, 4.0, 1.0)
    d = families.derangement(9)
    items.append(("composed", "circulant3(1, 4, 1) + derangement(9)",
                  np.block([[c, np.zeros((3, 9))], [np.zeros((9, 3)), d]])))
    items.append(("composed", "circulant3(1, 4, 1) x circulant3(1, 4, 1)", np.kron(c, c)))
    for i, m in enumerate(_random_nested_pairs(RANDOM_PAIRS)):
        items.append(("random-pair", f"pair {i}", m))
    return items


def _count_calls(run):
    """Calls of sdp.solve and geometry.ellipse_program during run(), counted
    by wrapping the two module attributes, which are restored after."""
    from psdrank import geometry, sdp

    counts, saved = {}, []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name in ((sdp, "solve"), (geometry, "ellipse_program")):
        counts[name] = 0
        saved.append((module, name, getattr(module, name)))
        setattr(module, name, counting(name, getattr(module, name)))
    try:
        run()
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)
    return counts


def probe(checkout):
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "bench")]
    from psdrank import bounds, cli

    src = os.path.join(checkout, "src")
    lines = 0
    for root, _, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name)) as fh:
                    lines += sum(1 for _ in fh)

    region = {}
    with tempfile.TemporaryDirectory() as tmp:
        for family, grid in (("circulant", 41), ("nested-rect", 21)):
            argv = ["region", family, "--grid", str(grid), "-o", os.path.join(tmp, "r.csv")]
            times = []
            for _ in range(REGION_REPEATS):
                t0 = time.perf_counter()
                cli.main(argv)
                times.append(time.perf_counter() - t0)
            counts = _count_calls(lambda: cli.main(argv))
            region[f"{family} --grid {grid}"] = {
                "runs_s": times, "median_s": statistics.median(times),
                "sdp_solve_calls": counts["solve"],
                "ellipse_program_builds": counts["ellipse_program"]}

    groups = {}
    for group, label, m in closed_interval_list():
        t0 = time.perf_counter()
        iv = bounds.psd_rank_interval(m)
        g = groups.setdefault(group, {"members": 0, "closed": 0, "open_width": 0,
                                      "wall_s": 0.0, "open": {}})
        g["wall_s"] += time.perf_counter() - t0
        g["members"] += 1
        if iv.lower == iv.upper:
            g["closed"] += 1
        else:
            g["open_width"] += iv.upper - iv.lower
            if group != "random-pair":
                g["open"][label] = [iv.lower, iv.upper]
    total = {k: sum(g[k] for g in groups.values())
             for k in ("members", "closed", "open_width", "wall_s")}
    return {"src_lines": lines, "region_cli_main": region,
            "closed_intervals": {"total": total, "groups": groups}}


def _machine():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu": cpu, "cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
            "os": f"{platform.system()} {platform.release()}"}


def record(parent, pairs, seed, seconds):
    sides = {"parent": os.path.abspath(parent),
             "change": os.path.dirname(os.path.dirname(os.path.abspath(__file__)))}
    with open(os.path.join(sides["change"], "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    runs = {"order": [], "parent": [], "change": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs["order"].append(list(order))
        for side in order:
            runs[side].append({})
        for name in names:
            for side in order:
                print(f"pair {i}: {name}: {side}", file=sys.stderr, flush=True)
                runs[side][i][name] = _bench(sides[side], name, "--seed", seed,
                                             "--seconds", seconds)
    summary = {}
    for name in runs["parent"][0]:
        row = {}
        for metric in runs["parent"][0][name]["metrics"]:
            row[metric] = {side: statistics.median(r[name]["metrics"][metric]["value"]
                                                   for r in runs[side])
                           for side in ("parent", "change")}
        row["correct"] = all(r[name]["correct"] for s in ("parent", "change") for r in runs[s])
        row["failed"] = {s: [r[name]["failed"] for r in runs[s]] for s in ("parent", "change")}
        summary[name] = row
    traced = {side: _bench(path, "all", "--seed", 1, "--seconds", seconds, "--trace", 1)
              for side, path in sides.items()}
    probes = {}
    for side, path in sides.items():
        res = subprocess.run([sys.executable, os.path.abspath(__file__), "--probe", path],
                             stdout=subprocess.PIPE, text=True, check=True)
        probes[side] = json.loads(res.stdout)
    return {
        "machine": _machine(),
        "command": f"python3 bench/run.py --workload W --seed {seed} --seconds {seconds:g}, "
                   "both sides of a pair back to back per workload W",
        "pairs": pairs,
        "runs": runs,
        "summary": summary,
        "traced": {"command": f"python3 bench/run.py --workload all --seed 1 --seconds {seconds:g} "
                              "--trace 1", **traced},
        "src_lines": {s: probes[s]["src_lines"] for s in probes},
        "region_cli_main": {s: probes[s]["region_cli_main"] for s in probes},
        "closed_intervals": {s: probes[s]["closed_intervals"] for s in probes},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent")
    parser.add_argument("--out")
    parser.add_argument("--probe")
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=4242)
    parser.add_argument("--seconds", type=float, default=35)
    args = parser.parse_args(argv)
    if args.probe:
        print(json.dumps(probe(args.probe)))
        return 0
    if not (args.parent and args.out):
        parser.error("--parent and --out are required unless --probe is given")
    doc = record(args.parent, args.pairs, args.seed, args.seconds)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
