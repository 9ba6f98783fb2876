"""Time one set-up: import psdrank and build pass 0 of a workload's inputs.

Usage: python3 bench/setup_probe.py WORKLOAD SEED WORKDIR
Prints the elapsed seconds. Run in a fresh interpreter so the import is
paid in full; `run.py` starts several and reports their median.
"""
import os
import sys
import time


def main() -> int:
    start = time.perf_counter()
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads

    workloads.WORKLOADS[name](seed, workdir).ops(0)
    print(f"{time.perf_counter() - start!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
