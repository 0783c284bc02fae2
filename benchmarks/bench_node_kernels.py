"""E20 -- wall-clock speedup of the indexed node-state kernels.

The sweep (repro.analysis.sweep.sweep_node_kernels) times Algorithm 1
with k sources spread on a weighted path -- the long-list regime where
node-side work (fire_at/next_fire_after scans, per-source counts)
dominates -- once with the indexed NodeList kernels and once with the
naive linear-scan ReferenceNodeList, both on the object loop, and
differentially re-checks every timed pair, so a "speedup" can never
hide the kernels computing different things.  Both arms share the
object loop, so the measured gap is the kernels alone.

Two entry points:

* the pytest-benchmark test below, which records the sweep into the
  shared last-run report store alongside E1-E19;
* ``python benchmarks/bench_node_kernels.py --min-speedup 1.5``, the CI
  gate: persists the measurements into the BenchStore
  (``BENCH_node_kernels.json``) and exits non-zero if the speedup at
  the largest size is below the threshold.  CI runs it in the
  bench-smoke job; a regression that slows the kernels below the gate
  fails the build.
"""

import argparse
import sys
from pathlib import Path

from repro.analysis import render_report
from repro.analysis.sweep import sweep_node_kernels


def _largest(rep):
    return max(rep.rows, key=lambda m: m.params["n"])


def test_node_kernel_speedup(benchmark, report_sink):
    rep = benchmark.pedantic(
        lambda: sweep_node_kernels(repeats=2),
        rounds=1, iterations=1)
    report_sink(rep)
    # The hard gate (>= 1.5x at the largest size) is the CI __main__
    # below (best-of-N on a quiet runner); here we only pin the
    # direction so a busy dev machine cannot flake the suite.
    largest = _largest(rep)
    assert largest.measured > 1.0, (
        f"indexed kernels slower than the linear-scan reference at "
        f"n={largest.params['n']} k={largest.params['k']}: "
        f"{largest.measured}x")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="measure and gate the node-kernel speedup (E20)")
    ap.add_argument("--sizes", default="768:96:96,1536:192:192",
                    help="comma-separated n:k:h workload triples")
    ap.add_argument("--repeats", type=int, default=2,
                    help="best-of-N timing repeats per kernel")
    ap.add_argument("--min-speedup", type=float, default=1.5,
                    help="fail (exit 1) if the speedup at the largest "
                         "size is below this")
    ap.add_argument("--store", default=str(Path(__file__).parent),
                    help="BenchStore directory for the persisted record")
    ap.add_argument("--name", default="node_kernels",
                    help="record name (writes BENCH_<name>.json)")
    args = ap.parse_args(argv)

    sizes = tuple(tuple(int(v) for v in s.split(":"))
                  for s in args.sizes.split(","))
    rep = sweep_node_kernels(sizes=sizes, repeats=args.repeats)
    print(render_report(rep))

    from repro.obs import BenchStore
    path = BenchStore(args.store).save(args.name, [rep])
    print(f"\nwrote {path}")

    largest = _largest(rep)
    where = (f"n={largest.params['n']} k={largest.params['k']} "
             f"h={largest.params['h']}")
    if largest.measured < args.min_speedup:
        print(f"FAIL: node-kernel speedup {largest.measured}x at {where} "
              f"is below the {args.min_speedup}x gate", file=sys.stderr)
        return 1
    print(f"OK: {largest.measured}x >= {args.min_speedup}x at {where}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
