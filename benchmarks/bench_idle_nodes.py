"""E19 -- idle-node scaling of the object-level round loop.

The sweep (repro.analysis.sweep.sweep_idle_nodes) times
``Network.run`` on two nodes bouncing a token for 3,000 rounds, alone
and next to thousands of isolated nodes that never send.  A loop that
scanned every node each round would pay O(n) per round; the
round-bucketed schedule pays O(active nodes), so the ratio of the two
run times stays near 1.

Two entry points:

* the pytest-benchmark test below, which records the sweep into the
  shared last-run report store alongside E1-E18;
* ``python benchmarks/bench_idle_nodes.py --max-ratio 3.0``, the CI
  gate: persists the measurements into the BenchStore
  (``BENCH_idle_nodes.json``) and exits non-zero if any row's ratio is
  above the threshold.
"""

import argparse
import sys
from pathlib import Path

from repro.analysis import render_report
from repro.analysis.sweep import sweep_idle_nodes


def test_idle_nodes(benchmark, report_sink):
    rep = benchmark.pedantic(lambda: sweep_idle_nodes(repeats=3),
                             rounds=1, iterations=1)
    report_sink(rep)
    assert rep.all_within_bound, [
        (m.params, m.measured) for m in rep.rows if not m.within_bound]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="measure and gate the object loop's idle-node "
                    "scaling (E19)")
    ap.add_argument("--idle", default="5000,20000",
                    help="comma-separated isolated-node counts")
    ap.add_argument("--rounds", type=int, default=3000,
                    help="rounds the active pair runs")
    ap.add_argument("--repeats", type=int, default=3,
                    help="best-of-N timing repeats per network size")
    ap.add_argument("--max-ratio", type=float, default=3.0,
                    help="fail (exit 1) if any row's run-time ratio "
                         "(with idle nodes / without) is above this")
    ap.add_argument("--store", default=str(Path(__file__).parent),
                    help="BenchStore directory for the persisted record")
    ap.add_argument("--name", default="idle_nodes",
                    help="record name (writes BENCH_<name>.json)")
    args = ap.parse_args(argv)

    rep = sweep_idle_nodes(
        idle=tuple(int(s) for s in args.idle.split(",")),
        rounds=args.rounds, repeats=args.repeats, max_ratio=args.max_ratio)
    print(render_report(rep))

    from repro.obs import BenchStore
    path = BenchStore(args.store).save(args.name, [rep])
    print(f"\nwrote {path}")

    rc = 0
    for m in rep.rows:
        if m.within_bound:
            print(f"OK: {m.measured}x <= {args.max_ratio}x with "
                  f"{m.params['idle']} idle nodes")
        else:
            print(f"FAIL: {m.measured}x with {m.params['idle']} idle "
                  f"nodes is above the {args.max_ratio}x gate",
                  file=sys.stderr)
            rc = 1
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
