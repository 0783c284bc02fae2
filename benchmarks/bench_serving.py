"""E22 -- serving layer: batched+cached oracle queries vs naive walks.

The sweep (repro.analysis.sweep.sweep_serving) replays a seeded Zipf
query workload against a :class:`repro.serve.DistanceOracle` (per-
source-partition RoutingTable shards materialized by the k-source
pipeline on the object loop) and measures the batched+cached
steady-state serving throughput against the naive one-table-walk-per-
query baseline, with the batched answers always asserted identical to
the naive ones.  A ``build`` row per size times the same shard
materialization on the object loop vs ``backend="columnar"`` (the
pipelined bulk kernel), with the served-table digests asserted
bit-equal.  Alongside the timed rows it exercises an incremental
refresh (minimum-weight edge deleted; only affected sources recomputed,
only their shards epoch-swapped, only their cache entries invalidated;
post-refresh answers Dijkstra-checked through the cached path) and pins
the served-table digests bit-identical across all three simulator
backends.

Two entry points:

* the pytest-benchmark test below, which records the sweep into the
  shared last-run report store alongside E1-E21;
* ``python benchmarks/bench_serving.py --min-speedup 5``, the CI gate:
  persists the measurements into the BenchStore
  (``BENCH_serving.json``) and exits non-zero if the batched+cached
  speedup at the largest size is below the threshold, if any refresh
  row failed the Dijkstra check or touched zero sources, or if the
  cross-backend digest row disagrees.
"""

import argparse
import sys
from pathlib import Path

from repro.analysis import render_report
from repro.analysis.sweep import sweep_serving


def _serve_rows(rep):
    return [m for m in rep.rows if m.params["row"] == "serve"]


def _largest_serve(rep):
    return max(_serve_rows(rep), key=lambda m: m.params["n"])


def _structural_failures(rep):
    """The clock-free gates: every row family's correctness flags."""
    bad = []
    for m in rep.rows:
        row = m.params["row"]
        if row == "serve" and m.extra.get("answers_match") != 1:
            bad.append(f"serve n={m.params['n']}: batched answers "
                       f"diverge from the naive baseline")
        if row == "build" and m.extra.get("tables_match") != 1:
            bad.append(f"build n={m.params['n']}: columnar shard build "
                       f"diverges from the object loop")
        if row == "refresh":
            if m.extra.get("correct") != 1:
                bad.append(f"refresh n={m.params['n']}: served distances "
                           f"wrong after the epoch swap")
            if m.extra.get("affected", 0) <= 0:
                bad.append(f"refresh n={m.params['n']}: update affected "
                           f"no sources -- the row gates nothing")
        if row == "digest" and m.extra.get("backends_agree") != 1:
            bad.append("digest: simulator backends disagree on the "
                       "served tables")
    return bad


def test_serving_speedup(benchmark, report_sink):
    rep = benchmark.pedantic(lambda: sweep_serving(repeats=2),
                             rounds=1, iterations=1)
    report_sink(rep)
    assert _structural_failures(rep) == []
    # The hard gate (>= 5x at the largest size) is the CI __main__
    # below (best-of-N on a quiet runner); here we only pin the
    # direction so a busy dev machine cannot flake the suite.
    largest = _largest_serve(rep)
    assert largest.measured > 1.0, (
        f"batched+cached serving slower than the naive per-query walk "
        f"at n={largest.params['n']}: {largest.measured}x")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="measure and gate serving throughput (E22)")
    ap.add_argument("--sizes", default="64:0.08:12000,96:0.05:12000",
                    help="comma-separated n:p:queries workload triples")
    ap.add_argument("--repeats", type=int, default=3,
                    help="best-of-N timing repeats per arm")
    ap.add_argument("--min-speedup", type=float, default=5.0,
                    help="fail (exit 1) if batched+cached vs naive at "
                         "the largest size is below this")
    ap.add_argument("--store", default=str(Path(__file__).parent),
                    help="BenchStore directory for the persisted record")
    ap.add_argument("--name", default="serving",
                    help="record name (writes BENCH_<name>.json)")
    args = ap.parse_args(argv)

    sizes = tuple((int(n), float(p), int(q))
                  for n, p, q in (s.split(":") for s in args.sizes.split(",")))
    rep = sweep_serving(sizes=sizes, repeats=args.repeats)
    print(render_report(rep))

    from repro.obs import BenchStore
    path = BenchStore(args.store).save(args.name, [rep])
    print(f"\nwrote {path}")

    bad = _structural_failures(rep)
    if bad:
        for msg in bad:
            print(f"FAIL: {msg}", file=sys.stderr)
        return 1
    largest = _largest_serve(rep)
    if largest.measured < args.min_speedup:
        print(f"FAIL: batched+cached serving {largest.measured}x naive "
              f"at n={largest.params['n']} "
              f"({largest.extra['qps_cached']} vs "
              f"{largest.extra['qps_naive']} q/s) -- below the "
              f"{args.min_speedup}x gate", file=sys.stderr)
        return 1
    refreshes = [m for m in rep.rows if m.params["row"] == "refresh"]
    builds = [m for m in rep.rows if m.params["row"] == "build"]
    build_note = ""
    if builds:
        b = max(builds, key=lambda m: m.params["n"])
        build_note = (f"; columnar shard build {b.measured}x the object loop "
                      f"at n={b.params['n']}")
    print(f"OK: {largest.measured}x at n={largest.params['n']} "
          f"({largest.extra['qps_cached']} q/s cached vs "
          f"{largest.extra['qps_naive']} naive, hit rate "
          f"{largest.extra['hit_rate']}); {len(refreshes)} refreshes "
          f"Dijkstra-correct; digests backend-pinned{build_note}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
