"""E21 -- incremental repair vs from-scratch recompute under churn.

The sweep (repro.analysis.sweep.sweep_recovery) applies single-edge
weight updates to completed k-source runs and re-runs only the affected
sources (repro.recovery.DynamicRun), comparing ``rounds_to_repair``
against the from-scratch recompute round count on the same updated
graph; every repair is checked against the Dijkstra oracle, including
the crash-during-update rows, which record their instrumented digests.  All quantities are
deterministic round counts -- no wall clock -- so the gate cannot flake
on a busy runner.

Two entry points:

* the pytest-benchmark test below, which records the sweep into the
  shared last-run report store alongside E1-E20;
* ``python benchmarks/bench_recovery.py``, the CI gate: persists the
  measurements into the BenchStore (``BENCH_recovery.json``) and exits
  non-zero unless single-edge repairs are strictly cheaper than
  recomputing in aggregate (and never more expensive on any row).
"""

import argparse
import sys
from pathlib import Path

from repro.analysis import render_report
from repro.analysis.sweep import sweep_recovery


def _edge_rows(rep):
    return [m for m in rep.rows if m.params["update"] in
            ("increase", "decrease")]


def test_incremental_repair_cheaper(benchmark, report_sink):
    rep = benchmark.pedantic(lambda: sweep_recovery(), rounds=1,
                             iterations=1)
    report_sink(rep)
    rows = _edge_rows(rep)
    assert rows, "E21 produced no single-edge update rows"
    repair = sum(m.measured for m in rows)
    full = sum(m.bound for m in rows)
    assert repair < full, (
        f"incremental repair ({repair} rounds) is not strictly cheaper "
        f"than from-scratch recompute ({full} rounds) across "
        f"{len(rows)} single-edge updates")
    # Per-row: never *more* expensive, and always oracle-correct (the
    # sweep itself asserts strictness whenever a source is unaffected).
    for m in rep.rows:
        assert m.extra["correct"] == 1, f"incorrect repair at {m.params}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="measure and gate incremental repair rounds (E21)")
    ap.add_argument("--seeds", default="0,1",
                    help="comma-separated sweep seeds")
    ap.add_argument("--sizes", default="10,14",
                    help="comma-separated graph sizes")
    ap.add_argument("--store", default=str(Path(__file__).parent),
                    help="BenchStore directory for the persisted record")
    ap.add_argument("--name", default="recovery",
                    help="record name (writes BENCH_<name>.json)")
    args = ap.parse_args(argv)

    seeds = tuple(int(s) for s in args.seeds.split(","))
    sizes = tuple(int(s) for s in args.sizes.split(","))
    rep = sweep_recovery(seeds=seeds, sizes=sizes)
    print(render_report(rep))

    from repro.obs import BenchStore
    path = BenchStore(args.store).save(args.name, [rep])
    print(f"\nwrote {path}")

    rows = _edge_rows(rep)
    repair = sum(m.measured for m in rows)
    full = sum(m.bound for m in rows)
    bad = [m.params for m in rep.rows if m.extra.get("correct") != 1]
    if bad:
        print(f"FAIL: oracle-incorrect repairs at {bad}", file=sys.stderr)
        return 1
    if repair >= full:
        print(f"FAIL: repairs cost {repair} rounds vs {full} for "
              f"from-scratch recomputes -- incremental re-convergence "
              f"is not paying for itself", file=sys.stderr)
        return 1
    print(f"OK: {len(rows)} single-edge repairs cost {repair} rounds vs "
          f"{full} from scratch ({100 * (1 - repair / full):.0f}% saved); "
          f"crash rows oracle-correct")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
