"""E23 -- wall-clock speedup of the columnar bulk-synchronous backend.

The sweep (repro.analysis.sweep.sweep_columnar) times single-source
Bellman-Ford on random-weight grid graphs on the object loop and the
columnar backend -- the message-volume-dominated regime the columnar
engine's bulk array rounds target -- and differentially re-checks every
timed pair (distances, hops, parents, rounds, messages, words,
per-channel and per-node counters), so a "speedup" can never hide a
divergence.  Each size is measured once per bulk implementation (numpy
and the pure-Python fallback) because both must stay fast enough to be
worth selecting.

Two entry points:

* the pytest-benchmark test below, which records the sweep into the
  shared last-run report store alongside the other experiments;
* ``python benchmarks/bench_columnar.py --min-speedup 2.0``, the CI
  gate: persists the measurements into the BenchStore
  (``BENCH_columnar.json``) and exits non-zero if the numpy (or, absent
  numpy, pure-Python) speedup over the object loop at the largest size
  is below the threshold.  CI runs it in the bench-smoke job.
"""

import argparse
import sys
from pathlib import Path

from repro.analysis import render_report
from repro.analysis.sweep import sweep_columnar


def _largest(rep, impl):
    rows = [m for m in rep.rows if m.params["impl"] == impl]
    return max(rows, key=lambda m: m.params["n"]) if rows else None


def _primary_impl(rep):
    """The implementation the gate applies to: numpy when available
    (it is what ambient selection uses), else the pure-Python fallback."""
    return "numpy" if _largest(rep, "numpy") is not None else "python"


def test_columnar_speedup(benchmark, report_sink):
    rep = benchmark.pedantic(
        lambda: sweep_columnar(sides=(30, 60), repeats=3),
        rounds=1, iterations=1)
    report_sink(rep)
    # The hard gate (>=2x at the largest size) is the CI __main__ below
    # (best-of-3 on a quiet runner); here we only pin the direction so a
    # busy dev machine cannot flake the suite.
    largest = _largest(rep, _primary_impl(rep))
    assert largest.measured > 1.0, (
        f"columnar backend slower than the object loop at n={largest.params['n']} "
        f"(impl={largest.params['impl']}): {largest.measured}x")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="measure and gate the columnar-backend speedup (E23)")
    ap.add_argument("--sides", default="30,60,100",
                    help="comma-separated grid side lengths (n = side^2)")
    ap.add_argument("--repeats", type=int, default=3,
                    help="best-of-N timing repeats per backend")
    ap.add_argument("--min-speedup", type=float, default=2.0,
                    help="fail (exit 1) if the primary-implementation "
                         "speedup over the object loop at the largest "
                         "size is below this")
    ap.add_argument("--store", default=str(Path(__file__).parent),
                    help="BenchStore directory for the persisted record")
    ap.add_argument("--name", default="columnar",
                    help="record name (writes BENCH_<name>.json)")
    args = ap.parse_args(argv)

    sides = tuple(int(s) for s in args.sides.split(","))
    rep = sweep_columnar(sides=sides, repeats=args.repeats)
    print(render_report(rep))

    from repro.obs import BenchStore
    path = BenchStore(args.store).save(args.name, [rep])
    print(f"\nwrote {path}")

    impl = _primary_impl(rep)
    largest = _largest(rep, impl)
    if largest.measured < args.min_speedup:
        print(f"FAIL: columnar speedup {largest.measured}x at "
              f"n={largest.params['n']} (impl={impl}) is below the "
              f"{args.min_speedup}x gate", file=sys.stderr)
        return 1
    print(f"OK ({impl}): {largest.measured}x >= {args.min_speedup}x at "
          f"n={largest.params['n']}")
    # The fallback is informational, not gated: it must merely never
    # be a slowdown (direction-only, same as the pytest smoke above).
    fallback = _largest(rep, "python")
    if impl != "python" and fallback is not None:
        print(f"fallback (python): {fallback.measured}x at "
              f"n={fallback.params['n']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
