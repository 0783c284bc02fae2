"""E24 -- wall-clock speedup of the columnar pipelined (h, k)-SSP kernel.

The sweep (repro.analysis.sweep.sweep_columnar_pipelined) times the
paper's actual algorithm -- ``run_hk_ssp`` on dense directed random
graphs with spread sources -- on the object loop and on the columnar
backend's pipelined bulk kernel (repro.perf.columnar_pipelined), and
differentially re-checks every timed pair (distances, source set,
Delta, rounds, messages, words, per-channel and per-node counters), so
a "speedup" can never hide a divergence.  Each size is measured once
per bulk implementation (numpy and the pure-Python fallback).

Two entry points:

* the pytest-benchmark test below, which records the sweep into the
  shared last-run report store alongside the other experiments;
* ``python benchmarks/bench_columnar_pipelined.py --min-speedup 2.0``,
  the CI gate: persists the measurements into the BenchStore
  (``BENCH_columnar_pipelined.json``) and exits non-zero if the numpy
  (or, absent numpy, pure-Python) speedup over the object loop at the
  largest size is below the threshold, **or** if the pure-Python
  fallback is not itself faster than the object loop (the fallback
  ships the same bulk semantics without numpy and must never rot into
  a slowdown).  CI runs it in the bench-smoke job.
"""

import argparse
import sys
from pathlib import Path

from repro.analysis import render_report
from repro.analysis.sweep import sweep_columnar_pipelined


def _largest(rep, impl):
    rows = [m for m in rep.rows if m.params["impl"] == impl]
    return max(rows, key=lambda m: m.params["n"]) if rows else None


def _primary_impl(rep):
    """The implementation the >= min-speedup gate applies to: numpy
    when available (it is what ambient selection uses), else the
    pure-Python fallback."""
    return "numpy" if _largest(rep, "numpy") is not None else "python"


def test_columnar_pipelined_speedup(benchmark, report_sink):
    rep = benchmark.pedantic(
        lambda: sweep_columnar_pipelined(
            sizes=((96, 0.12, 12, 10), (128, 0.10, 16, 12)), repeats=3),
        rounds=1, iterations=1)
    report_sink(rep)
    # The hard gate (>=2x at the largest size, fallback above 1x) is
    # the CI __main__ below (best-of-3 on a quiet runner); here we only
    # pin the direction so a busy dev machine cannot flake the suite.
    largest = _largest(rep, _primary_impl(rep))
    assert largest.measured > 1.0, (
        f"columnar pipelined kernel slower than the object loop at "
        f"n={largest.params['n']} (impl={largest.params['impl']}): "
        f"{largest.measured}x")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="measure and gate the columnar pipelined-kernel "
                    "speedup (E24)")
    ap.add_argument("--sizes",
                    default="128:0.10:16:12,192:0.08:24:14,256:0.07:32:16",
                    help="comma-separated n:p:k:h workload quadruples")
    ap.add_argument("--repeats", type=int, default=3,
                    help="best-of-N timing repeats per backend")
    ap.add_argument("--min-speedup", type=float, default=2.0,
                    help="fail (exit 1) if the primary-implementation "
                         "speedup over the object loop at the largest "
                         "size is below this")
    ap.add_argument("--min-fallback", type=float, default=1.0,
                    help="fail (exit 1) if the pure-Python fallback "
                         "speedup at the largest size is at or below "
                         "this")
    ap.add_argument("--store", default=str(Path(__file__).parent),
                    help="BenchStore directory for the persisted record")
    ap.add_argument("--name", default="columnar_pipelined",
                    help="record name (writes BENCH_<name>.json)")
    args = ap.parse_args(argv)

    sizes = tuple((int(n), float(p), int(k), int(h))
                  for n, p, k, h
                  in (s.split(":") for s in args.sizes.split(",")))
    rep = sweep_columnar_pipelined(sizes=sizes, repeats=args.repeats)
    print(render_report(rep))

    from repro.obs import BenchStore
    path = BenchStore(args.store).save(args.name, [rep])
    print(f"\nwrote {path}")

    impl = _primary_impl(rep)
    largest = _largest(rep, impl)
    if largest.measured < args.min_speedup:
        print(f"FAIL: columnar pipelined speedup {largest.measured}x at "
              f"n={largest.params['n']} (impl={impl}) is below the "
              f"{args.min_speedup}x gate", file=sys.stderr)
        return 1
    print(f"OK ({impl}): {largest.measured}x >= {args.min_speedup}x at "
          f"n={largest.params['n']}")
    # Unlike E23, the fallback is gated, not informational: the
    # acceptance contract is that the pure-Python bulk path also beats
    # the object loop, so numpy can never become load-bearing.
    fallback = _largest(rep, "python")
    if impl != "python" and fallback is not None:
        if fallback.measured <= args.min_fallback:
            print(f"FAIL: pure-Python fallback {fallback.measured}x at "
                  f"n={fallback.params['n']} is not above the "
                  f"{args.min_fallback}x floor", file=sys.stderr)
            return 1
        print(f"fallback (python): {fallback.measured}x at "
              f"n={fallback.params['n']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
