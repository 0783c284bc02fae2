"""Command-line interface: ``python -m repro <command> ...``.

Commands operate on graph files in the plain-text format of
:mod:`repro.graphs.io` so runs are scriptable and reproducible:

* ``gen``   -- generate a graph file from one of the seeded families;
* ``info``  -- print a graph's basic quantities (n, m, W, Delta, ...);
* ``apsp``  -- exact APSP with any implemented method + round report;
* ``kssp``  -- exact k-source shortest paths;
* ``hkssp`` -- the (h, k)-SSP problem (the paper's weak contract);
* ``approx``-- (1+eps)-approximate APSP;
* ``bounds``-- evaluate the paper's bound formulas for given parameters;
* ``bench`` -- run one of the experiment sweeps (E1-E24) and print its
  measured-vs-bound table, optionally fanned out across worker
  processes (``--jobs N``) via :class:`repro.perf.SweepExecutor`;
* ``explain``-- replay how one node learned its distance from one source;
* ``faults``-- run an algorithm under seeded fault injection (drops,
  duplicates, delays, corruption, crashes), optionally with the
  ack/retransmit resilience wrapper, and report what happened;
* ``recover``-- run Bellman-Ford where crashed nodes restart *from their
  periodic checkpoints* (``--crash V@R:R2``), roll back, and
  re-synchronize via neighbor replay; reports snapshots/rollbacks/
  replays and checks the answer against Dijkstra;
* ``dynamic``-- incremental re-convergence: apply edge/node updates to a
  completed run and re-run only the affected sources, reporting
  ``rounds_to_repair`` vs the from-scratch recompute cost;
* ``serve`` -- the distance-oracle serving layer: ``serve bench``
  replays a seeded Zipf query workload through the asyncio front-end
  (:mod:`repro.serve`) and reports naive vs batched+cached queries/sec
  with the cache hit rate, ``serve demo`` answers point queries and
  re-serves them after ``--update``/``--leave``/``--join`` churn (only
  affected sources recomputed; answers Dijkstra-checked);
* ``obs``   -- the observability subsystem: ``obs run`` executes an
  algorithm with tracing/metrics/profiling attached and renders an
  ASCII dashboard (optionally exporting the trace as JSONL), ``obs
  bench`` persists a benchmark suite into the ``BENCH_*.json`` store
  and can fail on regression vs a stored baseline, ``obs diff``
  compares two stored records;
* ``campaign`` -- the orchestration layer (:mod:`repro.campaign`):
  ``campaign run`` executes a declarative JSON campaign spec through
  the content-addressed result store (completed tasks are cache hits;
  an interrupted campaign resumes where it stopped), ``campaign
  status`` shows cached-vs-pending tasks without running anything,
  ``campaign report`` renders markdown tables from the store and can
  diff against a BENCH baseline.

Simulation commands accept ``--backend`` (``reference`` or
``columnar``; ``fast`` is a deprecated alias of ``reference``) to pick
the CONGEST simulator backend (:mod:`repro.perf.backends`); the
columnar backend honors the full hook surface (fault injection,
invariant monitoring, tracing, metrics, event recording) and is
differentially pinned to the reference one on every hook observation,
so backend choice is purely a wall-clock decision.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from . import bounds as bounds_mod
from .core import (
    apsp as api_apsp,
    k_ssp as api_kssp,
    run_approx_apsp,
    run_hk_ssp,
    run_scaling_apsp,
    verify_approx_ratio,
)
from .graphs import io as gio
from .graphs import (
    bounded_distance_graph,
    eccentricity_bound,
    max_min_hops,
    random_graph,
    shortest_path_diameter,
    zero_cluster_graph,
)

INF = float("inf")


def _fmt(d: float) -> str:
    return "-" if d == INF else str(int(d))


def _print_distances(dist, sources: Sequence[int], n: int, out) -> None:
    for x in sources:
        out.write(f"{x}: " + " ".join(_fmt(dist[x][v]) for v in range(n)) + "\n")


def _metrics_report(metrics, out, bound: Optional[float] = None) -> None:
    out.write(f"rounds: {metrics.rounds}\n")
    if bound is not None:
        out.write(f"bound : {bound}\n")
    out.write(f"messages: {metrics.messages}, "
              f"max message words: {metrics.max_message_words}, "
              f"max edge congestion: {metrics.max_edge_congestion}\n")


def cmd_gen(args, out) -> int:
    if args.family == "random":
        g = random_graph(args.n, p=args.p, w_max=args.w_max,
                         zero_fraction=args.zero_fraction,
                         directed=not args.undirected, seed=args.seed)
    elif args.family == "zero-cluster":
        size = max(2, args.n // max(1, args.clusters))
        g = zero_cluster_graph(args.clusters, size,
                               link_weight_max=max(1, args.w_max),
                               seed=args.seed)
        if g.n != args.n:
            sys.stderr.write(
                f"note: zero-cluster rounds to {args.clusters} clusters x "
                f"{size} nodes = {g.n} (requested n={args.n})\n")
    elif args.family == "bounded-distance":
        g = bounded_distance_graph(args.n, max(1, args.delta), seed=args.seed)
    else:
        raise SystemExit(f"unknown family {args.family!r}")
    text = gio.dumps(g)
    if args.output:
        gio.save(g, args.output)
        out.write(f"wrote {args.output} ({g.n} nodes, {g.m} edges)\n")
    else:
        out.write(text)
    return 0


def cmd_info(args, out) -> int:
    g = gio.load(args.graph)
    out.write(f"nodes: {g.n}\nedges: {g.m}\n")
    out.write(f"directed: {g.directed}\nmax weight W: {g.max_weight}\n")
    zeros = sum(1 for _, _, w in g.edges() if w == 0)
    out.write(f"zero-weight edges: {zeros} ({100 * zeros / max(1, g.m):.0f}%)\n")
    out.write(f"comm connected: {g.is_comm_connected()}\n")
    out.write(f"shortest-path diameter Delta: {shortest_path_diameter(g)}\n")
    out.write(f"shortest-path hop diameter: {max_min_hops(g)}\n")
    out.write(f"comm hop diameter: {eccentricity_bound(g)}\n")
    return 0


def cmd_apsp(args, out) -> int:
    from .perf import use_backend

    g = gio.load(args.graph)
    if args.method == "scaling":
        # The scaling pipeline builds its phase networks through
        # make_network, so an ambient backend covers it.
        with use_backend(args.backend):
            res = run_scaling_apsp(g)
        _metrics_report(res.metrics, out)
        if not args.quiet:
            _print_distances(res.dist, range(g.n), g.n, out)
        return 0
    res = api_apsp(g, method=args.method, backend=args.backend)
    bound = getattr(res, "round_bound", None)
    _metrics_report(res.metrics, out, bound)
    if not args.quiet:
        _print_distances(res.dist, range(g.n), g.n, out)
    return 0


def cmd_kssp(args, out) -> int:
    g = gio.load(args.graph)
    sources = [int(s) for s in args.sources.split(",")]
    res = api_kssp(g, sources, method=args.method, backend=args.backend)
    _metrics_report(res.metrics, out, getattr(res, "round_bound", None))
    if not args.quiet:
        _print_distances(res.dist, sources, g.n, out)
    return 0


def cmd_hkssp(args, out) -> int:
    g = gio.load(args.graph)
    sources = [int(s) for s in args.sources.split(",")]
    res = run_hk_ssp(g, sources, args.hops, backend=args.backend)
    out.write(f"(h={args.hops}, k={res.k})-SSP, Delta={res.delta}, "
              f"gamma={res.gamma:.4f}\n")
    _metrics_report(res.metrics, out, res.round_bound)
    if not args.quiet:
        _print_distances(res.dist, res.sources, g.n, out)
    return 0


def cmd_approx(args, out) -> int:
    g = gio.load(args.graph)
    res = run_approx_apsp(g, args.eps)
    _metrics_report(res.metrics, out)
    if args.verify:
        worst = verify_approx_ratio(g, res)
        out.write(f"worst measured ratio: {worst:.4f} "
                  f"(guarantee <= {1 + args.eps})\n")
    if not args.quiet:
        for x in range(g.n):
            out.write(f"{x}: " + " ".join(
                "-" if d == INF else f"{d:.2f}" for d in res.dist[x]) + "\n")
    return 0


def cmd_bench(args, out) -> int:
    from .analysis import render_report
    from .analysis import sweep as sweep_mod
    from .analysis import experiments as exp_mod

    registry = {
        "E1": lambda: [sweep_mod.sweep_theorem11_hk_ssp()],
        "E2": lambda: [sweep_mod.sweep_theorem11_apsp()],
        "E3": lambda: [sweep_mod.sweep_theorem11_kssp()],
        "E4": lambda: [sweep_mod.sweep_invariants()],
        "E5": lambda: list(sweep_mod.sweep_short_range()),
        "E6": lambda: [exp_mod.sweep_csssp()],
        "E7": lambda: list(exp_mod.sweep_blocker()),
        "E8": lambda: [exp_mod.sweep_theorem12()],
        "E9": lambda: [exp_mod.sweep_theorem13()],
        "E10": lambda: [exp_mod.sweep_corollary14_crossover()],
        "E11": lambda: [sweep_mod.sweep_table1_exact()],
        "E12": lambda: [exp_mod.sweep_table1_approx()],
        "E13": lambda: list(exp_mod.sweep_unweighted_baseline()),
        "E14": lambda: [exp_mod.sweep_ablation_key_schedule()],
        "E15": lambda: [exp_mod.sweep_extension_scaling()],
        "E16": lambda: [exp_mod.sweep_random_vs_deterministic()],
        "E17": lambda: list(exp_mod.sweep_ksource_short_range()),
        "E18": lambda: [sweep_mod.sweep_fault_tolerance()],
        "E19": lambda: [sweep_mod.sweep_idle_nodes()],
        "E20": lambda: [sweep_mod.sweep_node_kernels()],
        "E21": lambda: [sweep_mod.sweep_recovery()],
        "E22": lambda: [sweep_mod.sweep_serving()],
        "E23": lambda: [sweep_mod.sweep_columnar()],
        "E24": lambda: [sweep_mod.sweep_columnar_pipelined()],
    }
    key = args.experiment.upper()
    if key == "ALL":
        keys = sorted(registry, key=lambda k: int(k[1:]))
    elif key in registry:
        keys = [key]
    else:
        raise SystemExit(
            f"unknown experiment {args.experiment!r}; pick one of "
            f"{', '.join(sorted(registry, key=lambda k: int(k[1:])))} or 'all'")
    jobs = args.jobs
    backend = args.backend
    rc = 0
    for k in keys:
        if jobs > 1 or backend is not None:
            # The executor knows which sweeps split by seed (the rest
            # run as a single task) and threads the backend either way;
            # merged reports are row-identical to the sequential path.
            from .perf import run_experiment
            reports = run_experiment(k, jobs=jobs, backend=backend)
        else:
            reports = registry[k]()
        for rep in reports:
            out.write(render_report(rep) + "\n\n")
            if not rep.all_within_bound:
                out.write(f"WARNING: {rep.experiment} has bound violations\n")
                rc = 1
    return rc


def cmd_explain(args, out) -> int:
    from .analysis import explain_pair

    g = gio.load(args.graph)
    story = explain_pair(g, args.source, args.node,
                         args.hops if args.hops else g.n - 1)
    out.write(story.render() + "\n")
    return 0


def cmd_faults(args, out) -> int:
    from .core.bellman_ford import run_bellman_ford
    from .core.short_range import run_short_range
    from .faults import CrashWindow, FaultPlan
    from .graphs.reference import dijkstra

    g = gio.load(args.graph)
    if not (0 <= args.source < g.n):
        raise ValueError(f"source {args.source} out of range for n={g.n}")
    plan = FaultPlan(
        seed=args.fault_seed,
        drop_rate=args.drop_rate,
        duplicate_rate=args.duplicate_rate,
        delay_rate=args.delay_rate,
        max_delay=args.max_delay,
        corrupt_rate=args.corrupt_rate,
        crashes=tuple(CrashWindow.parse(s) for s in args.crash or ()),
    )
    resilient = not args.no_wrapper
    wrapper = (f"resilient (ack/retransmit, timeout={args.timeout})"
               if resilient else "none (raw)")
    out.write(f"fault plan: {plan.describe()}\n")
    out.write(f"wrapper   : {wrapper}\n")
    from .congest import RoundLimitExceeded
    from .faults import InvariantViolation, UnreachablePeer

    try:
        if args.algorithm == "bellman-ford":
            res = run_bellman_ford(g, args.source, fault_plan=plan,
                                   resilient=resilient, timeout=args.timeout,
                                   backend=args.backend)
            contract = [True] * g.n
        else:
            h = args.hops if args.hops else max(1, g.n - 1)
            res = run_short_range(g, args.source, h, fault_plan=plan,
                                  resilient=resilient, timeout=args.timeout,
                                  backend=args.backend)
            contract = [res.hops[v] <= h for v in range(g.n)]
    except (RoundLimitExceeded, InvariantViolation, UnreachablePeer) as exc:
        # A permanent crash either trips the wrapper's unreachable-peer
        # threshold (fail-fast, with post-mortem) or never quiesces
        # (retransmission to a dead node cannot stop); an invariant
        # violation is the monitor firing.  Either way the post-mortem
        # is the answer.
        out.write(f"RESULT: FAILED ({type(exc).__name__})\n")
        out.write(str(exc) + "\n")
        # RoundLimitExceeded embeds its post-mortem in the message; the
        # unreachable-peer fail-fast carries it separately.
        pm = getattr(exc, "post_mortem", None)
        if isinstance(exc, UnreachablePeer) and pm is not None:
            out.write(pm.render() + "\n")
        return 1

    m = res.metrics
    _metrics_report(m, out)
    if m.retransmissions or m.ack_messages:
        out.write(f"retransmissions: {m.retransmissions}, "
                  f"ack-only messages: {m.ack_messages}\n")
    injected = {k: c for k, c in sorted(m.faults.items()) if c}
    out.write(f"injected faults: {injected or 'none'}\n")

    true, _ = dijkstra(g, args.source)
    wrong = [v for v in range(g.n)
             if contract[v] and res.dist[v] != true[v]]
    if wrong:
        out.write(f"RESULT: INCORRECT at {len(wrong)} node(s): "
                  f"{wrong[:10]}\n")
        for v in wrong[:5]:
            out.write(f"  node {v}: got {_fmt(res.dist[v])}, "
                      f"true {_fmt(true[v])}\n")
    else:
        out.write("RESULT: correct (matches Dijkstra on all covered "
                  "nodes)\n")
    if not args.quiet:
        out.write(f"{args.source}: "
                  + " ".join(_fmt(d) for d in res.dist) + "\n")
    return 1 if wrong else 0


def cmd_recover(args, out) -> int:
    import dataclasses

    from .congest import RoundLimitExceeded
    from .core.bellman_ford import BellmanFordProgram
    from .faults import CrashWindow, FaultPlan
    from .graphs.reference import dijkstra
    from .recovery import run_recoverable

    g = gio.load(args.graph)
    if not (0 <= args.source < g.n):
        raise ValueError(f"source {args.source} out of range for n={g.n}")
    crashes = []
    for spec in args.crash or ():
        cw = CrashWindow.parse(spec)
        if cw.restart_round is None:
            raise ValueError(
                f"crash spec {spec!r}: checkpoint recovery needs a restart "
                f"round -- use 'V@R:R2' (a node that never restarts has "
                f"nothing to recover)")
        if cw.restart_from != "checkpoint":
            # This command *is* the checkpoint path; accept plain specs.
            cw = dataclasses.replace(cw, restart_from="checkpoint")
        crashes.append(cw)
    plan = FaultPlan(
        seed=args.fault_seed,
        duplicate_rate=args.duplicate_rate,
        delay_rate=args.delay_rate,
        max_delay=args.max_delay,
        crashes=tuple(crashes),
    )
    out.write(f"fault plan: {plan.describe()}\n")
    out.write(f"checkpoints: every {args.checkpoint_every} rounds\n")
    max_rounds = args.max_rounds or 40 * (g.n + 2) + 200
    try:
        outs, metrics, _net, stats = run_recoverable(
            g, lambda v: BellmanFordProgram(v, args.source), max_rounds,
            fault_plan=plan, checkpoint_every=args.checkpoint_every,
            backend=args.backend)
    except RoundLimitExceeded as exc:
        out.write(f"RESULT: FAILED ({type(exc).__name__})\n")
        out.write(str(exc) + "\n")
        return 1
    _metrics_report(metrics, out)
    s = stats.as_dict()
    out.write(f"recovery: {s['snapshots']} snapshots, "
              f"{s['rollbacks']} rollbacks, "
              f"{s['replayed_frames']} frames replayed "
              f"({s['replay_gaps']} replay gaps)\n")
    injected = {k: c for k, c in sorted(metrics.faults.items()) if c}
    out.write(f"injected faults: {injected or 'none'}\n")
    dist = [o[0] for o in outs]
    true, _ = dijkstra(g, args.source)
    wrong = [v for v in range(g.n) if dist[v] != true[v]]
    if wrong:
        out.write(f"RESULT: INCORRECT at {len(wrong)} node(s): "
                  f"{wrong[:10]}\n")
        for v in wrong[:5]:
            out.write(f"  node {v}: got {_fmt(dist[v])}, "
                      f"true {_fmt(true[v])}\n")
    else:
        out.write("RESULT: correct (matches Dijkstra at every node)\n")
    if not args.quiet:
        out.write(f"{args.source}: " + " ".join(_fmt(d) for d in dist) + "\n")
    return 1 if wrong else 0


def _parse_dynamic_events(args):
    from .recovery import EdgeUpdate, NodeJoin, NodeLeave

    events = []
    for spec in args.update or ():
        parts = spec.split(",")
        if len(parts) != 3:
            raise ValueError(
                f"bad update spec {spec!r}: expected 'U,V,W' (weight) or "
                f"'U,V,-' (delete)")
        u, v = int(parts[0]), int(parts[1])
        w = None if parts[2] in ("-", "x", "del") else int(parts[2])
        events.append(EdgeUpdate(u, v, w))
    for spec in args.leave or ():
        events.append(NodeLeave(int(spec)))
    for spec in args.join or ():
        node_s, _, edges_s = spec.partition(":")
        edges = tuple(
            tuple(int(x) for x in e.split("-"))
            for e in edges_s.split(";") if e)
        events.append(NodeJoin(int(node_s), edges))
    return events


def cmd_dynamic(args, out) -> int:
    from .recovery import DynamicRun

    g = gio.load(args.graph)
    sources = [int(s) for s in args.sources.split(",")]
    events = _parse_dynamic_events(args)
    if not events:
        raise ValueError(
            "no updates given -- pass --update U,V,W (or U,V,- to delete), "
            "--leave V, and/or --join 'V:U-V-W;...'")
    run = DynamicRun(g, sources, method=args.method, compare_full=True,
                     backend=args.backend)
    out.write(f"initial run: {run.metrics.rounds} rounds, "
              f"k={len(run.sources)} sources\n")
    rec = run.apply(*events)
    out.write(f"applied {len(rec.events)} event(s); affected sources: "
              f"{list(rec.affected) or 'none'}\n")
    out.write(f"rounds to repair: {rec.rounds_to_repair}"
              + (f" (from-scratch recompute: {rec.full_rounds})"
                 if rec.full_rounds is not None else "") + "\n")
    mismatches = run.oracle_check()
    if mismatches:
        out.write(f"RESULT: INCORRECT at {len(mismatches)} (source, node) "
                  f"pair(s): {mismatches[:5]}\n")
    else:
        out.write("RESULT: correct (matches Dijkstra on the updated "
                  "graph)\n")
    if not args.quiet:
        _print_distances(run.table, run.sources, run.graph.n, out)
    return 1 if mismatches else 0


def cmd_serve(args, out) -> int:
    import time as _time

    from .obs import MetricsRegistry
    from .serve import DistanceOracle, generate_workload, serve_stream

    g = gio.load(args.graph)
    registry = MetricsRegistry()
    oracle = DistanceOracle(
        g, num_shards=args.shards, method=args.method,
        backend=args.backend, cache_size=args.cache_size,
        registry=registry)
    out.write(f"oracle: n={g.n} sources={len(oracle.sources)} "
              f"shards={len(oracle.view.shards)} "
              f"build rounds={oracle.build_rounds}\n")

    if args.serve_command == "demo":
        events = _parse_dynamic_events(args)
        pairs = []
        for spec in args.query or ():
            u_s, _, v_s = spec.partition(",")
            pairs.append((int(u_s), int(v_s)))
        if not pairs:
            rng_n = g.n
            pairs = [(0, rng_n - 1), (rng_n - 1, 0), (0, rng_n // 2)]
        for u, v in pairs:
            r = oracle.path(u, v)
            if r is None:
                out.write(f"{u} -> {v}: unreachable\n")
            else:
                out.write(f"{u} -> {v}: distance {int(r.distance)} via "
                          f"{'-'.join(str(x) for x in r.path)}\n")
        if events:
            rec = oracle.refresh(*events)
            out.write(f"refresh: epoch {rec.epoch}, "
                      f"{len(rec.affected_sources)} affected source(s), "
                      f"{len(rec.rebuilt_shards)} shard(s) rebuilt, "
                      f"{rec.invalidated_entries} cache entries "
                      f"invalidated, {rec.rounds_to_repair} repair "
                      f"rounds\n")
            for u, v in pairs:
                r = oracle.path(u, v)
                if r is None:
                    out.write(f"{u} -> {v}: unreachable\n")
                else:
                    out.write(f"{u} -> {v}: distance {int(r.distance)} "
                              f"via {'-'.join(str(x) for x in r.path)}\n")
        mismatches = oracle.oracle_check()
        if mismatches:
            out.write(f"RESULT: INCORRECT at {len(mismatches)} pair(s): "
                      f"{mismatches[:5]}\n")
            return 1
        out.write("RESULT: correct (every served distance matches "
                  "Dijkstra)\n")
        return 0

    # serve bench: replay a seeded Zipf workload, naive vs batched+cached
    wl = generate_workload(g.n, args.queries, seed=args.seed,
                           skew=args.skew)
    t0 = _time.perf_counter()
    naive = oracle.serve_naive(wl)
    naive_s = _time.perf_counter() - t0
    oracle.serve(wl)  # warm the cache
    t0 = _time.perf_counter()
    served = serve_stream(oracle, wl, batch_size=args.batch_size,
                          max_workers=args.jobs)
    cached_s = _time.perf_counter() - t0
    if served != naive:
        out.write("RESULT: INCORRECT -- batched+cached answers diverge "
                  "from the naive baseline\n")
        return 1
    stats = oracle.cache.stats()
    out.write(f"workload: {len(wl)} queries, seed={args.seed} "
              f"skew={args.skew}, {wl.distinct_pairs()} distinct pairs\n")
    out.write(f"naive:          {len(wl) / naive_s:12.0f} queries/sec\n")
    out.write(f"batched+cached: {len(wl) / cached_s:12.0f} queries/sec "
              f"({args.jobs} worker(s))\n")
    out.write(f"speedup: {naive_s / cached_s:.2f}x   "
              f"cache hit rate: {stats['hit_rate']:.3f} "
              f"({int(stats['hits'])} hits / "
              f"{int(stats['misses'])} misses, "
              f"size {int(stats['size'])})\n")
    return 0


#: The deterministic micro-suite behind ``repro obs bench --suite smoke``
#: (and CI's benchmark smoke job): fixed-seed, small-size variants of
#: three headline sweeps.  Round counts are deterministic, so identical
#: code must produce an identical record -- bit-identical even across
#: ``--jobs`` values, which tests/test_sweep_executor.py pins.
_SMOKE_SUITE = (
    ("repro.analysis.sweep:sweep_theorem11_apsp",
     {"seeds": (0,), "sizes": (8, 12)}),
    ("repro.analysis.sweep:sweep_theorem11_hk_ssp",
     {"seeds": (0,), "sizes": (10,)}),
    ("repro.analysis.sweep:sweep_table1_exact",
     {"seeds": (0,), "sizes": (8,)}),
    # E20 in its clock-free mode: rounds + kernel-agreement flag only,
    # so the record stays deterministic (the timed gate is
    # benchmarks/bench_node_kernels.py, not the smoke compare).
    ("repro.analysis.sweep:sweep_node_kernels",
     {"sizes": ((48, 8, 24),), "timing": False}),
    # E21 is clock-free by construction (round counts + digests), so the
    # whole recovery row family can sit in the deterministic record.
    ("repro.analysis.sweep:sweep_recovery",
     {"seeds": (0,), "sizes": (10,)}),
    # E22 in its clock-free mode: build rounds + exact cache tallies +
    # refresh/digest rows (the timed >= 5x serving gate is
    # benchmarks/bench_serving.py, not the smoke compare).
    ("repro.analysis.sweep:sweep_serving",
     {"sizes": ((32, 0.15, 4000),), "timing": False}),
    # E23 in its clock-free mode: deterministic rounds/messages plus the
    # object-loop-vs-columnar agreement flag (the timed >= 2x gate is
    # benchmarks/bench_columnar.py, not the smoke compare).
    ("repro.analysis.sweep:sweep_columnar",
     {"sides": (12,), "timing": False}),
    # E24 in its clock-free mode: deterministic rounds/messages plus the
    # object-loop-vs-columnar agreement flag for the pipelined kernel (the
    # timed >= 2x gate is benchmarks/bench_columnar_pipelined.py, not
    # the smoke compare).
    ("repro.analysis.sweep:sweep_columnar_pipelined",
     {"sizes": ((32, 0.2, 6, 8),), "timing": False}),
)


def _obs_smoke_reports(jobs: int = 1, backend: Optional[str] = None):
    """Run the smoke suite, optionally fanning the three sweeps out
    across worker processes.  Report order is task order either way."""
    from .perf import SweepExecutor, SweepTask

    tasks = [SweepTask(func, dict(kwargs)) for func, kwargs in _SMOKE_SUITE]
    return SweepExecutor(jobs, backend=backend).run(tasks)


def cmd_obs(args, out) -> int:
    from .obs import (BenchStore, MetricsRegistry, ProfileSession, Tracer,
                      check_phases, render_dashboard)

    if args.obs_command == "run":
        g = gio.load(args.graph)
        tracer = Tracer()
        registry = MetricsRegistry()
        profile = ProfileSession(cprofile=args.cprofile) \
            if (args.profile or args.cprofile) else None
        sources = [int(s) for s in args.sources.split(",")] \
            if args.sources else None

        def execute():
            # obs run always attaches a tracer; both backends honor it
            # (differentially pinned to identical event streams), so
            # --backend columnar traces on the pipelined kernel.  The
            # multi-phase blocker method takes the backend as the
            # ambient default rather than a per-call argument.
            if sources is None:
                return api_apsp(g, method=args.method, tracer=tracer,
                                registry=registry, backend=args.backend)
            return api_kssp(g, sources, method=args.method, tracer=tracer,
                            registry=registry, backend=args.backend)

        if profile is not None:
            with profile:
                res = execute()
        else:
            res = execute()
        out.write(render_dashboard(tracer=tracer, registry=registry,
                                   metrics=res.metrics, profile=profile)
                  + "\n")
        if args.cprofile and profile is not None:
            out.write(profile.stats_text() + "\n")
        if args.export_trace:
            nrec = tracer.export_jsonl(args.export_trace)
            out.write(f"wrote {nrec} trace records to {args.export_trace}\n")
        ok, _, _ = check_phases(tracer, res.metrics)
        return 0 if ok else 1

    if args.obs_command == "bench":
        store = BenchStore(args.store)
        reports = _obs_smoke_reports(jobs=args.jobs, backend=args.backend)
        path = store.save(args.name, reports, meta={"suite": args.suite})
        out.write(f"wrote {path}\n")
        if args.baseline:
            rep = store.compare(args.baseline, args.name,
                                tolerance=args.tolerance)
            out.write(rep.render() + "\n")
            return rep.exit_code
        return 0

    if args.obs_command == "diff":
        store = BenchStore(args.store)
        rep = store.compare(args.baseline, args.current,
                            tolerance=args.tolerance)
        out.write(rep.render() + "\n")
        return rep.exit_code

    raise SystemExit(f"unknown obs subcommand {args.obs_command!r}")


def cmd_campaign(args, out) -> int:
    import dataclasses

    from .campaign import (CampaignRunner, CampaignSpec, ResultStore,
                           make_target, regression_diff,
                           render_campaign_report, save_bench)

    spec = CampaignSpec.load(args.spec)
    if getattr(args, "backend", None):
        spec = dataclasses.replace(spec, backend=args.backend)
    store = ResultStore(args.store)

    if args.campaign_command == "status":
        runner = CampaignRunner(spec, store,
                                make_target(args.target, jobs=1))
        out.write(runner.status().render() + "\n")
        return 0

    if args.campaign_command == "run":
        target = make_target(args.target, jobs=args.jobs)
        runner = CampaignRunner(spec, store, target)
        result = runner.run(force=args.force,
                            progress=lambda msg: out.write(msg + "\n"))
        out.write(result.summary() + "\n")
    elif args.campaign_command == "report":
        runner = CampaignRunner(spec, store,
                                make_target(args.target, jobs=1))
        result = runner.collect()
    else:
        raise SystemExit(
            f"unknown campaign subcommand {args.campaign_command!r}")

    text = render_campaign_report(result)
    if getattr(args, "report", None):
        from pathlib import Path
        Path(args.report).write_text(text)
        out.write(f"wrote {args.report}\n")
    elif args.campaign_command == "report":
        out.write(text)
    if getattr(args, "bench_name", None):
        path = save_bench(result, args.bench_store, args.bench_name)
        out.write(f"wrote {path}\n")
    if getattr(args, "baseline", None):
        rep = regression_diff(result, args.baseline, args.bench_store,
                              tolerance=args.tolerance)
        out.write(rep.render() + "\n")
        return rep.exit_code
    return 0


def cmd_bounds(args, out) -> int:
    n, k, h = args.n, args.k if args.k else args.n, args.hops if args.hops else args.n
    delta, w = args.delta, args.w_max
    out.write(f"n={n} k={k} h={h} Delta={delta} W={w}\n")
    out.write(f"Theorem I.1(i)  (h,k)-SSP : "
              f"{bounds_mod.theorem11_hk_ssp(h, k, delta)}\n")
    out.write(f"Theorem I.1(ii) APSP      : {bounds_mod.theorem11_apsp(n, delta)}\n")
    out.write(f"Theorem I.1(iii) k-SSP    : {bounds_mod.theorem11_k_ssp(n, k, delta)}\n")
    out.write(f"Theorem I.2(i)  APSP      : {bounds_mod.theorem12_apsp(n, w):.1f}\n")
    out.write(f"Theorem I.3(i)  APSP      : {bounds_mod.theorem13_apsp(n, delta):.1f}\n")
    out.write(f"optimal h (Thm I.2)       : "
              f"{bounds_mod.optimal_h_weight_bounded(n, k, w)}\n")
    out.write(f"optimal h (Thm I.3)       : "
              f"{bounds_mod.optimal_h_distance_bounded(n, k, delta)}\n")
    return 0


def _add_backend_flag(parser) -> None:
    from .perf.backends import ALIASES, BACKENDS
    parser.add_argument("--backend", choices=sorted({*BACKENDS, *ALIASES}),
                        help="simulator backend (default: ambient, i.e. "
                             "REPRO_BACKEND or 'reference'; 'fast' is a "
                             "deprecated alias of 'reference')")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="CONGEST-model weighted shortest paths "
                    "(Agarwal & Ramachandran, IPDPS 2019 reproduction)")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a graph file")
    g.add_argument("--family", default="random",
                   choices=["random", "zero-cluster", "bounded-distance"])
    g.add_argument("-n", type=int, default=16)
    g.add_argument("--p", type=float, default=0.3)
    g.add_argument("--w-max", type=int, default=8)
    g.add_argument("--zero-fraction", type=float, default=0.3)
    g.add_argument("--clusters", type=int, default=4)
    g.add_argument("--delta", type=int, default=16)
    g.add_argument("--undirected", action="store_true")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--output")
    g.set_defaults(func=cmd_gen)

    i = sub.add_parser("info", help="summarize a graph file")
    i.add_argument("graph")
    i.set_defaults(func=cmd_info)

    a = sub.add_parser("apsp", help="exact all-pairs shortest paths")
    a.add_argument("graph")
    a.add_argument("--method", default="auto",
                   choices=["auto", "pipelined", "blocker", "bellman-ford",
                            "scaling"])
    a.add_argument("-q", "--quiet", action="store_true",
                   help="metrics only, no distance matrix")
    _add_backend_flag(a)
    a.set_defaults(func=cmd_apsp)

    k = sub.add_parser("kssp", help="k-source shortest paths")
    k.add_argument("graph")
    k.add_argument("--sources", required=True, help="comma-separated ids")
    k.add_argument("--method", default="auto",
                   choices=["auto", "pipelined", "blocker", "bellman-ford"])
    k.add_argument("-q", "--quiet", action="store_true")
    _add_backend_flag(k)
    k.set_defaults(func=cmd_kssp)

    hk = sub.add_parser("hkssp", help="(h,k)-SSP (the paper's weak contract)")
    hk.add_argument("graph")
    hk.add_argument("--sources", required=True)
    hk.add_argument("--hops", type=int, required=True)
    hk.add_argument("-q", "--quiet", action="store_true")
    _add_backend_flag(hk)
    hk.set_defaults(func=cmd_hkssp)

    ap = sub.add_parser("approx", help="(1+eps)-approximate APSP")
    ap.add_argument("graph")
    ap.add_argument("--eps", type=float, default=1.0)
    ap.add_argument("--verify", action="store_true",
                    help="check the ratio against Dijkstra")
    ap.add_argument("-q", "--quiet", action="store_true")
    ap.set_defaults(func=cmd_approx)

    be = sub.add_parser("bench", help="run an experiment sweep (E1-E24 or all)")
    be.add_argument("experiment", help="experiment id, e.g. E2, or 'all'")
    be.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="fan seed-splittable sweeps out across N worker "
                         "processes (results identical to --jobs 1)")
    _add_backend_flag(be)
    be.set_defaults(func=cmd_bench)

    ex = sub.add_parser("explain",
                        help="replay how a node learned its distance")
    ex.add_argument("graph")
    ex.add_argument("--source", type=int, required=True)
    ex.add_argument("--node", type=int, required=True)
    ex.add_argument("--hops", type=int)
    ex.set_defaults(func=cmd_explain)

    f = sub.add_parser(
        "faults",
        help="run an algorithm under seeded fault injection")
    f.add_argument("graph")
    f.add_argument("--algorithm", default="bellman-ford",
                   choices=["bellman-ford", "short-range"])
    f.add_argument("--source", type=int, default=0)
    f.add_argument("--hops", type=int,
                   help="hop range for short-range (default n-1)")
    f.add_argument("--fault-seed", type=int, default=0,
                   help="seed for the deterministic fault coin flips")
    f.add_argument("--drop-rate", type=float, default=0.0)
    f.add_argument("--duplicate-rate", type=float, default=0.0)
    f.add_argument("--delay-rate", type=float, default=0.0)
    f.add_argument("--max-delay", type=int, default=3)
    f.add_argument("--corrupt-rate", type=float, default=0.0)
    f.add_argument("--crash", action="append", metavar="V@R[:R2]",
                   help="crash node V at round R (restarting at R2); "
                        "repeatable")
    f.add_argument("--no-wrapper", action="store_true",
                   help="run the raw algorithm without the ack/"
                        "retransmit resilience wrapper")
    f.add_argument("--timeout", type=int, default=4,
                   help="retransmission timeout in rounds")
    f.add_argument("-q", "--quiet", action="store_true")
    _add_backend_flag(f)
    f.set_defaults(func=cmd_faults)

    rc = sub.add_parser(
        "recover",
        help="crash-recovery run: crashed nodes restart from checkpoints")
    rc.add_argument("graph")
    rc.add_argument("--source", type=int, default=0)
    rc.add_argument("--crash", action="append", metavar="V@R:R2",
                    required=True,
                    help="crash node V at round R, restart (from its "
                         "latest checkpoint) at round R2; repeatable")
    rc.add_argument("--checkpoint-every", type=int, default=8,
                    help="rounds between periodic node snapshots")
    rc.add_argument("--fault-seed", type=int, default=0)
    rc.add_argument("--duplicate-rate", type=float, default=0.0)
    rc.add_argument("--delay-rate", type=float, default=0.0)
    rc.add_argument("--max-delay", type=int, default=3)
    rc.add_argument("--max-rounds", type=int,
                    help="override the quiescence budget")
    rc.add_argument("-q", "--quiet", action="store_true")
    _add_backend_flag(rc)
    rc.set_defaults(func=cmd_recover)

    dy = sub.add_parser(
        "dynamic",
        help="incremental re-convergence: apply graph updates, re-run "
             "only the affected sources")
    dy.add_argument("graph")
    dy.add_argument("--sources", required=True, help="comma-separated ids")
    dy.add_argument("--method", default="auto",
                    choices=["auto", "pipelined", "bellman-ford"])
    dy.add_argument("--update", action="append", metavar="U,V,W",
                    help="set edge (U,V) to weight W, or delete it with "
                         "'U,V,-'; repeatable")
    dy.add_argument("--leave", action="append", metavar="V",
                    help="remove node V and its incident edges; repeatable")
    dy.add_argument("--join", action="append", metavar="V:U-V-W;...",
                    help="(re-)attach node V with the given edges, e.g. "
                         "'5:5-2-1;4-5-2'; repeatable")
    dy.add_argument("-q", "--quiet", action="store_true")
    _add_backend_flag(dy)
    dy.set_defaults(func=cmd_dynamic)

    sv = sub.add_parser(
        "serve",
        help="distance-oracle serving layer over the pipelined tables")
    svsub = sv.add_subparsers(dest="serve_command", required=True)
    svb = svsub.add_parser(
        "bench",
        help="replay a seeded Zipf workload: naive vs batched+cached "
             "queries/sec through the asyncio front-end")
    svb.add_argument("graph")
    svb.add_argument("--queries", type=int, default=10000,
                     help="workload length (default 10000)")
    svb.add_argument("--seed", type=int, default=0,
                     help="workload seed (same seed replays the same "
                          "stream)")
    svb.add_argument("--skew", type=float, default=1.2,
                     help="Zipf popularity skew (default 1.2)")
    svb.add_argument("--cache-size", type=int, default=4096,
                     help="LRU route-cache capacity (0 disables)")
    svb.add_argument("--shards", type=int, default=None,
                     help="source partitions (default ~sqrt(n))")
    svb.add_argument("--batch-size", type=int, default=256,
                     help="queries per executor batch")
    svb.add_argument("--jobs", type=int, default=2, metavar="N",
                     help="thread-pool workers behind the asyncio "
                          "front-end")
    svb.add_argument("--method", default="auto",
                     choices=["auto", "pipelined", "blocker",
                              "bellman-ford"])
    _add_backend_flag(svb)
    svb.set_defaults(func=cmd_serve)
    svd = svsub.add_parser(
        "demo",
        help="answer point queries, then apply updates and re-serve")
    svd.add_argument("graph")
    svd.add_argument("--query", action="append", metavar="U,V",
                     help="point query; repeatable (default: a few "
                          "corner pairs)")
    svd.add_argument("--update", action="append", metavar="U,V,W",
                     help="set edge (U,V) to weight W, or delete it "
                          "with 'U,V,-'; repeatable")
    svd.add_argument("--leave", action="append", metavar="V",
                     help="remove node V and its incident edges; "
                          "repeatable")
    svd.add_argument("--join", action="append", metavar="V:U-V-W;...",
                     help="(re-)attach node V with the given edges; "
                          "repeatable")
    svd.add_argument("--cache-size", type=int, default=4096)
    svd.add_argument("--shards", type=int, default=None)
    svd.add_argument("--method", default="auto",
                     choices=["auto", "pipelined", "blocker",
                              "bellman-ford"])
    _add_backend_flag(svd)
    svd.set_defaults(func=cmd_serve)

    o = sub.add_parser(
        "obs",
        help="observability: instrumented runs, dashboard, bench store")
    osub = o.add_subparsers(dest="obs_command", required=True)
    orun = osub.add_parser(
        "run", help="run an algorithm instrumented; render the dashboard")
    orun.add_argument("graph")
    orun.add_argument("--method", default="auto",
                      choices=["auto", "pipelined", "blocker",
                               "bellman-ford"])
    orun.add_argument("--sources",
                      help="comma-separated ids (k-SSP instead of APSP)")
    orun.add_argument("--export-trace", metavar="PATH",
                      help="write the trace as JSON Lines")
    orun.add_argument("--profile", action="store_true",
                      help="time the instrumented hot loops")
    orun.add_argument("--cprofile", action="store_true",
                      help="full cProfile capture (slow; implies --profile)")
    _add_backend_flag(orun)
    orun.set_defaults(func=cmd_obs)
    obench = osub.add_parser(
        "bench", help="run a benchmark suite into the BENCH_*.json store")
    obench.add_argument("--suite", default="smoke", choices=["smoke"])
    obench.add_argument("--store", default="benchmarks",
                        help="store directory (holds BENCH_<name>.json)")
    obench.add_argument("--name", default="smoke",
                        help="record name to write")
    obench.add_argument("--baseline",
                        help="stored record to compare against; a "
                             "regression makes the exit code non-zero")
    obench.add_argument("--tolerance", type=float, default=0.1,
                        help="relative slack before a larger measurement "
                             "counts as a regression (default 0.1)")
    obench.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run the suite's sweeps in N worker processes "
                             "(record is bit-identical to --jobs 1)")
    _add_backend_flag(obench)
    obench.set_defaults(func=cmd_obs)
    odiff = osub.add_parser(
        "diff", help="compare two stored benchmark records")
    odiff.add_argument("baseline")
    odiff.add_argument("current")
    odiff.add_argument("--store", default="benchmarks")
    odiff.add_argument("--tolerance", type=float, default=0.1)
    odiff.set_defaults(func=cmd_obs)

    c = sub.add_parser(
        "campaign",
        help="memoized sweep campaigns over the content-addressed "
             "result store")
    csub = c.add_subparsers(dest="campaign_command", required=True)

    def _campaign_common(parser, *, with_target=True):
        parser.add_argument("--spec", required=True,
                            help="campaign spec JSON file "
                                 "(see docs/CAMPAIGNS.md)")
        parser.add_argument("--store", default="benchmarks/.campaign",
                            help="result store directory (default "
                                 "benchmarks/.campaign)")
        if with_target:
            parser.add_argument("--target", default="inline",
                                choices=["inline", "process", "dry-run"],
                                help="execution target for cache misses "
                                     "(default inline)")

    crun = csub.add_parser(
        "run", help="run a campaign; completed tasks are cache hits")
    _campaign_common(crun)
    crun.add_argument("--jobs", type=int, default=2, metavar="N",
                      help="worker processes for --target process")
    crun.add_argument("--force", action="store_true",
                      help="recompute every task, overwriting cached "
                           "entries")
    crun.add_argument("--report", metavar="PATH",
                      help="write the rendered markdown report here")
    crun.add_argument("--bench-name", metavar="NAME",
                      help="also persist the merged rows as "
                           "BENCH_<NAME>.json")
    crun.add_argument("--bench-store", default="benchmarks",
                      help="BENCH store directory for --bench-name/"
                           "--baseline (default benchmarks)")
    crun.add_argument("--baseline", metavar="NAME",
                      help="stored BENCH record to diff against; a "
                           "regression makes the exit code non-zero")
    crun.add_argument("--tolerance", type=float, default=0.1)
    _add_backend_flag(crun)
    crun.set_defaults(func=cmd_campaign)

    cst = csub.add_parser(
        "status", help="cached vs pending tasks, without running")
    _campaign_common(cst)
    cst.set_defaults(func=cmd_campaign, backend=None)

    crep = csub.add_parser(
        "report", help="render a fully-cached campaign from the store")
    _campaign_common(crep)
    crep.add_argument("--report", metavar="PATH",
                      help="write the markdown here instead of stdout")
    crep.add_argument("--bench-name", metavar="NAME",
                      help="also persist the merged rows as "
                           "BENCH_<NAME>.json")
    crep.add_argument("--bench-store", default="benchmarks")
    crep.add_argument("--baseline", metavar="NAME",
                      help="stored BENCH record to diff against")
    crep.add_argument("--tolerance", type=float, default=0.1)
    crep.set_defaults(func=cmd_campaign, backend=None)

    b = sub.add_parser("bounds", help="evaluate the paper's bound formulas")
    b.add_argument("-n", type=int, required=True)
    b.add_argument("-k", type=int)
    b.add_argument("--hops", type=int)
    b.add_argument("--delta", type=int, required=True)
    b.add_argument("--w-max", type=int, default=1)
    b.set_defaults(func=cmd_bounds)
    return p


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    from .perf import SweepWorkerError
    try:
        return args.func(args, out)
    except (FileNotFoundError, ValueError, KeyError,
            SweepWorkerError) as exc:
        # expected user errors (missing file, bad parameter, malformed
        # graph, bad backend setting, failed sweep worker): one clean
        # message on stderr, exit 2 -- no traceback
        from .graphs.digraph import GraphError  # noqa: F401 (subclass of ValueError)
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except BrokenPipeError:
        # stdout piped into head/less that exited -- standard CLI etiquette
        import os
        try:
            os.close(sys.stdout.fileno())
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
