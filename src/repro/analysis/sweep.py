"""Parameter sweeps shared by the benchmark modules.

Each benchmark (one per experiment id in DESIGN.md section 3) calls one
of these functions; they run the actual CONGEST simulations, collect
:class:`~repro.analysis.records.Measurement` rows, and leave asserting /
rendering to the caller.  Workload sizes are chosen so a full benchmark
run stays in the tens of seconds while still spanning enough of each
parameter to expose the bound's *shape*.
"""

from __future__ import annotations

import math
import time
from typing import Optional, Sequence, Tuple

from .. import bounds as bounds_mod
from ..core import (
    run_apsp,
    run_apsp_blocker,
    run_bellman_ford_apsp,
    run_hk_ssp,
    run_k_ssp,
    run_short_range,
)
from ..congest import Network, Program
from ..graphs import (
    WeightedDigraph,
    path_graph,
    random_graph,
    zero_cluster_graph,
)
from .records import ExperimentReport


def sweep_theorem11_hk_ssp(*, seeds: Sequence[int] = (0, 1),
                           sizes: Sequence[int] = (12, 18, 24),
                           report: Optional[ExperimentReport] = None
                           ) -> ExperimentReport:
    """E1: measured Algorithm 1 rounds vs Theorem I.1(i)'s bound over
    (n, h, k) combinations on zero-heavy random digraphs."""
    rep = report or ExperimentReport(
        "E1", "Theorem I.1(i): (h,k)-SSP rounds <= 2*sqrt(Delta h k)+h+k")
    for seed in seeds:
        for n in sizes:
            g = random_graph(n, p=0.25, w_max=6, zero_fraction=0.3, seed=seed)
            for h in (max(1, n // 4), max(1, n // 2), n - 1):
                for k in (1, max(1, n // 3), n):
                    srcs = list(range(0, n, max(1, n // k)))[:k]
                    res = run_hk_ssp(g, srcs, h)
                    rep.add({"seed": seed, "n": n, "h": h, "k": len(srcs),
                             "Delta": res.delta},
                            measured=res.last_sp_update_round,
                            bound=res.round_bound,
                            total_rounds=res.metrics.rounds)
    return rep


def sweep_theorem11_apsp(*, seeds: Sequence[int] = (0, 1, 2),
                         sizes: Sequence[int] = (8, 16, 24, 32, 48),
                         report: Optional[ExperimentReport] = None
                         ) -> ExperimentReport:
    """E2: APSP rounds vs ``2 n sqrt(Delta) + 2 n``."""
    rep = report or ExperimentReport(
        "E2", "Theorem I.1(ii): APSP rounds <= 2*n*sqrt(Delta)+2*n")
    for seed in seeds:
        for n in sizes:
            g = random_graph(n, p=min(0.25, 6.0 / n), w_max=5,
                             zero_fraction=0.3, seed=seed)
            res = run_apsp(g)
            rep.add({"seed": seed, "n": n, "Delta": res.delta},
                    measured=res.metrics.rounds,
                    bound=bounds_mod.theorem11_apsp(n, res.delta),
                    last_sp=res.last_sp_update_round)
    return rep


def sweep_theorem11_kssp(*, seeds: Sequence[int] = (0, 1),
                         sizes: Sequence[int] = (12, 20, 28),
                         report: Optional[ExperimentReport] = None
                         ) -> ExperimentReport:
    """E3: k-SSP rounds vs ``2 sqrt(Delta k n) + n + k``."""
    rep = report or ExperimentReport(
        "E3", "Theorem I.1(iii): k-SSP rounds <= 2*sqrt(Delta k n)+n+k")
    for seed in seeds:
        for n in sizes:
            g = random_graph(n, p=0.25, w_max=5, zero_fraction=0.3, seed=seed)
            for k in (1, max(2, n // 4), max(3, n // 2)):
                srcs = list(range(k))
                res = run_k_ssp(g, srcs)
                rep.add({"seed": seed, "n": n, "k": k, "Delta": res.delta},
                        measured=res.metrics.rounds,
                        bound=bounds_mod.theorem11_k_ssp(n, k, res.delta))
    return rep


def sweep_invariants(*, seeds: Sequence[int] = tuple(range(6)),
                     report: Optional[ExperimentReport] = None
                     ) -> ExperimentReport:
    """E4: Invariant 2's per-source list bound (sqrt(Delta h / k) + 1)
    and the one-send-per-round property (asserted inside the program)."""
    rep = report or ExperimentReport(
        "E4", "Invariant 2: per-source entries <= sqrt(Delta*h/k)+1 "
              "(budget-enforced; measured max shown)")
    for seed in seeds:
        n = 10 + 2 * (seed % 4)
        g = random_graph(n, p=0.3, w_max=6, zero_fraction=0.35, seed=seed)
        h = max(2, n // 2)
        srcs = list(range(0, n, 2))
        res = run_hk_ssp(g, srcs, h)
        bound = math.sqrt(res.delta * h / len(srcs)) + 1
        rep.add({"seed": seed, "n": n, "h": h, "k": len(srcs),
                 "Delta": res.delta},
                measured=res.max_entries_per_source,
                # the budget allows floor(sqrt(Delta h/k)) + 1, plus the
                # flag-d* entry that is never evicted: +1 slack
                bound=math.floor(bound) + 1,
                paper_bound=round(bound, 2),
                max_list_len=res.max_list_len)
    return rep


def sweep_short_range(*, seeds: Sequence[int] = (0, 1, 2),
                      sizes: Sequence[int] = (10, 16, 22),
                      report: Optional[ExperimentReport] = None
                      ) -> Tuple[ExperimentReport, ExperimentReport]:
    """E5: short-range dilation and congestion vs Lemma II.15."""
    rep_d = ExperimentReport(
        "E5a", "Lemma II.15 dilation: rounds <= ceil(Delta*sqrt(h)+h)+2")
    rep_c = ExperimentReport(
        "E5b", "Lemma II.15 congestion: per-node sends <= sqrt(h)+1")
    for seed in seeds:
        for n in sizes:
            g = random_graph(n, p=0.25, w_max=4, zero_fraction=0.4, seed=seed)
            for h in (2, max(2, n // 3), n - 1):
                res = run_short_range(g, seed % n, h)
                rep_d.add({"seed": seed, "n": n, "h": h, "Delta": res.delta},
                          measured=res.metrics.rounds, bound=res.dilation_bound)
                rep_c.add({"seed": seed, "n": n, "h": h},
                          measured=res.max_node_sends, bound=res.congestion_bound)
    if report is not None:  # pragma: no cover - convenience
        report.rows.extend(rep_d.rows + rep_c.rows)
    return rep_d, rep_c


def sweep_table1_exact(*, seeds: Sequence[int] = (0, 1),
                       sizes: Sequence[int] = (8, 12, 16),
                       report: Optional[ExperimentReport] = None
                       ) -> ExperimentReport:
    """E11: the Table I head-to-head -- measured rounds of Bellman-Ford
    APSP vs Algorithm 1 vs Algorithm 3 on common workloads."""
    rep = report or ExperimentReport(
        "E11", "Table I (exact APSP): measured rounds per algorithm")
    for seed in seeds:
        for n in sizes:
            g = zero_cluster_graph(max(2, n // 4), 4, link_weight_max=6,
                                   seed=seed)
            bf = run_bellman_ford_apsp(g)
            a1 = run_apsp(g)
            a3 = run_apsp_blocker(g)
            rep.add({"seed": seed, "n": g.n, "algorithm": "bellman-ford"},
                    measured=bf.metrics.rounds)
            rep.add({"seed": seed, "n": g.n, "algorithm": "pipelined (Alg 1)"},
                    measured=a1.metrics.rounds, bound=a1.round_bound)
            rep.add({"seed": seed, "n": g.n, "algorithm": "blocker (Alg 3)"},
                    measured=a3.metrics.rounds)
    return rep


class _PingPong(Program):
    """Nodes 0 and 1 bounce one token until round ``rounds``; every other
    node is isolated and never asks for a send phase."""

    def __init__(self, v: int, rounds: int) -> None:
        self.rounds = rounds
        self.send_at = 1 if v == 0 else None

    def on_send(self, ctx, r):
        self.send_at = None
        ctx.send(1 - ctx.node, "ping")

    def on_receive(self, ctx, r, inbox):
        if r < self.rounds:
            self.send_at = r + 1

    def next_active_round(self, ctx, r):
        return self.send_at


def sweep_idle_nodes(*, idle: Sequence[int] = (5_000, 20_000),
                     rounds: int = 3_000, repeats: int = 3,
                     max_ratio: float = 3.0,
                     report: Optional[ExperimentReport] = None
                     ) -> ExperimentReport:
    """E19: the object loop's cost per round follows the active nodes,
    not ``n``.

    Two nodes bounce a token for ``rounds`` rounds, once alone and once
    next to ``k`` isolated nodes that never send.  Only ``Network.run``
    is timed (construction is not), best of ``repeats``.  *measured* is
    the ratio of the two run times and *bound* is ``max_ratio``: a loop
    that scanned every node each round would pay O(n) per round and
    blow far past it, while the round-bucketed schedule pays only the
    O(n) start-up pass.  Both runs must count the same rounds and
    messages.
    """
    rep = report or ExperimentReport(
        "E19", "Idle-node scaling: object-loop run time with k isolated "
               "nodes next to one active pair, relative to the pair alone")

    def best_run(n):
        g = WeightedDigraph.from_edges(n, [(0, 1, 1), (1, 0, 1)])
        best, metrics = math.inf, None
        for _ in range(max(1, repeats)):
            net = Network(g, lambda v: _PingPong(v, rounds))
            t0 = time.perf_counter()
            metrics = net.run(rounds + 1)
            best = min(best, time.perf_counter() - t0)
        return best, metrics

    busy_s, busy_m = best_run(2)
    for k in idle:
        idle_s, m = best_run(2 + k)
        if (m.rounds, m.messages) != (busy_m.rounds, busy_m.messages):
            raise AssertionError(
                f"E19 idle={k}: idle nodes changed the execution "
                f"(rounds {m.rounds} vs {busy_m.rounds}, messages "
                f"{m.messages} vs {busy_m.messages})")
        rep.add({"idle": k, "rounds": m.rounds},
                measured=round(idle_s / busy_s, 2), bound=max_ratio,
                busy_s=round(busy_s, 4), idle_s=round(idle_s, 4))
    return rep


def sweep_node_kernels(*, sizes: Sequence[Tuple[int, int, int]] = (
                            (768, 96, 96), (1536, 192, 192)),
                       w: int = 4, repeats: int = 2, timing: bool = True,
                       report: Optional[ExperimentReport] = None
                       ) -> ExperimentReport:
    """E20: wall-clock speedup of the indexed node-state kernels over the
    naive linear-scan ``ReferenceNodeList`` inside Algorithm 1.

    With the object loop at O(active nodes) per round (E19), the
    remaining wall-clock is node-side: ``fire_at`` /
    ``next_fire_after`` rescanning every list entry per active round and
    the O(len) count queries of Steps 8-13.  That cost only shows when
    per-node lists are *long*, so -- unlike a single-source workload,
    whose path-graph lists hold one entry per source -- E20 spreads ``k``
    sources along a weighted path at the same largest size (each row is
    ``(n, k, h)``): every node's list carries ~k entries (two candidate
    directions per source, budget-capped), which is exactly the regime
    the kernels index.  Both arms run on the object loop (the reference
    backend), so the measured gap is purely the node-state kernels.

    Timing is interleaved best-of-``repeats`` (reference kernel then
    indexed kernel per repeat, each keeping its fastest).
    Every row differentially re-checks the two runs -- identical
    distances, hops, parents, round counts, message totals, and list
    statistics -- so a speedup can never come from the kernels quietly
    computing different things (the per-operation pin lives in
    tests/test_node_list_kernels.py).

    ``timing=False`` switches to the deterministic mode used by the
    ``obs bench`` smoke suite and its committed baseline: no clocks --
    ``measured`` is the (deterministic) round count and the row carries
    the differential-agreement flag, so the BENCH record is bit-stable
    across machines and ``--jobs`` values.

    ``measured`` (timing mode) is the speedup (reference kernel seconds /
    indexed kernel seconds); the CI gate lives in
    ``benchmarks/bench_node_kernels.py`` (fails below 1.5x at the
    largest size).
    """
    from ..graphs.reference import weak_delta_bound

    rep = report or ExperimentReport(
        "E20", "Node-state kernels: indexed vs linear-scan NodeList "
               "wall-clock inside Algorithm 1 (k sources spread on a "
               "weighted path, both arms on the object loop)")
    for n, k, h in sizes:
        g = path_graph(n, w=w)
        srcs = list(range(0, n, max(1, n // k)))[:k]
        delta = weak_delta_bound(g, srcs, h)

        def timed(kernel):
            t0 = time.perf_counter()
            r = run_hk_ssp(g, srcs, h, delta, backend="reference",
                           list_kernel=kernel, max_rounds=10 ** 7)
            return time.perf_counter() - t0, r

        ref_s = idx_s = math.inf
        ref_res = idx_res = None
        for _ in range(max(1, repeats if timing else 1)):
            dt, r = timed("reference")
            if dt < ref_s:
                ref_s, ref_res = dt, r
            dt, r = timed("indexed")
            if dt < idx_s:
                idx_s, idx_res = dt, r
        if (ref_res.dist != idx_res.dist or ref_res.hops != idx_res.hops
                or ref_res.parent != idx_res.parent):
            raise AssertionError(
                f"E20 n={n} k={k} h={h}: kernels disagree on outputs -- "
                f"speedup numbers would be meaningless (differential "
                f"suite escape, see tests/test_node_list_kernels.py)")
        if (ref_res.metrics.rounds != idx_res.metrics.rounds
                or ref_res.metrics.messages != idx_res.metrics.messages
                or ref_res.max_list_len != idx_res.max_list_len
                or ref_res.max_entries_per_source
                != idx_res.max_entries_per_source):
            raise AssertionError(
                f"E20 n={n} k={k} h={h}: kernels disagree on run "
                f"statistics (rounds {ref_res.metrics.rounds} vs "
                f"{idx_res.metrics.rounds}, messages "
                f"{ref_res.metrics.messages} vs "
                f"{idx_res.metrics.messages}, max list "
                f"{ref_res.max_list_len} vs {idx_res.max_list_len})")
        base = {"n": n, "k": len(srcs), "h": h, "w": w, "Delta": delta}
        if timing:
            rep.add(base, measured=round(ref_s / idx_s, 2),
                    ref_s=round(ref_s, 4),
                    indexed_s=round(idx_s, 4),
                    rounds=idx_res.metrics.rounds,
                    max_list=idx_res.max_list_len)
        else:
            rep.add(base, measured=idx_res.metrics.rounds,
                    messages=idx_res.metrics.messages,
                    max_list=idx_res.max_list_len,
                    max_per_source=idx_res.max_entries_per_source,
                    kernels_agree=1)
    return rep


def sweep_columnar(*, sides: Sequence[int] = (30, 60, 100), w_max: int = 6,
                   zero_fraction: float = 0.2, seed: int = 5,
                   repeats: int = 3, timing: bool = True,
                   report: Optional[ExperimentReport] = None
                   ) -> ExperimentReport:
    """E23: wall-clock speedup of the columnar bulk-synchronous backend
    over the object loop on grid-graph Bellman-Ford relaxation.

    The object loop costs O(active nodes) per round (E19) and E20 removed
    the node-side list scans; what remains on the hot path is per-message
    Python object traffic (an Envelope, a payload tuple, a Counter
    update, several method calls per message).  The columnar backend
    eliminates it for the relaxation family, so the workload here is the
    family's dense-wavefront regime: single-source ``run_bellman_ford``
    on a ``side x side`` random-weight grid (n up to the tens of
    thousands, ~2n edges, wavefronts thousands of nodes wide with
    repeated re-improvements under random weights), where message volume
    -- not scheduling -- dominates.  Both arms run the *identical*
    entry-point call; only ``backend=`` differs.

    Timing is interleaved best-of-``repeats`` (each repeat times the
    object loop then the columnar backend, each keeping its fastest),
    as in E20.  Every timed pair is
    differentially re-checked (distances, hops, parents, rounds,
    messages, words, per-channel and per-node counters), so a speedup
    can never come from the backends quietly computing different things.

    Each size produces one row per available bulk implementation
    (``impl="numpy"`` and, always, ``impl="python"`` -- the pure-Python
    fallback ships the same bulk semantics without numpy and gets its
    own number so the fallback cannot silently rot into a slowdown).

    ``timing=False`` switches to the deterministic mode used by the
    ``obs bench`` smoke suite and its committed baseline: no clocks --
    ``measured`` is the (deterministic) round count plus the
    differential-agreement flag, bit-stable across machines.

    ``measured`` (timing mode) is the speedup (object-loop seconds /
    columnar seconds); the CI gate lives in ``benchmarks/bench_columnar.py``
    (fails below 2x at the largest size).
    """
    from ..core.bellman_ford import run_bellman_ford
    from ..graphs import grid_graph
    from ..perf import columnar as columnar_mod

    rep = report or ExperimentReport(
        "E23", "Columnar backend speedup: bulk-synchronous array rounds "
               "vs the object loop's per-message delivery on grid "
               "Bellman-Ford (single source, random weights)")
    impls = (("numpy", "python") if columnar_mod._numpy() is not None
             else ("python",))
    for side in sides:
        g = grid_graph(side, side, w_max=w_max, zero_fraction=zero_fraction,
                       seed=seed)
        for impl in impls:

            def timed(backend):
                t0 = time.perf_counter()
                r = run_bellman_ford(g, 0, backend=backend)
                return time.perf_counter() - t0, r

            prev = columnar_mod.set_numpy_enabled(impl == "numpy")
            try:
                loop_s = col_s = math.inf
                loop_res = col_res = None
                for _ in range(max(1, repeats if timing else 1)):
                    dt, r = timed("reference")
                    if dt < loop_s:
                        loop_s, loop_res = dt, r
                    dt, c = timed("columnar")
                    if dt < col_s:
                        col_s, col_res = dt, c
            finally:
                columnar_mod.set_numpy_enabled(prev)
            if (loop_res.dist != col_res.dist
                    or loop_res.hops != col_res.hops
                    or loop_res.parent != col_res.parent):
                raise AssertionError(
                    f"E23 side={side} impl={impl}: backends disagree on "
                    f"outputs -- speedup numbers would be meaningless "
                    f"(conformance suite escape, see "
                    f"tests/backend_conformance.py)")
            ml, mc = loop_res.metrics, col_res.metrics
            if (ml.rounds != mc.rounds or ml.messages != mc.messages
                    or ml.words != mc.words
                    or ml.channel_messages != mc.channel_messages
                    or ml.node_sends != mc.node_sends):
                raise AssertionError(
                    f"E23 side={side} impl={impl}: backends disagree on "
                    f"metrics (rounds {ml.rounds} vs {mc.rounds}, "
                    f"messages {ml.messages} vs {mc.messages}, words "
                    f"{ml.words} vs {mc.words})")
            base = {"n": g.n, "rows": side, "cols": side, "impl": impl}
            if timing:
                rep.add(base, measured=round(loop_s / col_s, 2),
                        loop_s=round(loop_s, 4),
                        columnar_s=round(col_s, 4),
                        rounds=mc.rounds, messages=mc.messages)
            else:
                rep.add(base, measured=mc.rounds, messages=mc.messages,
                        words=mc.words, backends_agree=1)
    return rep


def sweep_columnar_pipelined(*, sizes: Sequence[Tuple[int, float, int, int]]
                             = ((128, 0.10, 16, 12), (192, 0.08, 24, 14),
                                (256, 0.07, 32, 16)),
                             w_max: int = 8, seed: int = 1,
                             repeats: int = 3, timing: bool = True,
                             report: Optional[ExperimentReport] = None
                             ) -> ExperimentReport:
    """E24: wall-clock speedup of the columnar pipelined (h, k)-SSP
    kernel over the object loop on the paper's actual algorithm.

    E23 vectorized the Bellman-Ford relaxation family; this sweep
    measures the tentpole that matters -- Algorithm 1 itself
    (``run_hk_ssp``) executing as bulk column passes
    (:mod:`repro.perf.columnar_pipelined`): the Step 1 send schedule as
    a rank bisection over the key column, Step 2 deliveries as one CSR
    gather per round, and insert_sp / eviction / nu-counting as column
    passes with the reference tie-break.

    The workload is the kernel's dense-wavefront regime: directed
    random graphs with ``k`` spread sources and ``h`` around the
    effective diameter, so each round carries thousands of messages and
    the per-message object traffic (Envelope, payload tuple, Counter
    updates, list_v method calls) the object loop pays is the dominant
    cost.  ``Delta`` is precomputed once per size via the sequential
    oracle and passed to **both** arms, so only the simulators are
    timed; each ``(n, p, k, h)`` size runs once per available bulk
    implementation (``impl="numpy"`` and, always, ``impl="python"`` --
    the fallback must stay faster than the object loop, not just
    exist).

    Timing is interleaved best-of-``repeats`` as in E20/E23, and
    every timed pair is differentially re-checked (distances, source
    set, Delta, rounds, messages, words, per-channel and per-node
    counters), so a speedup can never come from the backends quietly
    computing different things.

    ``timing=False`` switches to the deterministic mode used by the
    ``obs bench`` smoke suite and its committed baseline: no clocks --
    ``measured`` is the (deterministic) round count plus the
    differential-agreement flag, bit-stable across machines.

    ``measured`` (timing mode) is the speedup (object-loop seconds /
    columnar seconds); the CI gate lives in
    ``benchmarks/bench_columnar_pipelined.py`` (fails below 2x for the
    primary implementation at the largest size, or if the pure-Python
    fallback drops to/below 1x).
    """
    from ..graphs.reference import weak_delta_bound
    from ..perf import columnar as columnar_mod

    rep = report or ExperimentReport(
        "E24", "Columnar pipelined kernel speedup: Algorithm 1 as bulk "
               "column passes vs the object loop's per-message delivery on "
               "dense random (h, k)-SSP instances")
    impls = (("numpy", "python") if columnar_mod._numpy() is not None
             else ("python",))
    for n, p, k, h in sizes:
        g = random_graph(n, p=p, w_max=w_max, seed=seed, directed=True)
        srcs = list(range(0, n, max(1, n // k)))[:k]
        delta = weak_delta_bound(g, srcs, h)
        for impl in impls:

            def timed(backend):
                t0 = time.perf_counter()
                r = run_hk_ssp(g, srcs, h, delta, backend=backend)
                return time.perf_counter() - t0, r

            prev = columnar_mod.set_numpy_enabled(impl == "numpy")
            try:
                loop_s = col_s = math.inf
                loop_res = col_res = None
                for _ in range(max(1, repeats if timing else 1)):
                    dt, r = timed("reference")
                    if dt < loop_s:
                        loop_s, loop_res = dt, r
                    dt, c = timed("columnar")
                    if dt < col_s:
                        col_s, col_res = dt, c
            finally:
                columnar_mod.set_numpy_enabled(prev)
            if (loop_res.dist != col_res.dist
                    or loop_res.sources != col_res.sources
                    or loop_res.delta != col_res.delta):
                raise AssertionError(
                    f"E24 n={n} impl={impl}: backends disagree on "
                    f"outputs -- speedup numbers would be meaningless "
                    f"(conformance suite escape, see "
                    f"tests/backend_conformance.py)")
            ml, mc = loop_res.metrics, col_res.metrics
            if (ml.rounds != mc.rounds or ml.messages != mc.messages
                    or ml.words != mc.words
                    or ml.channel_messages != mc.channel_messages
                    or ml.node_sends != mc.node_sends):
                raise AssertionError(
                    f"E24 n={n} impl={impl}: backends disagree on "
                    f"metrics (rounds {ml.rounds} vs {mc.rounds}, "
                    f"messages {ml.messages} vs {mc.messages}, words "
                    f"{ml.words} vs {mc.words})")
            base = {"n": n, "p": p, "k": len(srcs), "h": h,
                    "Delta": delta, "impl": impl}
            if timing:
                rep.add(base, measured=round(loop_s / col_s, 2),
                        loop_s=round(loop_s, 4),
                        columnar_s=round(col_s, 4),
                        rounds=mc.rounds, messages=mc.messages)
            else:
                rep.add(base, measured=mc.rounds, messages=mc.messages,
                        words=mc.words, backends_agree=1)
    return rep


def sweep_fault_tolerance(*, drop_rates: Sequence[float] = (0.0, 0.01, 0.05, 0.1),
                          seeds: Sequence[int] = (0, 1),
                          sizes: Sequence[int] = (10, 14),
                          report: Optional[ExperimentReport] = None
                          ) -> ExperimentReport:
    """E18: rounds/messages overhead of the ack/retransmit wrapper under
    seeded message drops, with correctness checked against the
    sequential oracle at every point.

    Each row runs the *wrapped* Bellman-Ford or short-range algorithm at
    one drop rate; ``measured`` is the round count, ``bound`` is left
    open (there is no closed-form claim -- the interesting quantities are
    the ``overhead_*`` columns relative to the fault-free wrapped run at
    drop rate 0, plus the ``correct`` flag, which must hold at every
    drop rate for the resilience claim to stand).
    """
    from ..core.bellman_ford import run_bellman_ford
    from ..faults import FaultPlan
    from ..graphs.reference import dijkstra

    rep = report or ExperimentReport(
        "E18", "Resilience: wrapped algorithms converge to exact distances "
               "under seeded drops; overhead vs drop-free wrapped run")
    for seed in seeds:
        for n in sizes:
            g = random_graph(n, p=0.35, w_max=8, seed=seed)
            true, _ = dijkstra(g, 0)
            h = max(2, n // 2)
            base: dict = {}
            for rate in drop_rates:
                plan = FaultPlan(seed=seed + 1, drop_rate=rate)
                for algo, run in (
                        ("bellman-ford", lambda: run_bellman_ford(
                            g, 0, fault_plan=plan, resilient=True)),
                        ("short-range", lambda: run_short_range(
                            g, 0, h, fault_plan=plan, resilient=True))):
                    res = run()
                    m = res.metrics
                    if algo == "bellman-ford":
                        correct = res.dist == list(true)
                    else:
                        # short-range only promises h-hop-reachable nodes
                        correct = all(
                            res.dist[v] == true[v]
                            for v in range(n) if res.hops[v] <= h)
                    key = (seed, n, algo)
                    if rate == 0.0:
                        base[key] = m
                    b = base.get(key)
                    rep.add({"seed": seed, "n": n, "algorithm": algo,
                             "drop_rate": rate},
                            measured=m.rounds,
                            correct=correct,
                            messages=m.messages,
                            retransmissions=m.retransmissions,
                            ack_messages=m.ack_messages,
                            drops=m.faults.get("drops", 0),
                            overhead_rounds=(round(m.rounds / b.rounds, 2)
                                             if b and b.rounds else None),
                            overhead_messages=(round(m.messages / b.messages, 2)
                                               if b and b.messages else None))
    return rep


def sweep_recovery(*, seeds: Sequence[int] = (0, 1),
                   sizes: Sequence[int] = (10, 14),
                   report: Optional[ExperimentReport] = None
                   ) -> ExperimentReport:
    """E21: incremental re-convergence under churn -- rounds_to_repair of
    a :class:`~repro.recovery.DynamicRun` vs the from-scratch recompute
    cost, plus crash-during-update recovery pinned across backends.

    Two row families, both fully deterministic (no wall clock):

    * ``update=increase|decrease`` -- a single-edge weight change on a
      clean run; ``measured`` is ``rounds_to_repair`` (only the affected
      sources re-run), ``bound`` is the from-scratch recompute round
      count on the same updated graph (``compare_full=True``).  The
      repair must be correct (``correct=1`` from the Dijkstra oracle)
      and never cost more rounds than recomputing; when the update
      leaves some source's tree untouched it must be strictly cheaper.
    * ``update=crash`` -- the same single-edge update applied while a
      node crashes mid-repair and restarts from its checkpoint
      (delays + duplicates active), Dijkstra-checked; the row carries
      the instrumented digest (fault runs never reach a columnar
      kernel, so they run on the object loop only).
    """
    from ..faults.plan import CrashWindow, FaultPlan
    from ..recovery import DynamicRun, EdgeUpdate
    import random as _random

    rep = report or ExperimentReport(
        "E21", "Recovery: incremental repair rounds <= from-scratch "
               "recompute; crash-during-update runs oracle-correct")
    for seed in seeds:
        for n in sizes:
            g = random_graph(n, p=0.35, w_max=8, zero_fraction=0.2,
                             seed=seed)
            rng = _random.Random(seed * 1000 + n)
            sources = sorted(rng.sample(range(n), 3))
            u, v, w = rng.choice(sorted(g.edges()))
            for update, w_new in (("increase", w + 3),
                                  ("decrease", max(0, w - 1) if w else 0)):
                run = DynamicRun(g, sources, method="bellman-ford",
                                 compare_full=True)
                rec = run.apply(EdgeUpdate(u, v, w_new))
                correct = not run.oracle_check()
                assert rec.rounds_to_repair <= rec.full_rounds, (
                    f"E21 seed={seed} n={n} {update}: repair "
                    f"({rec.rounds_to_repair} rounds) costs more than the "
                    f"from-scratch recompute ({rec.full_rounds})")
                if len(rec.affected) < len(sources):
                    assert rec.rounds_to_repair < rec.full_rounds, (
                        f"E21 seed={seed} n={n} {update}: "
                        f"{len(rec.affected)}/{len(sources)} sources "
                        f"affected but repair was not strictly cheaper")
                rep.add({"seed": seed, "n": n, "update": update,
                         "k": len(sources), "affected": len(rec.affected)},
                        measured=rec.rounds_to_repair,
                        bound=rec.full_rounds,
                        correct=int(correct),
                        saved_rounds=rec.full_rounds - rec.rounds_to_repair)

            # Crash-during-update: same edge update, node crash +
            # checkpoint restart mid-repair.
            plan = FaultPlan(
                seed=seed + 1, delay_rate=0.1, duplicate_rate=0.05,
                max_delay=2,
                crashes=(CrashWindow(rng.randrange(n), 4, 10,
                                     restart_from="checkpoint"),))
            run = DynamicRun(g, sources, fault_plan=plan,
                             checkpoint_every=4, backend="reference")
            run.apply(EdgeUpdate(u, v, w + 3))
            assert not run.oracle_check(), (
                f"E21 seed={seed} n={n} crash: repaired to wrong "
                f"distances")
            rep.add({"seed": seed, "n": n, "update": "crash",
                     "k": len(sources), "affected": -1},
                    measured=run.metrics.rounds_to_repair,
                    correct=1,
                    digest=run.digest()[:12])
    return rep


def sweep_serving(*, sizes: Sequence[Tuple[int, float, int]] = (
                        (64, 0.08, 12000), (96, 0.05, 12000)),
                  seed: int = 0, skew: float = 1.2, repeats: int = 3,
                  timing: bool = True,
                  report: Optional[ExperimentReport] = None
                  ) -> ExperimentReport:
    """E22: the distance-oracle serving layer -- batched+cached queries
    per second vs the naive per-query table walk, plus incremental
    refresh and cross-backend table digests.

    Four row families per ``(n, p, queries)`` size (sparse graphs, so
    naive route walks are long -- the regime a cache pays in):

    * ``row=serve`` -- a seeded Zipf workload replayed against one
      :class:`~repro.serve.DistanceOracle` (object loop).  The batched
      answers are always asserted identical to the naive baseline's.
      In timing mode ``measured`` is naive seconds / batched+cached
      steady-state seconds (cache warmed by one pass, then best of
      ``repeats``) -- the quantity the >= 5x CI gate
      (benchmarks/bench_serving.py) checks at the largest size.
    * ``row=build`` -- shard materialization wall-clock, object loop
      vs ``backend="columnar"`` (the pipelined bulk kernel,
      :mod:`repro.perf.columnar_pipelined`, carries every shard's
      k-source run).  ``measured`` is object-loop seconds / columnar
      seconds
      (best of ``repeats``); the served-table digests and build round
      counts are always asserted identical (``tables_match``) -- the
      speedup is only reported for tables that are bit-equal.
    * ``row=refresh`` -- an :class:`~repro.recovery.EdgeUpdate` deleting
      a minimum-weight edge; ``measured`` is
      ``rounds_to_repair`` (deterministic), with the affected-source /
      rebuilt-shard / invalidated-cache-entry counts alongside, and the
      post-refresh tables re-checked against Dijkstra through the
      *cached* query path (``correct``).
    * ``row=digest`` -- a small oracle built and refreshed identically
      on both simulator backends (reference, columnar); asserts
      bit-identical :meth:`DistanceOracle.digest` values
      (``backends_agree``).

    ``timing=False`` switches to the deterministic mode used by the
    ``obs bench`` smoke suite: no clocks -- ``row=serve`` reports the
    table-build round count with the cache hit/miss tallies (exact
    replays of a seeded stream, so bit-stable across machines),
    ``row=build`` reports the (backend-invariant) build round count
    with the digest comparison still enforced; the refresh and digest
    rows are clock-free by construction.
    """
    from ..recovery import EdgeUpdate
    from ..serve import DistanceOracle, generate_workload

    rep = report or ExperimentReport(
        "E22", "Serving: batched+cached oracle queries/sec >= 5x naive "
               "table walks on Zipf traffic; incremental refresh "
               "Dijkstra-correct; table digests backend-pinned")
    for n, p, num_queries in sizes:
        g = random_graph(n, p=p, w_max=6, zero_fraction=0.2, seed=seed)
        oracle = DistanceOracle(g, num_shards=4, backend="reference")
        wl = generate_workload(n, num_queries, seed=seed, skew=skew)
        naive = oracle.serve_naive(wl)
        served = oracle.serve(wl)   # cold pass; also warms the cache
        if served != naive:
            raise AssertionError(
                f"E22 n={n}: batched+cached answers diverge from the "
                f"naive baseline -- speedup numbers would be "
                f"meaningless")
        base = {"n": n, "p": p, "queries": num_queries, "seed": seed,
                "skew": skew, "row": "serve"}
        if timing:
            naive_s = cached_s = math.inf
            for _ in range(max(1, repeats)):
                t0 = time.perf_counter()
                oracle.serve_naive(wl)
                naive_s = min(naive_s, time.perf_counter() - t0)
                t0 = time.perf_counter()
                oracle.serve(wl)
                cached_s = min(cached_s, time.perf_counter() - t0)
            rep.add(base, measured=round(naive_s / cached_s, 2),
                    qps_naive=round(num_queries / naive_s),
                    qps_cached=round(num_queries / cached_s),
                    hit_rate=round(oracle.cache.hit_rate, 3),
                    distinct_pairs=wl.distinct_pairs(),
                    answers_match=1)
        else:
            rep.add(base, measured=oracle.build_rounds,
                    cache_hits=oracle.cache.hits,
                    cache_misses=oracle.cache.misses,
                    distinct_pairs=wl.distinct_pairs(),
                    answers_match=1)

        # Shard build time: the same pipelined materialization on the
        # object loop vs the columnar bulk kernel.  Built before the
        # refresh below mutates the serving graph.
        bbase = {"n": n, "p": p, "queries": num_queries, "seed": seed,
                 "skew": skew, "row": "build"}
        build_s = {"reference": math.inf, "columnar": math.inf}
        built = {}
        for _ in range(max(1, repeats) if timing else 1):
            for backend_name in ("reference", "columnar"):
                t0 = time.perf_counter()
                built[backend_name] = DistanceOracle(
                    g, num_shards=4, method="pipelined",
                    backend=backend_name, cache_size=0)
                build_s[backend_name] = min(
                    build_s[backend_name], time.perf_counter() - t0)
        if (built["reference"].digest() != built["columnar"].digest()
                or built["reference"].build_rounds
                != built["columnar"].build_rounds):
            raise AssertionError(
                f"E22 n={n}: columnar shard build diverges from the "
                f"object loop -- build speedup would be meaningless")
        if timing:
            rep.add(bbase,
                    measured=round(
                        build_s["reference"] / build_s["columnar"], 2),
                    build_s_loop=round(build_s["reference"], 4),
                    build_s_columnar=round(build_s["columnar"], 4),
                    build_rounds=built["columnar"].build_rounds,
                    tables_match=1)
        else:
            rep.add(bbase, measured=built["columnar"].build_rounds,
                    tables_match=1)

        # Incremental refresh: delete a minimum-weight edge (near-certain
        # to sit on shortest-path trees) and re-serve.
        u, v, w = min(sorted(g.edges()), key=lambda e: (e[2], e))
        rec = oracle.refresh(EdgeUpdate(u, v, None))
        correct = not oracle.oracle_check(sample=20 * n, seed=seed)
        assert correct, (
            f"E22 n={n}: post-refresh served distances diverge from "
            f"Dijkstra on the updated graph")
        rep.add({"n": n, "p": p, "queries": num_queries, "seed": seed,
                 "skew": skew, "row": "refresh"},
                measured=rec.rounds_to_repair,
                affected=len(rec.affected_sources),
                shards_rebuilt=len(rec.rebuilt_shards),
                invalidated=rec.invalidated_entries,
                epoch=rec.epoch,
                correct=int(correct))

    # Cross-backend pinning: identical build + refresh on both
    # simulator backends must serve bit-identical tables.
    n_pin = 20
    g = random_graph(n_pin, p=0.3, w_max=8, zero_fraction=0.2, seed=seed)
    u, v, w = min(sorted(g.edges()), key=lambda e: (e[2], e))
    digests = {}
    for backend in ("reference", "columnar"):
        o = DistanceOracle(g, num_shards=3, method="pipelined",
                           backend=backend)
        o.refresh(EdgeUpdate(u, v, None))
        assert not o.oracle_check(), (
            f"E22 digest row: backend {backend} serves wrong distances")
        digests[backend] = o.digest()
    assert len(set(digests.values())) == 1, (
        f"E22: backends disagree on the served-table digest -- "
        + ", ".join(f"{b} {d[:12]}" for b, d in digests.items()))
    rep.add({"n": n_pin, "p": 0.3, "queries": 0, "seed": seed,
             "skew": skew, "row": "digest"},
            measured=1, backends_agree=1,
            digest=digests["reference"][:12])
    return rep
