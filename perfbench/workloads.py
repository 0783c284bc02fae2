"""The benchmark's workloads and the measured pass each of them repeats.

Every workload runs the same public entry points on its own inputs:
``core.apsp`` bare and observed, the sequential floor
(``graphs.reference.apsp``), and a ``DistanceOracle`` that is built,
driven by an open loop of seeded Zipf queries with inline refreshes, and
then saturated by a closed-loop pass.  The workloads differ in graph,
method, backend and traffic mix, so a gain on one path cannot hide a
loss on another (see ``BENCHMARK.json`` for why each was chosen).

A *pass* is a fixed unit of work: every graph of the workload gets the
full treatment once.  An untraced run makes one pass and then goes on
graph by graph while time is left; a traced run repeats whole passes,
so its simulated work is identical from pass to pass and the per-layer
numbers are reported per pass.

Each run uses many small graphs rather than one large one: solve cost
varies by about 10-15% from one random graph to the next, and the mean
over twelve graphs keeps that input variance small next to the host's.

All checks against the sequential oracle run outside the timed regions;
inside the open loop the schedule is paused while they run.

Every end-to-end time is reported in *reference seconds*: the host time
times ``speed()``, a probe of the host's speed taken right next to the
measurement.  On a shared 2-core x86 host the speed of plain Python code
swings by up to 1.6x within seconds, with other tenants' load.  In raw
host seconds, two sets of ten seeds of the same code gave medians up to
22% apart and spreads (IQR over median) up to 0.37; in reference
seconds, the medians of two such sets agree within 8% and every spread
stays under 0.12.  The probe is the benchmark's own code, so no change
to the library moves it.
"""

from __future__ import annotations

import gc
import hashlib
import random
import statistics
from array import array
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter as clock
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import core, graphs
from repro.graphs import reference
from repro.obs import MetricsRegistry, Tracer
from repro.recovery import EdgeUpdate
from repro.serve import DistanceOracle
from repro.serve.workload import Query, generate_workload

INF = float("inf")
#: Queries per ``query_batch`` call, in the open loop and the closed pass.
MAX_BATCH = 256
_MISS = object()

#: Graphs per pass, each with its own query stream and update plan.
GRAPHS = 12
#: Open loop: query rate, due-time length per graph and refresh interval.
#: The rate is a fraction of the loop's capacity, and inline refreshes
#: stall it for well under half of the time (about 10% and 20% at this
#: commit), so p50 stays a read latency and p99 falls inside the refresh
#: stalls.
RATE_QPS = 20_000
OPEN_S = 1.2
REFRESH_EVERY_S = 0.4
#: Query stream per graph: length, Zipf skew and share of path queries.
STREAM_LEN = 10_000
SKEW = 1.2
PATH_FRACTION = 0.5
#: Dijkstra floor and closed-loop capacity repetitions per graph.
FLOOR_REPS = 5
CAPACITY_REPS = 3
#: Served answers compared with Dijkstra after every refresh.
CHECK_PAIRS = 16
#: Time of one run of ``_probe_work`` at the reference speed: about its
#: median on a shared 2-core x86 host with Python 3.11, where it swings
#: between 0.4 and 0.7 ms.
PROBE_REF_S = 0.6e-3


@dataclass(frozen=True)
class Workload:
    name: str
    #: Nodes and edge probability of ``graphs.random_graph``.
    n: int
    p: float
    #: ``core.apsp`` / ``DistanceOracle`` options; ``None`` leaves the
    #: library default in place.
    method: Optional[str]
    backend: Optional[str]
    #: ``EdgeUpdate`` events per refresh.
    updates_per_refresh: int
    #: Refreshes applied back to back after the closed-loop pass, for
    #: more ``refresh_s`` samples than the open loop alone gives.
    burst_refreshes: int
    #: Share of the full pass: graphs per pass, open-loop length and
    #: query stream shrink with it (the tests run small ones).
    scale: float = 1.0

    @property
    def options(self) -> Dict[str, str]:
        return {k: v for k, v in (("method", self.method),
                                  ("backend", self.backend)) if v is not None}

    @property
    def graphs(self) -> int:
        return max(1, round(GRAPHS * self.scale))

    @property
    def stream_len(self) -> int:
        return max(MAX_BATCH, round(STREAM_LEN * self.scale))

    @property
    def loop_queries(self) -> int:
        return round(OPEN_S * self.scale * RATE_QPS)

    @property
    def refresh_every(self) -> int:
        return max(1, round(REFRESH_EVERY_S * self.scale * RATE_QPS))

    @property
    def loop_refreshes(self) -> int:
        return (self.loop_queries - 1) // self.refresh_every


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # Theorem I.1(ii) on the columnar pipelined kernel; the observed
    # solve is the same call with a Tracer and a MetricsRegistry.  The
    # oracle serves from, and repairs on, the same kernel.
    Workload("apsp-dense", n=24, p=0.2, method="pipelined",
             backend="columnar", updates_per_refresh=8, burst_refreshes=7),
    # No options anywhere: `auto` picks Algorithm 3 on the reference
    # loop, and the oracle picks its own method per shard and repair.
    Workload("apsp-default", n=24, p=0.15, method=None, backend=None,
             updates_per_refresh=6, burst_refreshes=3),
)}


@dataclass
class Inputs:
    graphs: List[Any]
    streams: List[List[Query]]
    plans: List[List[Tuple[EdgeUpdate, ...]]]


def make_inputs(wl: Workload, seed: int) -> Inputs:
    """The workload's inputs; the same seed gives the same inputs."""
    rng = random.Random(f"perfbench:{wl.name}:{seed}")
    gs, streams, plans = [], [], []
    for _ in range(wl.graphs):
        g = graphs.random_graph(wl.n, p=wl.p, seed=rng.randrange(2 ** 31))
        stream = list(generate_workload(
            wl.n, wl.stream_len, seed=rng.randrange(2 ** 31), skew=SKEW,
            path_fraction=PATH_FRACTION).queries)
        # Refreshes change arc weights by one, within the generator's
        # [1, 10]: the arc set, and so the plan, stays valid, and each
        # update affects the sources whose shortest paths use the arc.
        weights = {(u, v): w for u, v, w in g.edges()}
        arcs = sorted(weights)
        plan = []
        for _ in range(wl.loop_refreshes + wl.burst_refreshes):
            events = []
            for arc in rng.sample(arcs, wl.updates_per_refresh):
                w = weights[arc]
                w = w + 1 if w <= 1 else w - 1 if w >= 10 else \
                    w + rng.choice((-1, 1))
                weights[arc] = w
                events.append(EdgeUpdate(arc[0], arc[1], w))
            plan.append(tuple(events))
        gs.append(g)
        streams.append(stream)
        plans.append(plan)
    return Inputs(gs, streams, plans)


def warm_up(wl: Workload, seed: int) -> None:
    """Run every entry point once on a small graph, so lazy imports and
    one-time set-up happen before the first timed operation."""
    g = graphs.random_graph(10, p=0.3, seed=seed)
    core.apsp(g, **wl.options)
    core.apsp(g, tracer=Tracer(), registry=MetricsRegistry(), **wl.options)
    reference.apsp(g)
    oracle = DistanceOracle(g, **wl.options)
    stream = list(generate_workload(10, 64, seed=seed).queries)
    oracle.query_batch(stream)
    u, v, w = next(iter(g.edges()))
    oracle.refresh(EdgeUpdate(u, v, w + 1))
    oracle.serve(stream)


def setup(wl: Workload, seed: int) -> Tuple[Inputs, float]:
    """Input generation plus warm-up; returns the inputs and their time."""
    t = clock()
    inputs = make_inputs(wl, seed)
    warm_up(wl, seed)
    return inputs, clock() - t


def _probe_work() -> None:
    d: Dict[int, int] = {}
    for i in range(4000):
        k = i % 251
        d[k] = d.get(k, 0) + i


def speed() -> float:
    """Reference seconds per host second, probed now (median of three)."""
    times = []
    for _ in range(3):
        t = clock()
        _probe_work()
        times.append(clock() - t)
    return PROBE_REF_S / statistics.median(times)


def ref_s_since(t: float) -> float:
    """Reference seconds since the ``clock()`` reading *t*; the probe
    runs after the clock is read."""
    dt = clock() - t
    return dt * speed()


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank percentile, or ``None`` when fewer than ten samples
    lie beyond it."""
    n = len(values)
    rank = -(-int(round(q * 10_000)) * n // 10_000)  # ceil(q * n)
    if n - rank < 10 or rank < 1:
        return None
    return sorted(values)[rank - 1]


def _mean_of_medians(per_graph: List[List[float]]) -> float:
    return statistics.fmean(statistics.median(s) for s in per_graph if s)


class Runner:
    """Runs passes of one workload and keeps every sample and check.

    With a ``layers.Recorder`` the benchmark's own code is recorded as
    ``bench.harness`` / ``bench.check`` spans and the open loop's waits
    as ``serve.idle``, so the self times cover the whole pass.
    """

    def __init__(self, wl: Workload, inputs: Inputs, rec: Any = None) -> None:
        self.wl = wl
        self.inputs = inputs
        self.rec = rec
        g = wl.graphs
        self.samples: Dict[str, List[List[float]]] = {
            k: [[] for _ in range(g)]
            for k in ("floor", "solve", "observed", "build")}
        self.graph_s: List[List[float]] = [[] for _ in range(g)]
        # 8 bytes a sample, so the benchmark's own memory, which grows
        # with the number of queries run, stays small in peak_rss_mb.
        self.latencies = array("d")
        self.refresh_s: List[float] = []
        self.capacity_qps: List[float] = []
        self.lags = array("d")
        self.backlog_max = 0
        self.serve = Counter()
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.truth: List[Any] = [None] * g
        self.work: List[Optional[Tuple[int, int]]] = [None] * g
        self.oracle_digests: List[Optional[str]] = [None] * g
        self.solve_digests: List[Optional[str]] = [None] * g

    # -- bookkeeping ---------------------------------------------------

    def op(self, bucket: str) -> Any:
        return self.rec.op(bucket) if self.rec is not None else nullcontext()

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def digest(self) -> str:
        h = hashlib.sha256()
        for part in self.solve_digests + self.oracle_digests:
            h.update(str(part).encode())
        return h.hexdigest()

    # -- one pass ------------------------------------------------------

    def run_pass(self) -> None:
        for gi in range(self.wl.graphs):
            self.run_graph(gi)
        self.passes += 1

    def run_graph(self, gi: int) -> None:
        """Every operation of the workload, once, on graph *gi*."""
        t = clock()
        self._floor(gi)
        self._solve(gi, observed=False)
        self._solve(gi, observed=True)
        self._serve(gi)
        self.graph_s[gi].append(clock() - t)

    def _floor(self, gi: int) -> None:
        g = self.inputs.graphs[gi]
        with self.op("bench.harness"):
            gc.collect()
            for _ in range(FLOOR_REPS):
                t = clock()
                truth = reference.apsp(g)
                self.samples["floor"][gi].append(ref_s_since(t))
        self.truth[gi] = truth

    def _solve(self, gi: int, observed: bool) -> None:
        g = self.inputs.graphs[gi]
        kwargs: Dict[str, Any] = dict(self.wl.options)
        if observed:
            kwargs.update(tracer=Tracer(), registry=MetricsRegistry())
        with self.op("bench.harness"):
            gc.collect()
            t = clock()
            res = core.apsp(g, **kwargs)
            dt = ref_s_since(t)
        self.samples["observed" if observed else "solve"][gi].append(dt)
        with self.op("bench.check"):
            self._check_solve(gi, res, "observed" if observed else "bare")

    def _check_solve(self, gi: int, res: Any, kind: str) -> None:
        truth = self.truth[gi]
        n = len(truth)
        self.check(all(res.dist[x] == truth[x] for x in range(n)),
                   f"graph {gi} {kind} solve: distances differ from Dijkstra")
        bound = getattr(res, "round_bound", None)
        rounds = res.metrics.rounds
        if bound is not None:
            self.check(rounds <= bound, f"graph {gi} {kind} solve: "
                       f"{rounds} rounds > round_bound {bound}")
        work = (rounds, res.metrics.messages)
        if self.work[gi] is None:
            self.work[gi] = work
            h = hashlib.sha256(repr(work).encode())
            for x in range(n):
                h.update(repr(res.dist[x]).encode())
            self.solve_digests[gi] = h.hexdigest()
        self.check(work == self.work[gi], f"graph {gi} {kind} solve: "
                   f"(rounds, messages) {work} != {self.work[gi]}")

    def _serve(self, gi: int) -> None:
        g = self.inputs.graphs[gi]
        stream = self.inputs.streams[gi]
        with self.op("bench.harness"):
            gc.collect()
            t = clock()
            oracle = DistanceOracle(g, **self.wl.options)
            self.samples["build"][gi].append(ref_s_since(t))
            self._open_loop(oracle, gi)
            for _ in range(CAPACITY_REPS):
                t = clock()
                answers = oracle.serve(stream, batch_size=MAX_BATCH)
                self.capacity_qps.append(len(stream) / ref_s_since(t))
        with self.op("bench.check"):
            self._check_answers(oracle, gi, stream, answers)
        plan = self.inputs.plans[gi]
        for r in range(self.wl.loop_refreshes, len(plan)):
            with self.op("bench.harness"):
                self._refresh(oracle, plan[r])
            with self.op("bench.check"):
                self._check_served(oracle, gi, r)
        with self.op("bench.check"):
            digest = oracle.digest()
            if self.oracle_digests[gi] is None:
                self.oracle_digests[gi] = digest
            self.check(digest == self.oracle_digests[gi],
                       f"graph {gi}: oracle digest changed between passes")
        cache = oracle.cache
        self.serve["hits"] += cache.hits
        self.serve["misses"] += cache.misses

    def _open_loop(self, oracle: Any, gi: int) -> None:
        """Queries due every ``1/rate`` seconds, refreshes due at fixed
        query indices; each query's latency runs from its due time.  The
        speed is probed while the schedule is paused: before the loop and
        after each refresh."""
        wl = self.wl
        stream = self.inputs.streams[gi]
        plan = self.inputs.plans[gi]
        period = 1.0 / RATE_QPS
        total = wl.loop_queries
        every = wl.refresh_every
        size = len(stream)
        lat, lags, rec = self.latencies, self.lags, self.rec
        query_batch = oracle.query_batch
        r = 0
        next_refresh = every if wl.loop_refreshes else total
        i = 0
        scale = speed()
        t0 = clock()
        while i < total:
            now = clock()
            if i == next_refresh:
                due = t0 + i * period
                if now < due:
                    while clock() < due:
                        pass
                    if rec is not None:
                        rec.leaf("serve.idle", clock() - now)
                paused = self._refresh(oracle, plan[r])
                scale = speed()
                with self.op("bench.check"):
                    self._check_served(oracle, gi, r)
                t0 += clock() - paused
                r += 1
                next_refresh = every * (r + 1) if r < wl.loop_refreshes \
                    else total
                continue
            due_hi = int((now - t0) / period) + 1
            if due_hi <= i:
                due = t0 + i * period
                while clock() < due:
                    pass
                if rec is not None:
                    rec.leaf("serve.idle", clock() - now)
                continue
            hi = min(due_hi, i + MAX_BATCH, next_refresh, total,
                     (i // size + 1) * size)
            if min(due_hi, total) - i > self.backlog_max:
                self.backlog_max = min(due_hi, total) - i
            lags.append(now - (t0 + i * period))
            a = i % size
            try:
                query_batch(stream[a:a + hi - i])
            except Exception as exc:  # a failed query misses every limit
                self.check(False, f"graph {gi}: query_batch raised {exc!r}")
                lat.extend([INF] * (hi - i))
                i = hi
                continue
            self.serve["batches"] += 1
            base = clock() - t0
            lat.extend([(base - j * period) * scale for j in range(i, hi)])
            i = hi

    def _refresh(self, oracle: Any, events: Tuple[EdgeUpdate, ...]) -> float:
        """Apply one refresh; returns the ``clock()`` reading at which it
        ended, before the speed probe, for an open loop to pause from."""
        t = clock()
        record = oracle.refresh(*events)
        end = clock()
        self.refresh_s.append((end - t) * speed())
        self.serve["affected"] += len(record.affected_sources)
        self.serve["rounds_to_repair"] += record.rounds_to_repair
        self.serve["invalidated"] += record.invalidated_entries
        return end

    # -- checks against the sequential oracle --------------------------

    def _check_served(self, oracle: Any, gi: int, r: int) -> None:
        """After refresh *r*: a seeded sample of served answers, cached
        and uncached, against Dijkstra on the current graph."""
        rng = random.Random(f"check:{gi}:{r}")
        g = oracle.graph
        view = oracle.view
        data = oracle.cache.batch_view()
        keys = list(data.keys())
        half = CHECK_PAIRS // 2
        pairs = [keys[rng.randrange(len(keys))] for _ in range(half)] \
            if keys else []
        pairs += [(rng.choice(oracle.sources), rng.randrange(g.n))
                  for _ in range(CHECK_PAIRS - len(pairs))]
        rows: Dict[int, List[float]] = {}
        for u, v in pairs:
            if u not in rows:
                rows[u] = reference.dijkstra(g, u)[0]
            want = rows[u][v]
            served = [view.shard_for(u).table.distance(u, v)]
            entry = data.get((u, v), _MISS)
            if entry is not _MISS:
                served.append(INF if entry is None else entry.distance)
            self.check(all(d == want for d in served),
                       f"graph {gi} refresh {r}: served {u}->{v} = "
                       f"{served}, Dijkstra {want}")

    def _check_answers(self, oracle: Any, gi: int, stream: List[Query],
                       answers: List[Any]) -> None:
        """Every answer of the closed-loop pass against Dijkstra."""
        g = oracle.graph
        rows: Dict[int, List[float]] = {}
        routes_ok: Dict[Tuple[int, int], bool] = {}
        self.check(len(answers) == len(stream),
                   f"graph {gi}: {len(answers)} answers for {len(stream)} "
                   f"queries")
        for q, a in zip(stream, answers):
            u, v = q.u, q.v
            if u not in rows:
                rows[u] = reference.dijkstra(g, u)[0]
            want = rows[u][v]
            if q.kind == "distance":
                good = a == want
            elif want == INF:
                good = a is None
            else:
                good = routes_ok.get((u, v))
                if good is None:
                    good = routes_ok[(u, v)] = _route_ok(g, a, u, v, want)
            self.check(bool(good), f"graph {gi}: {q} answered {a!r}, "
                       f"Dijkstra {want}")

    # -- results ---------------------------------------------------------

    def end_to_end(self) -> Dict[str, Tuple[float, str, int]]:
        """End-to-end metrics: name -> (value, unit, sample count).
        ``setup_s`` and ``peak_rss_mb`` are added by the caller."""
        s = self.samples
        solve = _mean_of_medians(s["solve"])
        floor = _mean_of_medians(s["floor"])
        count = sum(len(x) for x in s["solve"])
        work = [w for w in self.work if w is not None]
        lat = self.latencies
        out = {
            "solve_s": (solve, "s", count),
            "observed_solve_s": (_mean_of_medians(s["observed"]), "s",
                                 sum(len(x) for x in s["observed"])),
            "x_floor": (solve / floor, "ratio", count),
            "rounds": (statistics.fmean(w[0] for w in work), "count",
                       len(work)),
            "messages": (statistics.fmean(w[1] for w in work), "count",
                         len(work)),
            "build_s": (_mean_of_medians(s["build"]), "s",
                        sum(len(x) for x in s["build"])),
            "refresh_s": (statistics.median(self.refresh_s), "s",
                          len(self.refresh_s)),
            "capacity_qps": (statistics.median(self.capacity_qps), "1/s",
                             len(self.capacity_qps)),
        }
        for name, q in (("query_p50_us", 0.50), ("query_p99_us", 0.99)):
            value = percentile(lat, q)
            if value is not None:
                out[name] = (value * 1e6, "us", len(lat))
        return out

    def layer_extra(self) -> Dict[str, float]:
        """Per-pass per-layer figures the workload measures itself."""
        per = 1.0 / self.passes
        hits, misses = self.serve["hits"], self.serve["misses"]
        late = percentile(self.lags, 0.99)
        return {
            "serve.batches": self.serve["batches"] * per,
            "serve.cache.hits": hits * per,
            "serve.cache.misses": misses * per,
            "serve.cache.hit_rate": hits / (hits + misses)
            if hits + misses else 0.0,
            "serve.refresh.affected_sources": self.serve["affected"] * per,
            "serve.refresh.rounds_to_repair":
                self.serve["rounds_to_repair"] * per,
            "serve.refresh.invalidated": self.serve["invalidated"] * per,
            "serve.gen_late_ms": (late if late is not None
                                  else max(self.lags, default=0.0)) * 1e3,
            "serve.backlog_max": float(self.backlog_max),
        }

    def obs_overhead(self) -> float:
        """Observed over bare solve time (the base is ``solve_s``)."""
        return (_mean_of_medians(self.samples["observed"])
                / _mean_of_medians(self.samples["solve"]))


def _route_ok(g: Any, route: Any, u: int, v: int, want: float) -> bool:
    if route is None or route.distance != want:
        return False
    path = route.path
    if not path or path[0] != u or path[-1] != v:
        return False
    total = 0
    for a, b in zip(path, path[1:]):
        w = g.weight(a, b)
        if w is None:
            return False
        total += w
    return total == want


def run_passes(runner: Runner, seconds: float) -> float:
    """Whole passes while another one still fits in *seconds* (at least
    one); returns the wall time of those passes."""
    start = clock()
    while True:
        t = clock()
        runner.run_pass()
        last = clock() - t
        elapsed = clock() - start
        if elapsed + last > seconds:
            return elapsed


def run_graphs(runner: Runner, seconds: float) -> None:
    """One whole pass, then more graphs round-robin while the next one
    is expected to fit in *seconds*."""
    start = clock()
    runner.run_pass()
    graphs_run = runner.wl.graphs
    gi = 0
    while True:
        elapsed = clock() - start
        if elapsed + elapsed / graphs_run > seconds:
            return
        runner.run_graph(gi)
        graphs_run += 1
        gi = (gi + 1) % runner.wl.graphs
