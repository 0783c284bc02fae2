"""The distance oracle: pipelined APSP tables behind a query surface.

:class:`DistanceOracle` is the product the paper's algorithms exist
for.  It materializes full distance + next-hop tables by running the
pipelined k-SSP algorithms **shard by shard** (the source set is
partitioned round-robin and each partition runs as its own k-source
computation -- the paper's k-source decomposition, and the same shape
as nx-parallel's per-source fan-out), wraps each shard in a
:class:`~repro.core.RoutingTable`, and answers ``distance(u, v)`` /
``path(u, v)`` point queries out of them.

Epoch-versioned tables
----------------------
Queries never lock.  All shard state hangs off one immutable
:class:`TableView` object; a query captures the current view once and
reads only it, so a concurrent :meth:`DistanceOracle.refresh` -- which
builds *new* shard objects for the affected sources and publishes a
whole new view -- can never show a query a half-swapped table.
In-flight queries simply finish against the epoch they started on.

Incremental refresh
-------------------
Edge/node churn goes through :class:`repro.recovery.DynamicRun` (with
``keep_parents``): only the sources the update can affect are
recomputed by the k-source pipeline, only the shards containing them
are rebuilt, and only those sources' cache entries are invalidated --
answers for unaffected sources stay cached and correct across the
swap.  ``tests/test_serve_churn.py`` property-checks the end-to-end
guarantee against the Dijkstra oracle.

Batched execution
-----------------
:meth:`DistanceOracle.query_batch` groups a batch by source, binds each
group's distance/parent rows once, and walks paths with local-variable
lookups -- the per-query shard/attribute overhead is paid once per
group instead of once per query.  The asyncio front-end
(:mod:`repro.serve.frontend`) feeds batches through a thread pool.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.routing import INF, Route, RoutingTable
from ..graphs.digraph import WeightedDigraph
from .cache import RouteCache
from .workload import Query

_MISS = object()


@dataclass(frozen=True)
class TableShard:
    """One source-partition's routing table at one epoch."""

    index: int
    sources: Tuple[int, ...]
    table: RoutingTable
    epoch: int


@dataclass(frozen=True)
class TableView:
    """An immutable snapshot of every shard at one epoch.

    ``shard_of`` maps source -> shard index.  A refresh replaces the
    whole view; readers that captured the old one keep a complete,
    consistent table for the duration of their query.
    """

    epoch: int
    shards: Tuple[TableShard, ...]
    shard_of: Dict[int, int]

    def shard_for(self, source: int) -> TableShard:
        idx = self.shard_of.get(source)
        if idx is None:
            raise KeyError(f"{source} is not a served source")
        return self.shards[idx]


@dataclass(frozen=True)
class RefreshRecord:
    """What one :meth:`DistanceOracle.refresh` did."""

    epoch: int
    affected_sources: Tuple[int, ...]
    rebuilt_shards: Tuple[int, ...]
    rounds_to_repair: int
    invalidated_entries: int


class DistanceOracle:
    """Serve point-to-point shortest-path queries from pipelined APSP.

    Parameters
    ----------
    graph:
        The :class:`~repro.graphs.WeightedDigraph` to serve.
    sources:
        Query origins to materialize (default: every node = APSP).
    num_shards:
        Source partitions; each builds as its own k-source run and
        swaps independently on refresh (default: ~sqrt(k), capped so a
        shard never goes empty).
    method / backend:
        Passed to :func:`repro.core.api.k_ssp` per shard -- the
        columnar backend builds the same tables in less wall-clock.
    cache_size:
        LRU route-cache capacity (0 disables caching).
    registry:
        Optional :class:`repro.obs.MetricsRegistry`; the oracle
        publishes ``serve.queries``, ``serve.batches``,
        ``serve.cache_*``, ``serve.refreshes``,
        ``serve.refresh_rounds``, and a ``serve.epoch`` gauge into it.
    """

    def __init__(self, graph: WeightedDigraph,
                 sources: Optional[Sequence[int]] = None, *,
                 num_shards: Optional[int] = None,
                 method: str = "auto",
                 backend: Optional[str] = None,
                 cache_size: int = 4096,
                 registry: Any = None) -> None:
        if sources is None:
            sources = range(graph.n)
        self.sources: Tuple[int, ...] = tuple(dict.fromkeys(sources))
        if not self.sources:
            raise ValueError("need at least one source to serve")
        for s in self.sources:
            if not (0 <= s < graph.n):
                raise ValueError(
                    f"source {s} out of range for n={graph.n}")
        k = len(self.sources)
        if num_shards is None:
            num_shards = max(1, int(round(k ** 0.5)))
        if not (1 <= num_shards <= k):
            raise ValueError(
                f"num_shards must be in [1, {k}], got {num_shards}")
        self.num_shards = num_shards
        self.method = method
        self.backend = backend
        self.registry = registry
        self.cache = RouteCache(cache_size, registry=registry)
        self._queries = registry.counter("serve.queries") \
            if registry is not None else None
        self._batches = registry.counter("serve.batches") \
            if registry is not None else None
        self._epoch_gauge = registry.gauge("serve.epoch") \
            if registry is not None else None

        self.graph = graph
        self._partitions: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(self.sources[i::num_shards]) for i in range(num_shards))
        self._dyn = None  # lazy: built on first refresh
        self.refreshes: List[RefreshRecord] = []
        self._build_rounds = 0
        self._view = self._materialize()
        if self._epoch_gauge is not None:
            self._epoch_gauge.set(self._view.epoch)

    # -- table materialization ----------------------------------------

    def _materialize(self) -> TableView:
        """Run the k-source pipeline once per partition and wrap the
        results into epoch-0 shards."""
        from ..core.api import k_ssp
        shards: List[TableShard] = []
        shard_of: Dict[int, int] = {}
        for i, part in enumerate(self._partitions):
            res = k_ssp(self.graph, list(part), method=self.method,
                        backend=self.backend)
            table = RoutingTable(
                self.graph,
                {s: res.dist[s] for s in part},
                {s: res.parent[s] for s in part})
            self._build_rounds += res.metrics.rounds
            shards.append(TableShard(i, part, table, epoch=0))
            for s in part:
                shard_of[s] = i
        return TableView(0, tuple(shards), shard_of)

    @property
    def epoch(self) -> int:
        return self._view.epoch

    @property
    def view(self) -> TableView:
        """The current immutable table snapshot (capture once per
        query batch for epoch-consistent reads)."""
        return self._view

    @property
    def build_rounds(self) -> int:
        """Total CONGEST rounds spent materializing tables so far
        (initial build + every refresh)."""
        return self._build_rounds

    # -- point queries ------------------------------------------------

    def _route_uncached(self, view: TableView, u: int, v: int
                        ) -> Optional[Route]:
        return view.shard_for(u).table.route(u, v)

    def distance(self, u: int, v: int) -> float:
        """Shortest-path distance u -> v (``inf`` if unreachable)."""
        view = self._view
        key = (u, v)
        cached = self.cache.get(key, _MISS)
        if cached is not _MISS:
            if self._queries is not None:
                self._queries.inc()
            return INF if cached is None else cached.distance
        route = self._route_uncached(view, u, v)
        self.cache.put(key, route)
        if self._queries is not None:
            self._queries.inc()
        return INF if route is None else route.distance

    def path(self, u: int, v: int) -> Optional[Route]:
        """The full shortest route u -> v (``None`` if unreachable)."""
        view = self._view
        key = (u, v)
        cached = self.cache.get(key, _MISS)
        if cached is not _MISS:
            if self._queries is not None:
                self._queries.inc()
            return cached
        route = self._route_uncached(view, u, v)
        self.cache.put(key, route)
        if self._queries is not None:
            self._queries.inc()
        return route

    # -- batched execution --------------------------------------------

    def query_batch(self, queries: Sequence[Query],
                    *, view: Optional[TableView] = None) -> List[Any]:
        """Answer a batch, grouped by source, in input order.

        Distance queries yield floats (``inf`` when unreachable), path
        queries yield :class:`~repro.core.routing.Route` or ``None``.
        The whole batch reads one :class:`TableView` -- epoch-consistent
        even if a refresh lands mid-batch.
        """
        if view is None:
            view = self._view
        cache = self.cache
        data = cache.batch_view()
        data_get = data.get
        bump = data.move_to_end
        out: List[Any] = [None] * len(queries)
        by_source: Dict[int, List[int]] = {}
        hits = 0
        for i, q in enumerate(queries):
            key = (q.u, q.v)
            cached = data_get(key, _MISS)
            if cached is not _MISS:
                bump(key)
                hits += 1
                out[i] = (INF if cached is None else cached.distance) \
                    if q.kind == "distance" else cached
            else:
                by_source.setdefault(q.u, []).append(i)
        cache.count_batch(hits, len(queries) - hits)
        for u, idxs in by_source.items():
            shard = view.shard_for(u)
            table = shard.table
            dist_row = table.dist[u]
            parent_row = table.parent[u]
            n = self.graph.n
            for i in idxs:
                q = queries[i]
                v = q.v
                if not (0 <= v < n):
                    raise ValueError(
                        f"target {v} out of range for n={n}")
                if dist_row[v] == INF:
                    route = None
                else:
                    path = [v]
                    cur = v
                    while cur != u:
                        cur = parent_row[cur]
                        if cur is None or len(path) > n:
                            raise ValueError(
                                f"broken parent chain routing {u} -> {v}")
                        path.append(cur)
                    path.reverse()
                    route = Route(source=u, target=v,
                                  distance=dist_row[v], path=tuple(path))
                cache.put((u, v), route)
                out[i] = (INF if route is None else route.distance) \
                    if q.kind == "distance" else route
        if self._queries is not None:
            self._queries.inc(len(queries))
        if self._batches is not None:
            self._batches.inc()
        return out

    def serve(self, queries: Iterable[Query], *,
              batch_size: int = 256) -> List[Any]:
        """Answer a whole stream through the batched path."""
        queries = list(queries)
        out: List[Any] = []
        for lo in range(0, len(queries), max(1, batch_size)):
            out.extend(self.query_batch(queries[lo:lo + batch_size]))
        return out

    def serve_naive(self, queries: Iterable[Query]) -> List[Any]:
        """The un-batched, un-cached baseline: one full table lookup
        (shard resolution + route walk + Route construction) per query.
        The benchmark's denominator; answers are identical to
        :meth:`serve` (asserted in the E22 sweep)."""
        view = self._view
        out: List[Any] = []
        for q in queries:
            route = self._route_uncached(view, q.u, q.v)
            if q.kind == "distance":
                out.append(INF if route is None else route.distance)
            else:
                out.append(route)
        return out

    # -- incremental refresh ------------------------------------------

    def _dynamic_run(self):
        """The lazily created churn driver, bootstrapped from the
        already-materialized tables (no duplicate initial compute)."""
        if self._dyn is None:
            from ..recovery.dynamic import DynamicRun
            table = {}
            parents = {}
            for shard in self._view.shards:
                for s in shard.sources:
                    table[s] = shard.table.dist[s]
                    parents[s] = shard.table.parent[s]
            self._dyn = DynamicRun(
                self.graph, self.sources, method=self.method,
                backend=self.backend, keep_parents=True,
                initial_table=table, initial_parents=parents)
        return self._dyn

    def refresh(self, *events: Any) -> RefreshRecord:
        """Apply churn events (:class:`~repro.recovery.EdgeUpdate`,
        ``NodeLeave``, ``NodeJoin``) and swap in repaired tables.

        Only the affected sources are recomputed
        (:class:`~repro.recovery.DynamicRun`), only the shards holding
        them are rebuilt, the new :class:`TableView` is published
        atomically (in-flight queries finish on the old epoch), and
        only the affected sources' cache entries are dropped.
        """
        dyn = self._dynamic_run()
        record = dyn.apply(*events)
        affected = set(record.affected)
        old = self._view
        new_epoch = old.epoch + 1
        rebuilt: List[int] = []
        shards: List[TableShard] = []
        for shard in old.shards:
            if affected.intersection(shard.sources):
                table = RoutingTable(
                    dyn.graph,
                    {s: dyn.table[s] for s in shard.sources},
                    {s: dyn.parents[s] for s in shard.sources})
                shards.append(TableShard(shard.index, shard.sources,
                                         table, epoch=new_epoch))
                rebuilt.append(shard.index)
            else:
                shards.append(shard)
        self.graph = dyn.graph
        self._build_rounds += record.rounds_to_repair
        # The swap: one reference assignment publishes the new view.
        self._view = TableView(new_epoch, tuple(shards), old.shard_of)
        invalidated = self.cache.invalidate_sources(affected)
        rec = RefreshRecord(new_epoch, tuple(record.affected),
                            tuple(rebuilt), record.rounds_to_repair,
                            invalidated)
        self.refreshes.append(rec)
        if self.registry is not None:
            self.registry.counter("serve.refreshes").inc()
            self.registry.counter("serve.refresh_rounds").inc(
                record.rounds_to_repair)
        if self._epoch_gauge is not None:
            self._epoch_gauge.set(new_epoch)
        return rec

    # -- verification -------------------------------------------------

    def oracle_check(self, *, sample: Optional[int] = None,
                     seed: int = 0) -> List[Tuple[int, int, float, float]]:
        """Mismatches ``(u, v, served, true)`` between served distances
        (through the cached path) and a fresh Dijkstra run on the
        current graph.  ``sample`` limits the check to that many random
        pairs (seeded); default checks every served pair."""
        from ..graphs.reference import dijkstra
        import random as _random
        pairs: Iterable[Tuple[int, int]]
        if sample is None:
            pairs = ((u, v) for u in self.sources
                     for v in range(self.graph.n))
        else:
            rng = _random.Random(seed)
            pairs = ((rng.choice(self.sources),
                      rng.randrange(self.graph.n))
                     for _ in range(sample))
        truth: Dict[int, List[float]] = {}
        bad = []
        for u, v in pairs:
            if u not in truth:
                truth[u] = dijkstra(self.graph, u)[0]
            served = self.distance(u, v)
            if served != truth[u][v]:
                bad.append((u, v, served, truth[u][v]))
        return bad

    def validate_shards(self) -> List[str]:
        """Run :meth:`RoutingTable.validate` over every shard of the
        current view (the shard-swap sanity check); returns the
        collected violations."""
        violations: List[str] = []
        for shard in self._view.shards:
            for msg in shard.table.validate(raise_on_violation=False):
                violations.append(f"shard {shard.index}: {msg}")
        return violations

    def digest(self) -> str:
        """SHA-256 over the served tables, epoch, and refresh history
        -- bit-identical across backends for identical builds."""
        view = self._view
        payload = {
            "epoch": view.epoch,
            "sources": list(self.sources),
            "shards": [
                {"index": s.index, "epoch": s.epoch,
                 "sources": list(s.sources),
                 "dist": {str(x): [repr(float(d))
                                   for d in s.table.dist[x]]
                          for x in s.sources},
                 "parent": {str(x): [-1 if p is None else p
                                     for p in s.table.parent[x]]
                            for x in s.sources}}
                for s in view.shards],
            "refreshes": [
                {"epoch": r.epoch, "affected": list(r.affected_sources),
                 "rebuilt": list(r.rebuilt_shards),
                 "rounds": r.rounds_to_repair}
                for r in self.refreshes],
        }
        text = json.dumps(payload, separators=(",", ":"), sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


__all__ = ["DistanceOracle", "RefreshRecord", "TableShard", "TableView"]
