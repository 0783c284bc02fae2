"""Per-layer attribution for the end-to-end benchmark, measured from outside.

The traced run wraps public functions and methods of the library's
modules (module attributes and class attributes), records a span around
every wrapped call with ``time.perf_counter``, and removes every wrapper
when it ends.  Nothing under ``src/`` changes and no ``repro.obs`` timer
is used, so a later change to the library's own observability cannot
move this yardstick.

Each span is charged to one *bucket* (a layer).  A bucket's self time is
its spans' durations minus the part covered by their child spans, so the
self times of all buckets plus the time outside every span (the untraced
residual) add up exactly to the traced wall time.  A few phases are also
reported inclusively (``INCLUSIVE``); those are not part of that sum.

``PER_LAYER`` is the layer -> metric -> workload map: every per-layer
metric the benchmark prints, the end-to-end metric it should move, and
the workloads on which it should move it.  ``BENCHMARK.json`` lists the
same names, units and directions.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Marker attribute set on every wrapper; the leak test looks for it.
MARK = "__perfbench_wrapper__"

BOTH = ("apsp-dense", "apsp-default")


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str
    workloads: Tuple[str, ...]


def _m(name: str, unit: str, better: str, moves: str,
       workloads: Tuple[str, ...]) -> LayerMetric:
    return LayerMetric(name, unit, better, moves, workloads)


#: Self-time buckets.  Their ``<bucket>_s`` metrics plus
#: ``trace.untraced_s`` sum to ``trace.wall_s``.
SELF_BUCKETS = (
    "graphs.floor", "core.bound", "perf.backends.make_network",
    "congest.run", "core.program", "core.node_list", "core.kssp",
    "core.assemble", "obs.hooks", "serve.oracle", "serve.routing_table",
    "serve.query_batch", "serve.cache", "recovery.apply", "serve.idle",
    "bench.harness", "bench.check",
)

#: Phases reported with their inclusive time (outermost call only).
INCLUSIVE = (
    "core.csssp", "core.blocker", "core.bellman_ford", "congest.broadcast",
    "serve.build.k_ssp", "serve.build.routing_table",
    "serve.refresh.apply", "serve.refresh.rebuild",
)

#: Counters that depend only on the inputs, never on timing: they repeat
#: exactly for one seed, and tracing must not change them.
DETERMINISTIC = (
    "congest.rounds", "congest.messages", "congest.words",
    "congest.active_rounds", "congest.skipped_rounds",
    "perf.columnar.kernel_runs", "perf.columnar.fallback_runs",
    "obs.tracer.events", "core.program.calls", "core.node_list.calls",
    "serve.refresh.affected_sources", "serve.refresh.rounds_to_repair",
)

#: Counters the wrappers keep (the rest come from the workload).
_RECORDED_COUNTS = (
    "congest.rounds", "congest.messages", "congest.words",
    "congest.active_rounds", "congest.skipped_rounds",
    "perf.columnar.kernel_runs", "perf.columnar.fallback_runs",
    "obs.tracer.events",
)

PER_LAYER: Tuple[LayerMetric, ...] = (
    # -- the round loop and the engines
    _m("congest.run_s", "s", "lower", "solve_s, x_floor", BOTH),
    _m("congest.host_us_per_round", "us", "lower", "solve_s, x_floor", BOTH),
    _m("congest.host_ns_per_message", "ns", "lower", "solve_s, x_floor",
       BOTH),
    _m("perf.columnar.kernel_runs", "count", "higher", "observed_solve_s",
       ("apsp-dense",)),
    _m("perf.columnar.fallback_runs", "count", "lower", "observed_solve_s",
       ("apsp-dense",)),
    _m("perf.columnar.kernel_share", "ratio", "higher", "observed_solve_s",
       ("apsp-dense",)),
    # -- observability hooks of the library
    _m("obs.tracer.events", "count", "lower", "observed_solve_s",
       ("apsp-dense",)),
    _m("obs.overhead", "ratio", "lower", "observed_solve_s",
       ("apsp-dense",)),
    _m("obs.hooks_s", "s", "lower", "observed_solve_s", ("apsp-dense",)),
    # -- node programs and node lists
    _m("core.program_s", "s", "lower", "solve_s, observed_solve_s", BOTH),
    _m("core.program.calls", "count", "lower", "solve_s, observed_solve_s",
       BOTH),
    _m("core.node_list_s", "s", "lower", "solve_s, observed_solve_s", BOTH),
    _m("core.node_list.calls", "count", "lower",
       "solve_s, observed_solve_s", BOTH),
    # -- Algorithm 3 phases (inclusive) and their own glue (self)
    _m("core.csssp_s", "s", "lower", "solve_s", ("apsp-default",)),
    _m("core.blocker_s", "s", "lower", "solve_s", ("apsp-default",)),
    _m("core.bellman_ford_s", "s", "lower", "solve_s", ("apsp-default",)),
    _m("congest.broadcast_s", "s", "lower", "solve_s", ("apsp-default",)),
    _m("core.kssp_s", "s", "lower", "solve_s", ("apsp-default",)),
    # -- bound estimation, method choice, engine construction, assembly
    _m("core.bound_s", "s", "lower", "solve_s", BOTH),
    _m("perf.backends.make_network_s", "s", "lower", "solve_s", BOTH),
    _m("core.assemble_s", "s", "lower", "solve_s", BOTH),
    # -- the sequential floor
    _m("graphs.floor_s", "s", "lower", "x_floor (denominator)", BOTH),
    # -- simulated work (exact)
    _m("congest.rounds", "count", "lower", "rounds", BOTH),
    _m("congest.messages", "count", "lower", "messages", BOTH),
    _m("congest.words", "count", "lower", "messages", BOTH),
    _m("congest.active_rounds", "count", "lower", "rounds", BOTH),
    _m("congest.skipped_rounds", "count", "higher", "rounds", BOTH),
    # -- serving: build
    _m("serve.build.k_ssp_s", "s", "lower", "build_s", BOTH),
    _m("serve.build.routing_table_s", "s", "lower", "build_s",
       BOTH),
    _m("serve.oracle_s", "s", "lower", "build_s, refresh_s",
       BOTH),
    _m("serve.routing_table_s", "s", "lower", "build_s, refresh_s",
       BOTH),
    # -- serving: reads
    _m("serve.query_batch_s", "s", "lower", "query_p50_us, capacity_qps",
       BOTH),
    _m("serve.cache_s", "s", "lower", "query_p50_us, capacity_qps",
       BOTH),
    _m("serve.batches", "count", "higher", "query_p50_us, capacity_qps",
       BOTH),
    _m("serve.cache.hits", "count", "higher", "query_p50_us, capacity_qps",
       BOTH),
    _m("serve.cache.misses", "count", "lower", "query_p50_us, capacity_qps",
       BOTH),
    _m("serve.cache.hit_rate", "ratio", "higher",
       "query_p50_us, capacity_qps", BOTH),
    # -- serving: writes
    _m("serve.refresh.apply_s", "s", "lower", "refresh_s, query_p99_us",
       BOTH),
    _m("serve.refresh.rebuild_s", "s", "lower", "refresh_s, query_p99_us",
       BOTH),
    _m("recovery.apply_s", "s", "lower", "refresh_s, query_p99_us",
       BOTH),
    _m("serve.refresh.affected_sources", "count", "lower",
       "refresh_s, query_p99_us", BOTH),
    _m("serve.refresh.rounds_to_repair", "count", "lower",
       "refresh_s, query_p99_us", BOTH),
    _m("serve.refresh.invalidated", "count", "lower",
       "refresh_s, query_p99_us", BOTH),
    # -- the open loop itself
    _m("serve.gen_late_ms", "ms", "lower", "query_p99_us", BOTH),
    _m("serve.backlog_max", "count", "lower", "query_p99_us",
       BOTH),
    _m("serve.idle_s", "s", "higher", "none (open-loop slack)",
       BOTH),
    # -- the benchmark's own cost
    _m("bench.harness_s", "s", "lower", "none (benchmark bookkeeping)", BOTH),
    _m("bench.check_s", "s", "lower", "none (correctness gate)", BOTH),
    _m("trace.overhead", "ratio", "lower", "none (cost of measuring)", BOTH),
    _m("trace.untraced_s", "s", "lower", "none (cost of measuring)", BOTH),
    _m("trace.wall_s", "s", "lower", "none (sum of the self times)", BOTH),
)


# ---------------------------------------------------------------------------
# span recording


class Recorder:
    """In-memory span store.  ``timed=False`` keeps only the counters
    (engine runs, simulated work), which is how the tests check that
    timing wrappers change nothing the library computes."""

    #: Buckets called too often to keep every span; they are aggregated.
    HOT = frozenset({"core.program", "core.node_list", "serve.cache",
                     "obs.hooks"})
    MAX_SPANS = 50_000

    def __init__(self, *, timed: bool = True) -> None:
        self.timed = timed
        self.stack: List[list] = []
        self.active: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.op_id = 0
        self.origin = perf_counter()
        #: (op id, bucket, start, end, parent bucket) relative to origin.
        self.spans: List[Tuple[int, str, float, float, Optional[str]]] = []
        self.dropped_spans = 0

    def _push(self, bucket: str, target: Any) -> list:
        frame = [bucket, 0.0, target]
        self.active[bucket] += 1
        self.stack.append(frame)
        return frame

    def _pop(self, frame: list, start: float, end: float) -> float:
        stack = self.stack
        stack.pop()
        bucket = frame[0]
        self.active[bucket] -= 1
        dur = end - start
        self.self_s[bucket] += dur - frame[1]
        self.calls[bucket] += 1
        parent = None
        if stack:
            stack[-1][1] += dur
            parent = stack[-1][0]
        if bucket not in self.HOT:
            if len(self.spans) < self.MAX_SPANS:
                self.spans.append((self.op_id, bucket, start - self.origin,
                                   end - self.origin, parent))
            else:
                self.dropped_spans += 1
        return dur

    @contextmanager
    def op(self, bucket: str) -> Iterator[None]:
        """A span around the benchmark's own code (one operation)."""
        self.op_id += 1
        frame = self._push(bucket, None)
        start = perf_counter()
        try:
            yield
        finally:
            self._pop(frame, start, perf_counter())

    def leaf(self, bucket: str, seconds: float) -> None:
        """Charge *seconds* already spent in the current span to
        *bucket* (the open loop's idle waits)."""
        self.self_s[bucket] += seconds
        self.calls[bucket] += 1
        if self.stack:
            self.stack[-1][1] += seconds


# ---------------------------------------------------------------------------
# what is wrapped


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``attr`` is a module attribute of ``owner``,
    or ``Class.method`` for a class attribute.

    ``context`` names a phase: its outermost call is also charged,
    inclusively, to ``context``.  ``within`` charges the call inclusively
    to the name paired with the first open enclosing context.
    """

    owner: str
    attr: str
    bucket: str
    context: Optional[str] = None
    within: Tuple[Tuple[str, str], ...] = ()
    on_enter: Optional[Callable[["Recorder", "Target"], None]] = None
    on_exit: Optional[Callable[["Recorder", Any], None]] = None
    count: Optional[str] = None


def _count_run(rec: Recorder, result: Any) -> None:
    """Simulated work of one top-level network run."""
    if rec.active["congest.run"]:
        return  # nested: a fallback inside ColumnarNetwork.run
    c = rec.counts
    c["congest.rounds"] += result.rounds
    c["congest.messages"] += result.messages
    c["congest.words"] += result.words
    c["congest.active_rounds"] += result.active_rounds
    c["congest.skipped_rounds"] += result.skipped_rounds


def _fallback(rec: Recorder, target: Target) -> None:
    """A worklist run directly inside ``ColumnarNetwork.run`` is a
    columnar network that left its bulk kernel."""
    stack = rec.stack
    if stack and stack[-1][2] is _COLUMNAR_RUN:
        rec.counts["perf.columnar.fallback_runs"] += 1


def _kernel(rec: Recorder, target: Target) -> None:
    rec.counts["perf.columnar.kernel_runs"] += 1


_COLUMNAR_RUN = Target("repro.perf.columnar", "ColumnarNetwork.run",
                       "congest.run", on_exit=_count_run)
_BUILD_K_SSP = (("serve.build", "serve.build.k_ssp"),)
_TABLE = (("serve.build", "serve.build.routing_table"),
          ("serve.refresh", "serve.refresh.rebuild"))

#: Fixed targets.  Program subclasses, NodeList methods and the
#: ``repro.bounds`` estimators are added by :func:`targets`.
_TARGETS: Tuple[Target, ...] = (
    Target("repro.graphs.reference", "apsp", "graphs.floor"),
    Target("repro.graphs.reference", "weak_delta_bound", "core.bound"),
    Target("repro.core.pipelined", "theorem11_round_bound", "core.bound"),
    Target("repro.core.api", "apsp", "core.bound"),
    Target("repro.core.api", "k_ssp", "core.bound", within=_BUILD_K_SSP),
    Target("repro.perf.backends", "make_network",
           "perf.backends.make_network"),
    Target("repro.congest.network", "Network.run", "congest.run",
           on_exit=_count_run),
    Target("repro.perf.fast_network", "FastNetwork.run", "congest.run",
           on_enter=_fallback, on_exit=_count_run),
    _COLUMNAR_RUN,
    Target("repro.congest.scheduler", "MultiplexedNetwork.run",
           "congest.run", on_exit=_count_run),
    Target("repro.perf.columnar", "_RelaxationKernel.run", "congest.run",
           on_enter=_kernel),
    Target("repro.perf.columnar_pipelined", "_PipelinedKernel.run",
           "congest.run", on_enter=_kernel),
    Target("repro.core.pipelined", "run_hk_ssp", "core.assemble"),
    Target("repro.core.kssp", "run_kssp_blocker", "core.assemble"),
    Target("repro.core.bellman_ford", "run_bellman_ford_kssp",
           "core.assemble"),
    Target("repro.congest.network", "Network.output_of", "core.assemble"),
    Target("repro.congest.network", "Network.outputs", "core.assemble"),
    Target("repro.perf.fast_network", "FastNetwork.output_of",
           "core.assemble"),
    Target("repro.perf.fast_network", "FastNetwork.outputs",
           "core.assemble"),
    Target("repro.core.csssp", "build_csssp", "core.kssp",
           context="core.csssp"),
    Target("repro.core.blocker", "compute_blocker_set", "core.kssp",
           context="core.blocker"),
    Target("repro.core.bellman_ford", "run_bellman_ford", "core.kssp",
           context="core.bellman_ford"),
    Target("repro.congest.primitives", "build_bfs_tree", "core.kssp",
           context="congest.broadcast"),
    Target("repro.congest.primitives", "pipelined_broadcast", "core.kssp",
           context="congest.broadcast"),
    Target("repro.core.node_list", "export_entry_columns", "core.node_list"),
    Target("repro.core.node_list", "load_entry_columns", "core.node_list"),
    Target("repro.obs.tracer", "Tracer.emit", "obs.hooks",
           count="obs.tracer.events"),
    Target("repro.obs.tracer", "Tracer.span", "obs.hooks"),
    Target("repro.obs.tracer", "Tracer._close_span", "obs.hooks"),
    Target("repro.obs.registry", "MetricsRegistry.counter", "obs.hooks"),
    Target("repro.obs.registry", "MetricsRegistry.gauge", "obs.hooks"),
    Target("repro.obs.registry", "MetricsRegistry.histogram", "obs.hooks"),
    Target("repro.obs.registry", "Counter.inc", "obs.hooks"),
    Target("repro.obs.registry", "Counter.set_total", "obs.hooks"),
    Target("repro.obs.registry", "Gauge.set", "obs.hooks"),
    Target("repro.obs.registry", "Gauge.max", "obs.hooks"),
    Target("repro.obs.registry", "Histogram.observe", "obs.hooks"),
    Target("repro.obs.registry", "publish_run_metrics", "obs.hooks"),
    Target("repro.serve.oracle", "DistanceOracle.__init__", "serve.oracle",
           context="serve.build"),
    Target("repro.serve.oracle", "DistanceOracle.refresh", "serve.oracle",
           context="serve.refresh"),
    Target("repro.serve.oracle", "DistanceOracle.query_batch",
           "serve.query_batch"),
    Target("repro.core.routing", "RoutingTable.__init__",
           "serve.routing_table", within=_TABLE),
    Target("repro.serve.cache", "RouteCache.get", "serve.cache"),
    Target("repro.serve.cache", "RouteCache.put", "serve.cache"),
    Target("repro.serve.cache", "RouteCache.batch_view", "serve.cache"),
    Target("repro.serve.cache", "RouteCache.count_batch", "serve.cache"),
    Target("repro.serve.cache", "RouteCache.invalidate_sources",
           "serve.cache"),
    Target("repro.recovery.dynamic", "DynamicRun.apply", "recovery.apply",
           context="serve.refresh.apply"),
)

_NODE_LIST_OPS = (
    "pos", "nu_of", "count_for_source_below", "entries_for",
    "count_for_source", "max_entries_any_source", "insert", "insert_sp",
    "evict_over_budget", "remove", "fire_at", "next_fire_after",
)

#: Modules whose import defines every class and function the targets name.
MODULES = (
    "repro.core", "repro.congest", "repro.congest.scheduler",
    "repro.perf.backends", "repro.perf.columnar",
    "repro.perf.columnar_pipelined", "repro.obs.tracer",
    "repro.obs.registry", "repro.serve", "repro.recovery", "repro.faults",
    "repro.bounds",
)


def _subclasses(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def targets() -> List[Target]:
    """Every target, after importing the modules that define them."""
    for name in MODULES:
        importlib.import_module(name)
    out = list(_TARGETS)
    from repro.congest.node import Program
    for cls in _subclasses(Program):
        for attr in ("on_send", "on_receive"):
            if attr in cls.__dict__:
                out.append(Target(cls.__module__,
                                  f"{cls.__qualname__}.{attr}",
                                  "core.program"))
    for cls_name in ("NodeList", "ReferenceNodeList"):
        for op in _NODE_LIST_OPS:
            out.append(Target("repro.core.node_list", f"{cls_name}.{op}",
                              "core.node_list"))
    bounds = sys.modules["repro.bounds"]
    for name, value in sorted(vars(bounds).items()):
        if (callable(value) and not isinstance(value, type)
                and getattr(value, "__module__", None) == "repro.bounds"
                and not name.startswith("_")):
            out.append(Target("repro.bounds", name, "core.bound"))
    return out


# ---------------------------------------------------------------------------
# installing and removing wrappers


def _make_wrapper(rec: Recorder, fn: Callable, t: Target) -> Callable:
    bucket, on_enter, on_exit, count = t.bucket, t.on_enter, t.on_exit, \
        t.count
    ctx = "ctx:" + t.context if t.context else None
    within = tuple(("ctx:" + c, name) for c, name in t.within)
    push, pop, active = rec._push, rec._pop, rec.active
    incl_s, counts, clock = rec.incl_s, rec.counts, perf_counter

    if not rec.timed:
        @functools.wraps(fn)
        def counting(*args: Any, **kwargs: Any) -> Any:
            if on_enter is not None:
                on_enter(rec, t)
            push(bucket, t)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.stack.pop()
                active[bucket] -= 1
                rec.calls[bucket] += 1
            if count is not None:
                counts[count] += 1
            if on_exit is not None:
                on_exit(rec, result)
            return result
        setattr(counting, MARK, True)
        return counting

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if on_enter is not None:
            on_enter(rec, t)
        frame = push(bucket, t)
        if ctx is not None:
            active[ctx] += 1
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = pop(frame, start, clock())
            if ctx is not None:
                active[ctx] -= 1
                if not active[ctx]:
                    incl_s[t.context] += dur
            for c, name in within:
                if active[c]:
                    incl_s[name] += dur
                    break
        if count is not None:
            counts[count] += 1
        if on_exit is not None:
            on_exit(rec, result)
        return result
    setattr(wrapper, MARK, True)
    return wrapper


def _rewrap(raw: Any, wrapper_of: Callable[[Callable], Callable]) -> Any:
    """Wrap a class-dict entry, keeping static/class method descriptors."""
    if isinstance(raw, staticmethod):
        return staticmethod(wrapper_of(raw.__func__))
    if isinstance(raw, classmethod):
        return classmethod(wrapper_of(raw.__func__))
    return wrapper_of(raw)


class Installation:
    """The wrappers of one traced run; :meth:`remove` restores every
    patched attribute to the object it held before."""

    def __init__(self) -> None:
        self.patches: List[Tuple[Any, str, Any]] = []

    def patch(self, owner: Any, name: str, value: Any) -> None:
        self.patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def remove(self) -> None:
        while self.patches:
            owner, name, original = self.patches.pop()
            setattr(owner, name, original)


def _repro_modules() -> List[Any]:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))]


def install(rec: Recorder, target_list: Optional[List[Target]] = None
            ) -> Installation:
    """Wrap every target.  A module-level function is replaced in every
    loaded ``repro`` module that imported it by name, so calls through
    ``from x import f`` bindings are seen too."""
    if target_list is None:
        target_list = targets()
    inst = Installation()
    modules = _repro_modules()
    try:
        for t in target_list:
            module = importlib.import_module(t.owner)
            if "." in t.attr:
                cls_name, name = t.attr.split(".", 1)
                cls = getattr(module, cls_name)
                raw = cls.__dict__[name]
                fn = raw.__func__ if isinstance(
                    raw, (staticmethod, classmethod)) else raw
                if getattr(fn, MARK, False):
                    continue
                inst.patch(cls, name, _rewrap(
                    raw, lambda f, t=t: _make_wrapper(rec, f, t)))
                continue
            original = getattr(module, t.attr)
            if getattr(original, MARK, False):
                continue
            wrapper = _make_wrapper(rec, original, t)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        inst.patch(mod, name, wrapper)
    except BaseException:
        inst.remove()
        raise
    return inst


def leaked_wrappers() -> List[str]:
    """Every attribute of a loaded ``repro`` module or class that still
    holds a wrapper (empty once :meth:`Installation.remove` ran)."""
    found = []
    for mod in _repro_modules():
        for name, value in list(vars(mod).items()):
            if getattr(value, MARK, False):
                found.append(f"{mod.__name__}.{name}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, raw in list(vars(value).items()):
                    fn = getattr(raw, "__func__", raw)
                    if getattr(fn, MARK, False):
                        found.append(f"{mod.__name__}.{name}.{attr}")
    return found


# ---------------------------------------------------------------------------
# turning a recording into per-layer metrics


def layer_metrics(rec: Recorder, *, passes: int, wall_s: float,
                  extra: Dict[str, float]) -> Dict[str, float]:
    """Per-pass per-layer metrics.  *wall_s* is the traced wall time of
    all *passes*; *extra* carries the values measured by the workload
    itself (open-loop and cache figures, overheads)."""
    per = 1.0 / passes
    out: Dict[str, float] = {}
    for bucket in SELF_BUCKETS:
        out[bucket + "_s"] = rec.self_s.get(bucket, 0.0) * per
    for name in INCLUSIVE:
        out[name + "_s"] = rec.incl_s.get(name, 0.0) * per
    for name in _RECORDED_COUNTS:
        out[name] = rec.counts.get(name, 0) * per
    out["core.program.calls"] = rec.calls.get("core.program", 0) * per
    out["core.node_list.calls"] = rec.calls.get("core.node_list", 0) * per
    kernel = out["perf.columnar.kernel_runs"]
    fallback = out["perf.columnar.fallback_runs"]
    out["perf.columnar.kernel_share"] = (
        kernel / (kernel + fallback) if kernel + fallback else 0.0)
    run_s = out["congest.run_s"]
    rounds, messages = out["congest.rounds"], out["congest.messages"]
    out["congest.host_us_per_round"] = run_s / rounds * 1e6 if rounds else 0.0
    out["congest.host_ns_per_message"] = (
        run_s / messages * 1e9 if messages else 0.0)
    out["trace.wall_s"] = wall_s * per
    out["trace.untraced_s"] = (wall_s - sum(rec.self_s.values())) * per
    out.update(extra)
    return {m.name: out[m.name] for m in PER_LAYER}
