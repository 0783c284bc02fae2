"""The backend-conformance suite: every registered simulator backend,
pinned to the reference backend by the same battery of checks.

Any entry in :data:`repro.perf.backends.BACKENDS` other than
``"reference"`` is automatically parametrized through every test here
-- add a backend to the registry and it is conformance-tested by
construction, with no hand-copied test modules.  The deprecated
``"fast"`` alias runs through the battery too, so the alias keeps
selecting the reference loop end to end.  The battery:

* Hypothesis graph corpora (directed/undirected, zero-weight-heavy,
  disconnected, single-node) through the algorithm entry points and the
  raw network interface;
* instrumented equality: fault plans, invariant monitors, tracers, and
  ring recorders attached, every observation compared -- including the
  failure outcome and its post-mortem;
* golden fixtures: the committed distance matrices *and* the committed
  metrics numbers;
* accounting-parity regressions for rounds that carry no payload;
* resumption: a ``RoundLimitExceeded`` mid-run, then a resumed ``run``
  with a larger budget, must replay to the uninterrupted execution;
* constructor-validation parity: the exact reference error texts;
* registry selection: explicit ``backend=`` and the ambient default;
* traced pipelined runs: the same ``Tracer`` event stream, span ids,
  drop count, ``sent_at`` histories and registry contents on every
  backend, including a round-limited and resumed run.

The columnar backend gets two extra treatments: the whole battery runs
once per bulk implementation (numpy and the pure-Python fallback, via
the module-scope parametrization helpers), and the *mutation* tests at
the bottom corrupt a columnar round on purpose to prove this suite
would catch a broken bulk kernel (the paranoid-mode trick of
``tests/test_node_list_kernels.py``).

Collected through ``tests/test_backend_conformance.py`` (pytest only
picks up ``test_*.py`` files); import the strategies and helpers from
here.
"""

import json
from pathlib import Path
from typing import List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from differential import (
    BACKEND_NAMES,
    assert_entrypoint_equivalent,
    assert_instrumented_equivalent,
    assert_networks_equivalent,
    metrics_summary,
    network_class,
    post_mortem_summary,
)
from repro.analysis.inspect import send_history
from repro.congest import (
    Envelope,
    Network,
    NodeContext,
    Program,
    RoundLimitExceeded,
)
from repro.congest.events import TraceRecorder
from repro.core import run_apsp, run_apsp_blocker, run_hk_ssp, run_short_range
from repro.core.bellman_ford import BellmanFordProgram, run_bellman_ford
from repro.core.keys import gamma_for
from repro.core.pipelined import PipelinedSSPProgram, theorem11_round_bound
from repro.core.unweighted import UnweightedAPSPProgram
from repro.faults import FaultPlan
from repro.faults.monitor import oracle_monitor
from repro.graphs import io as gio
from repro.graphs import path_graph, random_graph
from repro.graphs.reference import weak_delta_bound
from repro.obs import MetricsRegistry, Tracer
from repro.perf import ColumnarNetwork, make_network, use_backend
from repro.perf import columnar as columnar_mod

#: Every backend name except the reference itself -- the
#: parametrization axis of this whole module.
CONFORMANCE_BACKENDS = [b for b in BACKEND_NAMES if b != "reference"]

backends = pytest.mark.parametrize("backend", CONFORMANCE_BACKENDS)


@pytest.fixture(params=["numpy", "python"])
def columnar_impl(request):
    """Force one of the two columnar bulk implementations for the test
    body (restoring the ambient policy afterwards), so the pure-Python
    fallback is conformance-tested even on numpy-equipped machines."""
    if request.param == "numpy" and columnar_mod._numpy() is None:
        pytest.skip("numpy not importable")
    prev = columnar_mod.set_numpy_enabled(request.param == "numpy")
    try:
        yield request.param
    finally:
        columnar_mod.set_numpy_enabled(prev)


# p=0.0 gives totally disconnected graphs, zero_fraction=1.0 all-zero
# weights, n=1 the single-node network -- all must behave identically.
graphs = st.builds(
    random_graph,
    n=st.integers(1, 18),
    p=st.one_of(st.just(0.0), st.floats(0.05, 0.6)),
    w_max=st.integers(1, 9),
    zero_fraction=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 0.6)),
    directed=st.booleans(),
    seed=st.integers(0, 10_000),
)

small_graphs = st.builds(
    random_graph,
    n=st.integers(1, 12),
    p=st.one_of(st.just(0.0), st.floats(0.05, 0.6)),
    w_max=st.integers(1, 8),
    zero_fraction=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 0.6)),
    directed=st.booleans(),
    seed=st.integers(0, 10_000),
)


@backends
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_bellman_ford_differential(backend, data):
    g = data.draw(graphs)
    source = data.draw(st.integers(0, g.n - 1))
    assert_entrypoint_equivalent(run_bellman_ford, g, source,
                                 compare=("dist", "hops", "parent"),
                                 backend=backend)


@backends
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_bellman_ford_hop_limited_differential(backend, data):
    """The h-hop DP variant: ``max_hops`` truncation exercises the
    silent-round cutoff (senders scheduled past h execute but emit
    nothing), where round accounting diverges most easily."""
    g = data.draw(graphs)
    source = data.draw(st.integers(0, g.n - 1))
    h = data.draw(st.integers(1, max(1, g.n)))
    assert_entrypoint_equivalent(run_bellman_ford, g, source, max_hops=h,
                                 compare=("dist", "hops", "parent"),
                                 backend=backend)


@backends
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_pipelined_hk_ssp_differential(backend, data):
    g = data.draw(small_graphs)
    n = g.n
    sources = sorted(data.draw(st.sets(st.integers(0, n - 1),
                                       min_size=1, max_size=min(n, 4))))
    h = data.draw(st.integers(1, max(1, n - 1)))
    assert_entrypoint_equivalent(run_hk_ssp, g, sources, h,
                                 compare=("dist", "sources", "delta"),
                                 backend=backend)


@backends
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_short_range_differential(backend, data):
    g = data.draw(small_graphs)
    source = data.draw(st.integers(0, g.n - 1))
    h = data.draw(st.integers(1, max(1, g.n - 1)))
    assert_entrypoint_equivalent(run_short_range, g, source, h,
                                 compare=("dist", "hops", "parent"),
                                 backend=backend)


@backends
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_raw_network_differential(backend, data):
    """Network-level comparison (sees per-channel counters directly) on
    the unweighted pipelined program, which exercises multi-round
    quiescence detection and idle-round skipping."""
    g = data.draw(small_graphs)
    srcs = tuple(range(g.n))
    assert_networks_equivalent(
        g, lambda v: UnweightedAPSPProgram(v, srcs, cutoff_round=2 * g.n),
        max_rounds=4 * g.n + len(srcs) + 16, backend=backend)


# --- instrumented differential: every hook attached, every hook
# --- observation compared --------------------------------------------

# Rates are drawn from a few fixed notches rather than full-range
# floats: the injector only compares the derived coin against the rate,
# so notches cover the behaviour space while shrinking well.
rate = st.sampled_from([0.0, 0.1, 0.3, 0.8])

fault_plans = st.builds(
    FaultPlan,
    seed=st.integers(0, 10_000),
    drop_rate=rate,
    duplicate_rate=rate,
    delay_rate=rate,
    max_delay=st.integers(1, 5),
    corrupt_rate=st.sampled_from([0.0, 0.2]),
)


@backends
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_instrumented_differential(backend, data):
    """The tentpole property: a fault-injected, monitored, traced,
    event-recorded run is indistinguishable across backends -- same
    outputs, same metrics (fault stats included), same trace event
    stream, same ring-recorder contents, and the same outcome (clean
    quiescence, RoundLimitExceeded, or InvariantViolation) with the
    same post-mortem."""
    g = data.draw(small_graphs)
    source = data.draw(st.integers(0, g.n - 1))
    plan = data.draw(fault_plans)
    record_window = data.draw(st.sampled_from([0, 1, 3]))
    with_monitor = data.draw(st.booleans())
    assert_instrumented_equivalent(
        g, lambda v: BellmanFordProgram(v, source),
        max_rounds=8 * g.n + 80,
        fault_plan=plan,
        monitor_factory=(lambda: oracle_monitor(g, [source]))
        if with_monitor else None,
        with_tracer=True,
        record_window=record_window,
        backend=backend,
    )


@st.composite
def composite_fault_plans(draw, n):
    """Plans that *combine* fault families -- delays, duplicates, and a
    link failure (plus optionally a transient crash window) in one plan,
    the interaction space the single-family notches above undersample."""
    from repro.faults import CrashWindow, LinkFailure

    u = draw(st.integers(0, n - 1))
    v = draw(st.integers(0, n - 1).filter(lambda x: x != u))
    start = draw(st.integers(1, 6))
    end = draw(st.one_of(st.none(), st.integers(start, start + 8)))
    link = LinkFailure(u, v, start=start, end=end,
                       bidirectional=draw(st.booleans()))
    crashes = ()
    if draw(st.booleans()):
        c = draw(st.integers(1, 6))
        crashes = (CrashWindow(draw(st.integers(0, n - 1)), c,
                               c + draw(st.integers(1, 6))),)
    return FaultPlan(
        seed=draw(st.integers(0, 10_000)),
        delay_rate=draw(st.sampled_from([0.1, 0.3, 0.8])),
        duplicate_rate=draw(st.sampled_from([0.1, 0.3])),
        max_delay=draw(st.integers(1, 5)),
        link_failures=(link,),
        crashes=crashes,
    )


@backends
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_composite_fault_differential(backend, data):
    """Delays + duplicates + a link failure (and sometimes a transient
    crash) in ONE plan: the fault families interact in the delivery
    phase (a delayed duplicate can cross a failing link), and every
    backend must agree on every observation of the combined stream."""
    g = data.draw(small_graphs)
    source = data.draw(st.integers(0, g.n - 1))
    plan = data.draw(composite_fault_plans(g.n))
    assert_instrumented_equivalent(
        g, lambda v: BellmanFordProgram(v, source),
        max_rounds=10 * g.n + 120,
        fault_plan=plan,
        monitor_factory=None,
        with_tracer=True,
        record_window=data.draw(st.sampled_from([0, 2])),
        backend=backend,
    )


# --- resumption conformance: interrupt, post-mortem, resume ----------


def _run_resumed(network_cls, g, source, budgets, factory=None):
    """Drive one network through a ``run`` per budget (absolute round
    numbers, reference resumption contract), capturing each leg's
    outcome -- including the round-limit post-mortem -- and the final
    state."""
    if factory is None:
        factory = lambda v: BellmanFordProgram(v, source)
    net = network_cls(g, factory)
    legs = []
    for budget in budgets:
        try:
            net.run(max_rounds=budget)
            legs.append(("quiesced",))
        except RoundLimitExceeded as exc:
            legs.append(("round-limit", str(exc),
                         post_mortem_summary(exc.post_mortem)))
    return {
        "legs": legs,
        "outputs": net.outputs(),
        "metrics": metrics_summary(net.metrics),
        "round": net._round,
    }


@backends
@pytest.mark.parametrize("budgets", [(2, 100), (1, 3, 100), (100, 100)],
                         ids=["interrupt", "twice", "rerun-quiescent"])
def test_resumption_conformance(backend, budgets):
    """A round-limited run resumed with a larger budget replays to the
    uninterrupted execution -- same interrupt round, same post-mortem
    (pending schedule, busiest channels, rendering), same accumulated
    metrics, no double-counting.  Re-running a quiescent network is a
    no-op on every backend."""
    g = random_graph(15, p=0.3, w_max=5, zero_fraction=0.2, seed=8,
                     directed=False)
    ref = _run_resumed(Network, g, 0, budgets)
    got = _run_resumed(network_class(backend), g, 0, budgets)
    assert got == ref, (
        f"{backend} backend diverged from reference across resumption: "
        + "; ".join(f"{k}: {backend}={got[k]!r} ref={ref[k]!r}"
                    for k in ref if got[k] != ref[k]))


# --- constructor-validation and selection parity ---------------------


class _NotAGraph:
    n = 0


@backends
def test_constructor_validation_parity(backend):
    """Every backend raises the reference backend's exact validation
    errors -- same type, same message text."""
    g = path_graph(3, w=1)
    factory = lambda v: BellmanFordProgram(v, 0)
    bad_calls = [
        ((_NotAGraph(), factory), {}),
        ((g, factory), {"max_message_words": 0}),
        ((g, factory), {"channel_capacity": 0}),
        ((g, factory), {"record_window": -1}),
        ((g, factory), {"fault_plan": object()}),
    ]
    for args, kwargs in bad_calls:
        with pytest.raises((ValueError, TypeError)) as ref_exc:
            Network(*args, **kwargs)
        with pytest.raises(type(ref_exc.value)) as got_exc:
            network_class(backend)(*args, **kwargs)
        assert str(got_exc.value) == str(ref_exc.value), (backend, kwargs)


@backends
def test_registry_selection(backend, monkeypatch):
    """``make_network(backend=name)`` and the ``REPRO_BACKEND``
    environment default both construct the registered class."""
    from repro.perf import backends as backends_mod

    g = path_graph(3, w=1)
    factory = lambda v: BellmanFordProgram(v, 0)
    assert type(make_network(g, factory, backend=backend)) \
        is network_class(backend)
    monkeypatch.setenv("REPRO_BACKEND", backend)
    monkeypatch.setattr(backends_mod, "_default_backend", None)
    assert type(make_network(g, factory)) is network_class(backend)


# --- targeted accounting regressions: rounds that carry no payload ----


class ScheduledMute(Program):
    """Node 0 announces in round 1, then *schedules* round 3 but sends
    nothing when it arrives -- an executed round with senders yet zero
    envelopes, the exact case where `active_rounds` and `rounds` part
    ways."""

    def __init__(self, v: int) -> None:
        self.v = v
        self._sched: List[int] = [1, 3] if v == 0 else []
        self.received: List[int] = []

    def on_send(self, ctx: NodeContext, r: int) -> None:
        if self._sched and self._sched[0] == r:
            self._sched.pop(0)
            if r == 1:
                ctx.broadcast("tick")  # round 3 stays silent

    def on_receive(self, ctx: NodeContext, r: int,
                   inbox: List[Envelope]) -> None:
        self.received.append(r)

    def next_active_round(self, ctx: NodeContext, r: int) -> Optional[int]:
        return self._sched[0] if self._sched else None

    def output(self, ctx: NodeContext):
        return self.received


class TestAccountingParity:
    """`rounds` / `active_rounds` / `skipped_rounds` stay identical on
    rounds whose only activity is a no-op wake-up or a fault-delayed
    delivery."""

    def _line(self, n):
        return path_graph(n, w=1)

    @backends
    @pytest.mark.parametrize("plan", [None, FaultPlan(seed=2)],
                             ids=["plain", "trivial-plan"])
    def test_zero_envelope_sender_round(self, backend, plan):
        ref, _got = assert_networks_equivalent(
            self._line(4), ScheduledMute, max_rounds=10, fault_plan=plan,
            backend=backend)
        # The scenario really exercised the gap: node 0 woke at round 3
        # and sent nothing, so the silent round is invisible to
        # `rounds`/`active_rounds` (both stop at the last round with
        # traffic, round 1) yet round 2 was skipped on the way there.
        assert (ref.metrics.rounds, ref.metrics.active_rounds,
                ref.metrics.skipped_rounds) == (1, 1, 1)

    @backends
    def test_delivery_only_rounds(self, backend):
        """With delay_rate=1 every envelope arrives late, so some rounds
        execute purely because the injector holds in-flight traffic --
        no backend may skip past them nor count them differently."""
        plan = FaultPlan(seed=11, delay_rate=1.0, max_delay=4)
        obs = assert_instrumented_equivalent(
            self._line(4), lambda v: BellmanFordProgram(v, 0),
            max_rounds=80, fault_plan=plan, with_tracer=True,
            backend=backend)
        m = obs["metrics"]
        assert m["faults"]["delays"] > 0
        assert m["active_rounds"] <= m["rounds"]

    @backends
    def test_delivery_only_rounds_with_gaps_skip_identically(self, backend):
        """Sparse schedule + long delays: the backend must jump to the
        delivery round (skipped_rounds) exactly like the reference scan
        does."""
        plan = FaultPlan(seed=5, delay_rate=1.0, max_delay=6)
        obs = assert_instrumented_equivalent(
            self._line(6), ScheduledMute, max_rounds=40,
            fault_plan=plan, with_tracer=True, record_window=2,
            backend=backend)
        assert obs["metrics"]["skipped_rounds"] >= 0  # parity already pinned


# --- golden fixtures: every backend must reproduce the frozen
# --- distances AND the frozen metrics numbers ------------------------

DATA = Path(__file__).parent / "data"
CASES = sorted(p.stem.replace(".apsp", "") for p in DATA.glob("*.apsp.json"))


def _golden_summary(m):
    full = metrics_summary(m)
    return {k: full[k] for k in ("rounds", "messages", "words",
                                 "active_rounds", "max_edge_congestion",
                                 "max_node_sends")}


@backends
@pytest.mark.parametrize("name", CASES)
def test_golden_fixture_differential(backend, name):
    g = gio.load(DATA / f"{name}.graph")
    mat = json.loads((DATA / f"{name}.apsp.json").read_text())
    expected = [[float("inf") if d is None else d for d in row]
                for row in mat]
    frozen = json.loads((DATA / f"{name}.metrics.json").read_text())

    _ref, got = assert_entrypoint_equivalent(run_apsp, g, backend=backend)
    assert got.dist == {x: expected[x] for x in range(g.n)}
    assert _golden_summary(got.metrics) == frozen["pipelined"], name

    # The blocker algorithm reaches the backend through the ambient
    # default (multi-phase; no per-call backend plumbing).
    with use_backend(backend):
        blk = run_apsp_blocker(g)
    assert blk.dist == {x: expected[x] for x in range(g.n)}
    assert _golden_summary(blk.metrics) == frozen["blocker"], name


@backends
@pytest.mark.parametrize("name", CASES)
def test_golden_fixture_instrumented_differential(backend, name):
    """The committed fixture graphs driven with *every* hook attached:
    a fixed seeded fault plan, the oracle monitor, a tracer, and the
    ring recorder.  Whatever happens (quiescence, round-limit, or a
    monitor violation from the injected corruption) must happen
    identically on every backend."""
    g = gio.load(DATA / f"{name}.graph")
    plan = FaultPlan(seed=13, drop_rate=0.1, duplicate_rate=0.1,
                     delay_rate=0.2, max_delay=3, corrupt_rate=0.1)
    assert_instrumented_equivalent(
        g, lambda v: BellmanFordProgram(v, 0),
        max_rounds=20 * g.n + 100,
        fault_plan=plan,
        monitor_factory=lambda: oracle_monitor(g, [0]),
        with_tracer=True,
        record_window=3,
        backend=backend,
    )


# --- columnar-specific: both bulk implementations, bulk-path
# --- engagement, and mutation tests on the suite itself --------------


def test_columnar_bulk_implementations_agree(columnar_impl):
    """The whole observable surface matches the reference under the
    forced implementation (numpy or pure-Python) -- entry point, raw
    network, resumption."""
    g = random_graph(16, p=0.3, w_max=6, zero_fraction=0.3, seed=5,
                     directed=True)
    assert_entrypoint_equivalent(run_bellman_ford, g, 1,
                                 compare=("dist", "hops", "parent"),
                                 backend="columnar")
    assert_entrypoint_equivalent(run_bellman_ford, g, 1, max_hops=3,
                                 compare=("dist", "hops", "parent"),
                                 backend="columnar")
    ref = _run_resumed(Network, g, 1, (2, 100))
    got = _run_resumed(ColumnarNetwork, g, 1, (2, 100))
    assert got == ref


def test_columnar_pipelined_bulk_implementations_agree(columnar_impl):
    """The pipelined bulk kernel matches the reference under the forced
    implementation (numpy or pure-Python) -- entry point and
    resumption, both list kernels' state rebuilt in place."""
    g = random_graph(14, p=0.35, w_max=6, zero_fraction=0.3, seed=7,
                     directed=True)
    assert_entrypoint_equivalent(run_hk_ssp, g, [0, 4, 9], 5,
                                 compare=("dist", "sources", "delta"),
                                 backend="columnar")
    factory = lambda v: PipelinedSSPProgram(v, (0, 4, 9), h=5, gamma=1.5)
    ref = _run_resumed(Network, g, 0, (5, 10 ** 5), factory=factory)
    got = _run_resumed(ColumnarNetwork, g, 0, (5, 10 ** 5), factory=factory)
    assert got == ref


@pytest.mark.parametrize("eviction", ["budget", "always"])
def test_columnar_pipelined_equal_kappa_ties(columnar_impl, eviction):
    """With gamma = 1/2, keys ``kappa = d/2 + l`` tie at different
    distances, so the sorted per-source keys of a node hold entries
    with equal ``kappa`` and different ``d``.  The numpy round drops
    an arrival before the fold only when every key of its source has
    a strictly smaller ``kappa``; a tie must reach the fold, where the
    full ``(kappa, d, x)`` order decides.  Both eviction policies, all
    sources, no cutoff: the long-list regime where the quota gate
    rejects the most."""
    g = random_graph(12, p=0.35, w_max=3, zero_fraction=0.3, seed=0,
                     directed=True)
    assert_entrypoint_equivalent(run_hk_ssp, g, list(range(g.n)), g.n - 1,
                                 gamma=0.5, cutoff=False, eviction=eviction,
                                 compare=("dist", "hops", "parent"),
                                 backend="columnar")


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_columnar_pipelined_numpy_python_agree(data):
    """REPRO_COLUMNAR_NUMPY agreement corpus for the pipelined kernel:
    the numpy and pure-Python bulk implementations produce identical
    executions (outputs AND full metrics) on the Hypothesis graph
    strategy -- so implementation selection can never change an
    observable."""
    if columnar_mod._numpy() is None:
        pytest.skip("numpy not importable")
    g = data.draw(small_graphs)
    n = g.n
    sources = sorted(data.draw(st.sets(st.integers(0, n - 1),
                                       min_size=1, max_size=min(n, 4))))
    h = data.draw(st.integers(1, max(1, n - 1)))
    runs = {}
    for use_np in (True, False):
        prev = columnar_mod.set_numpy_enabled(use_np)
        try:
            res = run_hk_ssp(g, sources, h, backend="columnar")
        finally:
            columnar_mod.set_numpy_enabled(prev)
        runs[use_np] = (res.dist, res.sources, res.delta,
                        metrics_summary(res.metrics))
    assert runs[True] == runs[False]


# --- traced pipelined differential: the pipelined kernel emits the
# --- worklist loop's event stream itself ------------------------------


def observe_traced_pipelined(g, sources, h, backend, *, max_events,
                             split_recorder=False, budgets=(10 ** 6,),
                             delta=None):
    """Run Algorithm 1 on *backend* with a ``Tracer`` (ring of
    *max_events*) and a ``MetricsRegistry`` attached, one ``run`` per
    budget, and capture everything the observation saw.  With
    *split_recorder* the programs record into their own
    ``TraceRecorder`` and the tracer sees only the network events."""
    k = len(sources)
    if delta is None:
        delta = weak_delta_bound(g, sources, h)
    gamma = gamma_for(h, k, delta)
    bound = theorem11_round_bound(h, k, delta)
    tracer = Tracer(max_events=max_events)
    prog_trace = TraceRecorder() if split_recorder else tracer
    registry = MetricsRegistry()
    net = make_network(
        g, lambda v: PipelinedSSPProgram(v, sources, h, gamma,
                                         cutoff_round=bound,
                                         trace=prog_trace),
        backend=backend, tracer=tracer, registry=registry)
    legs = []
    with tracer.span("pipelined", h=h, k=k, delta=delta) as sp:
        for budget in budgets:
            try:
                net.run(max_rounds=budget)
                legs.append(("quiesced",))
            except RoundLimitExceeded as exc:
                legs.append(("round-limit", str(exc),
                             post_mortem_summary(exc.post_mortem)))
            except AssertionError as exc:  # Invariant 1, kernel checks
                legs.append(("assertion", str(exc)))
                break
        sp.set(rounds=net.metrics.rounds)
    snap = registry.snapshot()
    # Which round implementation ran is engine attribution, recorded
    # only by the pipelined kernel; assert_traced_pipelined_equivalent
    # checks it on its own.
    counters = dict(snap["counters"])
    impl_runs = {name: counters.pop(name) for name in list(counters)
                 if name.startswith("columnar.pipelined.impl")}
    return {
        "impl_runs": impl_runs,
        "legs": legs,
        "events": [tuple(e) for e in tracer.events],
        "event_spans": list(tracer._event_spans),
        "dropped": tracer.dropped,
        "spans": [(sp.span_id, sp.parent_id, sp.name, sp.attrs)
                  for sp in tracer.spans],
        "program_events": ([tuple(e) for e in prog_trace.events]
                           if split_recorder else None),
        "send_history": [send_history(p) for p in net.programs],
        "outputs": net.outputs(),
        "metrics": metrics_summary(net.metrics),
        "registry": (counters, snap["gauges"],
                     {name: hist["count"]
                      for name, hist in snap["histograms"].items()}),
    }


def assert_traced_pipelined_equivalent(g, sources, h, backend, **kwargs):
    """:func:`observe_traced_pipelined` on the reference backend and on
    *backend* -- the columnar one under each bulk implementation -- must
    agree on every observation.  Returns the reference observation."""
    ref = observe_traced_pipelined(g, sources, h, "reference", **kwargs)
    assert ref.pop("impl_runs") == {}
    impls = [None]
    if backend == "columnar":
        impls = [False] + ([True] if columnar_mod._numpy() is not None
                           else [])
    for use_np in impls:
        prev = columnar_mod.set_numpy_enabled(use_np)
        try:
            got = observe_traced_pipelined(g, sources, h, backend, **kwargs)
        finally:
            columnar_mod.set_numpy_enabled(prev)
        # every leg on the kernel, each with the forced implementation
        want_impl = ({} if backend != "columnar" else {
            f"columnar.pipelined.impl{{impl={'numpy' if use_np else 'python'}}}":
            len(got["legs"])})
        assert got.pop("impl_runs") == want_impl
        for key, want in ref.items():
            assert got[key] == want, (
                f"{backend} backend diverged from reference on traced "
                f"{key} (numpy={use_np}): {backend}={got[key]!r} "
                f"ref={want!r}")
    return ref


@backends
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_traced_pipelined_differential(backend, data):
    """Traced (h, k)-SSP: identical event streams (program and network
    events, in order), span ids, ring drops, span attributes,
    ``sent_at`` histories, outputs, metrics and registry contents on
    every backend -- with a small ring that wraps, with the programs'
    recorder split from the network tracer, and across a round-limited
    run resumed to quiescence."""
    g = data.draw(small_graphs)
    n = g.n
    sources = sorted(data.draw(st.sets(st.integers(0, n - 1),
                                       min_size=1, max_size=min(n, 4))))
    h = data.draw(st.integers(1, max(1, n - 1)))
    assert_traced_pipelined_equivalent(
        g, sources, h, backend,
        max_events=data.draw(st.sampled_from([7, 50, 10 ** 5])),
        split_recorder=data.draw(st.booleans()),
        budgets=data.draw(st.sampled_from([(10 ** 6,), (3, 10 ** 6)])))


def test_traced_pipelined_rational_gamma_keys():
    """With ``h k / Delta = 16/9`` gamma is the rational 4/3, keyed as
    the exact quotient ``(4 d + 3 l) / 3`` (repro.core.keys.key_of);
    the kernel's vector and scalar keys must match it bit for bit, and
    the insert events carry every key."""
    g = random_graph(10, p=0.4, w_max=6, zero_fraction=0.2, seed=3,
                     directed=True)
    obs = assert_traced_pipelined_equivalent(
        g, [0, 3, 5, 7], 4, "columnar", max_events=10 ** 5, delta=9)
    # the instance discriminates: some key differs from the plain
    # multiply-add on the float gamma
    g_float = float(gamma_for(4, 4, 9))
    inserts = [data for _r, _v, kind, data in obs["events"]
               if kind == "insert"]
    assert any(d * g_float + l != kappa
               for d, l, _x, kappa, _pos in inserts)


def test_traced_pipelined_resumption():
    """A traced run interrupted by the round limit, then resumed: the
    columnar kernel stays engaged across both legs, and the interrupt,
    the post-mortem, the event stream and the ring drops all match the
    reference."""
    g = random_graph(14, p=0.35, w_max=6, zero_fraction=0.3, seed=7,
                     directed=True)
    obs = assert_traced_pipelined_equivalent(
        g, [0, 4, 9], 5, "columnar", max_events=200, budgets=(6, 10 ** 6))
    assert obs["legs"][0][0] == "round-limit"
    assert obs["legs"][1] == ("quiesced",)
    assert obs["dropped"] > 0
    assert any("sent in round" in line
               for hist in obs["send_history"] for line in hist)

    tracer = Tracer()
    net = ColumnarNetwork(
        g, lambda v: PipelinedSSPProgram(v, (0, 4, 9), 5, 1.5,
                                         trace=tracer),
        tracer=tracer)
    with pytest.raises(RoundLimitExceeded):
        net.run(max_rounds=6)
    assert net._columnar_kernel() is not None
    net.run(max_rounds=10 ** 6)
    assert net._columnar_kernel() is not None


def test_traced_pipelined_invariant1_events():
    """Events emitted before an Invariant 1 failure are in the tracer
    when the AssertionError propagates, on every backend.  The failure
    is provoked by resuming with the round counter moved past scheduled
    sends, so later arrivals land on positions already due."""
    g = random_graph(14, p=0.35, w_max=6, zero_fraction=0.3, seed=7,
                     directed=True)

    def observe(network_cls):
        tracer = Tracer(max_events=300)
        net = network_cls(
            g, lambda v: PipelinedSSPProgram(v, (0, 4, 9), 5, 1.5,
                                             trace=tracer),
            tracer=tracer)
        with pytest.raises(RoundLimitExceeded):
            net.run(max_rounds=6)
        net._round = 8
        with pytest.raises(AssertionError, match="Invariant 1") as exc:
            net.run(max_rounds=10 ** 5)
        return (str(exc.value), [tuple(e) for e in tracer.events],
                tracer._event_spans, tracer.dropped,
                [send_history(p) for p in net.programs])

    ref = observe(Network)
    assert ref[1][-1][2] == "insert"  # the offending insert is recorded
    for network_cls in (network_class(b) for b in CONFORMANCE_BACKENDS):
        impls = [None]
        if network_cls is ColumnarNetwork:
            impls = [False] + ([True] if columnar_mod._numpy() is not None
                               else [])
        for use_np in impls:
            prev = columnar_mod.set_numpy_enabled(use_np)
            try:
                assert observe(network_cls) == ref, (network_cls, use_np)
            finally:
                columnar_mod.set_numpy_enabled(prev)


def test_columnar_bulk_path_engaged():
    """Guard against the columnar backend silently running everything
    on the inherited loop: the relaxation family AND the pipelined
    (h, k)-SSP family take their bulk kernels, the pipelined one also
    when traced or recording sends; fault plans, ring recorders,
    monitors, mixed-parameter networks, paranoid mode, and a traced
    relaxation network do not."""
    g = path_graph(4, w=2)
    bf = lambda v: BellmanFordProgram(v, 0)
    assert ColumnarNetwork(g, bf)._columnar_kernel() is not None
    assert ColumnarNetwork(g, bf, tracer=Tracer())._columnar_kernel() is None
    assert ColumnarNetwork(g, bf, record_window=2)._columnar_kernel() is None
    assert ColumnarNetwork(
        g, bf, fault_plan=FaultPlan(seed=1, drop_rate=0.5),
    )._columnar_kernel() is None
    # Mixed hop caps break the single-wavefront cutoff; fall back.
    mixed = lambda v: BellmanFordProgram(v, 0, max_hops=v + 1)
    assert ColumnarNetwork(g, mixed)._columnar_kernel() is None

    # The pipelined family is bulk-eligible since the columnar_pipelined
    # kernel landed...
    pipelined = lambda v: PipelinedSSPProgram(v, (0,), h=3, gamma=1.0)
    assert ColumnarNetwork(g, pipelined)._columnar_kernel() is not None
    # ...traced and send-recording runs included (the kernel emits the
    # worklist loop's event stream and keeps a sent_at column)...
    assert ColumnarNetwork(
        g, pipelined, tracer=Tracer())._columnar_kernel() is not None
    recorded = lambda v: PipelinedSSPProgram(v, (0,), h=3, gamma=1.0,
                                             record_sends=True)
    assert ColumnarNetwork(g, recorded)._columnar_kernel() is not None
    # ...but fault plans, ring recorders and monitors take the generic
    # loop:
    assert ColumnarNetwork(
        g, pipelined, fault_plan=FaultPlan(seed=1, drop_rate=0.5),
    )._columnar_kernel() is None
    assert ColumnarNetwork(
        g, pipelined, record_window=2)._columnar_kernel() is None
    assert ColumnarNetwork(
        g, pipelined, monitor=oracle_monitor(g, [0]))._columnar_kernel() \
        is None
    mixed_h = lambda v: PipelinedSSPProgram(v, (0,), h=3 if v else 2,
                                            gamma=1.0)
    assert ColumnarNetwork(g, mixed_h)._columnar_kernel() is None
    # Paranoid mode is a *dynamic* condition: the memoized kernel steps
    # aside while it is on and returns when it is off.
    from repro.core.node_list import set_paranoid
    net = ColumnarNetwork(g, pipelined)
    assert net._columnar_kernel() is not None
    prev = set_paranoid(True)
    try:
        assert net._columnar_kernel() is None
    finally:
        set_paranoid(prev)
    assert net._columnar_kernel() is not None


def test_columnar_eligibility_scan_memoized():
    """The O(n + m) eligibility scan runs once per network, not once
    per ``run()`` entry: re-entries after a round limit, resumption
    legs, and re-running a quiescent network all reuse the memoized
    verdict (positive or negative)."""
    g = random_graph(12, p=0.4, w_max=5, seed=2, directed=True)

    def drive(factory):
        net = ColumnarNetwork(g, factory)
        assert net._eligibility_scans == 0
        with pytest.raises(RoundLimitExceeded):
            net.run(max_rounds=1)
        net.run(max_rounds=10 ** 5)   # resume to quiescence
        net.run(max_rounds=10 ** 5)   # re-run the quiescent network
        return net._eligibility_scans

    assert drive(lambda v: BellmanFordProgram(v, 0)) == 1
    assert drive(
        lambda v: PipelinedSSPProgram(v, (0, 3), h=4, gamma=1.25)) == 1
    # A negative verdict is memoized too (the generic loop still runs).
    net = ColumnarNetwork(g, ScheduledMute)
    net.run(max_rounds=10)
    net.run(max_rounds=10)
    assert net._eligibility_scans == 1


def test_columnar_numpy_flag_validation(monkeypatch):
    monkeypatch.setenv("REPRO_COLUMNAR_NUMPY", "sometimes")
    with pytest.raises(ValueError, match="REPRO_COLUMNAR_NUMPY"):
        columnar_mod.numpy_enabled()
    monkeypatch.setenv("REPRO_COLUMNAR_NUMPY", "0")
    assert columnar_mod.numpy_enabled() is False


#: Which corruption mode perturbs which bulk kernel (the partition test
#: below keeps these in sync with the registry, so a future mode cannot
#: silently go mutation-untested).
_BF_CORRUPTION_MODES = ("evict-off-by-one", "stale-count")
_PIPELINED_CORRUPTION_MODES = ("send-rank-off-by-one", "nu-off-by-one")


class TestConformanceCatchesCorruption:
    """Mutation tests for the suite itself: a deliberately broken
    columnar round MUST make the differential assertions fail.  If one
    of these stops failing, the conformance suite has lost the power
    this PR relies on -- mirroring the paranoid-mode self-checks of
    tests/test_node_list_kernels.py."""

    def _graph(self):
        # A path from the source: every wavefront is small, so both
        # corruption modes perturb observables immediately.
        return path_graph(6, w=2)

    def _pipelined_corpus(self):
        """Deterministic replays of the Hypothesis pipelined strategy
        (multi-source random graphs with zero-weight edges, plus the
        canonical path): instances on which both pipelined corruption
        modes provably perturb the execution."""
        return [
            (random_graph(12, p=0.4, w_max=5, zero_fraction=0.2, seed=0),
             [0, 3, 5], 5),
            (random_graph(12, p=0.4, w_max=5, zero_fraction=0.2, seed=9),
             [0, 3, 5], 5),
            (path_graph(6, w=2), [0], 3),
        ]

    def test_modes_partition_the_registry(self):
        assert sorted(_BF_CORRUPTION_MODES + _PIPELINED_CORRUPTION_MODES) \
            == sorted(columnar_mod.CORRUPTION_MODES)

    @pytest.mark.parametrize("mode", _BF_CORRUPTION_MODES)
    def test_corrupted_round_is_caught(self, mode, columnar_impl):
        prev = columnar_mod.set_corruption(mode)
        try:
            with pytest.raises(AssertionError,
                               match="columnar backend diverged"):
                assert_entrypoint_equivalent(
                    run_bellman_ford, self._graph(), 0,
                    compare=("dist", "hops", "parent"), backend="columnar")
        finally:
            columnar_mod.set_corruption(prev)

    @pytest.mark.parametrize("mode", _PIPELINED_CORRUPTION_MODES)
    def test_corrupted_pipelined_round_is_caught(self, mode, columnar_impl):
        """A corrupted send-schedule rank (entries firing a round early)
        and a corrupted nu-count (one entry of padding too many) must
        both be caught on *every* corpus instance."""
        prev = columnar_mod.set_corruption(mode)
        try:
            for g, srcs, h in self._pipelined_corpus():
                with pytest.raises(AssertionError,
                                   match="columnar backend diverged"):
                    assert_entrypoint_equivalent(
                        run_hk_ssp, g, srcs, h,
                        compare=("dist", "sources", "delta"),
                        backend="columnar")
        finally:
            columnar_mod.set_corruption(prev)

    @pytest.mark.parametrize("mode", _PIPELINED_CORRUPTION_MODES)
    def test_corrupted_traced_pipelined_round_is_caught(self, mode):
        """The same corruptions are caught with a tracer attached (the
        traced kernel is a different code path through the same fold)."""
        prev = columnar_mod.set_corruption(mode)
        try:
            for g, srcs, h in self._pipelined_corpus():
                with pytest.raises(AssertionError,
                                   match="columnar backend diverged"):
                    assert_traced_pipelined_equivalent(
                        g, srcs, h, "columnar", max_events=10 ** 5)
        finally:
            columnar_mod.set_corruption(prev)

    def test_uncorrupted_control(self, columnar_impl):
        """The same checks pass with corruption off -- the mutation
        tests above cannot be passing vacuously."""
        assert_entrypoint_equivalent(
            run_bellman_ford, self._graph(), 0,
            compare=("dist", "hops", "parent"), backend="columnar")
        for g, srcs, h in self._pipelined_corpus():
            assert_entrypoint_equivalent(
                run_hk_ssp, g, srcs, h,
                compare=("dist", "sources", "delta"), backend="columnar")
            assert_traced_pipelined_equivalent(
                g, srcs, h, "columnar", max_events=10 ** 5)

    def test_unknown_corruption_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown corruption mode"):
            columnar_mod.set_corruption("flip-random-bit")
