"""The columnar pipelined kernel's lazy state and its round choice.

After a kernel run each program keeps ``best`` and its stats current,
and leaves ``list_v`` parked as the kernel's columns; the list and each
``SourceBest.entry`` are rebuilt on first access.  Every way of looking
at a program -- the list, a flagged entry, a checkpoint snapshot, a
pickle, a send history, a resumed run -- must see exactly what a
worklist run of the same instance leaves behind.

The kernel also picks its round implementation per run: in auto mode
by the graph's CSR edge count, otherwise as forced.
"""

import copy
import pickle

import pytest

from repro.analysis.inspect import send_history
from repro.congest import RoundLimitExceeded
from repro.core import node_list as node_list_mod
from repro.core.keys import gamma_for
from repro.core.node_list import export_entry_columns
from repro.core.pipelined import PipelinedSSPProgram, theorem11_round_bound
from repro.graphs import random_graph
from repro.graphs.reference import weak_delta_bound
from repro.obs import MetricsRegistry
from repro.perf import ColumnarNetwork, make_network
from repro.perf import columnar as columnar_mod
from repro.perf import columnar_pipelined as kernel_mod
from repro.recovery.checkpoint import capture_state, restore_state

from backend_conformance import columnar_impl
from differential import metrics_summary

#: Forces one round implementation, numpy or python, for a test body.
impl = columnar_impl


@pytest.fixture
def auto_mode(monkeypatch):
    """Neither the override nor the environment forces the gate."""
    monkeypatch.delenv("REPRO_COLUMNAR_NUMPY", raising=False)
    prev = columnar_mod.set_numpy_enabled(None)
    try:
        yield
    finally:
        columnar_mod.set_numpy_enabled(prev)


#: (graph, sources, h, program options): directed, undirected (with
#: one-way channels that carry messages but relax nothing) and a
#: send-recording instance.
INSTANCES = {
    "directed": (random_graph(14, p=0.3, w_max=6, zero_fraction=0.2,
                              seed=4, directed=True),
                 (0, 3, 7, 11), 6, {}),
    "undirected-broadcast": (random_graph(12, p=0.3, w_max=5, seed=9,
                                          directed=True),
                             (1, 5, 8), 11,
                             {"directed_broadcast": False}),
    "record-sends": (random_graph(12, p=0.35, w_max=4, zero_fraction=0.3,
                                  seed=2, directed=True),
                     tuple(range(12)), 11, {"record_sends": True}),
}

instances = pytest.mark.parametrize("name", sorted(INSTANCES))


def build(backend, name):
    g, sources, h, opts = INSTANCES[name]
    k = len(sources)
    delta = weak_delta_bound(g, sources, h)
    gamma = gamma_for(h, k, delta)
    bound = theorem11_round_bound(h, k, delta)
    net = make_network(
        g, lambda v: PipelinedSSPProgram(v, sources, h, gamma,
                                         cutoff_round=bound, **opts),
        backend=backend)
    return net


def run(net, budgets=(10 ** 6,), between=None):
    """One ``run`` per budget; *between* is called after each
    round-limited leg."""
    for budget in budgets:
        try:
            net.run(max_rounds=budget)
        except RoundLimitExceeded:
            if between is not None:
                between(net)
    return net


def engaged(net):
    return isinstance(net, ColumnarNetwork) \
        and net._columnar_kernel() is not None


def state_view(attrs):
    """Everything observable in a pipelined program's attribute dict:
    the list as columns and through its index queries, each best with
    its flagged entry (which must be an entry of the list), the stats,
    and the attribute names (nothing parked is left over)."""
    nl = attrs["list_v"]
    entries = list(nl)
    best = {}
    for x, b in attrs["best"].items():
        e = b.entry
        assert e is None or any(e is z for z in entries)
        assert e is None or e.flag_sp
        best[x] = (b.d, b.l, b.parent,
                   None if e is None else (e.sort_key, e.l, e.parent))
    per_source = {x: [e.sort_key for e in nl.entries_for(x)]
                  for x in attrs["best"]}
    return {
        "columns": export_entry_columns(nl),
        "per_source": per_source,
        "nu": [nl.nu_of(e) for e in entries],
        "max_per_source": nl.max_entries_any_source(),
        "best": best,
        "stats": (attrs["max_per_source_seen"], attrs["max_list_len_seen"],
                  attrs["last_sp_update_round"], attrs["sends"]),
        "attrs": sorted(attrs),
    }


def views(net):
    """:func:`state_view` of every program, parked lists built first."""
    for p in net.programs:
        p.list_v
    return [state_view(vars(p)) for p in net.programs]


@instances
def test_run_leaves_the_list_parked(name, impl):
    """Right after a kernel run no list is built: ``best`` and the stats
    are current, ``list_v`` is absent from the instance and no entry
    column has been loaded back."""
    ref = run(build("reference", name))
    net = build("columnar", name)
    assert engaged(net)
    loads = []
    orig = node_list_mod.load_entry_columns

    def spy(*args):
        loads.append(1)
        return orig(*args)

    node_list_mod.load_entry_columns = spy
    try:
        run(net)
        for p, q in zip(net.programs, ref.programs):
            assert "list_v" not in vars(p)
            assert {x: (b.d, b.l, b.parent) for x, b in p.best.items()} \
                == {x: (b.d, b.l, b.parent) for x, b in q.best.items()}
            assert (p.max_list_len_seen, p.max_per_source_seen,
                    p.last_sp_update_round, p.sends) \
                == (q.max_list_len_seen, q.max_per_source_seen,
                    q.last_sp_update_round, q.sends)
        assert net.outputs() == ref.outputs()
        assert loads == []
        net.programs[0].list_v
        assert len(loads) == 1
    finally:
        node_list_mod.load_entry_columns = orig
    assert metrics_summary(net.metrics) == metrics_summary(ref.metrics)


@instances
def test_list_columns_equal_worklist(name, impl):
    ref = run(build("reference", name))
    net = run(build("columnar", name))
    for p, q in zip(net.programs, ref.programs):
        assert export_entry_columns(p.list_v) \
            == export_entry_columns(q.list_v)
    assert views(net) == views(ref)


@instances
def test_best_entry_before_the_list(name, impl):
    """The first access is a ``SourceBest.entry``: it builds the list,
    and the entry is the list's flagged entry of its source."""
    ref = run(build("reference", name))
    net = run(build("columnar", name))
    for p, q in zip(net.programs, ref.programs):
        for x, b in p.best.items():
            e, want = b.entry, q.best[x].entry
            if want is None:
                assert e is None
                continue
            assert (e.sort_key, e.l, e.parent, e.flag_sp) \
                == (want.sort_key, want.l, want.parent, True)
            assert any(e is z for z in p.list_v)
            assert [z for z in p.list_v.entries_for(x) if z.flag_sp] == [e]
    assert views(net) == views(ref)


@instances
def test_capture_state_equals_worklist(name, impl):
    """A checkpoint snapshot of a parked program is the snapshot of a
    worklist program, and restores onto a fresh program."""
    ref = run(build("reference", name))
    net = run(build("columnar", name))
    for v, (p, q) in enumerate(zip(net.programs, ref.programs)):
        kind, state = capture_state(p)
        assert kind == "attrs"
        assert state_view(state) == state_view(capture_state(q)[1])
        fresh = build("reference", name).programs[v]
        restore_state(fresh, (kind, state))
        assert state_view(vars(fresh)) == state_view(vars(q))


@instances
def test_pickle_and_deepcopy_equal_worklist(name, impl):
    ref = run(build("reference", name))
    want = views(ref)
    for copier in (lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy):
        net = run(build("columnar", name))
        got = [state_view(vars(copier(p))) for p in net.programs]
        assert got == want


def test_send_history_equals_worklist(impl):
    ref = run(build("reference", "record-sends"))
    net = run(build("columnar", "record-sends"))
    got = [send_history(p) for p in net.programs]
    assert got == [send_history(q) for q in ref.programs]
    assert any("sent in round" in line for hist in got for line in hist)


@instances
@pytest.mark.parametrize("access", ["none", "some", "all"])
def test_resumed_run(name, impl, access):
    """A round-limited kernel run resumed to quiescence ends where a
    resumed worklist run ends.  Without an access in between the
    resumed run takes the parked columns as they are (no export);
    a program whose list was built in between is exported again."""
    budgets = (6, 10 ** 6)

    def touch(net):
        for p in net.programs[:3] if access == "some" else net.programs:
            p.list_v

    ref = run(build("reference", name), budgets,
              None if access == "none" else touch)
    exports = []
    orig = node_list_mod.export_entry_columns

    def spy(nl):
        exports.append(1)
        return orig(nl)

    net = build("columnar", name)
    assert engaged(net)
    try:
        net.run(max_rounds=budgets[0])
        pytest.fail("the first leg must hit the round limit")
    except RoundLimitExceeded:
        pass
    if access != "none":
        touch(net)
    node_list_mod.export_entry_columns = spy
    try:
        net.run(max_rounds=budgets[1])
    finally:
        node_list_mod.export_entry_columns = orig
    assert len(exports) == {"none": 0, "some": 3,
                            "all": len(net.programs)}[access]
    assert net.outputs() == ref.outputs()
    assert metrics_summary(net.metrics) == metrics_summary(ref.metrics)
    assert views(net) == views(ref)
    # and both equal the uninterrupted run
    assert views(net) == views(run(build("reference", name)))


def test_worklist_run_after_a_kernel_run(impl):
    """A parked network that leaves the kernel (paranoid mode) builds
    its lists on the way and ends like a worklist run."""
    ref = run(build("reference", "directed"), (6, 10 ** 6))
    net = build("columnar", "directed")
    with pytest.raises(RoundLimitExceeded):
        net.run(max_rounds=6)
    prev = node_list_mod.set_paranoid(True)
    try:
        assert net._columnar_kernel() is None
        net.run(max_rounds=10 ** 6)
    finally:
        node_list_mod.set_paranoid(prev)
    assert net.outputs() == ref.outputs()
    assert metrics_summary(net.metrics) == metrics_summary(ref.metrics)
    assert views(net) == views(ref)


# --- which round implementation runs --------------------------------------


def _kernel(g):
    net = ColumnarNetwork(
        g, lambda v: PipelinedSSPProgram(v, (0, 1), 4, 1.0))
    kernel = net._columnar_kernel()
    assert kernel is not None
    return net, kernel


SMALL = random_graph(16, p=0.3, seed=1, directed=True)
LARGE = random_graph(64, p=0.4, seed=1, directed=True)


def _edges(g):
    return sum(1 for _ in g.edges())


def test_graph_sizes_straddle_the_crossover():
    assert _edges(SMALL) < kernel_mod.NUMPY_MIN_EDGES <= _edges(LARGE)


def test_auto_mode_picks_by_size(auto_mode):
    _, small = _kernel(SMALL)
    _, large = _kernel(LARGE)
    assert small.impl == "python"
    if columnar_mod._numpy() is None:
        assert large.impl == "python"
        assert large.impl_reason == "numpy is not importable"
        return
    assert large.impl == "numpy"
    assert small.impl_reason == (
        f"auto: {_edges(SMALL)} edges < {kernel_mod.NUMPY_MIN_EDGES}")
    assert large.impl_reason == (
        f"auto: {_edges(LARGE)} edges >= {kernel_mod.NUMPY_MIN_EDGES}")


@pytest.mark.parametrize("g", [SMALL, LARGE], ids=["small", "large"])
def test_forced_gate_wins_at_every_size(impl, g):
    _, kernel = _kernel(g)
    assert kernel.impl == impl
    assert kernel.impl_reason == "forced"


@pytest.mark.parametrize("env", ["0", "1"])
def test_forced_env_wins_at_every_size(auto_mode, monkeypatch, env):
    if env == "1" and columnar_mod._numpy() is None:
        pytest.skip("numpy not importable")
    monkeypatch.setenv("REPRO_COLUMNAR_NUMPY", env)
    for g in (SMALL, LARGE):
        _, kernel = _kernel(g)
        assert kernel.impl == ("numpy" if env == "1" else "python")
        assert kernel.impl_reason == "forced"


def test_choice_follows_the_gate_between_runs(auto_mode):
    """The choice is made per run: flipping the gate between runs on
    the same network switches the implementation."""
    net, kernel = _kernel(SMALL)
    assert kernel.impl == "python"
    columnar_mod.set_numpy_enabled(False)
    assert net._columnar_kernel().impl == "python"
    if columnar_mod._numpy() is not None:
        columnar_mod.set_numpy_enabled(True)
        assert net._columnar_kernel().impl == "numpy"


def test_registry_records_the_implementation(auto_mode, monkeypatch):
    """Each kernel run counts its implementation in the registry, so
    the size-based choice is never silent; auto mode on each side of
    a (lowered) crossover."""
    monkeypatch.setattr(kernel_mod, "NUMPY_MIN_EDGES", _edges(SMALL) + 1)
    registry = MetricsRegistry()
    net = ColumnarNetwork(
        SMALL, lambda v: PipelinedSSPProgram(v, (0, 1), 4, 1.0),
        registry=registry)
    net.run(max_rounds=10 ** 6)
    counters = registry.snapshot()["counters"]
    assert counters["columnar.pipelined.impl{impl=python}"] == 1
    if columnar_mod._numpy() is None:
        return
    monkeypatch.setattr(kernel_mod, "NUMPY_MIN_EDGES", _edges(SMALL))
    net2 = ColumnarNetwork(
        SMALL, lambda v: PipelinedSSPProgram(v, (0, 1), 4, 1.0),
        registry=registry)
    net2.run(max_rounds=10 ** 6)
    counters = registry.snapshot()["counters"]
    assert counters["columnar.pipelined.impl{impl=numpy}"] == 1
    assert net2.outputs() == net.outputs()


def test_receiver_whose_arrivals_are_all_dropped(impl):
    """Node 0's only arrival is its own source's entry back from node 1,
    which Step 13 rejects before the fold.  Node 0 still ends its round
    like the reference's ``on_receive``: its list-length stats count
    the entry it started with."""
    from repro.graphs import WeightedDigraph
    g = WeightedDigraph.from_edges(2, [(0, 1, 3), (1, 0, 2)])
    factory = lambda v: PipelinedSSPProgram(v, (0,), 1, 1.0)
    ref = make_network(g, factory, backend="reference")
    net = make_network(g, factory, backend="columnar")
    assert engaged(net)
    run(ref)
    run(net)
    assert net.programs[0].max_list_len_seen == 1
    assert views(net) == views(ref)
