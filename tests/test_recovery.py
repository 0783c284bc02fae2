"""The recovery subsystem: checkpoint/restore, crash-recovery with
rollback + neighbour replay, incremental re-convergence, and the chaos
campaign.

The acceptance claims pinned here:

* a run suspended at any round, serialized to JSON, and resumed in a
  freshly built network -- on either backend -- finishes bit-identically
  to the uninterrupted run;
* a node crashed with ``restart_from="checkpoint"`` loses its volatile
  state, rolls back to its last snapshot, re-synchronizes via neighbour
  replay, and the whole network still converges to the exact Dijkstra
  distances -- with identical instrumented observations across backends;
* :class:`~repro.recovery.DynamicRun` repairs an updated graph by
  re-running only the affected sources, its ``rounds_to_repair`` is
  never more than the from-scratch recompute (strictly less when some
  source is unaffected), and a crash *during* the repair changes none
  of that -- with bit-identical digests across backends.
"""

import copy
import json

import pytest

from differential import BACKEND_NAMES
from repro.congest import Network, RoundLimitExceeded
from repro.core.bellman_ford import BellmanFordProgram
from repro.faults import CrashWindow, FaultPlan
from repro.graphs import random_graph
from repro.graphs.reference import dijkstra
from repro.perf.backends import make_network
from repro.recovery import (
    CheckpointError,
    CheckpointStore,
    DynamicRun,
    EdgeUpdate,
    NodeCheckpoint,
    NodeJoin,
    NodeLeave,
    RecoverableProgram,
    RunCheckpoint,
    capture_state,
    checkpoint_network,
    decode_value,
    encode_value,
    recovery_monitor,
    restore_network,
    restore_state,
    resume_from_checkpoint,
    run_chaos_campaign,
    run_chaos_case,
    run_recoverable,
)
from repro.recovery import chaos
from repro.recovery.chaos import ChaosCase

INF = float("inf")


def bf_factory(source=0):
    return lambda v: BellmanFordProgram(v, source=source)


# ---------------------------------------------------------------------------
# Codec and program-state capture
# ---------------------------------------------------------------------------

class TestCodec:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, -3, 7,
        1.5, INF, -INF, 0.1 + 0.2,     # floats via repr: exact round-trip
        "plain string", "",
        (1, 2, (3, "x")), [1, [2, 3]], (),
        {"a": 1, "b": [2.5, INF]},
        {(0, 1): 4, (1, 2): INF},      # tuple keys
        {1: {2: (3,)}},
    ])
    def test_roundtrip_exact(self, value):
        got = decode_value(json.loads(json.dumps(encode_value(value))))
        assert got == value
        assert type(got) is type(value)

    def test_roundtrip_collections(self):
        from collections import Counter, deque
        for value in [{1, 2, 3}, frozenset({(1, 2)}),
                      deque([1, 2]), deque([1, 2, 3], maxlen=5),
                      Counter({"a": 2, (0, 1): 1})]:
            got = decode_value(json.loads(json.dumps(encode_value(value))))
            assert got == value
            assert type(got) is type(value)
        assert decode_value(encode_value(deque([1], maxlen=4))).maxlen == 4

    def test_int_vs_float_preserved(self):
        assert decode_value(encode_value(3)) == 3
        assert isinstance(decode_value(encode_value(3)), int)
        assert isinstance(decode_value(encode_value(3.0)), float)

    def test_unencodable_value_raises(self):
        with pytest.raises(CheckpointError, match="not JSON-checkpointable"):
            encode_value(object())

    def test_unknown_tag_raises(self):
        with pytest.raises(CheckpointError, match="unknown codec tag"):
            decode_value({"~": "nope", "v": []})


class TestCaptureState:
    def test_capture_restore_roundtrip_on_bellman_ford(self):
        p = BellmanFordProgram(3, source=0)
        p.d, p.hops, p.parent, p._announce = 7.0, 2, 1, 5
        snap = capture_state(p)
        p.d, p._announce = 1.0, None  # diverge after the snapshot
        restore_state(p, snap)
        assert (p.d, p.hops, p.parent, p._announce) == (7.0, 2, 1, 5)

    def test_snapshot_detached_from_live_state(self):
        p = BellmanFordProgram(0, source=0)
        p.extra = {"k": [1, 2]}
        snap = capture_state(p)
        p.extra["k"].append(3)
        restore_state(p, snap)
        assert p.extra == {"k": [1, 2]}

    def test_custom_protocol_preferred(self):
        class Custom:
            def __init__(self):
                self.x = 1

            def snapshot_state(self):
                return {"x": self.x}

            def restore_state(self, state):
                self.x = state["x"]

        c = Custom()
        snap = capture_state(c)
        assert snap[0] == "custom"
        c.x = 99
        restore_state(c, snap)
        assert c.x == 1

    def test_identity_sharing_survives(self):
        # One deepcopy memo: attributes referencing the same object must
        # still do so after restore (the pipelined best<->entry link).
        p = BellmanFordProgram(0, source=0)
        shared = [1]
        p.a, p.b = shared, {"ref": shared}
        snap = capture_state(p)
        restore_state(p, snap)
        assert p.a is p.b["ref"]


# ---------------------------------------------------------------------------
# Run-level checkpoints: suspend / serialize / resume
# ---------------------------------------------------------------------------

def _suspend(net, at_round):
    try:
        net.run(max_rounds=at_round)
    except RoundLimitExceeded:
        pass  # suspension point: the run is mid-flight by design
    return checkpoint_network(net, label=f"r{at_round}")


class TestRunCheckpoint:
    @pytest.mark.parametrize("suspend_backend", BACKEND_NAMES)
    @pytest.mark.parametrize("resume_backend", BACKEND_NAMES)
    def test_resume_equals_uninterrupted(self, suspend_backend,
                                         resume_backend):
        g = random_graph(10, p=0.4, w_max=6, zero_fraction=0.2, seed=3)
        full = make_network(g, bf_factory(), backend=resume_backend)
        m_full = full.run(max_rounds=60)

        net = make_network(g, bf_factory(), backend=suspend_backend)
        ckpt = _suspend(net, at_round=3)
        # Through the serialized form: what resumes is the JSON, not the
        # live object graph.
        ckpt = RunCheckpoint.from_json(ckpt.to_json())
        outs, metrics, _ = resume_from_checkpoint(
            ckpt, g, bf_factory(), 60, backend=resume_backend)
        assert outs == full.outputs()
        assert metrics.rounds == m_full.rounds
        assert metrics.messages == m_full.messages

    def test_resume_under_faults_replays_in_flight(self):
        # Delayed envelopes sitting in the injector when the run stops
        # must survive the checkpoint, or the resumed run diverges.
        g = random_graph(10, p=0.4, w_max=6, seed=7)
        plan = FaultPlan(seed=5, delay_rate=0.4, max_delay=4,
                         duplicate_rate=0.2)
        full = make_network(g, bf_factory(), fault_plan=plan)
        m_full = full.run(max_rounds=200)

        net = make_network(g, bf_factory(), fault_plan=plan)
        ckpt = _suspend(net, at_round=4)
        assert ckpt.in_flight or ckpt.fault_stats is not None
        ckpt = RunCheckpoint.from_json(ckpt.to_json())
        outs, metrics, _ = resume_from_checkpoint(
            ckpt, g, bf_factory(), 200, fault_plan=plan)
        assert outs == full.outputs()
        assert metrics.rounds == m_full.rounds
        assert dict(metrics.faults) == dict(m_full.faults)

    def test_version_gate(self):
        g = random_graph(6, p=0.5, w_max=4, seed=1)
        net = make_network(g, bf_factory())
        ckpt = _suspend(net, at_round=2)
        data = json.loads(ckpt.to_json())
        data["version"] = 99
        with pytest.raises(CheckpointError, match="version"):
            RunCheckpoint.from_json(json.dumps(data))

    def test_digest_detects_corruption(self):
        g = random_graph(6, p=0.5, w_max=4, seed=1)
        net = make_network(g, bf_factory())
        ckpt = _suspend(net, at_round=2)
        data = json.loads(ckpt.to_json())
        # Tamper with one node's state but keep its recorded digest.
        data["nodes"][0]["state"]["data"]["v"][0][1] = 12345
        tampered = RunCheckpoint.from_json(json.dumps(data))
        fresh = make_network(g, bf_factory())
        with pytest.raises(CheckpointError, match="digest mismatch"):
            restore_network(fresh, tampered)

    def test_restore_requires_fresh_network(self):
        g = random_graph(6, p=0.5, w_max=4, seed=1)
        net = make_network(g, bf_factory())
        ckpt = _suspend(net, at_round=2)
        with pytest.raises(CheckpointError, match="freshly built"):
            restore_network(net, ckpt)  # this network already ran

    def test_store_roundtrip(self, tmp_path):
        g = random_graph(6, p=0.5, w_max=4, seed=2)
        net = make_network(g, bf_factory())
        ckpt = _suspend(net, at_round=2)
        store = CheckpointStore(tmp_path)
        store.save("mid", ckpt)
        assert store.names() == ["mid"]
        loaded = store.load("mid")
        assert loaded.digest == ckpt.digest
        with pytest.raises(CheckpointError, match="no checkpoint"):
            store.load("missing")
        with pytest.raises(CheckpointError, match="bad checkpoint name"):
            store.path_of("../evil")

    def test_checkpoint_of_pipelined_state_falls_back_to_pickle(self):
        # Algorithm 1's entry lists are identity-linked structures the
        # JSON codec refuses; the envelope must still round-trip them.
        from repro.core.pipelined import (PipelinedSSPProgram, gamma_for,
                                          weak_delta_bound)

        g = random_graph(8, p=0.4, w_max=4, zero_fraction=0.3, seed=4)
        sources, h = (0, 2), g.n - 1
        gamma = gamma_for(h, len(sources), weak_delta_bound(g, sources, h))
        factory = lambda v: PipelinedSSPProgram(v, sources, h, gamma)
        full = make_network(g, factory)
        full.run(max_rounds=20 * g.n + 200)

        net = make_network(g, factory)
        ckpt = _suspend(net, at_round=5)
        assert any(c.state["codec"] == "pickle" for c in ckpt.nodes)
        ckpt = RunCheckpoint.from_json(ckpt.to_json())
        outs, _, _ = resume_from_checkpoint(
            ckpt, g, factory, 20 * g.n + 200)
        assert outs == full.outputs()


# ---------------------------------------------------------------------------
# Crash recovery: rollback + replay
# ---------------------------------------------------------------------------

class TestCrashRecovery:
    def _plan(self, node=2, crash=4, restart=9, **kwargs):
        return FaultPlan(crashes=(CrashWindow(
            node, crash, restart, restart_from="checkpoint"),), **kwargs)

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_converges_to_dijkstra_after_rollback(self, backend):
        g = random_graph(10, p=0.4, w_max=6, zero_fraction=0.2, seed=3)
        true, _ = dijkstra(g, 0)
        outs, _, _, stats = run_recoverable(
            g, bf_factory(), 600, fault_plan=self._plan(),
            checkpoint_every=3, backend=backend)
        assert [o[0] for o in outs] == list(true)
        assert stats.rollbacks >= 1
        assert stats.replayed_frames > 0

    def test_rollback_actually_loses_state(self):
        # The crashed node's wrapper must report a rollback *and* the
        # inner state must have been restored from a snapshot (we pin
        # that by checking the node still converges -- pure omission
        # without replay would leave it stuck with stale skew).
        g = random_graph(12, p=0.35, w_max=8, seed=9)
        true, _ = dijkstra(g, 0)
        plan = self._plan(node=5, crash=3, restart=11)
        outs, _, net, stats = run_recoverable(
            g, bf_factory(), 800, fault_plan=plan, checkpoint_every=2)
        assert stats.rollbacks == 1
        assert net.programs[5].rollbacks == 1
        assert net.programs[5]._skew > 0
        assert [o[0] for o in outs] == list(true)

    def test_with_delays_and_duplicates(self):
        g = random_graph(12, p=0.35, w_max=8, seed=2)
        true, _ = dijkstra(g, 0)
        plan = self._plan(node=3, crash=5, restart=12,
                          seed=7, delay_rate=0.2, max_delay=3,
                          duplicate_rate=0.1)
        outs, _, _, stats = run_recoverable(
            g, bf_factory(), 800, fault_plan=plan, checkpoint_every=4)
        assert [o[0] for o in outs] == list(true)
        assert stats.rollbacks >= 1

    def test_multiple_crash_windows(self):
        g = random_graph(12, p=0.4, w_max=6, seed=6)
        true, _ = dijkstra(g, 0)
        plan = FaultPlan(crashes=(
            CrashWindow(2, 3, 8, restart_from="checkpoint"),
            CrashWindow(7, 6, 14, restart_from="checkpoint"),
        ))
        outs, _, _, stats = run_recoverable(
            g, bf_factory(), 800, fault_plan=plan, checkpoint_every=3)
        assert [o[0] for o in outs] == list(true)
        assert stats.rollbacks == 2

    def test_under_rollback_aware_monitor(self):
        # The plain monotonicity invariant would fire on the rollback;
        # the rollback-aware one must ride through it while the lower
        # bound stays armed the whole time.
        g = random_graph(10, p=0.4, w_max=6, seed=3)
        true, _ = dijkstra(g, 0)
        outs, _, _, stats = run_recoverable(
            g, bf_factory(), 600, fault_plan=self._plan(),
            checkpoint_every=3, monitor=recovery_monitor(g, [0]))
        assert stats.rollbacks >= 1
        assert [o[0] for o in outs] == list(true)

    def test_instrumented_equivalence_across_backends(self):
        from differential import assert_instrumented_equivalent
        from repro.recovery import checkpoint_windows_of

        g = random_graph(10, p=0.4, w_max=6, seed=5)
        plan = self._plan(node=4, crash=4, restart=10,
                          seed=3, delay_rate=0.2, max_delay=2)

        def factory(v):
            return RecoverableProgram(
                BellmanFordProgram(v, source=0), node=v,
                windows=checkpoint_windows_of(plan, v),
                checkpoint_every=3, replay_slack=2)

        assert_instrumented_equivalent(
            g, factory, max_rounds=800, fault_plan=plan,
            monitor_factory=lambda: recovery_monitor(g, [0]),
            with_tracer=True, record_window=3,
            max_message_words=8 + RecoverableProgram.frame_overhead_words())

    def test_snapshots_persisted_to_store(self, tmp_path):
        g = random_graph(8, p=0.4, w_max=4, seed=1)
        store = CheckpointStore(tmp_path)
        run_recoverable(g, bf_factory(), 600, fault_plan=self._plan(),
                        checkpoint_every=3, store=store, run_label="t")
        names = store.node_names()
        assert names and all(n.startswith("t-n") for n in names)
        ck = store.load_node(names[0])
        assert isinstance(ck, NodeCheckpoint)

    def test_replay_window_pruning_counts_gaps(self):
        g = random_graph(10, p=0.4, w_max=6, seed=3)
        true, _ = dijkstra(g, 0)
        # A 1-round log cannot cover the rollback's request horizon.
        outs, _, _, stats = run_recoverable(
            g, bf_factory(), 800, fault_plan=self._plan(crash=6, restart=12),
            checkpoint_every=2, replay_window=1)
        assert stats.replay_gaps > 0
        # Bellman-Ford self-stabilizes: pre-crash knowledge the replay
        # could not recover is already reflected in the neighbours'
        # estimates, so convergence must still hold.
        assert [o[0] for o in outs] == list(true)

    def test_wrapper_validates_windows(self):
        inner = BellmanFordProgram(0, source=0)
        state_cw = CrashWindow(0, 2, 5)  # restart_from="state"
        with pytest.raises(ValueError, match="not a checkpoint-restart"):
            RecoverableProgram(inner, node=0, windows=(state_cw,))
        other = CrashWindow(3, 2, 5, restart_from="checkpoint")
        with pytest.raises(ValueError, match="belongs to node 3"):
            RecoverableProgram(inner, node=0, windows=(other,))
        with pytest.raises(ValueError, match="checkpoint_every"):
            RecoverableProgram(inner, node=0, checkpoint_every=0)

    def test_faultfree_wrapped_run_matches_plain(self):
        g = random_graph(10, p=0.4, w_max=6, seed=11)
        plain = Network(g, bf_factory())
        plain.run(max_rounds=60)
        outs, _, _, stats = run_recoverable(g, bf_factory(), 200)
        assert outs == plain.outputs()
        assert stats.rollbacks == 0

    def test_determinism(self):
        g = random_graph(10, p=0.4, w_max=6, seed=8)
        plan = self._plan(seed=13, delay_rate=0.2, duplicate_rate=0.1)

        def run():
            outs, m, _, stats = run_recoverable(
                g, bf_factory(), 800, fault_plan=plan, checkpoint_every=3)
            return (outs, m.rounds, m.messages, dict(m.faults),
                    stats.as_dict())

        assert run() == run()


# ---------------------------------------------------------------------------
# DynamicRun: incremental re-convergence
# ---------------------------------------------------------------------------

class TestDynamicRun:
    def _graph(self, seed=5, n=10):
        return random_graph(n, p=0.35, w_max=6, zero_fraction=0.2,
                            seed=seed)

    def test_initial_table_matches_oracle(self):
        g = self._graph()
        run = DynamicRun(g, [0, 3, 7], method="bellman-ford")
        assert run.oracle_check() == []

    def test_event_validation(self):
        with pytest.raises(ValueError, match="self-loop"):
            EdgeUpdate(2, 2, 1)
        with pytest.raises(ValueError, match="weight"):
            EdgeUpdate(0, 1, -3)
        with pytest.raises(ValueError, match="touch"):
            NodeJoin(5, ((1, 2, 3),))
        with pytest.raises(TypeError, match="event"):
            DynamicRun(self._graph(), [0]).apply("not an event")

    @pytest.mark.parametrize("method", ["bellman-ford", "pipelined"])
    def test_edge_updates_stay_oracle_correct(self, method):
        g = self._graph()
        run = DynamicRun(g, [0, 3, 7], method=method)
        for ev in (EdgeUpdate(0, 1, 0), EdgeUpdate(1, 4, 9),
                   EdgeUpdate(0, 1, None)):
            run.apply(ev)
            assert run.oracle_check() == [], f"{method} wrong after {ev}"

    def test_node_leave_and_join(self):
        g = self._graph()
        run = DynamicRun(g, [0, 3], method="bellman-ford")
        run.apply(NodeLeave(5))
        assert run.oracle_check() == []
        # A leave makes the node unreachable from every source.
        assert all(run.table[s][5] == INF for s in (0, 3))
        run.apply(NodeJoin(5, ((5, 2, 1), (4, 5, 2))))
        assert run.oracle_check() == []
        assert any(run.table[s][5] < INF for s in (0, 3))

    def test_affected_sources_are_a_superset_of_changed_rows(self):
        g = self._graph(seed=7)
        run = DynamicRun(g, list(range(g.n)), method="bellman-ford")
        before = copy.deepcopy(run.table)
        rec = run.apply(EdgeUpdate(0, 1, 0))
        changed = {s for s in run.sources if run.table[s] != before[s]}
        assert changed <= set(rec.affected)
        assert run.oracle_check() == []

    def test_unaffected_update_repairs_for_free(self):
        g = self._graph(seed=5)
        run = DynamicRun(g, [0], method="bellman-ford", compare_full=True)
        # Raising a non-tree edge far above its current weight cannot
        # change any distance from source 0.
        u, v, w = max(g.edges(), key=lambda e: e[2])
        rec = run.apply(EdgeUpdate(u, v, w + 50))
        if rec.affected:  # support-loss rule may still trigger a re-run
            assert run.oracle_check() == []
        else:
            assert rec.rounds_to_repair == 0
            assert rec.full_rounds > 0

    def test_rounds_to_repair_strictly_cheaper_when_affected_subset(self):
        g = self._graph(seed=1, n=14)
        run = DynamicRun(g, [0, 5, 9], method="bellman-ford",
                         compare_full=True)
        found = False
        for u, v, w in sorted(g.edges()):
            rec = run.apply(EdgeUpdate(u, v, w + 2))
            assert run.oracle_check() == []
            assert rec.rounds_to_repair <= rec.full_rounds
            if 0 < len(rec.affected) < len(run.sources):
                assert rec.rounds_to_repair < rec.full_rounds
                found = True
                break
        assert found, "no partially-affecting update in this graph"

    def test_metrics_accumulate_rounds_to_repair(self):
        g = self._graph()
        run = DynamicRun(g, [0, 3], method="bellman-ford")
        assert run.metrics.rounds_to_repair == 0
        r1 = run.apply(EdgeUpdate(0, 1, 0)).rounds_to_repair
        r2 = run.apply(EdgeUpdate(1, 4, 9)).rounds_to_repair
        assert run.metrics.rounds_to_repair == r1 + r2
        if r1 + r2:
            assert run.metrics.summary()["rounds_to_repair"] == r1 + r2

    def test_registry_publishes_counters(self):
        from repro.obs import MetricsRegistry
        from repro.obs.registry import run_metrics_view

        g = self._graph()
        reg = MetricsRegistry()
        run = DynamicRun(g, [0, 3], method="bellman-ford", registry=reg)
        run.apply(EdgeUpdate(0, 1, 0))
        view = run_metrics_view(reg)
        assert view.rounds_to_repair == run.metrics.rounds_to_repair
        assert view.rounds == run.metrics.rounds

    def test_digest_deterministic_and_history_sensitive(self):
        g = self._graph()
        a = DynamicRun(g, [0, 3], method="bellman-ford")
        b = DynamicRun(g, [0, 3], method="bellman-ford")
        assert a.digest() == b.digest()
        a.apply(EdgeUpdate(0, 1, 0))
        assert a.digest() != b.digest()
        b.apply(EdgeUpdate(0, 1, 0))
        assert a.digest() == b.digest()


class TestCrashDuringUpdate:
    """A dynamic run with a crash window in the middle of an update
    batch converges to oracle-correct distances, with the instrumented
    digest pinned to a committed value (fault runs never reach a
    columnar kernel, so a second backend would only re-run the object
    loop)."""

    def test_crash_during_update_pinned_across_backends(self):
        g = random_graph(12, p=0.35, w_max=6, zero_fraction=0.2, seed=4)
        plan = FaultPlan(
            seed=9, delay_rate=0.15, duplicate_rate=0.1, max_delay=2,
            crashes=(CrashWindow(3, 4, 10, restart_from="checkpoint"),))
        run = DynamicRun(g, [0, 5, 9], fault_plan=plan,
                         checkpoint_every=4, backend="reference",
                         monitor_factory=lambda gr, srcs:
                         recovery_monitor(gr, srcs))
        run.apply(EdgeUpdate(0, 1, 0), EdgeUpdate(2, 6, 9))
        run.apply(NodeLeave(7))
        assert run.oracle_check() == []
        assert run.metrics.rounds_to_repair == 86
        assert run.digest() == (
            "043927cf5ccf946f5938850fd6bec4e70b2df76a8be9a9f963a83cd426100c7f")


#: seed -> (digest_recoverable, digest_pipelined) of
#: ChaosCase(seed, n=8, batches=2, events_per_batch=2).
_CHAOS_DIGESTS = {
    0: ("aabffca35fd3e32098ddf65063891a75f396ab04b07dbcb8cf8525a2f667b7fc",
        "d36f94569e4effb01fa072c10e27d2ae7c62a34e5ce1ddcafb75798345f59b64"),
    1: ("2432e9bb952a906b3031adde70930c9c21acc3d03f343884ff1a835c4a2ac269",
        "d4fa4cb00350801759ebecb264ea0653b383cacb70acdb8cb910413f6178a4a6"),
}


class TestChaos:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_chaos_case_oracle_clean_and_backend_pinned(self, seed):
        case = ChaosCase(seed=seed, n=8, batches=2, events_per_batch=2)
        out = run_chaos_case(case, backend="reference")
        assert out.ok
        assert (out.digest_recoverable, out.digest_pipelined) == \
            _CHAOS_DIGESTS[seed]

    def test_campaign_checks_pinned_digests(self, monkeypatch):
        (row,) = run_chaos_campaign([0])
        assert row["pinned"] == 1
        monkeypatch.setitem(chaos.PINNED_DIGESTS, 0, ("0" * 64, "0" * 64))
        with pytest.raises(AssertionError, match="pinned"):
            run_chaos_campaign([0])
        # a resized case has no pin and is only oracle-checked
        (row,) = run_chaos_campaign([0], case_kwargs={"n": 8})
        assert row["pinned"] == 0
