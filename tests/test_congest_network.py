"""Tests of the synchronous round simulator: delivery timing, model
constraint enforcement, quiescence, fast-forward correctness, the send
schedule's contract, and its cost in idle nodes."""

import random
from typing import List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from conftest import graph_instances

from repro.congest import (
    CongestionError,
    MessageSizeError,
    Network,
    NodeContext,
    Program,
    RoundLimitExceeded,
)
from repro.graphs import WeightedDigraph, path_graph


def line(n: int) -> WeightedDigraph:
    return path_graph(n, w=1)


class Pinger(Program):
    """Node 0 sends 'ping' in round 1; everyone records receipt rounds."""

    def __init__(self, v: int) -> None:
        self.v = v
        self.received_at: List[int] = []
        self._todo = (v == 0)

    def on_send(self, ctx: NodeContext, r: int) -> None:
        if self._todo:
            self._todo = False
            ctx.broadcast("ping")

    def on_receive(self, ctx, r, inbox) -> None:
        self.received_at.extend(r for _ in inbox)

    def next_active_round(self, ctx, r) -> Optional[int]:
        return 1 if self._todo else None

    def output(self, ctx):
        return self.received_at


class TestDeliveryTiming:
    def test_send_in_round_r_received_in_round_r(self):
        net = Network(line(3), Pinger)
        net.run(max_rounds=10)
        assert net.output_of(1) == [1]   # neighbour hears it in round 1
        assert net.output_of(2) == []    # non-neighbour never does

    def test_metrics_count_rounds_and_messages(self):
        net = Network(line(3), Pinger)
        m = net.run(max_rounds=10)
        assert m.rounds == 1
        assert m.messages == 1
        assert m.max_channel_congestion == 1


class Relay(Program):
    """Forward any received message next round; node 0 seeds in round 1."""

    def __init__(self, v: int) -> None:
        self.v = v
        self._send_at: Optional[int] = 1 if v == 0 else None
        self.heard: Optional[int] = 1 if v == 0 else None

    def on_send(self, ctx, r):
        if self._send_at == r:
            self._send_at = None
            ctx.send_many([u for u, _ in ctx.out_edges if u > self.v], "tok")

    def on_receive(self, ctx, r, inbox):
        if self.heard is None:
            self.heard = r
            self._send_at = r + 1

    def next_active_round(self, ctx, r):
        return self._send_at

    def output(self, ctx):
        return self.heard


class TestQuiescenceAndFastForward:
    def test_relay_chain_rounds(self):
        n = 6
        net = Network(line(n), Relay)
        m = net.run(max_rounds=20)
        # token crosses one hop per round
        assert [net.output_of(v) for v in range(n)] == [1, 1, 2, 3, 4, 5]
        assert m.rounds == n - 1

    def test_quiescence_no_messages_no_schedules(self):
        net = Network(line(4), Relay)
        m = net.run(max_rounds=100)
        # re-running an already-quiescent network is a no-op
        m2 = net.run(max_rounds=100)
        assert m2.rounds == m.rounds


class SlowTicker(Program):
    """Node 0 sends at rounds 10 and 20 only -- exercises fast-forward."""

    def __init__(self, v: int) -> None:
        self.v = v
        self.schedule = [10, 20] if v == 0 else []
        self.received: List[int] = []

    def on_send(self, ctx, r):
        if self.schedule and self.schedule[0] == r:
            self.schedule.pop(0)
            ctx.broadcast("tick")

    def on_receive(self, ctx, r, inbox):
        self.received.append(r)

    def next_active_round(self, ctx, r):
        return self.schedule[0] if self.schedule else None

    def output(self, ctx):
        return self.received


class TestFastForward:
    def test_skipped_rounds_still_counted(self):
        net = Network(line(2), SlowTicker)
        m = net.run(max_rounds=50)
        assert net.output_of(1) == [10, 20]
        assert m.rounds == 20
        assert m.skipped_rounds == (9) + (9)  # 1..9 and 11..19 skipped
        assert m.active_rounds == 2


class Flooder(Program):
    """Violates CONGEST: two messages on one channel in one round."""

    def __init__(self, v):
        self.v = v
        self._todo = (v == 0)

    def on_send(self, ctx, r):
        if self._todo:
            self._todo = False
            ctx.send(1, "a")
            ctx.send(1, "b")

    def next_active_round(self, ctx, r):
        return 1 if self._todo else None


class BigTalker(Program):
    def __init__(self, v):
        self._todo = (v == 0)

    def on_send(self, ctx, r):
        if self._todo:
            self._todo = False
            ctx.send(1, tuple(range(100)))

    def next_active_round(self, ctx, r):
        return 1 if self._todo else None


class Chatterbox(Program):
    """Never quiesces."""

    def on_send(self, ctx, r):
        ctx.broadcast("hi")

    def next_active_round(self, ctx, r):
        return r + 1


class TestConstraintEnforcement:
    def test_channel_capacity_violation_raises(self):
        net = Network(line(2), Flooder)
        with pytest.raises(CongestionError):
            net.run(max_rounds=5)

    def test_channel_capacity_configurable(self):
        net = Network(line(2), Flooder, channel_capacity=2)
        net.run(max_rounds=5)  # allowed now

    def test_message_size_violation_raises(self):
        net = Network(line(2), BigTalker)
        with pytest.raises(MessageSizeError):
            net.run(max_rounds=5)

    def test_round_limit_raises(self):
        net = Network(line(3), lambda v: Chatterbox())
        with pytest.raises(RoundLimitExceeded):
            net.run(max_rounds=7)

    def test_send_outside_send_phase_rejected(self):
        class Sneaky(Program):
            def on_receive(self, ctx, r, inbox):
                ctx.send(0, "late")

            def on_send(self, ctx, r):
                if r == 1:
                    ctx.broadcast("x")

            def next_active_round(self, ctx, r):
                return 1 if r < 1 else None

        net = Network(line(2), lambda v: Sneaky())
        with pytest.raises(RuntimeError, match="on_send"):
            net.run(max_rounds=5)


class TestContextTopology:
    def test_weight_in_and_neighbors(self):
        g = WeightedDigraph.from_edges(3, [(0, 1, 5), (1, 2, 0), (2, 0, 7)])
        net = Network(g, lambda v: Program())
        ctx1 = net.contexts[1]
        assert ctx1.weight_in(0) == 5
        assert ctx1.weight_in(2) is None
        assert set(ctx1.comm_neighbors) == {0, 2}
        assert ctx1.out_edges == ((2, 0),)


class TestLocality:
    def test_send_to_non_neighbor_rejected(self):
        class Teleporter(Program):
            def on_send(self, ctx, r):
                if ctx.node == 0:
                    ctx.send(2, "hi")  # 0 and 2 are not adjacent on a path

            def next_active_round(self, ctx, r):
                return 1 if r < 1 else None

        net = Network(line(3), lambda v: Teleporter())
        with pytest.raises(ValueError, match="no channel"):
            net.run(max_rounds=3)

    def test_send_many_to_non_neighbor_rejected(self):
        class Spammer(Program):
            def on_send(self, ctx, r):
                if ctx.node == 0:
                    ctx.send_many([1, 2], "hi")

            def next_active_round(self, ctx, r):
                return 1 if r < 1 else None

        net = Network(line(3), lambda v: Spammer())
        with pytest.raises(ValueError, match="no channel"):
            net.run(max_rounds=3)


class TestConstructorValidation:
    """Network rejects unusable parameters with actionable messages."""

    def test_zero_word_budget_rejected(self):
        with pytest.raises(ValueError, match="max_message_words"):
            Network(line(3), Relay, max_message_words=0)

    def test_zero_channel_capacity_rejected(self):
        with pytest.raises(ValueError, match="channel_capacity"):
            Network(line(3), Relay, channel_capacity=0)

    def test_nodeless_graph_rejected(self):
        class NoNodes:
            n = 0
        with pytest.raises(ValueError, match="graph.n >= 1"):
            Network(NoNodes(), Relay)


class TestRunResumption:
    """run() may be re-entered: execution resumes from the last
    processed round without double-starting programs or double-counting
    metrics (documented on Network.run)."""

    def test_interrupted_run_resumes_to_same_result(self):
        n = 6
        net = Network(line(n), Relay)
        with pytest.raises(RoundLimitExceeded):
            net.run(max_rounds=2)  # token is only 2 hops in
        net.run(max_rounds=20)     # absolute budget; resumes at round 3
        fresh = Network(line(n), Relay)
        fm = fresh.run(max_rounds=20)
        assert [net.output_of(v) for v in range(n)] == \
               [fresh.output_of(v) for v in range(n)]
        assert (net.metrics.rounds, net.metrics.messages,
                net.metrics.active_rounds) == \
               (fm.rounds, fm.messages, fm.active_rounds)

    def test_programs_started_exactly_once(self):
        starts = []

        class CountingPinger(Pinger):
            def on_start(self, ctx):
                starts.append(ctx.node)

        net = Network(line(3), CountingPinger)
        with pytest.raises(RoundLimitExceeded):
            net.run(max_rounds=0)
        net.run(max_rounds=10)
        net.run(max_rounds=10)
        assert sorted(starts) == [0, 1, 2]


class RandomScheduler(Program):
    """Asks for random future rounds (or none) and logs every send
    phase, every receive phase, and the round it last asked for."""

    def __init__(self, v: int, seed: int, log: list) -> None:
        self.v = v
        self.rng = random.Random(seed * 1009 + v)
        self.sends_left = self.rng.randint(0, 4)
        self.asked: Optional[int] = None
        self.log = log

    def on_send(self, ctx, r):
        self.log.append(("send", r, self.v, self.asked))
        self.sends_left -= 1
        if ctx.comm_neighbors and self.rng.random() < 0.7:
            ctx.broadcast(r)

    def on_receive(self, ctx, r, inbox):
        self.log.append(("recv", r, self.v, None))

    def next_active_round(self, ctx, r):
        if self.sends_left > 0 and self.rng.random() < 0.8:
            self.asked = r + self.rng.randint(1, 6)
        else:
            self.asked = None
        return self.asked


class TestScheduleContract:
    """The send schedule runs each node exactly at the round it last
    asked for, in increasing id within a round, delivers every delayed
    envelope at its due round, and runs no round that has neither a due
    sender nor an injector delivery."""

    @settings(max_examples=40, deadline=None)
    @given(graph_instances(n_lo=1, n_hi=9), st.integers(0, 10 ** 6),
           st.booleans())
    def test_sends_run_exactly_when_asked(self, inst, seed, delayed):
        from repro.faults import FaultPlan
        from repro.obs import Tracer

        g, _ = inst
        log: list = []
        plan = FaultPlan(seed=seed, delay_rate=0.5, max_delay=4) \
            if delayed else None
        tracer = Tracer()
        net = Network(g, lambda v: RandomScheduler(v, seed, log),
                      fault_plan=plan, tracer=tracer)
        injector = net.fault_injector
        if injector is not None:
            take_due = injector.take_due

            def take_due_checked(r):
                due = injector.earliest_in_flight()
                assert due is None or due >= r, f"round {due} skipped"
                return take_due(r)
            injector.take_due = take_due_checked
        net.run(max_rounds=10 ** 4)

        sends = [(r, v) for kind, r, v, _ in log if kind == "send"]
        for kind, r, v, asked in log:
            if kind == "send":
                assert r == asked, f"node {v} ran at {r}, asked {asked}"
        assert sends == sorted(sends), "senders out of (round, id) order"
        assert len(set(sends)) == len(sends), "a node ran twice in a round"
        # quiescence means nobody is left waiting for a round
        assert all(p.asked is None for p in net.programs)

        executed = [e.round for e in tracer.events if e.kind == "net.round"]
        assert executed == sorted(set(executed))
        active = {r for kind, r, _, _ in log}
        assert set(executed) == active
        if plan is None:
            assert set(executed) == {r for r, _ in sends}


class TestIdleNodes:
    def test_run_time_follows_active_nodes_not_n(self):
        """E19's check: 20,000 isolated nodes next to a pair bouncing a
        token for 3,000 rounds may cost at most 3x the pair alone (only
        ``run()`` timed, best of 3).  The schedule is O(active nodes)
        per round, so only the O(n) start-up pass grows; a loop scanning
        every node each round is about 100x slower here."""
        from repro.analysis.sweep import sweep_idle_nodes

        rep = sweep_idle_nodes(idle=(20_000,), rounds=3_000, repeats=3,
                               max_ratio=3.0)
        (row,) = rep.rows
        assert row.within_bound, f"idle nodes cost {row.measured}x"
