"""Unit tests for CONGEST message size accounting and the Envelope
record."""

import pickle
from enum import IntEnum
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest import (
    Envelope,
    MessageSizeError,
    NodeContext,
    Program,
    RoundLimitExceeded,
    payload_words,
)
from repro.faults import FaultPlan
from repro.graphs import random_graph
from repro.perf import make_network
from repro.recovery import (
    RunCheckpoint,
    checkpoint_network,
    resume_from_checkpoint,
)


class TestPayloadWords:
    def test_scalars_are_one_word(self):
        assert payload_words(5) == 1
        assert payload_words(0) == 1
        assert payload_words(-3) == 1
        assert payload_words(3.5) == 1
        assert payload_words(True) == 1
        assert payload_words(None) == 1
        assert payload_words("tag") == 1

    def test_tuple_sums_fields(self):
        assert payload_words((1, 2, 3)) == 3
        assert payload_words((1, (2, 3), 4)) == 4
        assert payload_words(()) == 0

    def test_list_sums_fields(self):
        assert payload_words([1, 2]) == 2

    def test_dict_counts_keys_and_values(self):
        assert payload_words({"d": 3, "l": 4}) == 4

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            payload_words(object())

    def test_algorithm1_message_fits_default_budget(self):
        # (d, l, x, flag, nu): the Algorithm 1 payload
        assert payload_words((17, 3, 9, True, 2)) == 5 <= 8


class TestEnvelope:
    def test_make_caches_word_count(self):
        env = Envelope.make(0, 1, 7, (4, 2, 0, False, 1))
        assert env.words == 5
        assert env.src == 0 and env.dst == 1 and env.round == 7

    def test_envelope_is_frozen(self):
        env = Envelope.make(0, 1, 1, (1,))
        with pytest.raises(AttributeError):
            env.src = 2

    @pytest.mark.parametrize("field", ["dst", "round", "payload", "words"])
    def test_every_field_is_frozen(self, field):
        env = Envelope.make(0, 1, 1, (1,))
        with pytest.raises(AttributeError):
            setattr(env, field, 5)

    def test_keyword_and_positional_construction(self):
        kw = Envelope(src=1, dst=2, round=3, payload=(4, 5), words=2)
        pos = Envelope(1, 2, 3, (4, 5), 2)
        assert kw == pos
        assert (kw.src, kw.dst, kw.round, kw.payload, kw.words) == \
            (1, 2, 3, (4, 5), 2)
        assert Envelope(1, 2, 3, None).words == 0  # default
        assert type(Envelope.make(1, 2, 3, (4, (5, 6)))) is Envelope

    def test_equal_to_plain_tuple_of_its_fields(self):
        env = Envelope.make(0, 1, 7, (4, 2))
        assert env == (0, 1, 7, (4, 2), 2)
        src, dst, rnd, payload, words = env
        assert (src, dst, rnd, payload, words) == (0, 1, 7, (4, 2), 2)

    def test_pickle_round_trip(self):
        env = Envelope.make(3, 4, 9, (1, 2.5, None, True, "x"))
        back = pickle.loads(pickle.dumps(env))
        assert type(back) is Envelope
        assert back == env and back.words == 5


# -- payload_words against a plain recursive definition --------------------

def reference_words(payload):
    """The word count, defined directly: a scalar is one word, a tuple or
    list the sum of its fields, a dict the sum over its keys and
    values."""
    if payload is None or isinstance(payload, (bool, int, float, str)):
        return 1
    if isinstance(payload, (tuple, list)):
        return sum(reference_words(f) for f in payload)
    if isinstance(payload, dict):
        return sum(reference_words(k) + reference_words(v)
                   for k, v in payload.items())
    raise TypeError(type(payload))


_scalars = st.one_of(st.integers(), st.booleans(), st.none(), st.text(),
                     st.floats(allow_nan=False))
_payloads = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.tuples(inner, inner), st.tuples(inner, inner, inner, inner),
        st.lists(inner, max_size=5).map(tuple), st.lists(inner, max_size=5),
        st.dictionaries(st.one_of(st.integers(), st.text()), inner,
                        max_size=4)),
    max_leaves=20)


class Colour(IntEnum):
    RED = 1


class TestPayloadWordsProperties:
    @settings(max_examples=300, deadline=None)
    @given(_payloads)
    def test_matches_recursive_definition(self, payload):
        assert payload_words(payload) == reference_words(payload)

    @pytest.mark.parametrize("payload", [
        (Colour.RED, 2), (1, (2, Colour.RED)), [Colour.RED], (3.5, "x"),
    ])
    def test_scalar_subclasses_and_mixed_tuples(self, payload):
        assert payload_words(payload) == reference_words(payload)

    @pytest.mark.parametrize("payload", [
        {1, 2}, frozenset(), object(), b"bytes", (1, {2}), (1, object()),
        [1, (2, set())], {"k": object()},
    ])
    def test_unsupported_types_raise(self, payload):
        with pytest.raises(TypeError):
            payload_words(payload)


class Shouter(Program):
    """Node 0 broadcasts one *payload* in round 1."""

    payload = tuple(range(9))

    def __init__(self, v: int) -> None:
        self.v = v

    def on_send(self, ctx: NodeContext, r: int) -> None:
        ctx.broadcast(self.payload)

    def next_active_round(self, ctx, r):
        return 1 if self.v == 0 and r < 1 else None


@pytest.mark.parametrize("backend", ["reference", "fast", "columnar"])
def test_oversized_broadcast_raises(backend):
    g = random_graph(5, p=0.6, seed=1)
    net = make_network(g, Shouter, backend=backend, max_message_words=8)
    with pytest.raises(MessageSizeError, match="9-word message"):
        net.run(max_rounds=10)


# -- in-flight envelopes across a checkpoint --------------------------------

class Flood(Program):
    """Every node re-broadcasts ``(v, r, hops)`` for its first few
    receive rounds, so the run has tuple payloads in flight for a
    while."""

    def __init__(self, v: int) -> None:
        self.v = v
        self.heard: list = []
        self._next: Optional[int] = 1 if v == 0 else None

    def on_send(self, ctx, r):
        ctx.broadcast_out((self.v, r, len(self.heard)))

    def on_receive(self, ctx, r, inbox):
        self.heard.extend((r, env.src, env.payload) for env in inbox)
        self._next = r + 1 if len(self.heard) < 6 else None

    def next_active_round(self, ctx, r):
        return self._next if self._next is not None and self._next > r \
            else None

    def output(self, ctx):
        return self.heard


@pytest.mark.parametrize("backend", ["reference", "fast"])
def test_checkpoint_in_flight_envelopes_round_trip(backend):
    """Delayed envelopes cross a JSON checkpoint as equal ``Envelope``
    records (rebuilt through ``Envelope.make``) and the resumed run
    matches the uninterrupted one."""
    g = random_graph(10, p=0.4, seed=4)
    plan = FaultPlan(seed=2, delay_rate=0.5, max_delay=4)
    full = make_network(g, Flood, backend=backend, fault_plan=plan)
    m_full = full.run(max_rounds=200)

    net = make_network(g, Flood, backend=backend, fault_plan=plan)
    with pytest.raises(RoundLimitExceeded):
        net.run(max_rounds=3)
    ckpt = checkpoint_network(net)
    assert ckpt.in_flight
    back = RunCheckpoint.from_json(ckpt.to_json())
    assert back.in_flight == ckpt.in_flight
    assert all(type(env) is Envelope and env.words == 3
               for _r, env in back.in_flight)
    outs, metrics, _ = resume_from_checkpoint(back, g, Flood, 200,
                                              backend=backend,
                                              fault_plan=plan)
    assert outs == full.outputs()
    assert (metrics.rounds, metrics.messages, metrics.words) == \
        (m_full.rounds, m_full.messages, m_full.words)
    assert dict(metrics.faults) == dict(m_full.faults)
