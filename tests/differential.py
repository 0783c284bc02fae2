"""Differential harness pinning the alternative simulator backends to
the reference one.

A non-reference backend (:class:`repro.perf.ColumnarNetwork`, or any
future entry in :data:`repro.perf.backends.BACKENDS`) is only allowed
to exist because nothing observable distinguishes it from the reference
:class:`repro.congest.Network`: same per-node outputs, same round
counts, same message/word/congestion accounting, envelope for envelope
-- and, since the backends gained full hook support, the same fault
statistics, invariant-monitor verdicts, trace event streams, and
post-mortem contents.  This module is the single place that comparison
is defined, so the registry-parametrized conformance suite
(tests/backend_conformance.py), the golden fixtures, and the E23/E24
speedup sweeps all enforce the *same* notion of "identical".

Each assertion helper takes ``backend=`` (a registry name, default
``"columnar"``) naming the backend under test; the reference backend is
always the other side of the comparison.  Three entry points:

* :func:`assert_networks_equivalent` -- construct both backends from one
  program factory and compare raw network observables (the sharpest
  check: it sees per-channel counters, not just totals);
* :func:`assert_instrumented_equivalent` -- the hook-attached variant:
  runs both backends with a fault plan / monitor / tracer /
  ``record_window`` attached and compares everything the hooks observed
  or injected, *including* the failure outcome (a
  ``RoundLimitExceeded`` or ``InvariantViolation`` must fire
  identically, post-mortem and all);
* :func:`assert_entrypoint_equivalent` -- run a ``run_*`` algorithm
  entry point once per backend via its ``backend=`` keyword and compare
  result fields plus metrics (the user-visible contract).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.congest import Network, RoundLimitExceeded, RunMetrics
from repro.faults.monitor import InvariantViolation
from repro.obs import Tracer
from repro.perf.backends import ALIASES, BACKENDS

#: Every name ``backend=`` accepts: the engines plus the deprecated
#: ``"fast"`` alias, so suites parametrized over it keep the alias
#: exercised end to end.
BACKEND_NAMES = sorted({*BACKENDS, *ALIASES})


def network_class(name: str):
    """The network class a backend name (or alias) selects."""
    return BACKENDS[ALIASES.get(name, name)]


def metrics_summary(m: RunMetrics) -> Dict[str, Any]:
    """Every observable :class:`RunMetrics` carries, including the
    per-channel and per-node counters, the fault statistics, and the
    resilience overhead -- two executions with equal summaries offered
    the same load on the same channels in the same number of rounds and
    suffered the same injected faults."""
    return {
        "rounds": m.rounds,
        "active_rounds": m.active_rounds,
        "skipped_rounds": m.skipped_rounds,
        "messages": m.messages,
        "words": m.words,
        "max_message_words": m.max_message_words,
        "max_edge_congestion": m.max_edge_congestion,
        "max_node_sends": m.max_node_sends,
        "channel_messages": dict(m.channel_messages),
        "node_sends": dict(m.node_sends),
        "retransmissions": m.retransmissions,
        "ack_messages": m.ack_messages,
        "faults": dict(m.faults),
        "rounds_to_repair": m.rounds_to_repair,
    }


def assert_metrics_equal(got_m: RunMetrics, ref_m: RunMetrics,
                         label: str = "", backend: str = "columnar") -> None:
    got, want = metrics_summary(got_m), metrics_summary(ref_m)
    assert got == want, (
        f"{backend} backend diverged from reference on metrics"
        f"{label and f' ({label})'}: "
        + "; ".join(f"{k}: {backend}={got[k]!r} ref={want[k]!r}"
                    for k in want if got[k] != want[k]))


def trace_events(tracer) -> list:
    """A tracer's (or recorder's) event stream as comparable tuples."""
    return [(e.round, e.node, e.kind, e.data) for e in tracer.events]


def post_mortem_summary(pm) -> Optional[Dict[str, Any]]:
    """Everything a :class:`~repro.faults.watchdog.PostMortem` carries,
    as comparable data (``None`` for no post-mortem)."""
    if pm is None:
        return None
    return {
        "reason": pm.reason,
        "round": pm.round,
        "pending_sends": dict(pm.pending_sends),
        "in_flight": list(pm.in_flight),
        "top_channels": list(pm.top_channels),
        "fault_stats": dict(pm.fault_stats),
        "recent_events": [(e.round, e.node, e.kind, e.data)
                          for e in pm.recent_events],
        "record_window": pm.record_window,
        "render": pm.render(),
    }


def assert_networks_equivalent(graph, program_factory, *, max_rounds: int,
                               backend: str = "columnar",
                               **kwargs) -> Tuple[Network, Any]:
    """Run the same program on the reference backend and on *backend*;
    assert equal outputs and equal metrics summaries.
    ``program_factory`` is called once per node per backend, so it must
    build fresh program state each call (every factory in this repo
    does).  Returns both networks for follow-up assertions."""
    ref = Network(graph, program_factory, **kwargs)
    alt = network_class(backend)(graph, program_factory, **kwargs)
    m_ref = ref.run(max_rounds=max_rounds)
    m_alt = alt.run(max_rounds=max_rounds)
    assert alt.outputs() == ref.outputs(), \
        f"{backend} backend diverged from reference on node outputs"
    assert_metrics_equal(m_alt, m_ref, backend=backend)
    return ref, alt


def run_observed(network_cls, graph, program_factory, *, max_rounds: int,
                 fault_plan=None, monitor_factory=None, with_tracer=False,
                 record_window: int = 0, **kwargs) -> Dict[str, Any]:
    """Run one backend with hooks attached and capture *everything* the
    run observed: outputs, metrics, trace events, ring-recorder events,
    and the outcome (clean quiescence, round-limit, or invariant
    violation) with its post-mortem.

    Stateful hooks (tracer, monitor) are built fresh per call --
    ``monitor_factory`` is a zero-argument callable -- so the two
    backends cannot contaminate each other through shared hook state.
    """
    tracer = Tracer() if with_tracer else None
    monitor = monitor_factory() if monitor_factory is not None else None
    net = network_cls(graph, program_factory, fault_plan=fault_plan,
                      monitor=monitor, tracer=tracer,
                      record_window=record_window, **kwargs)
    outcome: Tuple[Any, ...]
    try:
        net.run(max_rounds=max_rounds)
        outcome = ("quiesced",)
    except RoundLimitExceeded as exc:
        outcome = ("round-limit", post_mortem_summary(exc.post_mortem))
    except InvariantViolation as exc:
        outcome = ("violation", exc.invariant, exc.node, exc.round,
                   exc.detail, post_mortem_summary(exc.post_mortem))
    return {
        "outcome": outcome,
        "outputs": net.outputs(),
        "metrics": metrics_summary(net.metrics),
        "trace": trace_events(tracer) if tracer is not None else None,
        "recorded": trace_events(net.trace) if net.trace is not None else None,
        "monitor_rounds": getattr(monitor, "rounds_checked", None),
    }


def assert_instrumented_equivalent(graph, program_factory, *,
                                   max_rounds: int,
                                   fault_plan=None, monitor_factory=None,
                                   with_tracer=False, record_window: int = 0,
                                   backend: str = "columnar",
                                   **kwargs) -> Dict[str, Any]:
    """Run the reference backend and *backend* with the given hooks
    attached and assert every observation -- including the failure mode
    -- is identical.  Returns the (shared) observation dict for
    follow-up assertions."""
    ref = run_observed(Network, graph, program_factory,
                       max_rounds=max_rounds, fault_plan=fault_plan,
                       monitor_factory=monitor_factory,
                       with_tracer=with_tracer,
                       record_window=record_window, **kwargs)
    alt = run_observed(network_class(backend), graph, program_factory,
                       max_rounds=max_rounds, fault_plan=fault_plan,
                       monitor_factory=monitor_factory,
                       with_tracer=with_tracer,
                       record_window=record_window, **kwargs)
    for key in ("outcome", "outputs", "metrics", "trace", "recorded",
                "monitor_rounds"):
        assert alt[key] == ref[key], (
            f"{backend} backend diverged from reference on instrumented "
            f"{key}: {backend}={alt[key]!r} ref={ref[key]!r}")
    return ref


def assert_entrypoint_equivalent(run: Callable[..., Any], *args,
                                 compare: Sequence[str] = ("dist",),
                                 backend: str = "columnar",
                                 **kwargs) -> Tuple[Any, Any]:
    """Run ``run(*args, backend=..., **kwargs)`` on the reference
    backend and on *backend*, and assert the fields named in
    ``compare`` plus the metrics summary are identical.  Hook kwargs
    (``fault_plan`` etc.) pass straight through, so entry-point-level
    instrumented runs compare the same way.  Returns
    ``(reference_result, backend_result)``."""
    ref = run(*args, backend="reference", **kwargs)
    alt = run(*args, backend=backend, **kwargs)
    for attr in compare:
        got, want = getattr(alt, attr), getattr(ref, attr)
        assert got == want, (
            f"{backend} backend diverged from reference on "
            f"{run.__name__}().{attr}: {backend}={got!r} ref={want!r}")
    assert_metrics_equal(alt.metrics, ref.metrics, label=run.__name__,
                         backend=backend)
    return ref, alt
