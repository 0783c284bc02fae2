"""High-level public API.

These wrappers choose parameters and algorithms so a downstream user can
compute distances without knowing the paper's internals:

>>> from repro import graphs, core
>>> g = graphs.random_graph(20, w_max=8, zero_fraction=0.3, seed=1)
>>> result = core.apsp(g)                      # exact APSP
>>> result.dist[0][5], result.metrics.rounds   # distance + CONGEST rounds

Every result object carries the :class:`repro.congest.RunMetrics` of the
simulated execution, so "how many rounds did this cost" is always one
attribute away -- that is the quantity the paper is about.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Union

from .. import bounds as bounds_mod
from ..graphs.digraph import WeightedDigraph
from ..perf.backends import use_backend
from .approx import ApproxAPSPResult, run_approx_apsp
from .bellman_ford import BellmanFordKSSPResult, run_bellman_ford_apsp, run_bellman_ford_kssp
from .kssp import KSSPResult, run_apsp_blocker, run_kssp_blocker
from .pipelined import HKSSPResult, run_apsp, run_hk_ssp, run_k_ssp

APSPResult = Union[HKSSPResult, KSSPResult, BellmanFordKSSPResult]


def _estimate_bounds(graph: WeightedDigraph, k: int) -> Dict[str, float]:
    """Coarse a-priori round estimates used by method='auto' (only the
    edge-weight bound W is assumed known, as in Theorem I.2)."""
    n = graph.n
    w = max(1, graph.max_weight)
    delta_est = (n - 1) * w  # worst-case Delta without an oracle
    return {
        "pipelined": bounds_mod.theorem11_k_ssp(n, k, delta_est),
        "blocker": bounds_mod.theorem12_kssp(n, k, w),
        "bellman-ford": float(bounds_mod.bellman_ford_apsp_bound(k, n)),
    }


def apsp(graph: WeightedDigraph, *, method: str = "auto",
         delta: Optional[int] = None, h: Optional[int] = None,
         tracer: Optional[object] = None,
         registry: Optional[object] = None,
         backend: Optional[str] = None) -> APSPResult:
    """Exact all-pairs shortest paths.

    method:
      * ``"pipelined"`` -- Algorithm 1 with ``h = n-1`` (Theorem I.1(ii),
        ``2 n sqrt(Delta) + 2 n`` rounds);
      * ``"blocker"`` -- Algorithm 3 (Theorems I.2/I.3);
      * ``"bellman-ford"`` -- the sequential-per-source baseline;
      * ``"auto"`` -- smallest a-priori bound given only ``W``.

    ``tracer`` / ``registry`` (:class:`repro.obs.Tracer` /
    :class:`repro.obs.MetricsRegistry`) attach the observability
    subsystem to whichever algorithm runs.

    ``backend`` selects the simulator backend (``"reference"`` or
    ``"columnar"``, see :mod:`repro.perf.backends`).  For
    the single-network methods it is passed explicitly; the multi-phase
    blocker method runs under it as the ambient default.  Every backend
    honors every hook, and results are pinned identical either way.  On
    ``"columnar"``, pipelined runs stay on the bulk kernel with a
    tracer or registry attached; a fault plan, monitor or ring recorder
    (and a tracer on Bellman-Ford) runs on the worklist loop instead.
    """
    if method == "auto":
        est = _estimate_bounds(graph, graph.n)
        method = min(est, key=est.get)  # type: ignore[arg-type]
    if method == "pipelined":
        return run_apsp(graph, delta, tracer=tracer, registry=registry,
                        backend=backend)
    if method == "blocker":
        with use_backend(backend):
            return run_apsp_blocker(graph, h, delta=delta, tracer=tracer,
                                    registry=registry)
    if method == "bellman-ford":
        return run_bellman_ford_apsp(graph, tracer=tracer, registry=registry,
                                     backend=backend)
    raise ValueError(f"unknown APSP method {method!r}")


def k_ssp(graph: WeightedDigraph, sources: Sequence[int], *,
          method: str = "auto", delta: Optional[int] = None,
          h: Optional[int] = None,
          monitor: Optional[object] = None,
          tracer: Optional[object] = None,
          registry: Optional[object] = None,
          backend: Optional[str] = None) -> APSPResult:
    """Exact shortest paths from ``k`` given sources (Theorem I.1(iii) /
    I.2(ii) / I.3(ii)); same methods and ``backend`` semantics as
    :func:`apsp`.

    ``monitor`` attaches an
    :class:`~repro.faults.monitor.InvariantMonitor` to the executing
    network(s) -- supported for the single-network methods
    (``"pipelined"``, ``"bellman-ford"``); the multi-phase blocker
    method rejects it (its intermediate phases exchange non-distance
    payloads the invariants do not describe).  Used by
    :class:`repro.recovery.DynamicRun` to keep every incremental repair
    under invariant checks.
    """
    if method == "auto":
        est = _estimate_bounds(graph, len(set(sources)))
        method = min(est, key=est.get)  # type: ignore[arg-type]
    if method == "pipelined":
        return run_k_ssp(graph, sources, delta, monitor=monitor,
                         tracer=tracer, registry=registry, backend=backend)
    if method == "blocker":
        if monitor is not None:
            raise ValueError(
                "method='blocker' does not support a monitor: its "
                "multi-phase execution exchanges auxiliary payloads the "
                "invariant extractors do not recognise; use "
                "method='pipelined' or 'bellman-ford'")
        with use_backend(backend):
            return run_kssp_blocker(graph, sources, h, delta=delta,
                                    tracer=tracer, registry=registry)
    if method == "bellman-ford":
        return run_bellman_ford_kssp(graph, sources, monitor=monitor,
                                     tracer=tracer, registry=registry,
                                     backend=backend)
    raise ValueError(f"unknown k-SSP method {method!r}")


def h_hop_ssp(graph: WeightedDigraph, sources: Sequence[int], h: int,
              delta: Optional[int] = None, **kwargs) -> HKSSPResult:
    """The (h, k)-SSP problem (Theorem I.1(i)); see
    :class:`repro.core.pipelined.HKSSPResult` for the output contract."""
    return run_hk_ssp(graph, sources, h, delta, **kwargs)


def approximate_apsp(graph: WeightedDigraph, eps: float) -> ApproxAPSPResult:
    """(1+eps)-approximate APSP handling zero weights (Theorem I.5)."""
    return run_approx_apsp(graph, eps)
