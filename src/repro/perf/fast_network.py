"""Deprecated alias module: the worklist loop that lived here is now
:meth:`repro.congest.network.Network.run`, the only object-level round
loop, and ``backend="fast"`` selects it under its old name (see
:mod:`repro.perf.backends`)."""

from ..congest.network import Network

FastNetwork = Network

__all__ = ["FastNetwork"]
