"""Performance layer: columnar simulator backend + parallel sweep executor.

Two independent speedups with one shared rule -- *never trade
correctness for wall-clock silently*:

* :class:`ColumnarNetwork` (``backend="columnar"`` /
  ``REPRO_BACKEND=columnar``) runs the relaxation and pipelined
  (h, k)-SSP program families as flat numpy columns (pure-Python
  fallback behind ``REPRO_COLUMNAR_NUMPY``) and whole-round bulk array
  operations instead of per-message Python objects; every other program
  -- and every run with a fault plan, monitor or record window -- runs
  on the inherited object loop, :meth:`repro.congest.network.Network.run`.
  Pinned by ``tests/backend_conformance.py``, which parametrizes the
  differential suite over the :data:`BACKENDS` registry.
  :class:`FastNetwork` and ``backend="fast"`` are deprecated aliases of
  that object loop (see :mod:`repro.perf.backends`).
* :class:`SweepExecutor` fans seed-major parameter sweeps across
  ``multiprocessing`` workers and merges the rows back in task order,
  reproducing the sequential reports exactly
  (``tests/test_sweep_executor.py`` pins the persisted bytes).

See docs/PERFORMANCE.md for the contract and the measured speedups.
"""

from .backends import (
    BACKENDS,
    get_default_backend,
    make_network,
    set_default_backend,
    use_backend,
)
from .columnar import ColumnarNetwork
from .fast_network import FastNetwork
from .sweep_executor import (
    EXPERIMENT_SWEEPS,
    SweepExecutor,
    SweepSpec,
    SweepTask,
    SweepWorkerError,
    experiment_tasks,
    merge_reports,
    run_experiment,
)

__all__ = [
    "BACKENDS",
    "ColumnarNetwork",
    "EXPERIMENT_SWEEPS",
    "FastNetwork",
    "SweepExecutor",
    "SweepSpec",
    "SweepTask",
    "SweepWorkerError",
    "experiment_tasks",
    "get_default_backend",
    "make_network",
    "merge_reports",
    "run_experiment",
    "set_default_backend",
    "use_backend",
]
