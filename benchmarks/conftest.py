"""Shared infrastructure for the benchmark suite.

Each ``bench_*.py`` module regenerates one experiment from DESIGN.md
section 3.  The pattern:

* the sweep (the actual CONGEST simulations) runs once under
  ``benchmark.pedantic(..., rounds=1)`` so pytest-benchmark records its
  wall time without re-running a multi-second simulation dozens of times;
* the sweep's :class:`~repro.analysis.records.ExperimentReport` is
  asserted against the paper's bounds and registered here;
* at session end every registered report goes through
  :func:`repro.obs.write_last_run_reports`, which persists
  ``BENCH_last_run.json`` in this directory and regenerates
  ``benchmarks/last_run_reports.txt`` from the stored record -- the
  source for EXPERIMENTS.md, and a diffable baseline for
  ``repro obs diff``.
"""

from __future__ import annotations

from pathlib import Path
from typing import List

import pytest

from repro.analysis import ExperimentReport

_REPORTS: List[ExperimentReport] = []
_STORE = Path(__file__).parent


def pytest_addoption(parser):
    from repro.perf.backends import ALIASES, BACKENDS
    parser.addoption(
        "--repro-backend", choices=sorted({*BACKENDS, *ALIASES}),
        default=None,
        help="ambient simulator backend for every benchmark sweep "
             "(results are pinned identical across backends)")


def pytest_configure(config):
    backend = config.getoption("--repro-backend")
    if backend is not None:
        from repro.perf import set_default_backend
        set_default_backend(backend)


def record_report(report: ExperimentReport) -> ExperimentReport:
    _REPORTS.append(report)
    return report


@pytest.fixture
def report_sink():
    return record_report


def pytest_sessionfinish(session, exitstatus):
    if not _REPORTS:
        return
    from repro.obs import write_last_run_reports

    _REPORTS.sort(key=lambda r: r.experiment)
    write_last_run_reports(_REPORTS, _STORE)
