"""Experiment harness: measurement records, sweeps, and table rendering."""

from .ascii_charts import sparkline, xy_chart
from .inspect import (
    PairStory,
    explain_pair,
    node_timeline,
    render_occupancy,
    schedule_occupancy,
    send_history,
    trace_run,
)
from .records import ExperimentReport, Measurement
from .tables import format_value, render_markdown, render_report, render_table
from .sweep import (
    sweep_columnar,
    sweep_columnar_pipelined,
    sweep_fault_tolerance,
    sweep_idle_nodes,
    sweep_invariants,
    sweep_node_kernels,
    sweep_recovery,
    sweep_serving,
    sweep_short_range,
    sweep_table1_exact,
    sweep_theorem11_apsp,
    sweep_theorem11_hk_ssp,
    sweep_theorem11_kssp,
)

__all__ = [
    "ExperimentReport",
    "Measurement",
    "PairStory",
    "explain_pair",
    "node_timeline",
    "render_occupancy",
    "schedule_occupancy",
    "send_history",
    "sparkline",
    "trace_run",
    "xy_chart",
    "format_value",
    "render_markdown",
    "render_report",
    "render_table",
    "sweep_columnar",
    "sweep_columnar_pipelined",
    "sweep_fault_tolerance",
    "sweep_idle_nodes",
    "sweep_invariants",
    "sweep_node_kernels",
    "sweep_recovery",
    "sweep_serving",
    "sweep_short_range",
    "sweep_table1_exact",
    "sweep_theorem11_apsp",
    "sweep_theorem11_hk_ssp",
    "sweep_theorem11_kssp",
]
