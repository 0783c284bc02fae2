"""Tests for the benchmark itself: ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Workload(
    "tiny", n=10, p=0.3, method="pipelined", backend="columnar",
    updates_per_refresh=1, burst_refreshes=1, scale=0.04)
TINY_DEFAULT = replace(TINY, method=None, backend=None)

#: Recorded counters that must not depend on timing or on tracing.
COUNTS = [n for n in layers.DETERMINISTIC if not n.startswith("serve.")]


def one_pass(wl, seed, rec=None):
    runner = workloads.Runner(wl, workloads.make_inputs(wl, seed), rec=rec)
    if rec is None:
        runner.run_pass()
        return runner
    installation = layers.install(rec)
    try:
        runner.run_pass()
    finally:
        installation.remove()
    return runner


def snapshot():
    """Every function-valued attribute of loaded repro modules and of
    the classes they define, by identity."""
    out = {}
    for mod in layers._repro_modules():
        for name, value in list(vars(mod).items()):
            out[(mod.__name__, name)] = id(value)
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, raw in list(vars(value).items()):
                    out[(mod.__name__, name, attr)] = id(raw)
    return out


def test_wrappers_install_and_remove_cleanly():
    layers.targets()  # import every target module first
    before = snapshot()
    rec = layers.Recorder()
    installation = layers.install(rec)
    try:
        assert layers.leaked_wrappers(), "nothing was wrapped"
        assert installation.patches
    finally:
        installation.remove()
    assert layers.leaked_wrappers() == []
    assert snapshot() == before
    # an untraced pass afterwards records nothing
    one_pass(TINY, 1)
    assert not rec.calls


def test_every_target_resolves():
    for t in layers.targets():
        rec = layers.Recorder()
        installation = layers.install(rec, [t])
        try:
            assert installation.patches, f"{t.owner}:{t.attr} not patched"
        finally:
            installation.remove()
    assert layers.leaked_wrappers() == []


@pytest.mark.parametrize("wl", [TINY, TINY_DEFAULT], ids=lambda w: str(w.method))
def test_traced_and_untraced_agree(wl):
    plain = one_pass(wl, 3)
    counting = layers.Recorder(timed=False)
    counted = one_pass(wl, 3, counting)
    timed = layers.Recorder()
    traced = one_pass(wl, 3, timed)
    for r in (plain, counted, traced):
        assert r.failed == 0, r.failures
    assert traced.work == plain.work
    assert traced.digest() == plain.digest() == counted.digest()
    assert {k: timed.counts[k] for k in COUNTS} == \
        {k: counting.counts[k] for k in COUNTS}
    assert timed.calls["core.program"] == counting.calls["core.program"]
    assert timed.calls["core.node_list"] == counting.calls["core.node_list"]
    assert timed.counts["congest.rounds"] > 0
    engines = (timed.counts["perf.columnar.kernel_runs"]
               + timed.counts["perf.columnar.fallback_runs"])
    if wl.backend == "columnar":
        assert engines >= 1
    else:
        assert engines == 0


def test_self_times_add_up_to_wall():
    rec = layers.Recorder()
    runner = workloads.Runner(TINY, workloads.make_inputs(TINY, 5), rec=rec)
    installation = layers.install(rec)
    try:
        wall = workloads.run_passes(runner, 0.1)
    finally:
        installation.remove()
    extra = runner.layer_extra()
    extra.update({"obs.overhead": 1.0, "trace.overhead": 1.0})
    m = layers.layer_metrics(rec, passes=runner.passes, wall_s=wall,
                             extra=extra)
    assert [x.name for x in layers.PER_LAYER] == list(m)
    total = sum(m[b + "_s"] for b in layers.SELF_BUCKETS) \
        + m["trace.untraced_s"]
    assert total == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert 0 <= m["trace.untraced_s"] < 0.05 * m["trace.wall_s"]
    assert m["core.program_s"] > 0 and m["congest.run_s"] > 0


def test_counters_repeat_for_a_seed_and_change_with_the_seed():
    def counts(seed):
        rec = layers.Recorder(timed=False)
        runner = one_pass(TINY, seed, rec)
        serve = runner.layer_extra()
        out = {k: rec.counts[k] for k in COUNTS}
        out["core.program.calls"] = rec.calls["core.program"]
        out["core.node_list.calls"] = rec.calls["core.node_list"]
        for k in layers.DETERMINISTIC:
            if k.startswith("serve."):
                out[k] = serve[k]
        return out
    first = counts(7)
    assert first == counts(7)
    assert first != counts(8)


def test_percentile_needs_ten_samples_beyond():
    values = [float(i) for i in range(1, 1001)]
    assert workloads.percentile(values, 0.5) == 500.0
    assert workloads.percentile(values, 0.99) == 990.0
    assert workloads.percentile(values[:999], 0.99) is None


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [(m.name, m.unit, m.better) for m in layers.PER_LAYER]
    runner = one_pass(TINY, 1)
    runner.latencies.extend([1e-6] * 2000)  # enough for both percentiles
    e2e = runner.end_to_end()
    e2e["setup_s"] = (1.0, "s", 1)
    e2e["peak_rss_mb"] = (1.0, "MB", 1)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: u for k, (_, u, _) in e2e.items()}


def test_ambient_settings_are_refused():
    from repro.core import node_list
    from repro.perf import backends
    assert run.ambient_problem(run.SRC) is None
    with backends.use_backend("fast"):
        assert "backend" in run.ambient_problem(run.SRC)
    prev = node_list.set_paranoid(True)
    try:
        assert "paranoid" in run.ambient_problem(run.SRC)
    finally:
        node_list.set_paranoid(prev)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "apsp-dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
