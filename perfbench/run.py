"""End-to-end benchmark of the library's public entry points.

Run from the root of a checkout::

    python3 perfbench/run.py --workload apsp-dense --seed 1 --seconds 50 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs a few
graphs untraced to price the tracing, then wraps the library's layers
(see ``layers.py``) for one or more whole passes and prints the
per-layer metrics.  Either way every answer is checked against the
sequential oracle outside the timed regions, the last line of standard
output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``), and the exit code is non-zero if any check failed.  A
summary, with the recorded spans of a traced run, is written to
``perfbench/out/``.

End-to-end times are in reference seconds, scaled by a probe of the
host's speed taken next to each sample (see ``workloads.py``); the
per-layer times of a traced run are plain host seconds.

The library is imported from ``src/`` next to this directory, with
``REPRO_BACKEND``, ``REPRO_COLUMNAR_NUMPY`` and ``REPRO_PARANOID``
cleared; the run is refused if any other ambient setting would change
which engine a workload uses.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
PINNED_ENV = ("REPRO_BACKEND", "REPRO_COLUMNAR_NUMPY", "REPRO_PARANOID")
#: Cold set-ups behind ``setup_s``: this process's own, and the rest in
#: fresh interpreters that do the same imports, inputs and warm-up.
SETUP_RUNS = 3
#: Graphs run untraced before a traced pass, to price the tracing.
CALIBRATION_GRAPHS = 2


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Time one cold set-up, print it and exit (see ``cold_setup_s``).
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    return args


def ambient_problem(src: Path) -> Optional[str]:
    """Why the imported library would not run the pinned engines, or
    ``None``."""
    import repro
    from repro.core import node_list
    from repro.perf import backends, columnar
    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        return f"repro imported from {repro.__file__}, not from {src}"
    if backends.get_default_backend() != "reference":
        return (f"ambient default backend is "
                f"{backends.get_default_backend()!r}, not 'reference'")
    if node_list.PARANOID:
        return "paranoid node-list mode is on"
    try:
        import numpy  # noqa: F401
        have_numpy = True
    except ImportError:
        have_numpy = False
    if columnar.numpy_enabled() != have_numpy:
        return "the columnar numpy gate is overridden"
    return None


def environment(seed: int, cleared: Dict[str, str]) -> Dict[str, Any]:
    from repro.perf import columnar
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"python": platform.python_version(), "numpy": numpy_version,
            "columnar_numpy": columnar.numpy_enabled(), "nproc": nproc,
            "seed": seed, "cleared_env": sorted(cleared)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(wl: Any, seed: int, import_s: float) -> Tuple[Any, float]:
    """This process's inputs and set-up time (imports included), in
    reference seconds (see ``workloads.speed``)."""
    import workloads
    inputs, own_s = workloads.setup(wl, seed)
    return inputs, (import_s + own_s) * workloads.speed()


def cold_setup_s(wl: Any, seed: int) -> float:
    """The set-up time of a fresh interpreter running this workload."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", wl.name,
         "--seed", str(seed), "--seconds", "1", "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def measure(wl: Any, seed: int, seconds: int, trace: bool,
            import_s: float) -> Dict[str, Any]:
    """Set up, run, and collect metrics and checks."""
    import layers
    import workloads

    inputs, own_s = timed_setup(wl, seed, import_s)
    setup_times = [own_s] + [
        cold_setup_s(wl, seed) for _ in range(SETUP_RUNS - 1)]
    summary: Dict[str, Any] = {"setup_times": setup_times}
    if not trace:
        runner = workloads.Runner(wl, inputs)
        workloads.run_graphs(runner, seconds)
        rss_mb = peak_rss_mb()  # before computing results: a sort copies
        e2e = runner.end_to_end()
        e2e["setup_s"] = (statistics.median(setup_times), "s", SETUP_RUNS)
        e2e["peak_rss_mb"] = (rss_mb, "MB", 1)
        runners = [runner]
        metrics = {k: (v, u) for k, (v, u, _) in e2e.items()}
        summary["samples"] = {k: c for k, (_, _, c) in e2e.items()}
    else:
        calibration = workloads.Runner(wl, inputs)
        priced = range(min(CALIBRATION_GRAPHS, wl.graphs))
        t = perf_counter()
        for gi in priced:
            calibration.run_graph(gi)
        calibration_s = perf_counter() - t
        rec = layers.Recorder()
        installation = layers.install(rec)
        try:
            runner = workloads.Runner(wl, inputs, rec=rec)
            wall = workloads.run_passes(runner, seconds - calibration_s)
        finally:
            installation.remove()
        extra = runner.layer_extra()
        extra["obs.overhead"] = calibration.obs_overhead()
        # traced over untraced wall time of the same graphs
        extra["trace.overhead"] = (
            sum(runner.graph_s[gi][0] for gi in priced)
            / sum(calibration.graph_s[gi][0] for gi in priced))
        values = layers.layer_metrics(rec, passes=runner.passes,
                                      wall_s=wall, extra=extra)
        units = {m.name: m.unit for m in layers.PER_LAYER}
        metrics = {k: (v, units[k]) for k, v in values.items()}
        runners = [calibration, runner]
        summary["calibration_s"] = calibration_s
        summary["spans"] = rec.spans
        summary["dropped_spans"] = rec.dropped_spans
        summary["calls"] = dict(rec.calls)
    summary["passes"] = runners[-1].passes
    summary["digest"] = runners[-1].digest()
    summary["failures"] = [f for r in runners for f in r.failures]
    return {"metrics": metrics, "summary": summary,
            "attempted": sum(r.attempted for r in runners),
            "failed": sum(r.failed for r in runners)}


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: library sources not found at {SRC}",
              file=sys.stderr)
        return 2
    cleared = {k: os.environ.pop(k) for k in PINNED_ENV if k in os.environ}
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    t = perf_counter()
    import repro.core  # noqa: F401
    import repro.serve  # noqa: F401
    import workloads
    import_s = perf_counter() - t
    problem = ambient_problem(SRC)
    if problem is not None:
        print(f"perfbench: refusing to run: {problem}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(timed_setup(wl, args.seed, import_s)[1])
        return 0
    env = environment(args.seed, cleared)
    print(f"perfbench workload={wl.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    try:
        result = measure(wl, args.seed, args.seconds, bool(args.trace),
                         import_s)
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    summary = result["summary"]
    samples = summary.get("samples", {})
    for name, (value, unit) in result["metrics"].items():
        n = samples.get(name)
        print(f"{name:34s} {value:16.6f} {unit:6s}"
              + (f" n={n}" if n is not None else ""))
    attempted, failed = result["attempted"], result["failed"]
    print(f"{'failed_frac':34s} {failed / attempted:16.6f} ratio  "
          f"({failed}/{attempted})")
    print(f"passes {summary['passes']} digest {summary['digest']}")
    for failure in summary["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(
        {"env": env, "metrics": result["metrics"], "attempted": attempted,
         "failed": failed, **summary}, default=str) + "\n")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in result["metrics"].items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
