"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ra-twohop --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25      # every workload

One closed-loop client in one process and one thread.  ``--trace 0``
measures the end-to-end metrics with tracing off; ``--trace 1`` measures half
the time untraced and half with the layer wrappers of
:mod:`perfbench.layers` installed, and reports the per-layer metrics (plus
the tracing overhead).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Spans of a traced run are
written to ``.perfbench_out/`` in the checkout.

The library is imported from ``src/`` of the checkout this file sits in; the
run exits with status 1, printing no result, when that tree is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Environment knobs that would move the library off its default path.
CLEARED_ENV = ("REPRO_STORAGE", "REPRO_TRACE", "REPRO_DEBUG_TUPLES")
#: Thread caps for the numeric runtimes (one client, one thread).
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

#: Set-up is repeated at least this often, and until this much time passed.
SETUP_REPEATS = 5
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 50

#: End-to-end metric name -> unit (the ``--trace 0`` result).
END_TO_END = {
    "setup_s": "s",
    "call_p50_ms": "ms",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}

TAIL_PERCENTILES = (99, 95, 90, 75, 50)


def pin_environment() -> None:
    """Clear the library's path knobs and cap native threads at one.

    Must run before numpy or the library is imported: both read these at
    import time.
    """
    for key in list(os.environ):
        if key in CLEARED_ENV or key.startswith("REPRO_PARALLEL"):
            del os.environ[key]
    for key in THREAD_ENV:
        os.environ[key] = "1"


def import_library():
    """Import ``repro`` from this checkout's ``src/`` (never from elsewhere)."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no library sources at {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import repro

    location = Path(repro.__file__).resolve()
    if src.resolve() not in location.parents:
        raise SystemExit(f"error: imported repro from {location}, not from {src}")
    return repro


def environment_record() -> dict:
    import numpy

    try:
        # The ceiling keeps git from searching directories above the checkout.
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": commit,
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(latencies: list) -> tuple:
    """(percentile, value): the highest listed percentile with >= 10 samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for percentile in TAIL_PERCENTILES:
        rank = math.ceil(n * percentile / 100)
        if rank >= 1 and n - rank >= 10:
            return percentile, ordered[rank - 1]
    return None, None


class Loop:
    """Closed-loop call records of one measured phase (times at reference speed)."""

    def __init__(self):
        self.latencies = []  # seconds per call, scaled
        self.raw = []  # seconds per call, wall clock
        self.scales = []  # per-call speed scale (see calibration.py)
        self.rates = []  # items per scaled second, per call
        self.parts = {}  # kind -> [scaled seconds]
        self.failed = 0

    @property
    def items_per_s(self) -> float:
        """Median over calls of items per second (robust to stray slow calls)."""
        return statistics.median(self.rates) if self.rates else 0.0

    @property
    def scale(self) -> float:
        return statistics.median(self.scales) if self.scales else 1.0


def record(loop: Loop, workload, state, calibration, **kwargs) -> None:
    """One closed-loop call between two calibration kernels, recorded into ``loop``."""
    gc.collect()  # every call starts from the same collector state
    try:
        (items, parts), scale = calibration.timed(
            lambda: workload.call(state, time.perf_counter, **kwargs)
        )
    except Exception as error:  # counted in error_rate; the loop goes on
        loop.failed += 1
        print(f"# call failed: {type(error).__name__}: {error}", file=sys.stderr)
        return
    raw = sum(seconds for _, seconds in parts)
    loop.raw.append(raw)
    loop.scales.append(scale)
    loop.latencies.append(raw * scale)
    loop.rates.append(items / (raw * scale))
    for kind, elapsed in parts:
        loop.parts.setdefault(kind, []).append(elapsed * scale)


def measure(workload, state, seconds: float, calibration) -> Loop:
    """Call the workload back to back for ``seconds`` of wall time."""
    loop = Loop()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        record(loop, workload, state, calibration)
    return loop


def timed_setups(workload, calibration):
    """Build the workload state repeatedly; (last state, median scaled time, count)."""
    clock = time.perf_counter

    def setup():
        start = clock()
        state = workload.setup()
        return state, clock() - start

    times = []
    started = clock()
    state = None
    while len(times) < SETUP_REPEATS or (
        clock() - started < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPEATS
    ):
        state = None  # drop the previous state before building the next
        gc.collect()
        (state, elapsed), scale = calibration.timed(setup)
        times.append(elapsed * scale)
    return state, statistics.median(times), len(times)


def run_gate(workload, state) -> list:
    try:
        return workload.check(state)
    except Exception as error:  # a crashing oracle is a failed check
        return [f"{workload.name}: check raised {type(error).__name__}: {error}"]


def human_lines(workload, loop: Loop, metrics: dict) -> list:
    """Every end-to-end figure by name and unit, at reference speed."""
    ms = 1e3
    lines = [f"{name} {value:.6g} {END_TO_END[name]}" for name, value in metrics.items()]
    unit = "tuples_per_s" if workload.unit == "tuples" else "updates_per_s"
    lines.append(f"{unit} {loop.items_per_s:.6g} 1/s")
    percentile, value = tail(loop.latencies)
    if percentile is None:
        lines.append(f"call_tail_ms n/a ({len(loop.latencies)} calls; needs >= 20)")
    else:
        lines.append(f"call_tail_ms {value * ms:.6g} ms (p{percentile} of {len(loop.latencies)} calls)")
    for kind, values in sorted(loop.parts.items()):
        if kind != "call":
            lines.append(f"{kind}_p50_ms {statistics.median(values) * ms:.6g} ms ({len(values)} samples)")
    raw_p50 = statistics.median(loop.raw) * 1e3 if loop.raw else 0.0
    lines.append(
        f"# speed scale median {loop.scale:.4f} (reported = raw wall time x scale); "
        f"raw call_p50_ms {raw_p50:.6g}"
    )
    return lines


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench.calibration import Calibration
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[workload_name](seed)
    calibration = Calibration()
    state, setup_s, setup_repeats = timed_setups(workload, calibration)
    workload.call(state, time.perf_counter)  # warm-up: caches fill, lazy set-up ends
    if not trace:
        loop = measure(workload, state, seconds, calibration)
        metrics = {
            "setup_s": setup_s,
            "call_p50_ms": statistics.median(loop.latencies) * 1e3 if loop.latencies else 0.0,
            "items_per_s": loop.items_per_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        report = human_lines(workload, loop, metrics)
        metric_units = END_TO_END
    else:
        loop, metrics = traced_run(workload, state, seconds, calibration)
        report = [f"{name} {value:.6g}" for name, value in metrics.items()]
        from perfbench.layers import LAYER_METRICS

        metric_units = LAYER_METRICS
    problems = run_gate(workload, state)
    attempted = len(loop.latencies) + loop.failed + 1  # calls + the gate
    failed = loop.failed + (1 if problems else 0)
    print(f"# workload {workload_name} seed {seed} seconds {seconds} trace {int(trace)}")
    print(f"# environment {json.dumps(environment_record(), sort_keys=True)}")
    print(f"# setup repeated {setup_repeats}x; {len(loop.latencies)} calls measured")
    print(f"# path {json.dumps(workload.path_report(state), sort_keys=True)}")
    if workload.dropped:
        print(f"# path keywords no longer accepted: {', '.join(workload.dropped)}")
    for line in report:
        print(line)
    print(f"error_rate {failed / attempted:.6g}")
    for problem in problems:
        print(f"# MISMATCH {problem}")
    return {
        "correct": not problems and loop.failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in metric_units.items()
        },
    }


def traced_run(workload, state, seconds: float, calibration):
    """Alternate untraced and traced calls for ``seconds``; per-layer metrics.

    Alternating call by call (wrappers installed around each traced call
    only) keeps machine drift out of the traced/untraced comparison.
    """
    from perfbench.layers import LAYER_METRICS, count_semiring_ops, install_layers, layer_metrics
    from perfbench.tracer import Tracer
    from repro.obs import compilation

    clock = time.perf_counter
    tracer = Tracer()
    install_layers(tracer)
    untraced, traced = Loop(), Loop()
    stats = {"cache_hits": 0, "cache_misses": 0, "output_nodes": 0}
    deadline = clock() + seconds
    while clock() < deadline:
        workload.probe(state, True)
        record(untraced, workload, state, calibration)
        workload.probe(state, False)
        before = compilation.snapshot()
        with tracer:
            tracer.call += 1
            record(traced, workload, state, calibration, span=tracer.timed)
        after = compilation.snapshot()
        for key in stats:
            stats[key] += after[key] - before[key]
    if tracer.missing:
        print(f"# layer targets not found: {', '.join(sorted(set(tracer.missing)))}", file=sys.stderr)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{workload.name}-{workload.seed}.jsonl")

    extras = workload.phase_metrics(state)
    extras.update(count_semiring_ops(lambda: workload.call(state, clock)))
    extras["obs.trace_overhead"] = (
        traced.items_per_s / untraced.items_per_s if untraced.items_per_s else 0.0
    )
    metrics = layer_metrics(tracer, len(traced.raw), sum(traced.raw), stats, extras)
    for name, unit in LAYER_METRICS.items():
        if unit == "s":
            metrics[name] *= traced.scale  # per-layer times at reference speed, too
    loop = Loop()
    loop.latencies = untraced.latencies + traced.latencies
    loop.failed = untraced.failed + traced.failed
    return loop, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_environment()
    import_library()
    from perfbench.workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(WORKLOADS)} or all")
    results = {name: run(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
