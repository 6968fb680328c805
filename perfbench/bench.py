"""Measurement loop of the gradplay benchmark; ``run.py`` is the entry point.

One closed-loop caller: jobs run back to back in this process, each one
started when the previous one has finished and been checked.  A job is one
``run_experiment(..., out_dir)`` or one ``audit(..., out_dir)``.

``--trace 0`` reports the end-to-end metrics with nothing wrapped.  Job
and set-up times are rescaled to a reference host speed by a fixed probe
timed around each of them (see :func:`at_reference_speed`).
``--trace 1`` alternates untraced and traced jobs, reports per-layer
metrics averaged over the traced jobs, and the difference of the two
medians as ``tracing_overhead_s``.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from gradplay import dynamics

import tracing
from run import THREAD_VARS
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR / "results"

#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 7
#: Repetitions of the kernel probe; its median is reported.
KERNEL_REPS = 3
#: A tail percentile is reported only with this many jobs above it.
TAIL_SAMPLES = 10
#: Seconds of :func:`host_probe`, rounded, on the machine this benchmark was
#: written on (2 vCPUs, Python 3.11, numpy 2.4, one BLAS thread).
REFERENCE_PROBE_S = 0.005
#: Host probes on each side of a timed job or set-up; their median is used,
#: so that one interrupted probe does not rescale the job.
PROBE_REPS = 3

END_TO_END = {"job_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

LAYERS = (
    "game.random_game",
    "game.estimate_constants",
    "game.solve_nash_equilibrium",
    "game.gradient",
    "network.graph",
    "network.metropolis_weights",
    "network.sigma",
    "network.average_property_check",
    "bounds",
    "dynamics.run",
    "dynamics.step",
    "harness.analysis",
    "harness.io",
    tracing.JOB_LAYER,
)

# Self seconds of game.gradient, network.average_property_check and
# dynamics.step are exactly 0 on the workloads that never call them, so
# they are reported through their module totals (game.s, network.s,
# dynamics.s), their call counts, and the results file.
PER_LAYER = {
    "game.random_game.s": "s",
    "game.estimate_constants.s": "s",
    "game.estimate_constants.calls": "count",
    "game.solve_nash_equilibrium.s": "s",
    "game.solve_nash_equilibrium.calls": "count",
    "game.gradient.calls": "count",
    "game.s": "s",
    "network.graph.s": "s",
    "network.metropolis_weights.s": "s",
    "network.sigma.s": "s",
    "network.sigma.calls": "count",
    "network.average_property_check.calls": "count",
    "network.s": "s",
    "bounds.s": "s",
    "bounds.calls": "count",
    "dynamics.run.s": "s",
    "dynamics.iters": "count",
    "dynamics.iters_per_s": "1/s",
    "dynamics.run.us_per_iter": "us",
    "dynamics.step.calls": "count",
    "dynamics.s": "s",
    "dynamics.kernel.us_per_iter": "us",
    "dynamics.record.us_per_iter": "us",
    "dynamics.kernel.useful_flops": "flop",
    "dynamics.kernel.useful_gflops": "GFLOP/s",
    "harness.analysis.s": "s",
    "harness.analysis.rows": "count",
    "harness.io.s": "s",
    "harness.io.bytes": "bytes",
    "harness.io.mb_per_s": "MB/s",
    "harness.job.self_s": "s",
    "tracing_overhead_s": "s",
}


_PROBE_MATRIX = np.full((20, 20), 0.05)


def host_probe() -> float:
    """Seconds of fixed work that touches no gradplay code: a pure-Python
    loop and a chain of 20x20 products, the mix of interpreter and numpy
    dispatch that gradplay's jobs are made of."""
    start = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i
    x = np.eye(20)
    for _ in range(600):
        x = _PROBE_MATRIX @ x
    return time.perf_counter() - start


def probe_median(reps: int = 9) -> float:
    return statistics.median(host_probe() for _ in range(reps))


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "reference_probe_s": REFERENCE_PROBE_S,
        "host_probe_s_before": probe_median(),
    }


def at_reference_speed(measure):
    """Run ``measure`` (returns seconds) between two medians of
    ``PROBE_REPS`` host probes.

    Returns ``(seconds rescaled to REFERENCE_PROBE_S, raw seconds, probe
    seconds)``.  The host this benchmark was written on changes speed by up
    to 1.8x from one minute to the next, in phases of seconds to minutes,
    and gradplay's jobs slow down with the probe; the rescaled time is the
    job's time on a host as fast as the reference.
    """
    before = probe_median(PROBE_REPS)
    raw = measure()
    probe = (before + probe_median(PROBE_REPS)) / 2.0
    return raw * REFERENCE_PROBE_S / probe, raw, probe


def cold_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the end of the
    workload's problem construction (see ``setup_probe.py``)."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)]
    start = time.perf_counter()
    done = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
    return float(done.stdout.split()[-1]) - start


def dir_bytes(path) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())


class Jobs:
    """Runs one workload's jobs in this process and checks each one."""

    def __init__(self, workload, seed: int, workdir: str):
        self.workload = workload
        self.inputs = workload.inputs(seed)
        self.check = workload.check(self.inputs)
        self.workdir = workdir
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, tracer=None):
        """Run, time and check one job; returns ``(job, wall_s, bytes_written)``."""
        job = self.count
        self.count += 1
        out_dir = os.path.join(self.workdir, f"job{job}")
        start = time.perf_counter()
        try:
            if tracer is None:
                report = self.workload.job(self.inputs, out_dir)
            else:
                with tracer.job_span(job):
                    report = self.workload.job(self.inputs, out_dir)
        except Exception as exc:  # a raising job is a failed operation
            wall = time.perf_counter() - start
            failed, problems = self.check.operations(), [f"raised {exc!r}"]
        else:
            wall = time.perf_counter() - start
            failed, problems = self.check.failed_operations(report, out_dir)
        self.attempted += self.check.operations()
        self.failed += failed
        self.problems += [f"job {job}: {problem}" for problem in problems]
        written = dir_bytes(out_dir) if os.path.isdir(out_dir) else 0
        shutil.rmtree(out_dir, ignore_errors=True)
        return job, wall, written


def back_to_back(seconds: float, job) -> list:
    """Call ``job`` until ``seconds`` have passed, at least once."""
    deadline = time.perf_counter() + seconds
    results = [job()]
    while time.perf_counter() < deadline:
        results.append(job())
    return results


def tail_percentile(values, beyond: int = TAIL_SAMPLES):
    """Highest percentile with at least ``beyond`` samples above it, as
    ``(percentile, value)``, or None when there are too few samples."""
    ordered = sorted(values)
    k = len(ordered) - beyond - 1
    if k < 0:
        return None
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def measure_end_to_end(name: str, seed: int, seconds: float, jobs: Jobs):
    setup = [
        at_reference_speed(lambda: cold_setup(name, seed)) for _ in range(SETUP_REPS)
    ]
    jobs.run()  # warm-up: lazy imports and caches, checked but not timed
    timed = back_to_back(seconds, lambda: at_reference_speed(lambda: jobs.run()[1]))
    metrics = {
        "job_s": statistics.median(t for t, _, _ in timed),
        "setup_s": statistics.median(t for t, _, _ in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "job_wall_s": statistics.median(raw for _, raw, _ in timed),
        "setup_wall_s": statistics.median(raw for _, raw, _ in setup),
        "job_samples": [dict(zip(("s", "wall_s", "probe_s"), t)) for t in timed],
        "setup_samples": [dict(zip(("s", "wall_s", "probe_s"), t)) for t in setup],
    }
    return metrics, details


def kernel_probe(calls) -> dict:
    """``dynamics.step`` alone on the inputs of one job's ``run()`` calls,
    for as many steps as each call iterated.  Flops are computed as
    ``2 * nnz(W) * n`` per step, the useful work of a sparse product."""
    iters = sum(k for *_, k in calls)
    flops = sum(2 * np.count_nonzero(w.w) * w.n * k for _, _, w, _, _, k in calls)
    times = []
    for _ in range(KERNEL_REPS):
        start = time.perf_counter()
        for _, game, w, alpha, x0, k in calls:
            x = x0
            for _ in range(k):
                x = dynamics.step(x, w, alpha, game)
        times.append(time.perf_counter() - start)
    seconds = statistics.median(times)
    return {
        "us_per_iter": seconds / iters * 1e6,
        "useful_flops": float(flops / iters),
        "useful_gflops": float(flops / seconds / 1e9),
    }


def layer_table(tracer, traced) -> tuple:
    """Per-job means over the traced jobs: ``{layer: {"s", "calls"}}`` and
    the counters.  The layers' self seconds add up to the mean job wall."""
    table = {layer: {"s": 0.0, "calls": 0} for layer in LAYERS}
    counts = defaultdict(int)
    for job, wall, written in traced:
        self_s, calls, job_counts = tracer.layer_totals(job)
        for layer in LAYERS:
            table[layer]["s"] += self_s.get(layer, 0.0)
            table[layer]["calls"] += calls.get(layer, 0)
        for key, value in job_counts.items():
            counts[key] += value
        counts["harness.io.bytes"] += written
        counts["job_wall_s"] += wall
    jobs = len(traced)
    for entry in table.values():
        entry["s"] /= jobs
        entry["calls"] /= jobs
    return table, {key: value / jobs for key, value in counts.items()}


def layer_metrics(table, counts, kernel, overhead) -> dict:
    def s(layer):
        return table[layer]["s"]

    def calls(layer):
        return table[layer]["calls"]

    def module_s(prefix):
        return sum(s(layer) for layer in LAYERS if layer.startswith(prefix))

    iters = counts["dynamics.iters"]
    run_us = s("dynamics.run") / iters * 1e6
    return {
        "game.random_game.s": s("game.random_game"),
        "game.estimate_constants.s": s("game.estimate_constants"),
        "game.estimate_constants.calls": calls("game.estimate_constants"),
        "game.solve_nash_equilibrium.s": s("game.solve_nash_equilibrium"),
        "game.solve_nash_equilibrium.calls": calls("game.solve_nash_equilibrium"),
        "game.gradient.calls": calls("game.gradient"),
        "game.s": module_s("game."),
        "network.graph.s": s("network.graph"),
        "network.metropolis_weights.s": s("network.metropolis_weights"),
        "network.sigma.s": s("network.sigma"),
        "network.sigma.calls": calls("network.sigma"),
        "network.average_property_check.calls": calls("network.average_property_check"),
        "network.s": module_s("network."),
        "bounds.s": s("bounds"),
        "bounds.calls": calls("bounds"),
        "dynamics.run.s": s("dynamics.run"),
        "dynamics.iters": iters,
        "dynamics.iters_per_s": iters / s("dynamics.run"),
        "dynamics.run.us_per_iter": run_us,
        "dynamics.step.calls": calls("dynamics.step"),
        "dynamics.s": module_s("dynamics."),
        "dynamics.kernel.us_per_iter": kernel["us_per_iter"],
        "dynamics.record.us_per_iter": run_us - kernel["us_per_iter"],
        "dynamics.kernel.useful_flops": kernel["useful_flops"],
        "dynamics.kernel.useful_gflops": kernel["useful_gflops"],
        "harness.analysis.s": s("harness.analysis"),
        "harness.analysis.rows": counts["harness.analysis.rows"],
        "harness.io.s": s("harness.io"),
        "harness.io.bytes": counts["harness.io.bytes"],
        "harness.io.mb_per_s": counts["harness.io.bytes"] / s("harness.io") / 1e6,
        "harness.job.self_s": s(tracing.JOB_LAYER),
        "tracing_overhead_s": overhead,
    }


def measure_layers(seconds: float, jobs: Jobs, spans_path: Path):
    jobs.run()  # warm-up, as in the untraced run
    tracer = tracing.Tracer()
    origin = time.perf_counter()
    plain, traced = [], []

    def pair():
        plain.append(jobs.run())
        with tracer.installed():
            traced.append(jobs.run(tracer))

    back_to_back(seconds, pair)
    tracer.write_spans(spans_path, origin)
    table, counts = layer_table(tracer, traced)
    kernel = kernel_probe(tracer.run_calls)
    overhead = statistics.median(w for _, w, _ in traced) - statistics.median(
        w for _, w, _ in plain
    )
    details = {
        "layers": table,
        "counts": counts,
        "kernel_probe": kernel,
        "traced_job_s_samples": [w for _, w, _ in traced],
        "untraced_job_s_samples": [w for _, w, _ in plain],
        "spans_file": spans_path.name,
    }
    return layer_metrics(table, counts, kernel, overhead), details


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name]
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    env = environment()
    workdir = tempfile.mkdtemp(prefix=f"work-{stem}-", dir=RESULTS_DIR)
    try:
        jobs = Jobs(workload, seed, workdir)
        if trace:
            metrics, details = measure_layers(seconds, jobs, RESULTS_DIR / f"{stem}-spans.csv.gz")
            units = PER_LAYER
        else:
            metrics, details = measure_end_to_end(name, seed, seconds, jobs)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["host_probe_s_after"] = probe_median()
    correct = jobs.failed == 0

    print(f"perfbench workload={name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print(f"env {json.dumps(env)}")
    for metric, value in metrics.items():
        print(f"{metric} {value!r} {units[metric]}")
    if not trace:
        job_s = [sample["s"] for sample in details["job_samples"]]
        tail = tail_percentile(job_s)
        tail_text = (
            f"p{tail[0]:.0f} {tail[1]!r} s with {TAIL_SAMPLES} jobs above it"
            if tail and tail[0] > 50
            else f"no percentile above the median has {TAIL_SAMPLES} jobs above it"
        )
        print(
            f"job_s is the median of {len(job_s)} jobs at reference host speed; "
            f"{tail_text}; median wall {details['job_wall_s']!r} s"
        )
        print(
            f"setup_s is the median of {SETUP_REPS} cold processes at reference "
            f"host speed; median wall {details['setup_wall_s']!r} s"
        )
    print(
        f"fail_rate {jobs.failed / jobs.attempted!r} ratio "
        f"({jobs.failed} of {jobs.attempted} operations failed)"
    )
    for problem in jobs.problems[:20]:
        print(f"problem: {problem}")

    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": env,
        "metrics": metrics,
        "units": units,
        "attempted": jobs.attempted,
        "failed": jobs.failed,
        "problems": jobs.problems,
        **details,
    }
    with open(RESULTS_DIR / f"{stem}.json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    result = {
        "correct": correct,
        "attempted": jobs.attempted,
        "failed": jobs.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1
