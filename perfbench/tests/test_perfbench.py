"""Tests of the benchmark's own code: inputs, tracing, checks and output."""

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gradplay
from gradplay import ExperimentConfig, bounds, dynamics, game, harness, network

import bench
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
MODULES = (bounds, dynamics, game, harness, network)


def small_config():
    return ExperimentConfig(
        n=6, game_seed=1, graph_seed=2, init_seed=3, topology="tree",
        alpha="auto", max_iters=40, tol=0.0, check_lemmas=True,
    )


def namespaces():
    return {module.__name__: dict(module.__dict__) for module in MODULES}


def declared():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        doc = json.load(f)
    return doc, {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}


def test_paper_sim_seed3_is_the_preset():
    assert workloads.paper_sim_config(3) == gradplay.paper_sim_config()


def test_workload_inputs_repeat_for_a_seed():
    for workload in workloads.WORKLOADS.values():
        assert workload.inputs(7) == workload.inputs(7)
    assert workloads.scale_tree_config(4) != workloads.scale_tree_config(5)


def test_reference_replay_reproduces_paper_sim_seed3():
    reference = workloads.reference_relative_error(workloads.paper_sim_config(3), 0.05)
    expected = workloads.PAPER_SIM_SEED3_REL_ERROR
    assert abs(reference - expected) <= workloads.REFERENCE_RTOL * expected


def test_untraced_job_runs_gradplay_own_functions(tmp_path):
    before = namespaces()
    seen = {}

    def job(config, out_dir):
        seen.update({(m.__name__, a): m.__dict__.get(a) for m, a, _, _ in tracing.TARGETS})
        return gradplay.run_experiment(config, out_dir=out_dir)

    workload = workloads.Workload(
        "small", lambda seed: small_config(), job, workloads.construct_run,
        lambda config: workloads.RunCheck(config, converges=False),
    )
    jobs = bench.Jobs(workload, 0, str(tmp_path))
    jobs.run()
    assert jobs.failed == 0, jobs.problems
    assert seen == {key: before[key[0]].get(key[1]) for key in seen}
    assert seen[("gradplay.harness", "open")] is None
    assert namespaces() == before


@pytest.mark.parametrize("raises", [False, True])
def test_traced_job_wraps_then_restores_every_name(tmp_path, raises):
    before = namespaces()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError) if raises else contextlib.nullcontext():
        with tracer.installed():
            for module, attr, _, _ in tracing.TARGETS:
                assert module.__dict__[attr] is not before[module.__name__].get(attr)
            with tracer.job_span(0):
                gradplay.run_experiment(small_config(), out_dir=str(tmp_path))
            if raises:
                raise RuntimeError("job failed")
    assert namespaces() == before


def test_layer_self_times_account_for_the_job(tmp_path):
    tracer = tracing.Tracer()
    with tracer.installed():
        with tracer.job_span(0):
            gradplay.run_experiment(small_config(), out_dir=str(tmp_path))
    self_s, calls, counts = tracer.layer_totals(0)
    wall = tracer.end[0] - tracer.start[0]
    assert sum(self_s.values()) == pytest.approx(wall, rel=1e-9)
    assert all(value >= 0 for value in self_s.values())
    assert calls["game.estimate_constants"] == 2
    assert calls["harness.io"] == 7  # seven artifacts; trace_to_csv nests inside one
    assert counts == {"dynamics.iters": 40, "harness.analysis.rows": 3 * 41}
    assert set(self_s) <= set(bench.LAYERS)


def test_audit_without_cells_fails_every_operation(tmp_path):
    check = workloads.AuditCheck()
    report = gradplay.audit(seeds=0, out_dir=str(tmp_path))
    failed, problems = check.failed_operations(report, str(tmp_path))
    assert failed == check.operations() == workloads.AUDIT_CELLS
    assert problems


def test_run_check_flags_a_changed_trace(tmp_path):
    config = small_config()
    check = workloads.RunCheck(config, converges=False)
    for name in ("a", "b"):
        report = gradplay.run_experiment(config, out_dir=str(tmp_path / name))
        assert check.failed_operations(report, str(tmp_path / name)) == (0, [])
    (tmp_path / "b" / "trace.csv").write_text("t\n0\n")
    failed, problems = check.failed_operations(report, str(tmp_path / "b"))
    assert failed == 1 and "trace.csv" in problems[0]


def test_declared_metrics_match_the_code():
    doc, units = declared()
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def run_benchmark(trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-sim", "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_every_printed_metric_is_declared(trace):
    done = run_benchmark(trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    doc, units = declared()
    expected = doc["per_layer"] if trace else doc["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
    # Lines of the form "<name> <number> <unit>"; fail_rate is derived from
    # attempted/failed and deliberately not a declared metric.
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 3 and _is_number(parts[1]):
            printed[parts[0]] = (float(parts[1]), parts[2])
    assert printed.pop("fail_rate") == (0.0, "ratio")
    assert printed == {
        name: (metric["value"], metric["unit"]) for name, metric in result["metrics"].items()
    }


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results"))
    done = run_benchmark(0, cwd=tmp_path)
    assert done.returncode == 2
    assert done.stdout == ""
