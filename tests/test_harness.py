import errno
import inspect
import io
import json
import math
import os
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from gradplay import (
    ring,
    DivergenceError,
    ExperimentConfig,
    QuadraticGame,
    audit,
    build_graph,
    complete,
    estimate_constants,
    metropolis_weights,
    paper_sim_config,
    random_game,
    random_tree,
    run_experiment,
    solve_nash_equilibrium,
    star,
)
from gradplay.cli import main
from gradplay.auditing import (
    AuditReport,
    _audit_average_property,
    _audit_game_assumptions,
    _audit_mixing,
)
from gradplay.harness import (
    _dump_game,
    envelope_excess,
    first_lemma_violation,
    fit_tail_contraction,
    lemma_slack_minima,
    zdomination_excess,
)
import gradplay
from gradplay import auditing, bounds, dynamics, footprint, harness
from gradplay.game import game_mapping
from gradplay.network import Graph, average_property_check


def reject_json_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def small_config(**overrides):
    base = dict(
        n=5,
        game_seed=1,
        graph_seed=2,
        init_seed=3,
        topology="star",
        alpha="auto",
        max_iters=300,
        tol=0.0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_defaults_valid(self):
        ExperimentConfig().validate()

    def test_round_trip(self):
        config = small_config(alpha=0.01)
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({"players": 7})

    def test_non_object_rejected(self):
        # the CLI refuses a JSON list itself; the library refuses it too
        with pytest.raises(ValueError, match="config must be a JSON object, got list"):
            ExperimentConfig.from_dict([1, 2])

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            small_config(topology="torus").validate()
        with pytest.raises(ValueError):
            small_config(topology="ring", n=2).validate()
        with pytest.raises(ValueError):
            small_config(alpha=-0.1).validate()
        with pytest.raises(ValueError):
            small_config(alpha="fast").validate()
        with pytest.raises(ValueError):
            small_config(tol=-1.0).validate()

    @pytest.mark.parametrize("key", ["alpha", "tol", "coupling_scale"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 10**400])
    def test_non_finite_values_rejected(self, key, value):
        with pytest.raises(ValueError, match="finite"):
            small_config(**{key: value}).validate()

    def test_numbers_accept_ints(self):
        small_config(coupling_scale=1, alpha=1, tol=0).validate()

    def test_paper_sim_preset(self):
        config = paper_sim_config()
        config.validate()
        assert config.n == 20
        assert config.topology == "tree"
        assert config.alpha == 0.05
        assert config.max_iters == 10_000


class TestRunExperiment:
    def test_consensual_start_zero_error(self):
        # hand-built game on the 2-node complete graph, started at the equilibrium
        game = QuadraticGame(a=np.ones(2), b=np.array([-1.0, -1.0]), c=np.zeros((2, 2)))
        x_star = solve_nash_equilibrium(game)
        config = small_config(n=2, topology="complete", alpha=0.1, max_iters=50)
        report = run_experiment(config, game=game, x0=np.tile(x_star, (2, 1)))
        assert report.iterations == 0
        assert report.initial_distance == 0.0
        assert report.final_relative_error == 0.0
        assert report.ok

    def test_auto_alpha_resolution_and_certificate(self):
        report = run_experiment(small_config())
        game = random_game(5, 1)
        consts = estimate_constants(game)
        w = metropolis_weights(star(5))
        ceiling = bounds.alpha_max(consts.mu, consts.l, w.sigma, 5)
        assert report.alpha == pytest.approx(0.9 * ceiling, rel=1e-15)
        assert report.alpha_admissible
        assert report.q is not None and report.q < 1
        assert report.ok
        assert report.first_violation is None

    def test_fitted_ratio_below_certificate(self):
        report = run_experiment(small_config(max_iters=800))
        assert report.fitted_contraction_ratio is not None
        assert report.fitted_contraction_ratio <= report.q * (1 + 1e-6)

    def test_explicit_inadmissible_alpha_warns_but_runs(self):
        report = run_experiment(small_config(alpha=0.05, max_iters=200))
        assert report.alpha_admissible is False
        assert "exceeds the certified ceiling" in report.alpha_note
        assert report.q is None
        assert not report.diverged
        # below the ceiling, but q rounds to 1
        report = run_experiment(small_config(alpha=1e-17, max_iters=5))
        assert report.alpha_admissible is False and report.q is None
        assert "too small for a contraction rate q < 1" in report.alpha_note

    def test_auto_alpha_with_q_rounding_to_one_warns_but_runs(self):
        # L / mu = 1e4 on a 4-ring: 0.9 * alpha_max ~ 3e-18, so q rounds to 1
        game = QuadraticGame(np.array([1.0, 1e4, 1e4, 1e4]), np.zeros(4), np.zeros((4, 4)))
        config = small_config(n=4, topology="ring", max_iters=5)
        report = run_experiment(config, game=game, graph=ring(4))
        assert report.alpha == 0.9 * report.alpha_max
        assert report.alpha_admissible is False and report.q is None
        assert "too small for a contraction rate q < 1" in report.alpha_note
        assert report.iterations == 5 and not report.diverged

    def test_divergence_path(self, tmp_path):
        report = run_experiment(small_config(alpha=80.0, max_iters=3000))
        assert report.diverged
        assert not report.ok
        assert "diverged" in report.alpha_note
        assert len(report.trace)  # partial trace retained
        # a distance that overflows at t = 0 still leaves the t = 0 row
        report = run_experiment(small_config(), out_dir=tmp_path, x0=np.full((5, 5), 1e200))
        assert report.diverged and not report.ok
        assert report.iterations == 0 and len(report.trace) == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["iterations"] == 0 and summary["final_relative_error"] is None

    def test_artifacts_written(self, tmp_path):
        out = tmp_path / "exp"
        report = run_experiment(small_config(max_iters=60), out_dir=out)
        names = {p.name for p in out.iterdir()}
        assert {
            "trace.csv",
            "summary.txt",
            "summary.json",
            "plot.py",
            "game.json",
            "graph.edges",
            "mixing.csv",
        } <= names
        header = (out / "trace.csv").read_text().splitlines()[0]
        assert header == (
            "t,consensus_violation,distance_to_ne,avg_distance_to_ne,grad_norm,"
            "lemma1_slack,lemma2_slack,lemma3_slack"
        )
        summary = json.loads((out / "summary.json").read_text())
        assert summary["ok"] == report.ok
        assert summary["config"]["n"] == 5
        text = (out / "summary.txt").read_text()
        assert "relative error" in text  # definition stated up front
        doc = json.loads((out / "game.json").read_text())
        game = random_game(5, 1, 0.2)
        assert doc["n"] == 5
        for key in ("a", "b", "c"):
            assert np.array_equal(doc[key], getattr(game, key).ravel())
        pairs = [line.split() for line in (out / "graph.edges").read_text().splitlines()]
        edges = tuple((int(i) - 1, int(j) - 1) for i, j in pairs)
        assert Graph(n=5, edges=edges) == build_graph("star", 5)
        w = np.loadtxt(out / "mixing.csv", delimiter=",")
        assert w.shape == (5, 5)

    def test_plot_script_renders_svg(self, tmp_path):
        out = tmp_path / "exp"
        run_experiment(small_config(max_iters=40), out_dir=out)
        proc = subprocess.run(
            [sys.executable, str(out / "plot.py")],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        svg = (out / "plot.svg").read_text()
        assert "<svg" in svg[:500]

    def test_dense_runs_never_import_scipy(self, tmp_path):
        """paper-sim and the default audit iterate small dense matrices; the
        sparse operator's scipy import must stay out of their processes.  So
        must ``concurrent.futures`` and ``queue``, which the writer and norm
        threads do without (7 ms and 0.25 MB at import)."""
        script = (
            "import sys, gradplay\n"
            f"gradplay.run_experiment(gradplay.paper_sim_config(), out_dir={str(tmp_path / 'run')!r})\n"
            f"assert gradplay.audit(out_dir={str(tmp_path / 'audit')!r}).ok\n"
            "print(any(m in sys.modules for m in ('scipy.sparse', 'concurrent.futures', 'queue')))\n"
        )
        src = str(Path(dynamics.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=300, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_byte_identical_reruns(self, tmp_path):
        config = small_config(max_iters=120)
        run_experiment(config, out_dir=tmp_path / "a")
        run_experiment(config, out_dir=tmp_path / "b")
        assert (tmp_path / "a/trace.csv").read_bytes() == (
            tmp_path / "b/trace.csv"
        ).read_bytes()

    @pytest.mark.parametrize("topology", ["tree", "ring", "complete", "star"])
    def test_game_json_equals_its_plain_encoding(self, topology, tmp_path):
        # game.json is json.dump with indent 2
        run_experiment(small_config(topology=topology, n=12, alpha=0.01, max_iters=3), out_dir=tmp_path)
        game = random_game(12, 1, 0.2)
        doc = {"n": 12, "a": game.a.tolist(), "b": game.b.tolist()}
        doc.update(c=game.c.ravel().tolist(), seed=1)
        expected = json.dumps(doc, indent=2) + "\n"
        assert (tmp_path / "game.json").read_text() == expected

    def test_mismatched_override_rejected(self):
        with pytest.raises(ValueError, match="players"):
            run_experiment(small_config(), game=random_game(6, 0))


def artifact_names(out):
    return sorted(p.name for p in Path(out).iterdir())


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def aside_config(**overrides):
    """A 12-player, 300-step config: 144 floats of game.json text and 7 * 301
    of trace.csv text."""
    return small_config(**{"n": 12, **overrides})


ASIDE_GAME_FLOATS, ASIDE_TRACE_FLOATS = 12 * 12, 7 * 301

#: (_FORK_FLOATS, _THREAD_FLOATS) that give aside_config() each writer: at
#: or just above its trace floats, at or just above its game floats.
WRITERS = {
    "forked": (ASIDE_TRACE_FLOATS, ASIDE_GAME_FLOATS),
    "thread": (ASIDE_TRACE_FLOATS + 1, ASIDE_GAME_FLOATS),
    "in_process": (ASIDE_TRACE_FLOATS + 1, ASIDE_GAME_FLOATS + 1),
}


def run_kind(kind):
    """Overrides of aside_config for a run that ends its horizon (301 rows),
    diverges (7 rows), stops on tol (101 rows) or stops on tol at the end of a
    256-row block."""
    if kind in ("tol-stopped", "tol at a block's end"):
        distances = run_experiment(aside_config()).trace.distance_to_ne
        return {"tol": float(distances[100 if kind == "tol-stopped" else 255])}
    return {"alpha": 80.0} if kind == "diverged" else {}


def on_main_thread():
    return threading.current_thread() is threading.main_thread()


class WriterSpy:
    """Which writer wrote game.json: forks, and the thread of each
    ``_dump_game`` call in this process (a forked child's are not seen).
    Every call of ``harness.open`` records whether it came from the main
    thread; nothing may call it from another."""

    def __init__(self, monkeypatch):
        self.forks, self.dumps, self.opens = 0, [], []
        fork, dump = os.fork, harness._dump_game

        def counted_fork():
            self.forks += 1
            return fork()

        def spied_dump(game, f):
            self.dumps.append(on_main_thread())
            dump(game, f)

        def spied_open(*args, **kwargs):
            self.opens.append(on_main_thread())
            return open(*args, **kwargs)

        monkeypatch.setattr(harness.os, "fork", counted_fork)
        monkeypatch.setattr(harness, "_dump_game", spied_dump)
        monkeypatch.setattr(harness, "open", spied_open, raising=False)

    def writer(self):
        assert all(self.opens), "harness.open was called off the main thread"
        if self.forks:
            assert self.forks == 1 and self.dumps == []
            return "forked"
        [main] = self.dumps
        return "in_process" if main else "thread"


class TestGameJsonAside:
    """game.json and trace.csv are written while the run goes on: both by one
    forked child once the trace holds at least ``_FORK_FLOATS`` floats, and
    otherwise game.json by a thread once the game holds at least
    ``_THREAD_FLOATS``."""

    @pytest.fixture(params=list(WRITERS))
    def writer(self, request, monkeypatch):
        fork_floats, thread_floats = WRITERS[request.param]
        monkeypatch.setattr(harness, "_FORK_FLOATS", fork_floats)
        monkeypatch.setattr(harness, "_THREAD_FLOATS", thread_floats)
        spy = WriterSpy(monkeypatch)
        threads = threading.active_count()
        yield request.param
        assert spy.writer() == request.param
        assert threading.active_count() == threads

    @pytest.mark.parametrize(
        "n, max_iters, expected",
        [
            (10, 50, "forked"),  # 7 * 51 trace floats, 100 game floats
            (9, 50, "forked"),
            (10, 49, "thread"),
            (9, 49, "in_process"),
        ],
    )
    def test_trace_floats_fork_and_game_floats_thread(self, n, max_iters, expected, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_FORK_FLOATS", 7 * 51)
        monkeypatch.setattr(harness, "_THREAD_FLOATS", 100)
        spy = WriterSpy(monkeypatch)
        threads = threading.active_count()
        run_experiment(small_config(n=n, max_iters=max_iters), out_dir=tmp_path)
        assert spy.writer() == expected
        assert threading.active_count() == threads
        assert_no_child_left()

    def test_same_bytes_on_both_paths(self, writer, tmp_path):
        report = run_experiment(aside_config(), out_dir=tmp_path)
        assert report.ok
        text = io.StringIO()
        _dump_game(random_game(12, 1, 0.2), text)
        assert (tmp_path / "game.json").read_text() == text.getvalue()
        assert artifact_names(tmp_path) == [
            "game.json", "graph.edges", "mixing.csv", "plot.py",
            "summary.json", "summary.txt", "trace.csv",
        ]
        assert_no_child_left()

    @pytest.mark.parametrize(
        "kind, rows",
        [("fixed horizon", 301), ("diverged", 7), ("tol-stopped", 101), ("tol at a block's end", 256)],
    )
    def test_trace_csv_is_the_trace_on_both_paths(self, kind, rows, writer, tmp_path):
        report = run_experiment(aside_config(**run_kind(kind)), out_dir=tmp_path)
        assert len(report.trace) == rows and report.diverged == (kind == "diverged")
        assert (tmp_path / "trace.csv").read_text() == dynamics.trace_to_csv(report.trace)
        assert_no_child_left()

    def test_no_child_after_a_diverged_run(self, writer, tmp_path):
        report = run_experiment(aside_config(alpha=80.0), out_dir=tmp_path)
        assert report.diverged
        assert (tmp_path / "game.json").is_file()
        assert_no_child_left()

    def test_a_raising_run_leaves_no_game_json(self, writer, tmp_path, monkeypatch):
        self.assert_a_raising_run_leaves_nothing(writer, tmp_path, monkeypatch, after_rows=False)

    def test_a_run_raising_after_its_rows_leaves_no_trace_csv(self, writer, tmp_path, monkeypatch):
        self.assert_a_raising_run_leaves_nothing(writer, tmp_path, monkeypatch, after_rows=True)

    @staticmethod
    def assert_a_raising_run_leaves_nothing(writer, tmp_path, monkeypatch, after_rows):
        run = harness.run

        def failing_run(*args, **kwargs):
            if after_rows:  # every row has been sent to the child
                run(*args, **kwargs)
            raise RuntimeError("the run failed")

        monkeypatch.setattr(harness, "run", failing_run)
        out = tmp_path / "o"
        with pytest.raises(RuntimeError, match="the run failed"):
            run_experiment(aside_config(), out_dir=out)
        assert_no_child_left()
        # both paths make the directory before the run
        assert artifact_names(out) == []

    def test_a_game_json_directory_is_input_error(self, writer, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(aside_config().to_dict()))
        out = tmp_path / "o"
        (out / "game.json").mkdir(parents=True)
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: [Errno 21]")
        assert str(out / "game.json") in captured.err
        assert not [name for name in os.listdir(out) if name.endswith(".part")]
        assert_no_child_left()

    @pytest.mark.parametrize(
        "exc, message",
        [
            (OSError(errno.ENOSPC, "full"), r"^\[Errno 28\] No space left on device: '.*game.json'$"),
            (ValueError("bad game"), r"^could not write .*game.json: its writer process ended with status 255$"),
        ],
    )
    def test_a_failed_child_raises_one_line(self, exc, message, tmp_path, monkeypatch):
        def failing_dump(game, f):
            f.write("{")
            raise exc

        monkeypatch.setattr(harness, "_FORK_FLOATS", 0)
        monkeypatch.setattr(harness, "_dump_game", failing_dump)
        with pytest.raises(OSError, match=message):
            run_experiment(small_config(max_iters=20), out_dir=tmp_path)
        assert "game.json" not in artifact_names(tmp_path)
        assert not [name for name in artifact_names(tmp_path) if name.endswith(".part")]
        assert_no_child_left()

    @staticmethod
    def assert_a_failed_write_leaves_neither_file(stage, thread, tmp_path, monkeypatch, capsys):
        def full(game_or_block, f=None):
            if f is not None:
                f.write("{")
            raise OSError(errno.ENOSPC, "full")

        config = small_config(max_iters=20)
        monkeypatch.setattr(harness, "_FORK_FLOATS", 7 * 21 + 1)  # above the config's trace floats
        monkeypatch.setattr(harness, "_THREAD_FLOATS", 5 * 5 if thread else 5 * 5 + 1)
        # game.json fails before the run (or beside it, in the thread),
        # trace.csv on the run's first block
        monkeypatch.setattr(harness, "_dump_game" if stage == "game.json" else "_csv_rows", full)
        monkeypatch.setattr(harness.os, "fork", lambda: pytest.fail("the run forked"))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config.to_dict()))
        out = tmp_path / "o"
        threads = threading.active_count()
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # the error names the file as the forked path's does
        assert captured.err == f"error: [Errno 28] No space left on device: '{out / stage}'\n"
        # the thread's error is raised when the run is done, as a child's is
        others = ["graph.edges", "mixing.csv", "plot.py", "summary.json", "summary.txt"]
        assert artifact_names(out) == (others if thread and stage == "game.json" else [])
        assert threading.active_count() == threads

    def test_a_failed_write_in_process_leaves_neither_file(self, tmp_path, monkeypatch, capsys):
        # the in-process path once left a truncated game.json beside trace.csv
        self.assert_a_failed_write_leaves_neither_file("game.json", False, tmp_path, monkeypatch, capsys)

    def test_a_failed_append_in_process_leaves_neither_file(self, tmp_path, monkeypatch, capsys):
        self.assert_a_failed_write_leaves_neither_file("trace.csv", False, tmp_path, monkeypatch, capsys)

    @pytest.mark.parametrize("stage", ["game.json", "trace.csv"])
    def test_a_failed_write_beside_the_writer_thread_leaves_neither_file(self, stage, tmp_path, monkeypatch, capsys):
        self.assert_a_failed_write_leaves_neither_file(stage, True, tmp_path, monkeypatch, capsys)

    def test_a_raising_run_stops_the_writer_thread(self, tmp_path, monkeypatch):
        # game.json's text never ends: only the stop flag ends the thread
        ended_by = []

        def endless_dump(game, f):
            deadline = time.monotonic() + 60
            try:
                while time.monotonic() < deadline:
                    f.write("x")
            except BaseException as exc:
                ended_by.append(type(exc).__name__)
                raise

        def failing_run(*args, **kwargs):
            raise RuntimeError("the run failed")

        monkeypatch.setattr(harness, "_FORK_FLOATS", 10**9)
        monkeypatch.setattr(harness, "_THREAD_FLOATS", 0)
        monkeypatch.setattr(harness, "_dump_game", endless_dump)
        monkeypatch.setattr(harness, "run", failing_run)
        threads = threading.active_count()
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="the run failed"):
            run_experiment(aside_config(), out_dir=tmp_path / "o")
        assert time.monotonic() - started < 30
        assert ended_by == ["_Stopped"]
        assert threading.active_count() == threads
        assert artifact_names(tmp_path / "o") == []

    @pytest.mark.parametrize("stage", ["game.json", "trace.csv"])
    def test_a_child_that_stops_reading_is_not_a_broken_pipe(self, stage, tmp_path, monkeypatch, capsys):
        # 3001 rows of 72 bytes overfill the pipe, so the parent writes into a
        # pipe its failed child no longer reads
        def full(*args):
            raise OSError(errno.ENOSPC, "full")

        monkeypatch.setattr(harness, "_FORK_FLOATS", 0)
        # the child fails in game.json, or on the first block of rows it reads
        monkeypatch.setattr(harness, "_dump_game" if stage == "game.json" else "_csv_rows", full)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(small_config(max_iters=3000).to_dict()))
        out = tmp_path / "o"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: [Errno 28] No space left on device: '{out / stage}'\n"
        assert artifact_names(out) == ["graph.edges", "mixing.csv", "plot.py", "summary.json", "summary.txt"]
        assert_no_child_left()


class TestTraceHelpers:
    def test_fit_on_exact_geometric_sequence(self):
        rows = np.recarray(200, dtype=dynamics.IterationTrace)
        rows.fill(0)
        rows.t = np.arange(200)
        rows.distance_to_ne = [3.0 * 0.9**t for t in range(200)]
        slope, r2, npts = fit_tail_contraction(rows, burn_frac=0.25)
        assert slope == pytest.approx(2 * math.log(0.9), rel=1e-9)
        assert r2 == pytest.approx(1.0, abs=1e-12)
        assert npts == 150

    def test_column_helpers_match_row_loops(self):
        game = random_game(5, 4)
        consts = estimate_constants(game)
        w = metropolis_weights(ring(5))
        alpha = 0.9 * bounds.alpha_max(consts.mu, consts.l, w.sigma, 5)
        _, trace = dynamics.run(
            game, w, alpha, dynamics.initial_estimates(5, 4), max_iters=300
        )
        z = bounds.step_size_plan(consts.mu, consts.l, w.sigma, 5, alpha).z
        zvs = [np.array([r.avg_distance_to_ne**2, r.consensus_violation**2]) for r in trace]
        zdom = max(
            float(np.max((nxt - z @ cur) / (1.0 + np.abs(z @ cur))))
            for cur, nxt in zip(zvs, zvs[1:])
        )
        assert zdomination_excess(trace, z) == pytest.approx(zdom, rel=1e-12, abs=1e-15)
        lemma2 = min(r.lemma2_slack / (1.0 + abs(r.lemma2_slack + r.grad_norm)) for r in trace)
        mins = lemma_slack_minima(trace, consts.mu, consts.l, alpha, 5)
        assert mins["lemma2"] == lemma2
        assert all(isinstance(v, float) for k, v in mins.items() if k != "lemma3_applicable")

    def test_first_lemma_violation_order(self):
        mu, l, n = 1.0, 2.0, 4  # lemma3 applies for alpha <= mu / l**2 = 0.25
        nan = math.nan
        # t, cv, dist, avg_d, gn, lemma1, lemma2, lemma3
        rows = [
            (0, 1.0, 1.0, 1.0, 1.0, nan, 0.5, nan),
            (1, 1.0, 1.0, 1.0, 1.0, 0.5, -1e-12, 0.5),  # within tolerance
            (2, 1.0, 1.0, 1.0, 1.0, 0.5, 0.5, -1.0),
            (3, 1.0, 1.0, 1.0, 1.0, -1.0, -1.0, 0.5),
            (4, 1.0, 1.0, 1.0, 1.0, -1.0, 0.5, 0.5),
        ]
        trace = np.rec.fromrecords(rows, names=dynamics.TRACE_COLUMNS)
        name, t, slack = first_lemma_violation(trace, mu, l, 0.1, n)
        assert (name, t) == ("lemma3", 2)
        assert slack == pytest.approx(-1.0 / (1.0 + abs(-1.0 + 1.0 + mu * 0.1 / n)))
        # lemma3 is ignored where it does not apply; lemma2 precedes lemma1
        assert first_lemma_violation(trace, mu, l, 0.5, n) == ("lemma2", 3, -1.0)
        assert first_lemma_violation(trace[:3], mu, l, 0.5, n) is None

    def test_fit_returns_none_for_short_trace(self):
        assert fit_tail_contraction([]) is None

    def test_recursion_residual_small(self):
        game = random_game(6, 2)
        w = metropolis_weights(random_tree(6, 2))
        x0 = dynamics.initial_estimates(6, 2)
        _, trace = dynamics.run(game, w, 0.03, x0, max_iters=60)
        assert math.isnan(trace.recursion_residual[0])
        assert np.fmax.reduce(trace.recursion_residual[1:], initial=0.0) <= 1e-12

    @pytest.mark.parametrize(
        "n, topology", [(6, "tree"), (20, "tree"), (5, "complete"), (240, "ring")]
    )
    def test_recursion_residual_matches_step_replay(self, n, topology):
        # run() reduces its norms a chunk of states at a time (one state on
        # the 240 ring) and its vector columns a block at a time; this
        # horizon crosses two block boundaries and ends inside a third block
        game = random_game(n, 8)
        w = metropolis_weights(build_graph(topology, n, 8))
        x0 = dynamics.initial_estimates(n, 8)
        chunk, block = dynamics._record_spans(n)
        assert (chunk == 1) == (n == 240)
        assert isinstance(w.operator, np.ndarray) == (n != 240)  # CSR on the ring
        _, trace = dynamics.run(game, w, 0.03, x0, max_iters=2 * block + 37)
        check_block_columns(trace, game, w, 0.03, x0)

    @pytest.mark.parametrize(
        "n, topology, alpha",
        [(6, "tree", 0.7), (20, "tree", 0.7), (5, "complete", 0.6), (240, "ring", 0.65)],
    )
    def test_divergence_mid_block_matches_step_replay(self, n, topology, alpha):
        game = random_game(n, 8)
        w = metropolis_weights(build_graph(topology, n, 8))
        x0 = dynamics.initial_estimates(n, 8)
        chunk, block = dynamics._record_spans(n)
        with pytest.raises(DivergenceError) as excinfo:
            dynamics.run(game, w, alpha, x0, max_iters=3 * block)
        t = excinfo.value.iteration
        assert t > block and t % block not in (0, block - 1)
        assert chunk == 1 or t % chunk not in (0, chunk - 1)
        assert str(excinfo.value).startswith(f"diverged at iteration {t}: distance ")
        assert len(excinfo.value.trace) == t + 1
        check_block_columns(excinfo.value.trace, game, w, alpha, x0)

    def test_zdom_and_envelope_on_admissible_run(self):
        game = random_game(5, 4)
        consts = estimate_constants(game)
        w = metropolis_weights(ring(5))
        alpha = 0.9 * bounds.alpha_max(consts.mu, consts.l, w.sigma, 5)
        _, trace = dynamics.run(
            game, w, alpha, dynamics.initial_estimates(5, 4), max_iters=400
        )
        rb = bounds.rate_bound(consts.mu, consts.l, w.sigma, 5, alpha)
        z = rb.z
        assert zdomination_excess(trace, z) <= 1e-9
        assert envelope_excess(trace, z, rb.lambda1, rb.lambda2) <= 1e-9


def own_gradient(game, x):
    """Each player's own partial gradient at her own row of ``x``."""
    return (game.mapping_matrix * x).sum(axis=1) + game.b


def check_block_columns(trace, game, w, alpha, x0):
    """The columns run() reduces a chunk or a block at a time
    (consensus_violation, distance_to_ne, avg_distance_to_ne, grad_norm,
    recursion_residual, lemma1_slack) equal, bit for bit, np.linalg.norm and
    mean of states advanced one at a time by the public step()."""
    n = game.n
    x_star = solve_nash_equilibrium(game)
    x_star_mat = np.tile(x_star, (n, 1))
    x = np.array(x0)
    prev = None
    for row in trace:
        avg = x.mean(axis=0)
        g = own_gradient(game, x)
        cv = np.linalg.norm(x - avg)
        gn = np.linalg.norm(g)
        assert row.consensus_violation == cv
        assert row.distance_to_ne == np.linalg.norm(x - x_star_mat)
        assert row.avg_distance_to_ne == math.sqrt(n) * np.linalg.norm(avg - x_star)
        assert row.grad_norm == gn
        if prev is None:
            assert math.isnan(row.recursion_residual) and math.isnan(row.lemma1_slack)
        else:
            predicted, cv_prev, gn_prev = prev
            resid = np.linalg.norm(avg - predicted) / (1.0 + np.linalg.norm(predicted))
            assert row.recursion_residual == resid <= 1e-12
            lemma1 = w.sigma * cv_prev + alpha * math.sqrt((n - 1) / n) * gn_prev - cv
            assert row.lemma1_slack == lemma1
        prev = avg - (alpha / n) * g, cv, gn
        x = dynamics.step(x, w, alpha, game)


def reference_average_property(w, rng, samples):
    """One draw and one 1-D average_property_check per sample."""
    worst = math.inf
    for _ in range(samples):
        lhs, rhs = average_property_check(w, rng.uniform(-10, 10, w.n))
        worst = min(worst, (rhs - lhs + 1e-12) / (1.0 + rhs))
    return worst


def player_gradient(game, i, x):
    """Player i's own partial gradient at the joint action x, from a, b, c."""
    return float(game.a[i] * x[i] + game.b[i] + game.c[i] @ x)


def reference_game_assumptions(game, consts, rng, samples=100):
    """The u, v and player blocks drawn first, in that order; then one sample
    at a time, through the 1-D game_mapping and the own-gradient formula."""
    n = game.n
    us = rng.uniform(-5, 5, (samples, n))
    vs = rng.uniform(-5, 5, (samples, n))
    players = rng.integers(0, n, samples)
    worst_mono = worst_lip = math.inf
    for u, v, i in zip(us, vs, players.tolist()):
        du = u - v
        f_diff = game_mapping(game, u) - game_mapping(game, v)
        rhs = consts.mu * float(du @ du)
        worst_mono = min(worst_mono, (float(f_diff @ du) - rhs) / (1.0 + abs(rhs)))
        g_diff = abs(player_gradient(game, i, u) - player_gradient(game, i, v))
        lip_rhs = consts.l_per_player[i] * float(np.linalg.norm(du))
        worst_lip = min(worst_lip, (lip_rhs - g_diff) / (1.0 + lip_rhs))
        map_rhs = consts.l_mapping * float(np.linalg.norm(du))
        worst_lip = min(worst_lip, (map_rhs - float(np.linalg.norm(f_diff))) / (1.0 + map_rhs))
    return worst_mono, worst_lip


class TestSampledChecks:
    """The batched sampled checks against one 1-D call per sample, on the
    same draws.  The per-player Lipschitz margin reads column i of the
    batched mapping instead of the own-gradient formula; at n = 2 that margin cancels
    to as little as 3e-6, where one ulp of its order-one terms is a relative
    4e-11, so the comparison allows 1e-15 absolute besides 1e-12 relative."""

    CELLS = [
        (n, topology, seed)
        for n in (2, 5, 10, 20)
        for topology in ("tree", "ring", "complete", "star")
        for seed in (0, 2)
        if not (topology == "ring" and n < 3)
    ]

    @pytest.mark.parametrize("n", [2, 5, 10, 20])
    def test_one_draw_equals_per_sample_draws(self, n):
        batched = np.random.default_rng(n).uniform(-10, 10, (200, n))
        rng = np.random.default_rng(n)
        assert np.array_equal(batched, [rng.uniform(-10, 10, n) for _ in range(200)])

    @pytest.mark.parametrize("n, topology, seed", CELLS)
    def test_worst_margins_match_per_sample_loop(self, n, topology, seed):
        w = metropolis_weights(build_graph(topology, n, 1000 + seed))
        game = random_game(n, 2000 + seed)
        consts = estimate_constants(game)
        rng, ref_rng = np.random.default_rng(seed + n), np.random.default_rng(seed + n)
        vectors = rng.uniform(-10, 10, (200, n))
        got = [_audit_average_property(w, vectors), *_audit_game_assumptions(game, consts, rng)]
        ref = [
            reference_average_property(w, ref_rng, 200),
            *reference_game_assumptions(game, consts, ref_rng),
        ]
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-15)
        # the same number of draws, in the same order
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("n, seed", [(2, 0), (5, 3), (20, 4)])
    def test_a_cell_draws_from_its_own_seeds(self, n, seed):
        # one generator per (n, seed): the averaging vectors, then the game samples
        game, consts, x0, vectors, margins = auditing._audit_game(n, seed, 0.2, 200)
        rng = np.random.default_rng(10_000 + 7 * seed + n)
        assert np.array_equal(vectors, rng.uniform(-10, 10, (200, n)))
        assert margins == _audit_game_assumptions(game, consts, rng)
        assert np.array_equal(game.c, random_game(n, 2000 + seed).c)
        assert np.array_equal(x0, dynamics.initial_estimates(n, 3000 + seed))

    def test_no_samples_give_an_infinite_worst(self):
        w = metropolis_weights(ring(5))
        assert _audit_average_property(w, np.empty((0, 5))) == math.inf


class TestAudit:
    def test_default_small_matrix_passes(self):
        report = audit(sizes=(2, 5), seeds=2, iters=120)
        assert report.ok, report.to_text()
        # degenerate perfect-mixing cells: every connected 2-node graph is
        # the single edge, and metropolis weights on any complete graph are
        # exact averaging; both hit the documented sigma = 0 path
        degenerate = [c for c in report.cells if c.n == 2 or c.topology == "complete"]
        assert degenerate and all(c.degenerate for c in degenerate)
        for cell in degenerate:
            assert any(ch.name == "degenerate_mixing_error" and ch.passed for ch in cell.checks)
        # ring with n=2 is not a valid cell at all
        assert not any(c.topology == "ring" and c.n == 2 for c in report.cells)
        normal = [c for c in report.cells if not c.degenerate]
        assert normal
        for cell in normal:
            names = {ch.name for ch in cell.checks}
            assert {
                "mixing_matrix",
                "averaging_contraction",
                "strong_monotonicity",
                "lipschitz_bounds",
                "admissible_step",
                "lemma1",
                "lemma2",
                "lemma3",
                "average_recursion",
                "rate_certificate",
                "fifth_term_equivalence",
                "z_domination",
                "geometric_envelope",
            } <= names

    def test_oversized_alpha_negative_path(self, tmp_path):
        report = audit(
            sizes=(5,),
            topologies=("star", "ring"),
            seeds=2,
            iters=150,
            alpha_override=0.5,
            out_dir=tmp_path,
        )
        assert not report.ok
        for cell in report.cells:
            failed = {ch.name for ch in cell.checks if not ch.passed}
            assert "admissible_step" in failed or "no_divergence" in failed
        doc = json.loads((tmp_path / "audit.json").read_text())
        assert doc["ok"] is False
        assert doc["failures"]

    def test_mixing_support_must_match_graph(self):
        assert _audit_mixing(ring(6), metropolis_weights(ring(6)))[0]
        # doubly stochastic and symmetric, but with the support of a star
        assert not _audit_mixing(ring(6), metropolis_weights(star(6)))[0]
        # one edge too few: the ring's W against the ring plus a chord
        chord = Graph(n=6, edges=((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3)))
        assert not _audit_mixing(chord, metropolis_weights(ring(6)))[0]

    def test_one_plan_per_cell(self, monkeypatch):
        calls = []
        terms = bounds.step_size_terms
        monkeypatch.setattr(
            bounds, "step_size_terms", lambda *args: calls.append(args) or terms(*args)
        )
        report = audit(sizes=(5,), topologies=("tree", "star"), seeds=2, iters=20)
        assert all(cell.admissible for cell in report.cells)
        assert len(calls) == 2 * len(report.cells)
        calls.clear()
        report = audit(sizes=(5,), topologies=("star",), seeds=1, iters=5, alpha_override=0.5)
        assert not report.ok and len(calls) == 2

    def test_empty_audit_fails(self):
        assert not AuditReport(cells=[]).ok
        report = audit(seeds=0)
        assert report.cells == [] and not report.ok
        assert audit(sizes=()).cells == []
        assert "all passed" not in report.to_text()

    def test_sizes_may_be_an_iterator(self):
        # the size guard reads sizes, and the topology check topologies,
        # before the cells do; a generator must still feed every size
        kwargs = dict(sizes=(3, 5), topologies=("tree", "star"), seeds=1, iters=5, eq5_samples=3)
        expected = audit(**kwargs).to_dict()
        for name in ("sizes", "topologies"):
            report = audit(**{**kwargs, name: (item for item in kwargs[name])})
            assert len(report.cells) == 4 and report.ok, name
            assert report.to_dict() == expected, name

    @pytest.mark.parametrize(
        "bad, match",
        [
            (dict(topologies=("tree", "hypercube")), "unknown topology 'hypercube'"),
            (dict(alpha_override=math.nan), "alpha_override must be finite and > 0"),
            (dict(alpha_override=math.inf), "alpha_override must be finite and > 0"),
            (dict(alpha_override=-1.0), "alpha_override must be finite and > 0"),
            (dict(alpha_override=0), "alpha_override must be finite and > 0"),
            (dict(sizes=(2,), alpha_override=math.nan), "alpha_override"),
            (dict(topologies=("complete",), alpha_override=-1), "alpha_override"),
            # a size that is not an int >= 2 once failed after the cells before it
            (dict(sizes=(5, 2.5), topologies=("tree",)), "audit sizes must be ints >= 2, got 2.5"),
            (dict(sizes=(20, 1)), "audit sizes must be ints >= 2, got 1$"),
            (dict(sizes=(1, 2), topologies=("ring",)), "got 1$"),
            (dict(sizes=(5, 0)), "got 0$"),
            (dict(sizes=(5, -3)), "got -3$"),
            (dict(sizes=(True,)), "got True$"),
            (dict(sizes=("5",)), "got '5'$"),
            (dict(sizes=(np.int64(5),)), "audit sizes must be ints >= 2"),
            (dict(sizes=(2,), topologies=("ring",)), "audit matrix selects no cell"),
            # a float seeds or iters once failed in numpy after the footprint check
            (dict(seeds=2.0), "audit seeds must be an int, got 2.0$"),
            (dict(seeds=True), "audit seeds must be an int, got True$"),
            (dict(iters=2.5), "audit iters must be an int, got 2.5$"),
            (dict(iters=True), "audit iters must be an int, got True$"),
            # -3 once failed in numpy; 0 passed the averaging check vacuously
            (dict(eq5_samples=-3), "audit needs eq5_samples >= 1, got -3$"),
            (dict(eq5_samples=0), "audit needs eq5_samples >= 1, got 0$"),
            (dict(eq5_samples=2.0), "audit eq5_samples must be an int, got 2.0$"),
            (dict(eq5_samples=False), "audit eq5_samples must be an int, got False$"),
            # -1 once returned an empty, failing report
            (dict(seeds=-1), "audit needs seeds >= 0, got -1$"),
        ],
    )
    def test_bad_input_refused_before_any_cell(self, monkeypatch, bad, match):
        calls = []
        monkeypatch.setattr(harness, "run", lambda *a, **kw: calls.append(a))
        monkeypatch.setattr(auditing, "_audit_cell", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match=match):
            audit(**{"sizes": (5,), "seeds": 1, "iters": 5, **bad})
        assert calls == []

    @pytest.mark.parametrize(
        "matrix",
        [
            {},
            # duplicate sizes and topologies give duplicate cells
            dict(sizes=(5, 5), topologies=("tree", "tree")),
            # the 3-node ring is the 3-node complete graph
            dict(sizes=(2, 3, 6)),
            dict(eq5_samples=7, seeds=1),
            dict(alpha_override=3.0),
        ],
        ids=["default", "duplicates", "ring-3", "eq5-7", "diverging"],
    )
    def test_shared_inputs_give_the_bytes_of_cells_built_alone(self, matrix, tmp_path):
        report = audit(**matrix, out_dir=tmp_path)
        args = {k: p.default for k, p in inspect.signature(audit).parameters.items()} | matrix
        alone = AuditReport(
            cells=[
                auditing._audit_cell(
                    topology,
                    seed,
                    auditing._audit_game(n, seed, args["coupling_scale"], args["eq5_samples"]),
                    auditing._audit_network(build_graph(topology, n, seed=1000 + seed)),
                    args["iters"],
                    args["alpha_override"],
                )
                for n in args["sizes"]
                for topology in args["topologies"]
                if not (topology == "ring" and n < 3)
                for seed in range(args["seeds"])
            ]
        )
        assert len(report.cells) == len(alone.cells) > 0
        assert (tmp_path / "audit.json").read_text() == harness._json_text(alone.to_dict())
        assert (tmp_path / "audit.txt").read_text() == alone.to_text()
        if matrix.get("alpha_override"):
            assert any(check.name == "no_divergence" for _, check in report.failures())

    def test_default_audit_builds_each_distinct_input_once(self, monkeypatch):
        calls = {}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for name in ("random_game", "metropolis_weights", "run"):
            counted(harness, name)
        counted(auditing, "_audit_game_assumptions")
        assert audit().ok
        # 20 (size, seed) games; 24 graphs: every n = 2 graph is the one edge,
        # ring, complete and star ignore the seed, and trees 1 and 2 of n = 5 match
        assert calls == {
            "random_game": 20,
            "_audit_game_assumptions": 20,
            "metropolis_weights": 24,
            "run": 45,
        }

    def test_shared_inputs_die_after_their_last_cell(self, monkeypatch):
        """A game lives through the runs of its seed alone, a mixing matrix
        until its last cell, a complete graph until its matrix is built."""
        refs = {"random_game": [], "metropolis_weights": [], "build_graph": []}

        def alive(name):
            return [obj for obj in (ref() for ref in refs[name]) if obj is not None]

        def complete_graphs():
            return sum(len(g.edges) == g.n * (g.n - 1) // 2 for g in alive("build_graph"))

        seen = {name: [] for name in (*refs, "run")}
        builds = []  # (n, edges, complete graphs alive) per matrix; None per game

        def tracked(name, original):
            def wrapper(*args, **kwargs):
                seen[name].append((len(alive("random_game")), len(alive("metropolis_weights"))))
                if name == "metropolis_weights":
                    builds.append((args[0].n, len(args[0].edges), complete_graphs()))
                elif name == "random_game":
                    builds.append(None)
                result = original(*args, **kwargs)
                if name in refs:
                    refs[name].append(weakref.ref(result))
                else:
                    assert complete_graphs() == 0
                return result

            return wrapper

        for name in seen:
            monkeypatch.setattr(harness, name, tracked(name, getattr(harness, name)))
        topologies = ("tree", "ring", "star", "complete")
        for seeds in (1, 3):
            assert audit(sizes=(6, 5), topologies=topologies, seeds=seeds, iters=5).ok
        assert len(seen["run"]) == 2 * 3 * (1 + 3)
        # each run: its seed's game, its matrix and those of ring, star and complete
        assert {games for games, _ in seen["run"]} == {1}
        assert max(ws for _, ws in seen["run"]) == 4
        # a seed's matrices and game are built without the last seed's game
        assert {games for games, _ in seen["metropolis_weights"] + seen["random_game"]} == {0}
        assert not any(alive(name) for name in refs)
        # a seed builds its new matrices densest first, and a complete graph
        # is alive only while its own matrix is built
        batches = [[]]  # the edge counts of the matrices built before each game
        for build in builds:
            if build is None:
                batches.append([])
            else:
                batches[-1].append(build[1])
        assert all(edges == sorted(edges, reverse=True) for edges in batches)
        assert all(alive == (e == n * (n - 1) // 2) for n, e, alive in filter(None, builds))

    def test_report_serialization(self, tmp_path):
        report = audit(sizes=(5,), topologies=("star",), seeds=1, iters=80, out_dir=tmp_path)
        assert (tmp_path / "audit.json").exists()
        assert (tmp_path / "audit.txt").exists()
        doc = json.loads((tmp_path / "audit.json").read_text())
        assert doc["ok"] is True
        assert len(doc["cells"]) == 1


class TestBenchmarkEntryPoints:
    """The names and arguments ``perfbench/`` calls.  Its traced mode counts
    iterations through the module global ``harness.run``, so the audit must
    go through it."""

    def test_called_names_and_arguments(self):
        game = gradplay.random_game(5, 1)
        w = gradplay.metropolis_weights(gradplay.build_graph("tree", 5, seed=2))
        consts = gradplay.estimate_constants(game)
        ceiling = gradplay.alpha_max(consts.mu, consts.l, w.sigma, 5)
        alpha = gradplay.rate_bound(consts.mu, consts.l, w.sigma, 5, 0.9 * ceiling).alpha
        x = gradplay.initial_estimates(5, 3)
        assert np.array_equal(x, gradplay.initial_estimates(5, seed=3))
        assert dynamics.step(x, w, alpha, game).shape == (5, 5)
        report = gradplay.audit(sizes=(5,), topologies=("tree",), seeds=1, iters=5, eq5_samples=3)
        assert report.ok

    def test_run_experiment_calls_harness_run_once(self, tmp_path, monkeypatch):
        # perfbench's traced mode reads (game, w, alpha, x0) and the trace
        # of each call; the forked writer's rows pass by keyword
        calls = []
        run = harness.run

        def counted_run(*args, **kwargs):
            calls.append((args, run(*args, **kwargs)))
            return calls[-1][1]

        monkeypatch.setattr(harness, "run", counted_run)
        monkeypatch.setattr(harness, "_FORK_FLOATS", 0)
        report = run_experiment(small_config(max_iters=40), out_dir=tmp_path)
        [(args, (final, trace))] = calls
        assert len(args) == 4 and isinstance(args[0], gradplay.QuadraticGame)
        assert len(trace) == report.iterations + 1 == 41

    def test_default_audit_runs_each_cell_through_harness_run(self, monkeypatch):
        calls = []
        run = harness.run
        monkeypatch.setattr(harness, "run", lambda *a, **kw: calls.append(a) or run(*a, **kw))
        report = gradplay.audit()
        assert len(calls) == sum(not cell.degenerate for cell in report.cells) == 45


class TestCli:
    def test_bounds_text_and_json(self, capsys):
        assert main(["bounds", "--mu", "1", "--L", "1", "--sigma", "0.5", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert "alpha_max:" in out and "q:" in out
        assert main(
            ["bounds", "--mu", "1", "--L", "1", "--sigma", "0.5", "--n", "2", "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["q"] < 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("bounds --mu nan --L 2 --sigma 0.5 --n 20", "mu must be finite and > 0"),
            ("compare-grane --mu nan --L 1 --n 20 --json", "mu and l must be finite"),
            ("compare-grane --mu 1 --L inf --n 20", "mu and l must be finite"),
            ("bounds --mu 1 --L 1e200 --sigma 0.5 --n 20", "leaves the double range"),
            ("bounds --mu 1 --L inf --sigma 0.5 --n 20", "l must be finite and > 0"),
            ("bounds --mu 1 --L 1 --sigma 0.5 --n 2 --alpha 1e-17", "too small for a contraction"),
            (
                "compare-grane --mu 1 --L 2 --n 20 --lap-sigma-max 1 --lap-lambda-min inf",
                "lap_lambda_min_nonzero finite and > 0",
            ),
            ("compare-grane --mu 1 --L 2 --n 20 --lap-sigma-max 1", "given together"),
        ],
    )
    def test_certificate_bad_constants_are_input_errors(self, argv, message, capsys):
        assert main(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and message in captured.err

    def test_bounds_perfect_mixing_is_input_error(self, capsys):
        assert main(["bounds", "--mu", "1", "--L", "1", "--sigma", "0", "--n", "2"]) == 2
        assert "perfect mixing" in capsys.readouterr().err

    def test_compare_grane(self, capsys):
        assert main(["compare-grane", "--mu", "1", "--L", "1", "--n", "20"]) == 0
        out = capsys.readouterr().out
        assert "play_faster: True" in out
        assert main(["compare-grane", "--mu", "2", "--L", "0.1", "--n", "4"]) == 2
        assert "condition number" in capsys.readouterr().err

    def test_run_with_config_file(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(small_config(max_iters=80).to_dict()))
        out_dir = tmp_path / "out"
        code = main(["run", "--config", str(config_path), "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "trace.csv").exists()
        assert "ok: True" in capsys.readouterr().out

    def test_run_alpha_flag_overrides(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(small_config(max_iters=40).to_dict()))
        out_dir = tmp_path / "out"
        code = main(
            ["run", "--config", str(config_path), "--alpha", "0.01", "--out", str(out_dir)]
        )
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["alpha"] == 0.01

    def test_diverging_run_prints_only_its_verdict(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"n": 5, "alpha": 1e300, "max_iters": 50}))
        src = str(Path(dynamics.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        argv = ["run", "--config", str(config_path), "--out", str(tmp_path / "o")]
        proc = subprocess.run(
            [sys.executable, "-m", "gradplay.cli", *argv],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert proc.returncode == 1
        assert proc.stderr == "check failed: divergence guard tripped\n"

    def test_json_artifacts_are_strict(self, tmp_path):
        # a diverged run and a diverged audit cell hold non-finite values:
        # the JSON files write null, the text files keep repr
        def strict(path):
            return json.loads(path.read_text(), parse_constant=reject_json_constant)

        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"n": 5, "alpha": 1e300, "max_iters": 50}))
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "r")]) == 1
        summary = strict(tmp_path / "r" / "summary.json")
        assert summary["final_distance"] is None and summary["diverged"] is True
        assert "final_distance: inf" in (tmp_path / "r" / "summary.txt").read_text()
        argv = ["audit", "--sizes", "5", "--topologies", "tree", "--seeds", "1", "--iters", "30"]
        assert main([*argv, "--alpha-override", "1e308", "--out", str(tmp_path / "a")]) == 1
        cell = strict(tmp_path / "a" / "audit.json")["cells"][0]
        checks = {check["name"]: check["worst"] for check in cell["checks"]}
        assert checks["admissible_step"] is checks["no_divergence"] is checks["lemma1"] is None
        assert checks["average_recursion"] == 0.0
        assert "no_divergence: worst=inf" in (tmp_path / "a" / "audit.txt").read_text()

    @staticmethod
    def refused_before_allocating(argv, monkeypatch, capsys):
        """main(argv) exits 2 with one line, builds no game, graph or audit
        cell, and traces less than a megabyte of allocations."""
        import tracemalloc

        def unreachable(*args, **kwargs):
            raise AssertionError("a refused size reached the run")

        monkeypatch.setattr(harness, "random_game", unreachable)
        monkeypatch.setattr(harness, "build_graph", unreachable)
        monkeypatch.setattr(auditing, "_audit_cell", unreachable)
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.count("\n") == 1 and "of physical memory" in captured.err
        assert peak < 2**20
        return captured.err

    @pytest.mark.parametrize("exc", [OSError, ValueError, AttributeError])
    def test_unknown_physical_memory_refuses_nothing(self, exc, monkeypatch):
        def sysconf(name):
            raise exc(name)

        monkeypatch.setattr(harness.os, "sysconf", sysconf)
        assert footprint._physical_memory() is None
        footprint._check_footprint(10**6, 10**15)  # no limit to exceed

    @staticmethod
    def fake_root(root, cgroup, limits, name="memory.max"):
        """A directory laid out like ``/``: ``proc/self/cgroup`` holds
        ``cgroup``, and ``limits`` maps a path under ``sys/fs/cgroup`` to the
        text of its file ``name``."""
        (root / "proc/self").mkdir(parents=True)
        (root / "proc/self/cgroup").write_text(cgroup)
        for group, text in limits.items():
            directory = root / "sys/fs/cgroup" / group
            directory.mkdir(parents=True, exist_ok=True)
            (directory / name).write_text(text)
        return str(root)

    @pytest.mark.parametrize(
        "cgroup, limits, expected",
        [
            # the smaller of physical memory (8 GiB here) and the cgroup's
            ("0::/\n", {"": "1073741824\n"}, 2**30),
            ("0::/\n", {"": "max\n"}, 2**33),
            ("0::/\n", {"": "17179869184\n"}, 2**33),
            # an ancestor's limit binds its descendants
            ("0::/a/b\n", {"a": "2147483648\n", "a/b": "max\n"}, 2**31),
            ("0::/a/b\n", {"a": "max\n", "a/b": "1073741824\n"}, 2**30),
            # cgroup v1 only, a path outside the namespace, or no file: no cgroup limit
            ("4:memory:/a\n", {"a": "1073741824\n"}, 2**33),
            ("0::/../a\n", {"a": "1073741824\n"}, 2**33),
            (None, {}, 2**33),
        ],
    )
    def test_cgroup_memory_max_lowers_the_limit(self, cgroup, limits, expected, tmp_path, monkeypatch):
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**21}
        monkeypatch.setattr(harness.os, "sysconf", pages.__getitem__)
        root = self.fake_root(tmp_path, cgroup or "", limits)
        if cgroup is None:
            os.remove(tmp_path / "proc/self/cgroup")
        assert footprint._physical_memory(root) == expected

    @pytest.mark.parametrize(
        "cgroup, limits, expected",
        [
            # a hybrid host: a v1 memory controller line, no limit anywhere
            (
                "5:devices:/\n4:memory:/process_api/6f21\n0::/\n",
                {g: "9223372036854771712\n" for g in ("memory", "memory/process_api", "memory/process_api/6f21")},
                2**33,
            ),
            ("4:memory:/a\n", {"memory/a": "1073741824\n"}, 2**30),
            # an ancestor's limit binds its descendants
            ("4:memory:/a/b\n", {"memory/a": "2147483648\n", "memory/a/b": "9223372036854771712\n"}, 2**31),
            # a limit above physical memory, or a v1 file of another controller
            ("4:memory:/a\n", {"memory/a": "17179869184\n"}, 2**33),
            ("4:cpu:/a\n", {"memory/a": "1073741824\n"}, 2**33),
            ("4:memory:/../a\n", {"memory/a": "1073741824\n"}, 2**33),
        ],
    )
    def test_cgroup_v1_memory_limit_lowers_the_limit(self, cgroup, limits, expected, tmp_path, monkeypatch):
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**21}
        monkeypatch.setattr(harness.os, "sysconf", pages.__getitem__)
        root = self.fake_root(tmp_path, cgroup, limits, name="memory.limit_in_bytes")
        assert footprint._physical_memory(root) == expected

    def test_cgroup_v1_and_v2_limits_both_count(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness.os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**21}.__getitem__)
        root = self.fake_root(tmp_path, "4:memory:/a\n0::/b\n", {"b": "2147483648\n"})
        (tmp_path / "sys/fs/cgroup/memory/a").mkdir(parents=True)
        (tmp_path / "sys/fs/cgroup/memory/a/memory.limit_in_bytes").write_text("1073741824\n")
        assert footprint._physical_memory(root) == 2**30

    def test_cgroup_limit_alone_refuses_a_run(self, tmp_path, monkeypatch):
        def sysconf(name):
            raise ValueError(name)

        monkeypatch.setattr(harness.os, "sysconf", sysconf)
        root = self.fake_root(tmp_path, "0::/job\n", {"job": "1073741824\n"})
        physical_memory = footprint._physical_memory
        monkeypatch.setattr(footprint, "_physical_memory", lambda: physical_memory(root))
        footprint._check_footprint(3000, 1000)  # 0.67 GiB
        with pytest.raises(ValueError, match="more than the 1 GiB of physical memory"):
            footprint._check_footprint(4000, 1000)  # 1.19 GiB

    def test_audit_counts_the_mixing_matrices_it_shares(self, tmp_path, monkeypatch, capsys):
        def sysconf(name):
            raise ValueError(name)

        monkeypatch.setattr(harness.os, "sysconf", sysconf)
        root = self.fake_root(tmp_path, "0::/job\n", {"job": "1073741824\n"})
        physical_memory = footprint._physical_memory
        monkeypatch.setattr(footprint, "_physical_memory", lambda: physical_memory(root))
        # n = 3500: a run's 10 arrays are 0.91 GiB, an audit's 10 + 3 are 1.19 GiB
        ExperimentConfig(n=3500, max_iters=1).validate()
        argv = ["audit", "--sizes", "3500", "--iters", "1", "--out", str(tmp_path / "o")]
        err = self.refused_before_allocating(argv, monkeypatch, capsys)
        assert err.startswith("error: n=3500 and max_iters=1 need an estimated 1.19 GiB")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("n", [10**6, 10**400])
    def test_size_beyond_memory_is_input_error(self, n, tmp_path, monkeypatch, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(f'{{"n": {n}}}')
        out = tmp_path / "o"
        for argv in (["run", "--config", str(config_path)], ["audit", "--sizes", str(n)]):
            err = self.refused_before_allocating([*argv, "--out", str(out)], monkeypatch, capsys)
            assert err.startswith(f"error: n={n} and max_iters=")
        assert not out.exists()

    def test_horizon_beyond_memory_is_input_error(self, tmp_path, monkeypatch, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text('{"n": 20, "max_iters": 1000000000000000}')
        out = tmp_path / "o"
        for argv in (
            ["run", "--config", str(config_path)],
            ["audit", "--sizes", "20", "--iters", str(10**15)],
        ):
            err = self.refused_before_allocating([*argv, "--out", str(out)], monkeypatch, capsys)
            assert err.startswith("error: n=20 and max_iters=1000000000000000 need an estimated")
        assert not out.exists()

    def test_tol_stopped_horizon_is_not_counted(self, tmp_path, capsys):
        # a tol stop ends the run long before max_iters: only n is checked
        config_path = tmp_path / "config.json"
        config_path.write_text('{"n": 20, "alpha": 0.05, "max_iters": 1000000000000000, "tol": 1e-6}')
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["iterations"] < 20_000 and summary["final_distance"] <= 1e-6
        capsys.readouterr()

    def test_audit_zero_iterations_is_input_error(self, tmp_path, capsys):
        # an audit that checks no transition would pass every lemma vacuously
        argv = ["audit", "--sizes", "5", "--topologies", "tree", "--seeds", "1", "--iters", "0"]
        assert main([*argv, "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: audit needs iters >= 1, got 0\n"
        assert not (tmp_path / "audit.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            # every cell degenerate: no cell reaches run()'s step-size check
            ["--sizes", "2", "--alpha-override", "nan"],
            ["--sizes", "5", "--topologies", "complete", "--alpha-override", "-1"],
        ],
    )
    def test_audit_bad_alpha_override_is_input_error(self, argv, tmp_path, capsys):
        assert main(["audit", *argv, "--seeds", "1", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: alpha_override must be finite and > 0, got ")
        assert not (tmp_path / "audit.json").exists()

    @pytest.mark.parametrize(
        "argv, size",
        [
            # once "audit: no cells" and exit 1, a check failure
            (["--sizes", "1,2", "--topologies", "ring"], "1"),
            # once every n = 20 cell ran before the tree refused n = 1
            (["--sizes", "20,1"], "1"),
            (["--sizes", "5,0"], "0"),
        ],
    )
    def test_audit_bad_size_is_input_error(self, argv, size, tmp_path, capsys):
        assert main(["audit", *argv, "--seeds", "1", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: audit sizes must be ints >= 2, got {size}\n"
        assert not (tmp_path / "audit.json").exists()

    @pytest.mark.parametrize("scale", ["1e308", "inf"])
    def test_audit_overflowing_coupling_is_input_error(self, scale, tmp_path, capsys):
        argv = ["audit", "--sizes", "5", "--topologies", "tree", "--seeds", "1", "--iters", "30"]
        assert main([*argv, "--coupling-scale", scale, "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "coupling_scale" in captured.err

    def test_run_divergent_config_exits_nonzero(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(small_config(alpha=80.0, max_iters=2000).to_dict()))
        code = main(["run", "--config", str(config_path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "divergence" in capsys.readouterr().err

    def test_audit_cli(self, tmp_path, capsys):
        code = main(
            [
                "audit",
                "--sizes",
                "5",
                "--topologies",
                "star",
                "--seeds",
                "1",
                "--iters",
                "60",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert "all passed" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["--seeds", "0"],
            ["--seeds", "-1"],
            ["--sizes", ""],
            ["--sizes", ","],
            # every (size, topology) pair is a ring with n < 3
            ["--sizes", "2", "--topologies", "ring"],
        ],
    )
    def test_audit_without_cells_is_input_error(self, argv, tmp_path, capsys):
        assert main(["audit", *argv, "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error:")
        assert not (tmp_path / "audit.json").exists()

    def test_audit_alpha_too_small_for_q_below_one_fails_admissible_step(self, tmp_path):
        argv = ["audit", "--sizes", "5", "--topologies", "tree", "--seeds", "1"]
        assert main([*argv, "--alpha-override", "1e-17", "--out", str(tmp_path)]) == 1
        doc = json.loads((tmp_path / "audit.json").read_text())
        [failure] = [f for f in doc["failures"] if f["check"] == "admissible_step"]
        assert "too small for a contraction rate q < 1" in failure["note"]

    def test_audit_auto_alpha_with_q_rounding_to_one_fails_every_cell(self, monkeypatch):
        # shrink every ceiling so that the auto alpha makes q round to 1
        terms = gradplay.bounds.step_size_terms
        monkeypatch.setattr(
            gradplay.bounds, "step_size_terms", lambda *a: tuple(t * 1e-20 for t in terms(*a))
        )
        report = audit(sizes=(5, 6), topologies=("tree",), seeds=1, iters=5)
        assert len(report.cells) == 2 and not report.ok
        for cell in report.cells:
            [check] = [c for c in cell.checks if c.name == "admissible_step"]
            assert not check.passed and check.worst == pytest.approx(0.9)
            assert "too small for a contraction rate q < 1" in check.note

    def test_run_non_finite_alpha_is_input_error(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text('{"alpha": NaN, "max_iters": 50, "n": 5}')
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
        assert main(["run", "--alpha", "inf", "--out", str(tmp_path / "o")]) == 2
        assert "finite" in capsys.readouterr().err

    def test_bounds_l_below_mu_is_input_error(self, capsys):
        assert main(["bounds", "--mu", "1", "--L", "0.5", "--sigma", "0.5", "--n", "20"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "l must be >= mu" in captured.err

    def test_audit_bad_topology_is_input_error(self, capsys):
        assert main(["audit", "--topologies", "tree,moebius"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "unknown topology 'moebius'" in captured.err

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"n": "20"}', "n must be an integer, got '20'"),
            ('{"max_iters": 1.5}', "max_iters must be an integer, got 1.5"),
            ('{"n": 2.0}', "n must be an integer, got 2.0"),
            ("[1, 2]", "config must be a JSON object, got list"),
            ('{"check_lemmas": "no"}', "check_lemmas must be true or false, got 'no'"),
            ('{"n": true}', "n must be an integer, got True"),
            ('{"game_seed": "1"}', "game_seed must be an integer"),
            ('{"coupling_scale": false}', "coupling_scale must be a number, got False"),
            ('{"alpha": null}', 'alpha must be a number or "auto", got None'),
            ('{"tol": [0.0]}', "tol must be a number"),
            ('{"topology": 3}', "topology must be a string, got 3"),
            ('{"check_lemmas": 1}', "check_lemmas must be true or false, got 1"),
            ('{"n": 1}', "n must be >= 2, got 1"),
            ('{"max_iters": -1}', "max_iters must be >= 0"),
            ('{"game_seed": -1, "max_iters": 3}', "game_seed must be >= 0, got -1"),
            ('{"graph_seed": -1, "topology": "ring"}', "graph_seed must be >= 0, got -1"),
            ('{"init_seed": -5}', "init_seed must be >= 0, got -5"),
        ],
    )
    def test_run_config_value_types_are_input_errors(self, text, message, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(text)
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: " + message)
        assert not (tmp_path / "o").exists()

    def test_run_experiment_plans_once(self, monkeypatch):
        calls = []
        terms = bounds.step_size_terms
        monkeypatch.setattr(
            bounds, "step_size_terms", lambda *args: calls.append(args) or terms(*args)
        )
        for alpha in ("auto", 1e-6, 0.05):
            calls.clear()
            report = run_experiment(small_config(alpha=alpha, max_iters=5))
            assert len(calls) <= 2
            assert (report.q is not None) == report.alpha_admissible

    def test_default_out_dir_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GRADPLAY_OUT_DIR", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(small_config(max_iters=30).to_dict()))
        assert main(["run", "--config", str(config_path)]) == 0
        assert (tmp_path / "envout" / "run" / "trace.csv").exists()


def json_oracle(doc):
    """The text ``json`` writes for ``doc``, with every non-finite float as
    null and every ndarray as its flat C-order list."""

    def plain(value):
        if isinstance(value, np.ndarray):
            return plain(value.ravel().tolist())
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [plain(item) for item in value]
        if isinstance(value, float) and not math.isfinite(value):
            return None
        return value

    return json.dumps(plain(doc), indent=2, allow_nan=False) + "\n"


def written_json(doc):
    f = io.StringIO()
    harness._dump_json(doc, f)
    return f.getvalue()


class TestJsonWriter:
    """Every JSON artifact and ``--json`` output comes from one writer whose
    text is ``json.dumps(indent=2)``'s with non-finite floats as null."""

    @pytest.mark.parametrize(
        "doc",
        [
            {},
            [],
            (),
            {"a": {}, "b": [], "c": [[]], "d": [{}], "e": ()},
            {"x": [1, [2, [3, {"y": [4.5, None, True, False]}]]], "z": {"w": {"v": {"u": 1}}}},
            (1, (2.5, "s"), [3], ({"t": (None,)},)),
            [math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324, 0.1, 1.7976931348623157e308],
            {"nan": math.nan, "deep": [[{"inf": -math.inf}]]},
            ["é ü 中 😀", 'tab\t nl\n cr\r quote" slash\\ /', "\x00\x1f\x7f ", ""],
            {"ключ": "значение", " \n": 1, "": ""},
            [np.float64(0.1), np.float64("nan"), {"k": np.float64(-math.inf)}, np.float64(-0.0)],
            [0, -1, 2**70, True, False, None],
            3.5,
            math.nan,
            "s",
            None,
            {
                "v": np.arange(3.0),
                "m": np.arange(6.0).reshape(2, 3) / 7,
                "cube": np.arange(8.0).reshape(2, 2, 2),
                "scalar": np.array(2.5),
                "empty": np.zeros((0, 3)),
                "ints": np.arange(3),
                "flags": np.array([True, False]),
                "nonfinite": np.array([[1.0, math.nan], [math.inf, -math.inf]]),
                "deep": [[{"z": np.ones((2, 2)) / 3}]],
            },
        ],
    )
    def test_text_is_json_dumps(self, doc):
        assert harness._json_text(doc) == json_oracle(doc)
        assert written_json(doc) == json_oracle(doc)

    def test_artifact_documents(self):
        game = random_game(7, 11)
        docs = [
            audit().to_dict(),
            run_experiment(paper_sim_config()).to_dict(),
            bounds.step_size_plan(1.2, 2.0, 0.7, 6).to_dict(),
            bounds.grane_rate_comparison(0.5, 2.0, 20, sigma=0.7).to_dict(),
            {"n": 7, "a": game.a, "b": game.b, "c": game.c, "seed": 11},
        ]
        for doc in docs:
            assert harness._json_text(doc) == written_json(doc) == json_oracle(doc)

    @pytest.mark.parametrize(
        "value", [np.int64(1), {"k": np.int64(1)}, [np.bool_(True)], [{1, 2}], object()]
    )
    def test_refuses_what_json_refuses(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            harness._json_text(value)
        with pytest.raises(TypeError):
            written_json(value)

    def test_keys_must_be_strings(self):
        # json would write the int key as "1"; no document here has one
        with pytest.raises(TypeError):
            harness._json_text({1: "one"})
        with pytest.raises(TypeError):
            harness._json_text([[{"k": {None: 1}}]])
