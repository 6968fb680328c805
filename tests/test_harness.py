import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gradplay import (
    ring,
    ExperimentConfig,
    QuadraticGame,
    audit,
    build_graph,
    complete,
    consensual_matrix,
    estimate_constants,
    load_game,
    metropolis_weights,
    paper_sim_config,
    random_game,
    random_tree,
    run_experiment,
    solve_nash_equilibrium,
    star,
)
from gradplay.cli import main
from gradplay.harness import (
    AuditReport,
    _audit_average_property,
    _audit_game_assumptions,
    _audit_mixing,
    envelope_excess,
    first_lemma_violation,
    fit_tail_contraction,
    lemma_slack_minima,
    recursion_residual,
    zdomination_excess,
)
from gradplay import bounds, dynamics
from gradplay.game import game_mapping, local_gradient
from gradplay.network import average_property_check, graph_from_edgelist


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
        report = run_experiment(config, game=game, x0=consensual_matrix(x_star))
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

    def test_divergence_path(self):
        report = run_experiment(small_config(alpha=80.0, max_iters=3000))
        assert report.diverged
        assert not report.ok
        assert "diverged" in report.alpha_note
        assert len(report.trace)  # partial trace retained

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
        game = load_game(out / "game.json")
        assert game.n == 5
        graph = graph_from_edgelist((out / "graph.edges").read_text())
        assert graph.n == 5
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
        sparse operator's scipy import must stay out of their processes."""
        script = (
            "import sys, gradplay\n"
            f"gradplay.run_experiment(gradplay.paper_sim_config(), out_dir={str(tmp_path / 'run')!r})\n"
            f"assert gradplay.audit(out_dir={str(tmp_path / 'audit')!r}).ok\n"
            "print('scipy.sparse' in sys.modules)\n"
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

    def test_mismatched_override_rejected(self):
        with pytest.raises(ValueError, match="players"):
            run_experiment(small_config(), game=random_game(6, 0))


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
        z = bounds.z_matrix(consts.mu, consts.l, w.sigma, 5, alpha)
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
        assert recursion_residual(game, w, 0.03, x0, iters=60) <= 1e-12

    @pytest.mark.parametrize(
        "n, topology", [(6, "tree"), (20, "tree"), (5, "complete"), (240, "ring")]
    )
    def test_recursion_residual_matches_step_replay(self, n, topology):
        game = random_game(n, 8)
        w = metropolis_weights(build_graph(topology, n, 8))
        x0 = dynamics.initial_estimates(n, 8)
        alpha, iters = 0.03, 60 if n < 100 else 5
        x = np.array(x0)
        worst = 0.0
        for _ in range(iters):
            g = dynamics.diag_gradient(game, x)
            predicted = dynamics.running_average(x) - (alpha / n) * g
            x = dynamics.step(x, w, alpha, game)
            resid = float(np.linalg.norm(dynamics.running_average(x) - predicted))
            worst = max(worst, resid / (1.0 + float(np.linalg.norm(predicted))))
        assert recursion_residual(game, w, alpha, x0, iters) == worst

    def test_averaged_step_slacks_general_theta(self):
        from gradplay.harness import averaged_step_slacks

        game = random_game(6, 3)
        consts = estimate_constants(game)
        w = metropolis_weights(random_tree(6, 3))
        alpha = 0.9 * bounds.alpha_max(consts.mu, consts.l, w.sigma, 6)
        _, trace = dynamics.run(
            game, w, alpha, dynamics.initial_estimates(6, 3), max_iters=250
        )
        # theta = mu reproduces the recorded slack field
        default = averaged_step_slacks(trace, consts.mu, consts.l, alpha, 6)
        recorded = [row.lemma3_slack for row in trace[1:]]
        np.testing.assert_allclose(default, recorded, rtol=1e-12, atol=1e-15)
        # the inequality also holds for other admissible theta choices
        for theta in (0.5 * consts.mu, consts.mu, 2.0 * consts.mu):
            slacks = averaged_step_slacks(trace, consts.mu, consts.l, alpha, 6, theta=theta)
            assert min(slacks) >= -1e-9
        with pytest.raises(ValueError):
            averaged_step_slacks(trace, consts.mu, consts.l, alpha, 6, theta=-1.0)
        with pytest.raises(ValueError):
            # alpha above theta / l^2 is outside the inequality's domain
            averaged_step_slacks(trace, consts.mu, consts.l, 10.0, 6, theta=consts.mu)

    def test_zdom_and_envelope_on_admissible_run(self):
        game = random_game(5, 4)
        consts = estimate_constants(game)
        w = metropolis_weights(ring(5))
        alpha = 0.9 * bounds.alpha_max(consts.mu, consts.l, w.sigma, 5)
        _, trace = dynamics.run(
            game, w, alpha, dynamics.initial_estimates(5, 4), max_iters=400
        )
        z = bounds.z_matrix(consts.mu, consts.l, w.sigma, 5, alpha)
        rb = bounds.rate_bound(consts.mu, consts.l, w.sigma, 5, alpha)
        assert zdomination_excess(trace, z) <= 1e-9
        assert envelope_excess(trace, z, rb.lambda1, rb.lambda2) <= 1e-9


def reference_average_property(w, rng, samples):
    """One draw and one 1-D average_property_check per sample."""
    worst = math.inf
    for _ in range(samples):
        lhs, rhs = average_property_check(w, rng.uniform(-10, 10, w.n))
        worst = min(worst, (rhs - lhs + 1e-12) / (1.0 + rhs))
    return worst


def reference_game_assumptions(game, consts, rng, samples=100):
    """One sample at a time, through the 1-D game_mapping and local_gradient."""
    n = game.n
    worst_mono = worst_lip = math.inf
    for _ in range(samples):
        u = rng.uniform(-5, 5, n)
        v = rng.uniform(-5, 5, n)
        du = u - v
        f_diff = game_mapping(game, u) - game_mapping(game, v)
        rhs = consts.mu * float(du @ du)
        worst_mono = min(worst_mono, (float(f_diff @ du) - rhs) / (1.0 + abs(rhs)))
        i = int(rng.integers(0, n))
        g_diff = abs(local_gradient(game, i, u) - local_gradient(game, i, v))
        lip_rhs = consts.l_per_player[i] * float(np.linalg.norm(du))
        worst_lip = min(worst_lip, (lip_rhs - g_diff) / (1.0 + lip_rhs))
        map_rhs = consts.l_mapping * float(np.linalg.norm(du))
        worst_lip = min(worst_lip, (map_rhs - float(np.linalg.norm(f_diff))) / (1.0 + map_rhs))
    return worst_mono, worst_lip


class TestSampledChecks:
    """The batched sampled checks against one 1-D call per sample, on the
    same draws.  The per-player Lipschitz margin reads column i of the
    batched mapping instead of local_gradient; at n = 2 that margin cancels
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
        got = [_audit_average_property(w, rng), *_audit_game_assumptions(game, consts, rng)]
        ref = [
            reference_average_property(w, ref_rng, 200),
            *reference_game_assumptions(game, consts, ref_rng),
        ]
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-15)
        # the same number of draws, in the same order
        assert rng.random() == ref_rng.random()

    def test_no_samples_give_an_infinite_worst(self):
        w = metropolis_weights(ring(5))
        assert _audit_average_property(w, np.random.default_rng(0), 0) == math.inf
        report = audit(sizes=(5,), topologies=("ring",), seeds=1, iters=20, eq5_samples=0)
        check = next(c for c in report.cells[0].checks if c.name == "averaging_contraction")
        assert check.worst == math.inf and check.passed


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
        chord = graph_from_edgelist("1 2\n2 3\n3 4\n4 5\n5 6\n6 1\n1 4\n")
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
        assert "all passed" not in report.to_text()

    def test_report_serialization(self, tmp_path):
        report = audit(sizes=(5,), topologies=("star",), seeds=1, iters=80, out_dir=tmp_path)
        assert (tmp_path / "audit.json").exists()
        assert (tmp_path / "audit.txt").exists()
        doc = json.loads((tmp_path / "audit.json").read_text())
        assert doc["ok"] is True
        assert len(doc["cells"]) == 1


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
        "argv", [["--seeds", "0"], ["--seeds", "-1"], ["--sizes", ""], ["--sizes", ","]]
    )
    def test_audit_without_cells_is_input_error(self, argv, tmp_path, capsys):
        assert main(["audit", *argv, "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

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
        assert main(["audit", "--topologies", "moebius"]) == 2
        assert "unknown topology" in capsys.readouterr().err

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
