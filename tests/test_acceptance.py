"""Acceptance suite: every shipped guarantee checked at its stated tolerance.

One test per criterion; each records a single pass/fail line (echoed in the
pytest terminal summary).  The auto-step-size sweep excludes the
configurations where no certified step size exists at all: metropolis
weights mix perfectly (sigma = 0) on every complete graph and on the only
connected 2-node graph, so those cells have no admissible alpha by
construction and are covered by the degenerate-path tests instead.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from gradplay import (
    bounds,
    complete,
    estimate_constants,
    grane_rate_comparison,
    initial_estimates,
    metropolis_weights,
    paper_sim_config,
    quadratic_form_alpha_bound,
    random_game,
    random_tree,
    ring,
    run,
    run_experiment,
    star,
    step_size_terms,
)
from gradplay.harness import (
    envelope_excess,
    fit_tail_contraction,
    lemma_slack_minima,
    zdomination_excess,
)
from gradplay.network import average_property_check

SLACK_TOL = 1e-9

# Auto-alpha grid: 3 sizes x 3 topologies x 12 seeds = 108 configurations.
AUTO_SIZES = (5, 10, 20)
AUTO_TOPOLOGIES = ("tree", "ring", "star")
AUTO_SEEDS = range(12)
LEMMA_ITERS = 220

_timing = {}


def _graph(topology, n, seed):
    if topology == "tree":
        return random_tree(n, seed)
    if topology == "ring":
        return ring(n)
    if topology == "star":
        return star(n)
    if topology == "complete":
        return complete(n)
    raise ValueError(topology)


@dataclass
class SweepRun:
    n: int
    topology: str
    seed: int
    game: object
    w: object
    mu: float
    l: float
    alpha: float
    z: np.ndarray
    lambda1: float
    lambda2: float
    q: float
    x0: np.ndarray
    trace: list


def _make_run(n, topology, seed, iters):
    game = random_game(n, 100 + seed)
    graph = _graph(topology, n, 300 + seed)
    w = metropolis_weights(graph)
    consts = estimate_constants(game)
    alpha = 0.9 * bounds.alpha_max(consts.mu, consts.l, w.sigma, n)
    rb = bounds.rate_bound(consts.mu, consts.l, w.sigma, n, alpha)
    z = rb.z
    x0 = initial_estimates(n, 500 + seed)
    _, trace = run(game, w, alpha, x0, max_iters=iters, tol=0.0)
    return SweepRun(
        n=n,
        topology=topology,
        seed=seed,
        game=game,
        w=w,
        mu=consts.mu,
        l=consts.l,
        alpha=alpha,
        z=z,
        lambda1=rb.lambda1,
        lambda2=rb.lambda2,
        q=rb.q,
        x0=x0,
        trace=trace,
    )


@pytest.fixture(scope="session")
def sweep():
    t0 = time.perf_counter()
    runs = [
        _make_run(n, topology, seed, LEMMA_ITERS)
        for n in AUTO_SIZES
        for topology in AUTO_TOPOLOGIES
        for seed in AUTO_SEEDS
    ]
    _timing["sweep"] = time.perf_counter() - t0
    return runs


def sample_constants(rng):
    """Random constants from the realizable regime (L >= mu, kappa >= 1)."""
    n = int(rng.choice([2, 3, 5, 10, 20, 50]))
    mu = 10.0 ** rng.uniform(-1.5, 0.7)
    l = mu * 10.0 ** rng.uniform(0.0, 1.3)
    sigma = rng.uniform(0.02, 0.995)
    return mu, l, sigma, n


def test_c1_lemma_suite(sweep, acceptance_log):
    """Criterion 1: per-iteration inequalities and the running-average
    recursion hold across >= 100 randomized auto-alpha configurations."""
    t0 = time.perf_counter()
    worst_slack = math.inf
    worst_recursion = 0.0
    for sr in sweep:
        mins = lemma_slack_minima(sr.trace, sr.mu, sr.l, sr.alpha, sr.n)
        assert mins["lemma3_applicable"]  # auto-alpha < mu/(2 L^2) always
        worst_slack = min(worst_slack, mins["lemma1"], mins["lemma2"], mins["lemma3"])
        # every one of the LEMMA_ITERS transitions, as the audit reads it
        worst_recursion = max(
            worst_recursion, np.fmax.reduce(sr.trace.recursion_residual[1:], initial=0.0)
        )
    elapsed = _timing["sweep"] + (time.perf_counter() - t0)
    ok = worst_slack >= -SLACK_TOL and worst_recursion <= SLACK_TOL and elapsed < 60.0
    acceptance_log(
        f"[acceptance] C1 lemma suite: {'PASS' if ok else 'FAIL'} "
        f"({len(sweep)} configs, worst slack {worst_slack:.3e}, "
        f"worst recursion residual {worst_recursion:.3e}, {elapsed:.1f}s)"
    )
    assert len(sweep) >= 100
    assert worst_slack >= -SLACK_TOL
    assert worst_recursion <= SLACK_TOL
    assert elapsed < 60.0


@pytest.fixture(scope="session")
def long_runs():
    """One longer auto-alpha run per (size, topology) pair for the
    geometric-envelope and tail-fit checks; horizon scales with how slowly
    the consensus transient dies."""
    runs = []
    for n in AUTO_SIZES:
        for topology in AUTO_TOPOLOGIES:
            probe = metropolis_weights(_graph(topology, n, 300))
            horizon = int(min(4000, max(800, 25.0 / -math.log(probe.sigma))))
            runs.append(_make_run(n, topology, 0, horizon))
    return runs


def test_c2_geometric_convergence(long_runs, acceptance_log):
    """Criterion 2: squared error stays under its geometric envelope and the
    tail log-linear fit contracts at least as fast as the certificate."""
    worst_env = -math.inf
    worst_slope_margin = -math.inf
    worst_r2 = 1.0
    for sr in long_runs:
        env = envelope_excess(sr.trace, sr.z, sr.lambda1, sr.lambda2)
        worst_env = max(worst_env, env)
        fit = fit_tail_contraction(sr.trace, burn_frac=0.6)
        assert fit is not None, (sr.n, sr.topology)
        slope, r2, _ = fit
        worst_slope_margin = max(worst_slope_margin, slope - math.log(sr.q))
        worst_r2 = min(worst_r2, r2)
    ok = worst_env <= SLACK_TOL and worst_slope_margin <= 1e-6 and worst_r2 >= 0.99
    acceptance_log(
        f"[acceptance] C2 geometric convergence: {'PASS' if ok else 'FAIL'} "
        f"({len(long_runs)} runs, envelope excess {worst_env:.3e}, "
        f"slope margin {worst_slope_margin:.3e}, min R^2 {worst_r2:.6f})"
    )
    assert worst_env <= SLACK_TOL
    assert worst_slope_margin <= 1e-6
    assert worst_r2 >= 0.99


def test_c3_z_domination(sweep, acceptance_log):
    """Criterion 3: measured error components are dominated elementwise by
    the comparison-matrix recursion at every iteration."""
    worst = -math.inf
    for sr in sweep:
        worst = max(worst, zdomination_excess(sr.trace, sr.z))
    ok = worst <= SLACK_TOL
    acceptance_log(
        f"[acceptance] C3 z-domination: {'PASS' if ok else 'FAIL'} "
        f"(worst normalized excess {worst:.3e})"
    )
    assert worst <= SLACK_TOL


def test_c4_eigenvalue_cross_check(acceptance_log):
    """Criterion 4: closed-form eigenvalues match a numeric eigensolver to
    1e-12; the dominant one stays below 1 across admissible step sizes."""
    rng = np.random.default_rng(2024)
    worst_eig = 0.0
    all_q_below_one = True
    all_perron = True
    for _ in range(200):
        mu, l, sigma, n = sample_constants(rng)
        ceiling = bounds.alpha_max(mu, l, sigma, n)
        for frac in (0.05, 0.2, 0.4, 0.6, 0.8, 0.95, 0.999):
            alpha = ceiling * frac
            rb = bounds.rate_bound(mu, l, sigma, n, alpha)
            eig = np.sort(np.linalg.eigvals(rb.z).real)
            worst_eig = max(worst_eig, abs(eig[1] - rb.lambda1), abs(eig[0] - rb.lambda2))
            all_q_below_one &= rb.q < 1.0
            all_perron &= rb.lambda1 > abs(rb.lambda2)
    ok = worst_eig <= 1e-12 and all_q_below_one and all_perron
    acceptance_log(
        f"[acceptance] C4 eigenvalue cross-check: {'PASS' if ok else 'FAIL'} "
        f"(200 tuples x 7 alphas, worst mismatch {worst_eig:.3e}, "
        f"q<1 {all_q_below_one}, lambda1>|lambda2| {all_perron})"
    )
    assert worst_eig <= 1e-12
    assert all_q_below_one
    assert all_perron


def test_c5_fifth_term_equivalence(acceptance_log):
    """Criterion 5: the fifth ceiling term agrees with its quadratic-root
    form to 1e-12 relative over 1000 random tuples."""
    rng = np.random.default_rng(555)
    worst = 0.0
    for _ in range(1000):
        mu, l, sigma, n = sample_constants(rng)
        t5 = step_size_terms(mu, l, sigma, n)[4]
        alt = quadratic_form_alpha_bound(mu, l, sigma, n)
        worst = max(worst, abs(t5 - alt) / abs(t5))
    ok = worst <= 1e-12
    acceptance_log(
        f"[acceptance] C5 fifth-term equivalence: {'PASS' if ok else 'FAIL'} "
        f"(1000 tuples, worst relative gap {worst:.3e})"
    )
    assert worst <= 1e-12


def test_c6_headline_simulation(acceptance_log):
    """Criterion 6: the paper-sim preset reaches relative error < 1e-6
    within 10^4 iterations in under 5 seconds, and the report explicitly
    flags that 0.05 exceeds the certified ceiling."""
    config = paper_sim_config()
    t0 = time.perf_counter()
    report = run_experiment(config)
    elapsed = time.perf_counter() - t0
    d = np.array([r.distance_to_ne for r in report.trace])
    hit = next((r.t for r in report.trace if r.distance_to_ne / d[0] < 1e-6), None)
    flagged = report.alpha_admissible is False and "ceiling" in report.alpha_note
    monotone_tail = bool(np.all(np.diff(d[200:]) <= 1e-12 * d[200:-1]))
    ok = (
        hit is not None
        and hit <= 10_000
        and elapsed < 5.0
        and flagged
        and monotone_tail
        and report.ok
    )
    acceptance_log(
        f"[acceptance] C6 headline simulation: {'PASS' if ok else 'FAIL'} "
        f"(rel err < 1e-6 at t={hit}, {elapsed:.2f}s, monotone after burn-in: "
        f"{monotone_tail}, inadmissible-alpha flagged: {flagged})"
    )
    assert hit is not None and hit <= 10_000
    assert elapsed < 5.0
    assert flagged
    assert monotone_tail
    assert report.ok


def test_c7_rate_gap_comparison(acceptance_log):
    """Criterion 7: gradient play's contraction gap beats the GRANE's for
    every condition number >= 1, with the exact ratio identity."""
    cmp20 = grane_rate_comparison(1.0, 1.0, 20)
    frozen_ok = (
        cmp20.grane_gap == 1.0 / 20**6
        and abs(cmp20.grane_gap - 1.5625e-8) <= 1e-20
        and cmp20.play_gap == 1.0 / (20**2 * 19)
        and abs(cmp20.play_gap - 1.3158e-4) <= 1e-7
    )
    rng = np.random.default_rng(777)
    worst_ratio_err = 0.0
    all_faster = cmp20.play_faster
    for _ in range(300):
        mu, l, sigma, n = sample_constants(rng)
        cmp = grane_rate_comparison(mu, l, n)
        identity = (l / mu) ** 2 * n**4 / (n - 1)
        worst_ratio_err = max(
            worst_ratio_err, abs(cmp.play_gap / cmp.grane_gap - identity) / identity
        )
        all_faster &= cmp.play_faster
    ok = frozen_ok and worst_ratio_err <= 1e-12 and all_faster
    acceptance_log(
        f"[acceptance] C7 rate-gap comparison: {'PASS' if ok else 'FAIL'} "
        f"(gaps {cmp20.play_gap:.4e} vs {cmp20.grane_gap:.4e}, "
        f"ratio identity worst {worst_ratio_err:.3e}, play_faster always {all_faster})"
    )
    assert frozen_ok
    assert worst_ratio_err <= 1e-12
    assert all_faster


def test_c8_network_layer(acceptance_log):
    """Criterion 8: mixing matrices are doubly stochastic to 1e-12, the
    averaging contraction holds for 1000 random vectors per matrix, and
    sigma matches the symmetric-eigendecomposition oracle to 1e-10."""
    graphs = [
        _graph(topology, n, seed)
        for topology in ("tree", "ring", "star", "complete")
        for n in (2, 5, 10, 20)
        if not (topology == "ring" and n < 3)
        for seed in ([301, 302, 303] if topology == "tree" and n == 20 else [300])
    ]
    rng = np.random.default_rng(88)
    worst_stochastic = 0.0
    worst_eq5 = -math.inf
    worst_sigma = 0.0
    for graph in graphs:
        w = metropolis_weights(graph)
        worst_stochastic = max(
            worst_stochastic,
            float(np.max(np.abs(w.w.sum(axis=0) - 1.0))),
            float(np.max(np.abs(w.w.sum(axis=1) - 1.0))),
        )
        for _ in range(1000):
            lhs, rhs = average_property_check(w, rng.uniform(-10, 10, w.n))
            worst_eq5 = max(worst_eq5, lhs - rhs)
        eig = np.sort(np.linalg.eigvalsh(w.w))
        oracle = max(abs(eig[0]), abs(eig[-2]))
        worst_sigma = max(worst_sigma, abs(w.sigma - oracle))
    ok = worst_stochastic <= 1e-12 and worst_eq5 <= 1e-12 and worst_sigma <= 1e-10
    acceptance_log(
        f"[acceptance] C8 network layer: {'PASS' if ok else 'FAIL'} "
        f"({len(graphs)} matrices, stochasticity {worst_stochastic:.3e}, "
        f"contraction excess {worst_eq5:.3e}, sigma vs oracle {worst_sigma:.3e})"
    )
    assert worst_stochastic <= 1e-12
    assert worst_eq5 <= 1e-12
    assert worst_sigma <= 1e-10


def test_c9_determinism(tmp_path, acceptance_log):
    """Criterion 9: identical configs produce byte-identical trace CSVs."""
    from gradplay import ExperimentConfig

    config = ExperimentConfig(
        n=10,
        game_seed=11,
        graph_seed=12,
        init_seed=13,
        topology="tree",
        alpha="auto",
        max_iters=400,
    )
    run_experiment(config, out_dir=tmp_path / "first")
    run_experiment(config, out_dir=tmp_path / "second")
    first = (tmp_path / "first" / "trace.csv").read_bytes()
    second = (tmp_path / "second" / "trace.csv").read_bytes()
    ok = first == second and len(first) > 0
    acceptance_log(
        f"[acceptance] C9 determinism: {'PASS' if ok else 'FAIL'} "
        f"(byte-identical trace CSVs, {len(first)} bytes)"
    )
    assert ok
