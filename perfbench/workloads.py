"""The benchmark's workloads: inputs from a seed, one job, and its output check.

Every input is spelled out here rather than taken from a gradplay preset or
default, so that changing a preset or an ``audit()`` default cannot change
what a workload measures.  ``perfbench/README.md`` records why each workload
exists and which layer metrics should move its end-to-end metrics.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import gradplay
from gradplay import ExperimentConfig

#: Horizon of ``scale-tree``: long enough that ``dynamics.run`` is the
#: largest single layer, short enough for several jobs per run.
SCALE_TREE_ITERS = 80

#: Final relative error of ``paper-sim`` at seed 3, the published preset.
PAPER_SIM_SEED3_REL_ERROR = 9.405962210135702e-09

#: Allowed relative gap between a job's final relative error and the
#: independent replay in :func:`reference_relative_error`.  The replay sums
#: in another order than the dense ``W @ x``, so the two agree to rounding,
#: not bit for bit.
REFERENCE_RTOL = 1e-6

#: ``paper-sim`` must converge to this relative error.
PAPER_SIM_ACCURACY = 1e-6

AUDIT_TOPOLOGIES = ("tree", "ring", "complete", "star")
AUDIT_SIZES = (2, 5, 10, 20)
AUDIT_SEEDS = 5
#: Cells ``audit`` builds for the inputs above: ring needs n >= 3.
AUDIT_CELLS = 75


def paper_sim_config(seed: int) -> ExperimentConfig:
    """The paper's headline problem; seed 3 is the ``paper-sim`` preset."""
    return ExperimentConfig(
        n=20,
        game_seed=seed,
        graph_seed=100 + seed,
        init_seed=200 + seed,
        coupling_scale=0.2,
        topology="tree",
        alpha=0.05,
        max_iters=10_000,
        tol=0.0,
        check_lemmas=True,
    )


def scale_tree_config(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        n=1000,
        game_seed=seed,
        graph_seed=100 + seed,
        init_seed=200 + seed,
        coupling_scale=0.2,
        topology="tree",
        alpha="auto",
        max_iters=SCALE_TREE_ITERS,
        tol=0.0,
        check_lemmas=True,
    )


def audit_inputs(seed: int) -> dict:
    """``audit`` derives its cell seeds from ``range(seeds)``, so the
    workload seed cannot vary them: every seed gives these inputs."""
    return dict(
        sizes=AUDIT_SIZES,
        topologies=AUDIT_TOPOLOGIES,
        seeds=AUDIT_SEEDS,
        coupling_scale=0.2,
        iters=200,
        alpha_override=None,
        eq5_samples=200,
    )


def construct_run(config: ExperimentConfig) -> None:
    """Everything a cold ``run_experiment`` builds before its first
    iteration, through the public constructors."""
    game = gradplay.random_game(config.n, config.game_seed, config.coupling_scale)
    graph = gradplay.build_graph(config.topology, config.n, config.graph_seed)
    w = gradplay.metropolis_weights(graph)
    consts = gradplay.estimate_constants(game)
    gradplay.solve_nash_equilibrium(game)
    ceiling = gradplay.alpha_max(consts.mu, consts.l, w.sigma, config.n)
    alpha = 0.9 * ceiling if config.alpha == "auto" else config.alpha
    if alpha < ceiling:
        gradplay.rate_bound(consts.mu, consts.l, w.sigma, config.n, alpha)
    gradplay.initial_estimates(config.n, config.init_seed)


def construct_audit(inputs: dict) -> None:
    """The per-cell constructions of ``audit``, with the seeds it derives
    for each cell."""
    for n in inputs["sizes"]:
        for topology in inputs["topologies"]:
            if topology == "ring" and n < 3:
                continue
            for seed in range(inputs["seeds"]):
                graph = gradplay.build_graph(topology, n, seed=1000 + seed)
                w = gradplay.metropolis_weights(graph)
                game = gradplay.random_game(n, 2000 + seed, inputs["coupling_scale"])
                consts = gradplay.estimate_constants(game)
                gradplay.solve_nash_equilibrium(game)
                if w.sigma > 0.0:
                    ceiling = gradplay.alpha_max(consts.mu, consts.l, w.sigma, n)
                    gradplay.rate_bound(consts.mu, consts.l, w.sigma, n, 0.9 * ceiling)
                gradplay.initial_estimates(n, seed=3000 + seed)


def reference_relative_error(config: ExperimentConfig, alpha: float) -> float:
    """Final relative error of the iteration, replayed without gradplay's
    mixing matrix or loop.

    The update ``x <- W x - alpha * Diag(g)`` is applied edge by edge with
    the Metropolis weights rebuilt from the graph's edge list, so it shares
    only the drawn inputs (game, graph, ``x0``) with the code under test.
    """
    game = gradplay.random_game(config.n, config.game_seed, config.coupling_scale)
    graph = gradplay.build_graph(config.topology, config.n, config.graph_seed)
    x = gradplay.initial_estimates(config.n, config.init_seed)
    n = config.n
    edges = np.array(graph.edges, dtype=int).reshape(-1, 2)
    deg = np.bincount(edges.ravel(), minlength=n)
    weight = 1.0 / (1.0 + np.maximum(deg[edges[:, 0]], deg[edges[:, 1]]))
    # Both directions of every edge, grouped by the receiving node.
    dst = np.concatenate([edges[:, 0], edges[:, 1]])
    src = np.concatenate([edges[:, 1], edges[:, 0]])
    arc_weight = np.concatenate([weight, weight])
    order = np.argsort(dst, kind="stable")
    dst, src, arc_weight = dst[order], src[order], arc_weight[order]
    receivers, starts = np.unique(dst, return_index=True)
    self_weight = 1.0 - np.bincount(dst, arc_weight, n)
    a_mat = np.diag(game.a) + game.c
    x_star = np.linalg.solve(a_mat, -game.b)
    initial = np.linalg.norm(x - x_star)
    diag = np.arange(n)
    for _ in range(config.max_iters):
        g = np.einsum("ij,ij->i", a_mat, x) + game.b
        mixed = self_weight[:, None] * x
        mixed[receivers] += np.add.reduceat(arc_weight[:, None] * x[src], starts)
        mixed[diag, diag] -= alpha * g
        x = mixed
    return float(np.linalg.norm(x - x_star) / initial)


def file_digest(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


@dataclass
class RunCheck:
    """Output check of ``run_experiment`` jobs within one benchmark run.

    The first job fixes the reference: the independent replay of its
    alpha, and its ``trace.csv`` bytes, which every later job must repeat.
    """

    config: ExperimentConfig
    converges: bool
    reference: float | None = None
    digest: str | None = None

    def operations(self) -> int:
        return 1

    def failed_operations(self, report, out_dir):
        """``(failed operations, problems)`` of one finished job."""
        problems = []
        if not report.ok:
            problems.append("report ok is False")
        if report.first_violation is not None:
            problems.append(f"lemma violation {report.first_violation}")
        rel = report.final_relative_error
        if self.converges and not rel <= PAPER_SIM_ACCURACY:
            problems.append(f"final relative error {rel!r} > {PAPER_SIM_ACCURACY}")
        if not self.converges and not rel < 1.0:
            problems.append(f"final relative error {rel!r} did not contract")
        if self.reference is None:
            self.reference = reference_relative_error(self.config, report.alpha)
        if not abs(rel - self.reference) <= REFERENCE_RTOL * self.reference:
            problems.append(f"final relative error {rel!r} vs reference {self.reference!r}")
        digest = file_digest(os.path.join(out_dir, "trace.csv"))
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append("trace.csv differs from the first job's")
        return (1 if problems else 0), problems


@dataclass
class AuditCheck:
    """Output check of one ``audit`` job: every cell built and passing."""

    def operations(self) -> int:
        return AUDIT_CELLS

    def failed_operations(self, report, out_dir):
        """Failing cells; all of them when the audit is incomplete."""
        problems = [
            f"cell n={c.n} {c.topology} seed={c.seed} failed"
            for c in report.cells
            if not c.ok
        ]
        failed = len(problems)
        if not report.ok and not problems:
            problems.append("report ok is False")
        if len(report.cells) != AUDIT_CELLS:
            problems.append(f"{len(report.cells)} cells built, expected {AUDIT_CELLS}")
        if not os.path.isfile(os.path.join(out_dir, "audit.json")):
            problems.append("audit.json not written")
        if len(problems) > failed:
            failed = AUDIT_CELLS
        return failed, problems


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int], Any]  # seed -> job inputs
    job: Callable[[Any, str], Any]  # (inputs, out_dir) -> report
    construct: Callable[[Any], None]  # inputs -> None, the cold set-up
    check: Callable[[Any], Any]  # inputs -> a fresh RunCheck or AuditCheck


def _run_job(config, out_dir):
    return gradplay.run_experiment(config, out_dir=out_dir)


def _audit_job(inputs, out_dir):
    return gradplay.audit(**inputs, out_dir=out_dir)


WORKLOADS = {
    "paper-sim": Workload(
        "paper-sim",
        paper_sim_config,
        _run_job,
        construct_run,
        lambda config: RunCheck(config, converges=True),
    ),
    "scale-tree": Workload(
        "scale-tree",
        scale_tree_config,
        _run_job,
        construct_run,
        lambda config: RunCheck(config, converges=False),
    ),
    "audit-sweep": Workload(
        "audit-sweep",
        audit_inputs,
        _audit_job,
        construct_audit,
        lambda inputs: AuditCheck(),
    ),
}
