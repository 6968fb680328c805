"""Batch invariant auditor.

``audit`` sweeps a matrix of sizes, topologies and seeds and re-verifies
every checkable statement: the game assumptions, the mixing-matrix
properties, the per-iteration inequalities, the running-average recursion,
elementwise domination by the 2x2 comparison matrix, the spectral
cross-checks and the geometric envelope.  Its report is machine-readable
and the CLI maps failures to a nonzero exit status.

The audit runs on the run path of :mod:`gradplay.harness`.  It calls the
constructors, ``run`` and the trace-analysis helpers it shares with that
path as ``harness.<name>``, looked up at each call, and writes its files
through harness's writers, so that a patch of ``harness`` (a test's, or a
profiler's) sees the audit's calls and files as well as the run's.

Where a size's cells fit a :class:`~gradplay.dynamics.Lockstep` group, the
non-degenerate cells of that size form one group, which ``run`` steps
together at the first cell's call.  Each cell still makes its own
``harness.run`` call, and gets from it the bytes of its run alone.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass, fields

import numpy as np

from . import bounds, harness
from .dynamics import Lockstep, initial_estimates
from .errors import DivergenceError, PerfectMixingError
from .footprint import _DENSE_ARRAYS, _check_footprint
from .harness import SLACK_TOL, TOPOLOGIES, _finite, _resolve_alpha
from .network import _row_dots

__all__ = ["AuditCheck", "AuditCell", "AuditReport", "audit"]


@dataclass
class AuditCheck:
    name: str
    passed: bool
    worst: float
    note: str = ""

    def __post_init__(self):
        # numpy scalars sneak in from comparisons; keep the report JSON-clean
        self.passed = bool(self.passed)
        self.worst = float(self.worst)


@dataclass
class AuditCell:
    n: int
    topology: str
    seed: int
    sigma: float
    mu: float | None
    l: float | None
    alpha: float | None
    admissible: bool | None
    degenerate: bool
    checks: list

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "checks"}
        doc["ok"] = self.ok
        doc["checks"] = [
            {"name": c.name, "passed": c.passed, "worst": c.worst, "note": c.note}
            for c in self.checks
        ]
        return doc


@dataclass
class AuditReport:
    cells: list

    @property
    def ok(self) -> bool:
        """True when at least one cell was built and every cell passed."""
        return bool(self.cells) and all(cell.ok for cell in self.cells)

    def failures(self):
        return [
            (cell, check)
            for cell in self.cells
            for check in cell.checks
            if not check.passed
        ]

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "cells": [cell.to_dict() for cell in self.cells],
            "failures": [
                {
                    "n": cell.n,
                    "topology": cell.topology,
                    "seed": cell.seed,
                    "check": check.name,
                    "worst": check.worst,
                    "note": check.note,
                }
                for cell, check in self.failures()
            ],
        }

    def to_text(self) -> str:
        lines = []
        for cell in self.cells:
            status = "ok" if cell.ok else "FAIL"
            lines.append(
                f"n={cell.n:3d} {cell.topology:8s} seed={cell.seed} "
                f"sigma={cell.sigma:.4f} {status}"
            )
            for check in cell.checks:
                if not check.passed:
                    lines.append(
                        f"    FAILED {check.name}: worst={check.worst!r} {check.note}"
                    )
        verdict = "all passed" if self.ok else "FAILURES PRESENT" if self.cells else "no cells"
        lines.append(f"audit: {verdict}")
        return "\n".join(lines) + "\n"


def _audit_game_assumptions(game, consts, rng, samples=100):
    """Worst normalized margins of monotonicity and the Lipschitz bounds.

    Each sample is a pair of joint actions ``u``, ``v`` and a player ``i``,
    drawn in one call each (``u``, then ``v``, then the players); the
    margins are then column expressions over all samples.
    """
    n = game.n
    u = rng.uniform(-5, 5, (samples, n))
    v = rng.uniform(-5, 5, (samples, n))
    players = rng.integers(0, n, samples)
    f = harness.game_mapping(game, np.concatenate([u, v]))
    f_diff = f[:samples] - f[samples:]
    du = u - v
    du_sq = _row_dots(du, du)
    du_norm = np.sqrt(du_sq)
    rhs = consts.mu * du_sq
    mono = (_row_dots(f_diff, du) - rhs) / (1.0 + np.abs(rhs))
    # per-player bound on column i of F(u) - F(v), and the full-mapping bound
    g_diff = np.abs(f_diff[np.arange(samples), players])
    f_norm = np.sqrt(_row_dots(f_diff, f_diff))
    lip_rhs = consts.l_per_player[players] * du_norm
    map_rhs = consts.l_mapping * du_norm
    lip = np.minimum((lip_rhs - g_diff) / (1.0 + lip_rhs), (map_rhs - f_norm) / (1.0 + map_rhs))
    return float(np.min(mono, initial=math.inf)), float(np.min(lip, initial=math.inf))


def _audit_mixing(graph, w):
    err = max(
        float(np.max(np.abs(w.w.sum(axis=1) - 1.0))),
        float(np.max(np.abs(w.w.sum(axis=0) - 1.0))),
    )
    symmetric = bool(np.array_equal(w.w, w.w.T))
    i, j = graph.edges.T
    adjacency = np.zeros((graph.n, graph.n), dtype=bool)
    adjacency[i, j] = adjacency[j, i] = True
    support = w.w > 0
    np.fill_diagonal(support, False)
    sparsity_ok = np.array_equal(support, adjacency)
    diag_ok = bool(np.all(np.diag(w.w) > 0))
    ok = err <= 1e-12 and symmetric and sparsity_ok and diag_ok and 0 <= w.sigma < 1
    return ok, err


def _audit_average_property(w, x):
    """Worst normalized margin of the averaging contraction over the rows of
    ``x``, one vector each."""
    lhs, rhs = harness.average_property_check(w, x)
    return float(np.min((rhs - lhs + 1e-12) / (1.0 + rhs), initial=math.inf))


def audit(
    sizes=(2, 5, 10, 20),
    topologies=TOPOLOGIES,
    seeds=5,
    coupling_scale=0.2,
    iters=200,
    alpha_override=None,
    eq5_samples=200,
    out_dir=None,
) -> AuditReport:
    """Verify every checkable invariant over a matrix of configurations.

    Each cell (size, topology, seed) draws its game and graph from seeds
    derived from its seed, picks ``alpha`` (0.9 of the certified ceiling
    unless ``alpha_override`` is given), runs the iteration and checks: the
    game assumptions, the mixing-matrix properties, the averaging
    contraction, the three per-iteration inequalities, the running-average
    recursion, elementwise domination by the comparison matrix, the
    spectral cross-checks and the geometric envelope.  The cells of one
    size share the inputs that two of them would build alike: a seed's
    game, its constants, ``x0``, the sampled vectors and the
    game-assumption margins, whatever the topology; and each distinct
    graph's mixing matrix and mixing check (ring, complete and star ignore
    the seed, and at n = 2 tree, complete and star are the one edge).
    Each shared input is built once, from the seeds and draws a cell of
    its own would use, so every value is unchanged.  Where a size's cells
    fit a :class:`~gradplay.dynamics.Lockstep` group, its non-degenerate
    cells are stepped together, each through its own ``harness.run`` call
    and with the bytes of its run alone (:func:`_audit_size`).  Cells
    whose mixing matrix has ``sigma = 0`` (the 2-node complete graph)
    instead verify the documented degenerate-mixing error.  Invalid
    combinations (ring with n < 3) are skipped; a matrix of them alone is
    refused.  Before any cell runs, ``seeds`` must be an int >= 0,
    ``iters`` and ``eq5_samples`` ints >= 1 (an audit of no transition or
    no sample would pass vacuously), every size an int >= 2, every
    topology known and ``alpha_override`` finite and > 0 (an
    all-degenerate matrix never reaches ``run``'s check).
    """
    sizes, topologies = tuple(sizes), tuple(topologies)
    for name, value, least in (
        ("seeds", seeds, 0), ("iters", iters, 1), ("eq5_samples", eq5_samples, 1)
    ):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"audit {name} must be an int, got {value!r}")
        if value < least:
            raise ValueError(f"audit needs {name} >= {least}, got {value}")
    for n in sizes:
        if isinstance(n, bool) or not isinstance(n, int) or n < 2:
            raise ValueError(f"audit sizes must be ints >= 2, got {n!r}")
    for t in topologies:
        if t not in TOPOLOGIES:
            raise ValueError(f"unknown topology {t!r}; choose from {TOPOLOGIES}")
    if alpha_override is not None and not (_finite(alpha_override) and alpha_override > 0):
        raise ValueError(f"alpha_override must be finite and > 0, got {alpha_override}")
    pairs = [(n, t) for n in sizes for t in topologies if not (t == "ring" and n < 3)]
    if seeds >= 1 and sizes and topologies and not pairs:
        raise ValueError(
            "audit matrix selects no cell: every (size, topology) pair is a ring with n < 3"
        )
    # a run's own arrays, and the mixing matrices of the size's other topologies
    shared = max(len(set(topologies)) - 1, 0)
    _check_footprint(max(sizes, default=0), iters, arrays=_DENSE_ARRAYS + shared)
    cells = {}
    for n in dict.fromkeys(sizes):
        kinds = [t for size, t in dict.fromkeys(pairs) if size == n]
        cells.update(
            _audit_size(n, kinds, seeds, coupling_scale, iters, alpha_override, eq5_samples)
        )
    report = AuditReport(cells=[cells[n, t, seed] for n, t in pairs for seed in range(seeds)])
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        harness._write_json(os.path.join(out_dir, "audit.json"), report.to_dict())
        harness._write_text(os.path.join(out_dir, "audit.txt"), report.to_text())
    return report


def _audit_size(n, topologies, seeds, coupling_scale, iters, alpha_override, eq5_samples):
    """The cells of size ``n`` over distinct ``topologies`` and ``range(seeds)``,
    keyed by ``(n, topology, seed)``.

    The cells run in batches (:func:`_audit_batch`).  Where the size's cells
    fit a :class:`~gradplay.dynamics.Lockstep` group (``Lockstep.fits``,
    counted over all of them: n <= 20 for the default 20 cells a size, at
    horizons below 256 steps), one batch holds all seeds, and its
    non-degenerate cells form one group; elsewhere each seed is a batch of
    its own, so a game lives through the cells of its seed alone.  The
    mixing matrices of the graphs that ignore the seed serve every batch.

    A graph is built once per topology and seed that can change it (only
    random trees read their seed), and graphs with the same edges share one
    key (:func:`_audit_graphs`).  A key's mixing matrix and check are built
    before the first batch that needs them draws its games, and dropped
    after the last batch that uses them; the graph goes once they are built.
    A batch builds its new matrices in order of decreasing edge count, so a
    complete graph's O(n**2) edge array is gone before any other matrix is
    built.
    """
    keys, graphs = _audit_graphs(n, topologies, seeds)
    uses = Counter(keys)
    grouped = Lockstep.fits(n, len(keys), iters)
    networks, cells = {}, {}
    for batch in [range(seeds)] if grouped else [[seed] for seed in range(seeds)]:
        batch_keys = {
            (topology, seed): keys[seed * len(topologies) + i]
            for seed in batch
            for i, topology in enumerate(topologies)
        }
        new = [key for key in dict.fromkeys(batch_keys.values()) if key in graphs]
        for key in sorted(new, key=lambda key: -len(graphs[key].edges)):
            networks[key] = _audit_network(graphs.pop(key))
        cells.update(
            _audit_batch(
                n, batch, batch_keys, networks, grouped,
                coupling_scale, iters, alpha_override, eq5_samples,
            )
        )
        for key in batch_keys.values():
            uses[key] -= 1
            if not uses[key]:
                del networks[key]
    return cells


def _audit_batch(
    n, seeds, keys, networks, grouped, coupling_scale, iters, alpha_override, eq5_samples
):
    """The cells ``(topology, seed)`` of ``keys`` (each cell's network key),
    keyed by ``(n, topology, seed)``: the games of ``seeds`` are drawn, every
    cell's checks that need no run and its step size are worked out, and
    then each non-degenerate cell runs.  With ``grouped`` those cells form
    one :class:`~gradplay.dynamics.Lockstep` group, which steps them all at
    the first cell's ``harness.run`` call.  The batch's games, and the
    group, die when it returns."""
    games = {seed: _audit_game(n, seed, coupling_scale, eq5_samples) for seed in seeds}
    setups = [
        (topology, seed, *_audit_cell(topology, seed, games[seed], networks[key], alpha_override))
        for (topology, seed), key in keys.items()
    ]
    del games  # the setups hold what the runs need
    runs = [run[0] for *_, run in setups if run is not None]
    group = Lockstep(runs, iters) if grouped and len(runs) > 1 else None
    for _, _, cell, run in setups:
        if run is not None:
            _audit_run(cell, run, iters, group)
    return {(n, topology, seed): cell for topology, seed, cell, _ in setups}


def _audit_graphs(n, topologies, seeds):
    """The key of each cell's graph, seed by seed, and one graph per key.

    A key numbers a distinct edge set, found by its edge array's bytes.  The
    table from bytes to numbers lives only while the graphs it names do:
    kept longer, it would hold a copy of a complete graph's O(n**2) edges."""
    keys, known, numbers, graphs = [], {}, {}, {}
    for seed in range(seeds):
        for topology in topologies:
            recipe = (topology, seed) if topology == "tree" else topology  # trees read the seed
            if recipe not in known:
                graph = harness.build_graph(topology, n, seed=1000 + seed)
                known[recipe] = numbers.setdefault(graph.edges.tobytes(), len(numbers))
                graphs.setdefault(known[recipe], graph)
            keys.append(known[recipe])
    return keys, graphs


def _audit_network(graph):
    """``(w, ok, err)``: the Metropolis matrix of ``graph`` and its mixing check."""
    w = harness.metropolis_weights(graph)
    return (w, *_audit_mixing(graph, w))


def _audit_game(n, seed, coupling_scale, eq5_samples):
    """``(game, consts, x0, vectors, (mono_worst, lip_worst))``: what every
    cell of size ``n`` and ``seed`` shares, whatever its topology.  One
    generator seeded by ``(n, seed)`` draws the averaging check's
    ``eq5_samples`` vectors, then the game-assumption samples."""
    rng = np.random.default_rng(10_000 + 7 * seed + n)
    vectors = rng.uniform(-10, 10, (eq5_samples, n))
    game = harness.random_game(n, seed=2000 + seed, coupling_scale=coupling_scale)
    consts = harness.estimate_constants(game)
    x0 = initial_estimates(n, seed=3000 + seed)
    return game, consts, x0, vectors, _audit_game_assumptions(game, consts, rng)


def _audit_cell(topology, seed, game_inputs, network, alpha_override):
    """``(cell, run)``: an audit cell from its :func:`_audit_game` and
    :func:`_audit_network`, with the checks that need no run, and for a
    non-degenerate cell what :func:`_audit_run` needs, ``((game, w, alpha,
    x0), consts, plan)``, or None."""
    game, consts, x0, vectors, (mono_worst, lip_worst) = game_inputs
    w, mix_ok, mix_err = network
    n = game.n
    checks = [AuditCheck("mixing_matrix", mix_ok, mix_err)]
    avg_worst = _audit_average_property(w, vectors)
    checks.append(AuditCheck("averaging_contraction", avg_worst >= 0, avg_worst))
    checks.append(AuditCheck("strong_monotonicity", mono_worst >= -SLACK_TOL, mono_worst))
    checks.append(AuditCheck("lipschitz_bounds", lip_worst >= -SLACK_TOL, lip_worst))

    degenerate = w.sigma == 0.0
    alpha = admissible = run = None
    if degenerate:
        # Degenerate perfect mixing: the ceiling terms must refuse, loudly.
        try:
            bounds.step_size_terms(consts.mu, consts.l, w.sigma, n)
            checks.append(
                AuditCheck("degenerate_mixing_error", False, 0.0, "error not raised")
            )
        except PerfectMixingError:
            checks.append(AuditCheck("degenerate_mixing_error", True, 0.0))
    else:
        alpha, _terms, ceiling, admissible, note, plan = _resolve_alpha(
            "auto" if alpha_override is None else alpha_override,
            consts.mu, consts.l, w.sigma, n, "alpha={alpha} vs ceiling={ceiling!r}",
        )
        checks.append(
            AuditCheck("admissible_step", admissible, alpha / ceiling, "" if admissible else note)
        )
        run = (game, w, alpha, x0), consts, plan

    cell = AuditCell(
        n=n,
        topology=topology,
        seed=seed,
        sigma=w.sigma,
        mu=consts.mu,
        l=consts.l,
        alpha=alpha,
        admissible=admissible,
        degenerate=degenerate,
        checks=checks,
    )
    return cell, run


def _audit_run(cell, run, iters, group):
    """Run a non-degenerate cell through ``harness.run``, as one cell of
    ``group`` if it is a :class:`~gradplay.dynamics.Lockstep` (the bytes are
    those of the cell run alone), and add the checks of its trace to
    ``cell``."""
    (game, w, alpha, x0), consts, plan = run
    n, checks = game.n, cell.checks
    try:
        _, trace = harness.run(game, w, alpha, x0, max_iters=iters, tol=0.0, batch=group)
    except DivergenceError as exc:
        trace = exc.trace
        checks.append(AuditCheck("no_divergence", False, math.inf, str(exc)))
    else:
        checks.append(AuditCheck("no_divergence", True, 0.0))
    trace = trace.view(np.ndarray)  # np.recarray reads a column in Python

    # run() records t = 0 before any stop, so every trace has a row
    mins = harness.lemma_slack_minima(trace, consts.mu, consts.l, alpha, n)
    for name in ("lemma1", "lemma2", "lemma3"):
        if name != "lemma3" or mins["lemma3_applicable"]:
            checks.append(AuditCheck(name, mins[name] >= -SLACK_TOL, mins[name]))

    resid = np.fmax.reduce(trace["recursion_residual"][1:], initial=0.0)
    checks.append(AuditCheck("average_recursion", resid <= 1e-12, resid))

    if cell.admissible:
        eig = np.sort(np.linalg.eigvals(plan.z).real)
        eig_err = max(abs(eig[1] - plan.lambda1), abs(eig[0] - plan.lambda2))
        rate_ok = (
            0 < plan.q < 1
            and plan.lambda1 > abs(plan.lambda2)
            and eig_err <= 1e-12
        )
        checks.append(AuditCheck("rate_certificate", rate_ok, eig_err))
        t5 = plan.terms[4]
        alt = bounds.quadratic_form_alpha_bound(consts.mu, consts.l, w.sigma, n)
        t5_err = abs(t5 - alt) / abs(t5)
        checks.append(AuditCheck("fifth_term_equivalence", t5_err <= 1e-12, t5_err))
        zdom = harness.zdomination_excess(trace, plan.z)
        checks.append(AuditCheck("z_domination", zdom <= SLACK_TOL, zdom))
        env = harness.envelope_excess(trace, plan.z, plan.lambda1, plan.lambda2)
        checks.append(AuditCheck("geometric_envelope", env <= SLACK_TOL, env))
