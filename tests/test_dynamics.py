import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gradplay import (
    DivergenceError,
    MixingMatrix,
    QuadraticGame,
    alpha_max,
    complete,
    consensual_matrix,
    diag_gradient,
    estimate_constants,
    initial_estimates,
    metropolis_weights,
    random_game,
    random_tree,
    ring,
    run,
    running_average,
    solve_nash_equilibrium,
    star,
    step,
    trace_to_csv,
)

SPEC_HEADER = (
    "t,consensus_violation,distance_to_ne,avg_distance_to_ne,grad_norm,"
    "lemma1_slack,lemma2_slack,lemma3_slack"
)


def identity_game(n=2, b=None):
    return QuadraticGame(
        a=np.ones(n),
        b=np.zeros(n) if b is None else np.asarray(b, float),
        c=np.zeros((n, n)),
    )


def half_mixing():
    return MixingMatrix(np.full((2, 2), 0.5))


class TestDiagGradient:
    def test_zero_at_equilibrium_rows(self):
        g = random_game(6, 1)
        x_star = solve_nash_equilibrium(g)
        assert_allclose(diag_gradient(g, consensual_matrix(x_star)), np.zeros(6), atol=1e-12)

    def test_identity_game_identity_estimates(self):
        # row i = e_i, so component i is a_i * 1 + 0 = 1
        g = identity_game(4)
        assert_allclose(diag_gradient(g, np.eye(4)), np.ones(4), rtol=0)

    def test_per_row_scalar_oracle(self):
        g = random_game(5, 3)
        rng = np.random.default_rng(0)
        x_mat = rng.uniform(-2, 2, (5, 5))
        got = diag_gradient(g, x_mat)
        for i in range(5):
            row = x_mat[i]
            expected = g.a[i] * row[i] + g.b[i] + sum(
                g.c[i, j] * row[j] for j in range(5) if j != i
            )
            assert got[i] == pytest.approx(expected, rel=1e-13, abs=1e-13)

    def test_callable_gradient(self):
        g = random_game(4, 9)
        callback = lambda x_mat: diag_gradient(g, x_mat)  # noqa: E731
        x_mat = initial_estimates(4, 5)
        assert_allclose(diag_gradient(callback, x_mat), diag_gradient(g, x_mat), rtol=0)

    def test_shape_error(self):
        with pytest.raises(ValueError):
            diag_gradient(identity_game(3), np.zeros((2, 2)))


class TestStep:
    def test_hand_example(self):
        # two-line update by hand: mix, then correct the diagonal only
        g = identity_game(2)
        x_mat = np.array([[1.0, 0.0], [0.0, -1.0]])
        out = step(x_mat, half_mixing(), 0.1, g)
        assert_allclose(out, [[0.4, -0.5], [0.5, -0.4]], rtol=0, atol=1e-15)

    def test_fixed_point_at_equilibrium(self):
        g = random_game(8, 2)
        w = metropolis_weights(random_tree(8, 1))
        x_star_mat = consensual_matrix(solve_nash_equilibrium(g))
        out = step(x_star_mat, w, 0.05, g)
        assert_allclose(out, x_star_mat, atol=1e-13)

    def test_vanishing_alpha_is_pure_consensus(self):
        g = random_game(5, 4)
        w = metropolis_weights(star(5))
        x_mat = initial_estimates(5, 0)
        out = step(x_mat, w, 1e-300, g)
        assert_allclose(out, w.w @ x_mat, atol=1e-290)

    def test_off_diagonal_untouched_by_gradient(self):
        g = random_game(6, 5)
        w = metropolis_weights(ring(6))
        x_mat = initial_estimates(6, 1)
        out = step(x_mat, w, 0.7, g)
        mixed = w.w @ x_mat
        off = ~np.eye(6, dtype=bool)
        assert np.array_equal(out[off], mixed[off])

    def test_callable_matches_game(self):
        g = random_game(4, 8)
        w = metropolis_weights(ring(4))
        x_mat = initial_estimates(4, 2)
        out_callable = step(x_mat, w, 0.03, lambda m: diag_gradient(g, m))
        out_game = step(x_mat, w, 0.03, g)
        assert np.array_equal(out_callable, out_game)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            step(np.eye(2), half_mixing(), 0.0, identity_game(2))
        with pytest.raises(ValueError):
            step(np.eye(2), half_mixing(), -0.1, identity_game(2))


class TestRunningAverage:
    def test_consensual_rows(self):
        v = np.array([2.0, -1.0, 0.5])
        assert_allclose(running_average(consensual_matrix(v)), v, rtol=0)

    def test_identity_two(self):
        assert_allclose(running_average(np.eye(2)), [0.5, 0.5], rtol=0)

    def test_recursion_both_sides_independent(self):
        # after one step the column means must shift by exactly -(alpha/n) * g
        g = random_game(7, 6)
        w = metropolis_weights(random_tree(7, 2))
        alpha = 0.04
        x_mat = initial_estimates(7, 3)
        for _ in range(25):
            lhs = running_average(step(x_mat, w, alpha, g))
            rhs = running_average(x_mat) - (alpha / 7) * diag_gradient(g, x_mat)
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * (1 + np.linalg.norm(rhs))
            x_mat = step(x_mat, w, alpha, g)


class TestRun:
    def test_consensual_start_terminates_immediately(self):
        g = random_game(5, 7)
        w = metropolis_weights(star(5))
        x0 = consensual_matrix(solve_nash_equilibrium(g))
        final, trace = run(g, w, 0.01, x0, max_iters=50, tol=0.0)
        assert len(trace) == 1 and trace[0].t == 0
        assert trace[0].distance_to_ne == 0.0
        assert np.array_equal(final, x0)

    def test_trace_row_zero_has_nan_transition_slacks(self):
        g = random_game(5, 1)
        w = metropolis_weights(ring(5))
        _, trace = run(g, w, 1e-3, initial_estimates(5, 0), max_iters=5)
        assert math.isnan(trace[0].lemma1_slack)
        assert math.isnan(trace[0].lemma3_slack)
        assert not math.isnan(trace[0].lemma2_slack)
        assert all(not math.isnan(r.lemma1_slack) for r in trace[1:])

    def test_triangle_inequality_every_row(self):
        g = random_game(10, 3)
        w = metropolis_weights(random_tree(10, 4))
        _, trace = run(g, w, 5e-3, initial_estimates(10, 1), max_iters=300)
        for row in trace:
            assert row.distance_to_ne <= (
                row.consensus_violation + row.avg_distance_to_ne + 1e-9
            )

    def test_lemma_slacks_nonnegative_admissible_alpha(self):
        g = random_game(6, 11)
        consts = estimate_constants(g)
        w = metropolis_weights(random_tree(6, 11))
        alpha = 0.9 * alpha_max(consts.mu, consts.l, w.sigma, 6)
        _, trace = run(g, w, alpha, initial_estimates(6, 11), max_iters=400)
        for row in trace[1:]:
            rhs1 = row.lemma1_slack + row.consensus_violation
            rhs2 = row.lemma2_slack + row.grad_norm
            rhs3 = row.lemma3_slack + (1 + consts.mu * alpha / 6) * row.avg_distance_to_ne**2
            assert row.lemma1_slack >= -1e-9 * (1 + abs(rhs1))
            assert row.lemma2_slack >= -1e-9 * (1 + abs(rhs2))
            assert row.lemma3_slack >= -1e-9 * (1 + abs(rhs3))

    def test_slack_columns_match_row_formulas(self):
        n, alpha = 6, 0.01
        g = random_game(n, 11)
        consts = estimate_constants(g)
        w = metropolis_weights(random_tree(n, 11))
        _, trace = run(g, w, alpha, initial_estimates(n, 11), max_iters=200)
        for prev, row in zip(trace, trace[1:]):
            lemma1 = (
                w.sigma * prev.consensus_violation
                + alpha * math.sqrt((n - 1) / n) * prev.grad_norm
                - row.consensus_violation
            )
            assert row.lemma1_slack == lemma1
            terms = (
                prev.avg_distance_to_ne**2,
                (consts.l**2 * alpha / consts.mu) * prev.consensus_violation**2,
                (1.0 + consts.mu * alpha / n) * row.avg_distance_to_ne**2,
            )
            # squares may round differently from Python's pow, by one ulp
            assert abs(row.lemma3_slack - (terms[0] + terms[1] - terms[2])) <= 1e-15 * sum(terms)
        assert np.array_equal(trace.lemma2_slack, consts.l * trace.distance_to_ne - trace.grad_norm)

    def test_iteration_count_and_tol_stopping(self):
        g = random_game(5, 2)
        w = metropolis_weights(complete(5))
        x0 = initial_estimates(5, 2)
        d0 = np.linalg.norm(x0 - consensual_matrix(solve_nash_equilibrium(g)))
        final, trace = run(g, w, 0.2, x0, max_iters=5000, tol=1e-6 * d0)
        assert trace[-1].distance_to_ne <= 1e-6 * d0
        assert trace[-1].t < 5000

    def test_divergence_guard(self):
        g = identity_game(4)
        w = metropolis_weights(complete(4))
        with pytest.raises(DivergenceError) as excinfo:
            run(g, w, 50.0, np.eye(4), max_iters=2000)
        assert len(excinfo.value.trace)  # partial trace attached for reporting
        assert excinfo.value.iteration > 0

    def test_non_finite_distance_is_divergence(self):
        g = random_game(4, 0)
        w = metropolis_weights(complete(4))
        x0 = initial_estimates(4, 0)
        x0[1, 2] = 1e308  # finite, but its squared distance overflows to inf
        with pytest.raises(DivergenceError) as excinfo:
            run(g, w, 0.01, x0, max_iters=50)
        assert excinfo.value.iteration == 0
        assert len(excinfo.value.trace) == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_x0_rejected(self, bad):
        # A NaN x0 once ran and ended as a divergence at t = 0.
        g = random_game(4, 0)
        w = metropolis_weights(complete(4))
        x0 = initial_estimates(4, 0)
        x0[1, 2] = bad
        with pytest.raises(ValueError, match="x0 must be finite"):
            run(g, w, 0.01, x0, max_iters=50)

    def test_overflowing_run_warns_nothing(self, recwarn):
        g = random_game(5, 0)
        w = metropolis_weights(ring(5))
        with pytest.raises(DivergenceError) as excinfo:
            run(g, w, 1e300, initial_estimates(5, 0), max_iters=50)
        assert not math.isfinite(excinfo.value.trace[-1].distance_to_ne)
        assert not [wn for wn in recwarn if issubclass(wn.category, RuntimeWarning)]

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_non_finite_step_size_rejected(self, alpha):
        g = random_game(4, 0)
        w = metropolis_weights(complete(4))
        with pytest.raises(ValueError, match="finite"):
            run(g, w, alpha, initial_estimates(4, 0), max_iters=10)
        with pytest.raises(ValueError, match="finite"):
            step(initial_estimates(4, 0), w, alpha, g)

    def test_trace_is_a_record_array(self):
        g = random_game(5, 1)
        w = metropolis_weights(ring(5))
        _, trace = run(g, w, 1e-3, initial_estimates(5, 0), max_iters=7)
        assert trace.dtype.names == tuple(SPEC_HEADER.split(","))
        assert list(trace.t) == list(range(8))
        assert trace.distance_to_ne.tolist() == [row.distance_to_ne for row in trace]
        assert trace[-1].distance_to_ne == trace.distance_to_ne[-1]

    def test_determinism_bytes(self):
        g = random_game(6, 5)
        w = metropolis_weights(random_tree(6, 5))
        _, tr1 = run(g, w, 1e-3, initial_estimates(6, 5), max_iters=100)
        _, tr2 = run(g, w, 1e-3, initial_estimates(6, 5), max_iters=100)
        assert trace_to_csv(tr1) == trace_to_csv(tr2)

    def test_input_validation(self):
        g = random_game(4, 0)
        w = metropolis_weights(complete(4))
        with pytest.raises(ValueError):
            run(g, w, -1.0, np.zeros((4, 4)), max_iters=10)
        with pytest.raises(ValueError):
            run(g, w, 0.1, np.zeros((3, 3)), max_iters=10)
        with pytest.raises(ValueError):
            run(g, w, 0.1, np.zeros((4, 4)), max_iters=10, tol=-1.0)
        with pytest.raises(TypeError):
            run(lambda m: m.diagonal(), w, 0.1, np.zeros((4, 4)), max_iters=10)
        w5 = metropolis_weights(complete(5))
        with pytest.raises(ValueError):
            run(g, w5, 0.1, np.zeros((4, 4)), max_iters=10)


def dense_reference_run(game, w_dense, alpha, x0, iters):
    """Explicit ``x <- W x - alpha Diag(g)`` with the dense matrix; returns
    the final state and the four norm columns, one row per visited state."""
    n = game.n
    a_mat = np.diag(game.a) + game.c
    x_star = np.linalg.solve(a_mat, -game.b)
    x = np.array(x0, dtype=float)
    rows = []
    for t in range(iters + 1):
        g = np.array([a_mat[i] @ x[i] + game.b[i] for i in range(n)])
        avg = x.mean(axis=0)
        rows.append(
            (
                np.linalg.norm(x - avg),
                np.linalg.norm(x - x_star),
                math.sqrt(n) * np.linalg.norm(avg - x_star),
                np.linalg.norm(g),
            )
        )
        if t < iters:
            x = w_dense @ x - alpha * np.diag(g)
    return x, np.array(rows)


def reference_norm_columns(game, w, alpha, x0, iters):
    """The four norm columns of ``run()``, recorded with ``np.linalg.norm``
    and ``mean`` on states advanced by ``step()``."""
    n = game.n
    x_star = solve_nash_equilibrium(game)
    x_star_mat = consensual_matrix(x_star)
    x = np.array(x0, dtype=float)
    rows = []
    for t in range(iters + 1):
        avg = x.mean(axis=0)
        g = diag_gradient(game, x)
        rows.append(
            (
                np.linalg.norm(x - avg),
                np.linalg.norm(x - x_star_mat),
                math.sqrt(n) * np.linalg.norm(avg - x_star),
                np.linalg.norm(g),
            )
        )
        if t < iters:
            x = step(x, w, alpha, game)
    return np.array(rows)


class TestRecordedNorms:
    """run() records each norm as sqrt(v @ v) and each mean as a sum over n:
    the columns must equal np.linalg.norm and mean to the bit."""

    NORMS = ("consensus_violation", "distance_to_ne", "avg_distance_to_ne", "grad_norm")

    def check(self, game, w, alpha, x0, iters):
        _, trace = run(game, w, alpha, x0, max_iters=iters)
        ref = reference_norm_columns(game, w, alpha, x0, iters)
        for k, name in enumerate(self.NORMS):
            np.testing.assert_array_equal(trace[name], ref[:, k])

    def test_paper_sim(self):
        from gradplay import build_graph, paper_sim_config

        c = paper_sim_config()
        game = random_game(c.n, c.game_seed, c.coupling_scale)
        w = metropolis_weights(build_graph(c.topology, c.n, c.graph_seed))
        self.check(game, w, c.alpha, initial_estimates(c.n, c.init_seed), c.max_iters)

    def test_ring240_sparse_operator(self):
        w = metropolis_weights(ring(240))
        assert w.operator.format == "csr"
        self.check(random_game(240, 21), w, 0.02, initial_estimates(240, 22), 30)


class TestSparseOperator:
    """Sparse graphs are iterated through a CSR operator; the dense product
    is the reference."""

    NORMS = ("consensus_violation", "distance_to_ne", "avg_distance_to_ne", "grad_norm")

    @pytest.mark.parametrize("graph", [ring(240), star(300)], ids=["ring240", "star300"])
    def test_run_matches_dense_loop(self, graph):
        n, alpha, iters = graph.n, 0.02, 40
        g = random_game(n, 21)
        w = metropolis_weights(graph)
        assert w.operator.format == "csr"
        x0 = initial_estimates(n, 22)
        final, trace = run(g, w, alpha, x0, max_iters=iters)
        ref_final, ref_norms = dense_reference_run(g, w.w, alpha, x0, iters)
        assert_allclose(final, ref_final, rtol=1e-12, atol=1e-14)
        for k, name in enumerate(self.NORMS):
            assert_allclose(trace[name], ref_norms[:, k], rtol=1e-12)

    def test_step_applies_the_operator(self):
        g = random_game(240, 4)
        w = metropolis_weights(ring(240))
        assert w.operator.format == "csr"
        x = initial_estimates(240, 5)
        assert_allclose(step(x, w, 0.05, g), step(x, w.w, 0.05, g), rtol=1e-12, atol=1e-14)


class TestInitialEstimates:
    def test_uniform_deterministic_and_bounded(self):
        x1 = initial_estimates(9, 4)
        x2 = initial_estimates(9, 4)
        assert np.array_equal(x1, x2)
        assert np.all(np.abs(x1) <= 1.0)

    def test_zero(self):
        assert np.array_equal(initial_estimates(3, 0, kind="zero"), np.zeros((3, 3)))

    def test_self_knowledge(self):
        x = initial_estimates(5, 1, kind="self")
        off = ~np.eye(5, dtype=bool)
        assert np.all(x[off] == 0.0)
        assert np.all(np.diag(x) != 0.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            initial_estimates(3, 0, kind="gaussian")


class TestTraceCsv:
    def test_header_matches_contract(self):
        g = random_game(4, 3)
        w = metropolis_weights(star(4))
        _, trace = run(g, w, 1e-3, initial_estimates(4, 0), max_iters=3)
        text = trace_to_csv(trace)
        assert text.splitlines()[0] == SPEC_HEADER
        assert len(text.splitlines()) == len(trace) + 1

    def test_values_round_trip(self):
        g = random_game(4, 3)
        w = metropolis_weights(star(4))
        _, trace = run(g, w, 1e-3, initial_estimates(4, 0), max_iters=10)
        text = trace_to_csv(trace)
        body = text.splitlines()[1:]
        for line, row in zip(body, trace):
            cells = line.split(",")
            assert int(cells[0]) == row.t
            assert float(cells[1]) == row.consensus_violation  # exact repr round-trip
            assert float(cells[4]) == row.grad_norm
