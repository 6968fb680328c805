import math
import os
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gradplay import (
    DivergenceError,
    IterationTrace,
    MixingMatrix,
    QuadraticGame,
    alpha_max,
    build_graph,
    complete,
    estimate_constants,
    initial_estimates,
    metropolis_weights,
    random_game,
    random_tree,
    ring,
    run,
    solve_nash_equilibrium,
    star,
    step,
    trace_to_csv,
)
from gradplay import dynamics
from gradplay.network import _CsrOperator

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


def own_gradient(game, x):
    """Each player's own partial gradient at player i's row of ``x``: the
    1-D dot of row i of the mapping matrix with row i of ``x``, plus ``b_i``."""
    a = game.mapping_matrix
    return np.array([a[i] @ x[i] for i in range(game.n)]) + game.b


def step_gradient(x_mat, w, game):
    """The ``g`` of ``step()``'s ``Diag(g)`` correction: at alpha = 1 it is
    the diagonal of ``W x`` minus that of the step."""
    return np.diagonal(w.w @ x_mat) - np.diagonal(step(x_mat, w, 1.0, game))


class TestDiagGradient:
    """The own-gradient vector ``g`` that step() subtracts on the diagonal."""

    def test_zero_at_equilibrium_rows(self):
        g = random_game(6, 1)
        w = metropolis_weights(random_tree(6, 1))
        x_star_mat = np.tile(solve_nash_equilibrium(g), (6, 1))
        assert_allclose(step_gradient(x_star_mat, w, g), np.zeros(6), atol=1e-12)

    def test_identity_game_identity_estimates(self):
        # row i = e_i, so component i is a_i * 1 + 0 = 1
        g = identity_game(4)
        w = MixingMatrix(np.full((4, 4), 0.25))
        assert_allclose(step_gradient(np.eye(4), w, g), np.ones(4), rtol=0)

    def test_per_row_scalar_oracle(self):
        g = random_game(5, 3)
        w = metropolis_weights(ring(5))
        rng = np.random.default_rng(0)
        x_mat = rng.uniform(-2, 2, (5, 5))
        got = step_gradient(x_mat, w, g)
        for i in range(5):
            row = x_mat[i]
            expected = g.a[i] * row[i] + g.b[i] + sum(
                g.c[i, j] * row[j] for j in range(5) if j != i
            )
            assert got[i] == pytest.approx(expected, rel=1e-13, abs=1e-13)
            assert own_gradient(g, x_mat)[i] == pytest.approx(expected, rel=1e-13, abs=1e-13)

    def test_callable_gradient(self):
        # only a QuadraticGame supplies gradients; a callback gets run()'s TypeError
        callback = lambda x_mat: x_mat.diagonal()  # noqa: E731
        x_mat = initial_estimates(4, 5)
        w = metropolis_weights(ring(4))
        for call in (
            lambda: step(x_mat, w, 0.03, callback),
            lambda: run(callback, w, 0.03, x_mat, max_iters=1),
        ):
            with pytest.raises(TypeError, match="expected a QuadraticGame, got function"):
                call()

    def test_shape_error(self):
        # estimates or mixing matrix of another size than the game
        w3 = metropolis_weights(ring(3))
        with pytest.raises(ValueError, match="shape mismatch"):
            step(np.zeros((2, 2)), w3, 0.1, identity_game(3))
        with pytest.raises(ValueError, match="shape mismatch"):
            step(np.zeros((3, 3)), half_mixing(), 0.1, identity_game(3))
        with pytest.raises(ValueError, match="shape mismatch"):
            step(np.zeros((2, 2)), half_mixing(), 0.1, identity_game(3))

    def test_plain_array_mixing_matrix_refused(self):
        # step() and run() take the same inputs: a MixingMatrix, not its array
        g = random_game(4, 0)
        w = metropolis_weights(ring(4))
        x_mat = initial_estimates(4, 0)
        for call in (
            lambda: step(x_mat, w.w, 0.03, g),
            lambda: run(g, w.w, 0.03, x_mat, max_iters=1),
        ):
            with pytest.raises(TypeError, match="expected a MixingMatrix, got ndarray"):
                call()


#: Unit roundoff of float64.
UNIT_ROUNDOFF = 2.0**-53


def exact_own_gradient(game, x, i):
    """dJ_i/dx_i at row i of ``x``, exactly: ``sum_j A[i, j] x[i, j] + b_i``
    over the floats' rational values."""
    a = game.mapping_matrix
    return sum(Fraction(a[i, j]) * Fraction(x[i, j]) for j in range(game.n)) + Fraction(game.b[i])


class TestOwnGradientKernel:
    """The own gradients are one BLAS dot a row (np.vecdot): right to within a
    dot product's rounding bound, the bits of the per-row 1-D dot however
    the operands are stacked or strided, and the same bytes for one or two
    BLAS threads."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(2, 120),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
    )
    @example(n=90, seed=5, scale=1.0)
    @example(n=91, seed=6, scale=1e3)
    @example(n=120, seed=7, scale=1e-3)
    def test_within_a_dot_product_bound_of_the_exact_gradient(self, n, seed, scale):
        # n crosses 91, where run()'s chunk becomes one state and
        # _own_gradient computes each state's gradients
        game = random_game(n, seed % 1000)
        x = scale * np.random.default_rng(seed).uniform(-1.0, 1.0, (n, n))
        w = metropolis_weights(ring(n) if n >= 3 else complete(n))
        g = dynamics._own_gradient(game, x)
        g_step = step_gradient(x, w, game)  # through two more roundings
        mixed = np.abs(np.diagonal(w.w @ x))
        a = game.mapping_matrix
        for i in range(n):
            exact = exact_own_gradient(game, x, i)
            # |fl(a . x) - a . x| <= gamma_n sum |a_j x_j|, in any order of
            # the sum, and adding b_i rounds once more
            magnitude = float(np.abs(a[i]) @ np.abs(x[i])) + abs(game.b[i])
            bound = (n + 2) * UNIT_ROUNDOFF * magnitude
            assert abs(Fraction(g[i]) - exact) <= bound
            # step() subtracts g_i from (W x)_ii, and step_gradient subtracts
            # that from (W x)_ii again
            slack = 4 * UNIT_ROUNDOFF * (mixed[i] + abs(g[i]))
            assert abs(Fraction(g_step[i]) - exact) <= bound + slack

    @pytest.mark.parametrize("n", [2, 3, 7, 20, 64, 90, 91, 120, 250, 1000])
    def test_stacked_and_strided_rows_equal_the_one_dimensional_dot(self, n):
        rng = np.random.default_rng(n)
        u, v = rng.uniform(-1.0, 1.0, (2, 3, 5, n))
        buffer = np.empty((3, 5, 2 * n))
        buffer[..., ::2] = v  # strided: every other entry of a buffer
        x_star = rng.uniform(-1.0, 1.0, n)  # broadcast over the stack
        cases = [(u, v), (u, buffer[..., ::2]), (u[:, :1], v), (u - x_star, u - x_star)]
        for left, right in cases:
            rows = np.vecdot(left, right)
            left, right = np.broadcast_arrays(left, right)
            for index in np.ndindex(rows.shape):
                assert rows[index] == left[index] @ right[index]
        # written through out= into a row of a stack, as run()'s chunk path does
        held = np.full((4, 3, 5, n), np.nan)
        np.vecdot(u, v, out=held[2, :, :, 0])
        for index in np.ndindex(3, 5):
            assert held[(2, *index, 0)] == u[index] @ v[index]

    def test_gradient_bytes_do_not_depend_on_blas_threads(self):
        # OpenBLAS threads a dot only above 10,000 entries, so rows of up to
        # 2000 do not; step() at n = 1000 applies a tree's W through CSR.
        # (A dense W @ x, as at n = 150, can differ between thread counts.)
        script = (
            "import hashlib\n"
            "from gradplay import initial_estimates, metropolis_weights, random_game, random_tree, step\n"
            "from gradplay.dynamics import _own_gradient\n"
            "digest = lambda a: hashlib.sha256(a.tobytes()).hexdigest()\n"
            "for n in (150, 1000):\n"
            "    game, x = random_game(n, 3), initial_estimates(n, 2)\n"
            "    print(n, digest(_own_gradient(game, x)))\n"
            "w = metropolis_weights(random_tree(1000, 1))\n"
            "print('step', digest(step(x, w, 0.05, game)))\n"
        )
        src = str(Path(dynamics.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = dict(
                os.environ,
                PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""),
                OPENBLAS_NUM_THREADS=threads,
                OMP_NUM_THREADS=threads,
            )
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, timeout=120, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout)
        assert digests[0] == digests[1] and digests[0].count("\n") == 3


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
        x_star_mat = np.tile(solve_nash_equilibrium(g), (8, 1))
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

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            step(np.eye(2), half_mixing(), 0.0, identity_game(2))
        with pytest.raises(ValueError):
            step(np.eye(2), half_mixing(), -0.1, identity_game(2))


class TestRunningAverage:
    def test_recursion_both_sides_independent(self):
        # after one step the column means must shift by exactly -(alpha/n) * g
        g = random_game(7, 6)
        w = metropolis_weights(random_tree(7, 2))
        alpha = 0.04
        x_mat = initial_estimates(7, 3)
        for _ in range(25):
            lhs = step(x_mat, w, alpha, g).mean(axis=0)
            rhs = x_mat.mean(axis=0) - (alpha / 7) * own_gradient(g, x_mat)
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * (1 + np.linalg.norm(rhs))
            x_mat = step(x_mat, w, alpha, g)


class TestRun:
    def test_consensual_start_terminates_immediately(self):
        g = random_game(5, 7)
        w = metropolis_weights(star(5))
        x0 = np.tile(solve_nash_equilibrium(g), (5, 1))
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
        # the horizon crosses two block boundaries, where a row's slacks
        # compare it with the last row of the block before; the 240 ring
        # steps one state a chunk, through CSR
        alpha = 0.01
        for n, topology in [(6, "tree"), (20, "tree"), (240, "ring")]:
            g = random_game(n, 11)
            consts = estimate_constants(g)
            w = metropolis_weights(build_graph(topology, n, 11))
            _, trace = run(g, w, alpha, initial_estimates(n, 11), max_iters=2 * dynamics._BLOCK + 37)
            assert math.isnan(trace[0].lemma1_slack) and math.isnan(trace[0].lemma3_slack)
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
        d0 = np.linalg.norm(x0 - np.tile(solve_nash_equilibrium(g), (5, 1)))
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
        # and 1e200 entries: each finite, but the distance sums to inf
        for start in (x0, np.full((4, 4), 1e200)):
            with pytest.raises(DivergenceError) as excinfo:
                run(g, w, 0.01, start, max_iters=50)
            # the t = 0 row is recorded before the stop
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
        assert dynamics.TRACE_COLUMNS == tuple(SPEC_HEADER.split(","))
        assert trace.dtype.names == dynamics.TRACE_COLUMNS + ("recursion_residual",)
        assert trace_to_csv(trace).splitlines()[0] == SPEC_HEADER
        assert all(line.count(",") == 7 for line in trace_to_csv(trace).splitlines())
        assert list(trace.t) == list(range(8))
        assert trace.distance_to_ne.tolist() == [row.distance_to_ne for row in trace]
        assert trace[-1].distance_to_ne == trace.distance_to_ne[-1]

    def test_shorter_horizon_is_a_prefix(self):
        # horizons that end a chunk or a block exactly, or one state into the
        # next; chunks of 256, 64 and one state (the 240 ring is CSR)
        for n, topology in ((6, "tree"), (20, "tree"), (240, "ring")):
            g = random_game(n, 8)
            w = metropolis_weights(build_graph(topology, n, 8))
            chunk, block = dynamics._record_spans(n)
            final, full = run(g, w, 0.03, initial_estimates(n, 8), max_iters=2 * block + 5)
            assert len(full) == 2 * block + 6
            horizons = {0, chunk - 1, chunk, 2 * chunk - 1, block - 1, block, 2 * block - 1}
            for iters in sorted(horizons):
                end, trace = run(g, w, 0.03, initial_estimates(n, 8), max_iters=iters)
                for name in trace.dtype.names:
                    np.testing.assert_array_equal(trace[name], full[name][: iters + 1])
                if iters == 2 * block - 1:
                    np.testing.assert_array_equal(run(g, w, 0.03, end, max_iters=6)[0], final)

    @pytest.mark.parametrize("n, topology", [(6, "tree"), (20, "tree"), (240, "ring")])
    def test_tol_stop_inside_a_chunk(self, n, topology):
        # the run stops at the first state within tol, mid-chunk where a
        # chunk holds more than one state: the rows after it are dropped and
        # the final state is that state
        g = random_game(n, 8)
        w = metropolis_weights(build_graph(topology, n, 8))
        x0 = initial_estimates(n, 8)
        chunk, block = dynamics._record_spans(n)
        _, full = run(g, w, 0.03, x0, max_iters=block + 100)
        stop = block + 37
        assert chunk == 1 or stop % chunk not in (0, chunk - 1)
        tol = full.distance_to_ne[stop]
        assert np.all(full.distance_to_ne[:stop] > tol)
        final, trace = run(g, w, 0.03, x0, max_iters=block + 100, tol=tol)
        assert len(trace) == stop + 1
        for name in trace.dtype.names:
            np.testing.assert_array_equal(trace[name], full[name][: stop + 1])
        np.testing.assert_array_equal(final, run(g, w, 0.03, x0, max_iters=stop)[0])

    @pytest.mark.parametrize("n", [20, 100])
    def test_layout_of_x0_does_not_change_the_trace(self, n):
        # a stacked chunk (n = 20) and a one-state chunk (n = 100) both sum
        # the column means of a C-ordered state
        g = random_game(n, 8)
        w = metropolis_weights(random_tree(n, 8))
        x0 = initial_estimates(n, 8)
        final, trace = run(g, w, 0.03, x0, max_iters=70)
        final_f, trace_f = run(g, w, 0.03, np.asfortranarray(x0), max_iters=70)
        np.testing.assert_array_equal(final_f, final)
        for name in trace.dtype.names:
            np.testing.assert_array_equal(trace_f[name], trace[name])

    def test_record_spans_bound_the_held_states(self):
        # allocates nothing: a chunk's stacked states fit the byte budget
        # unless it is one state, held as it is, as at n = 1000
        for n in range(2, 2001):
            chunk, block = dynamics._record_spans(n)
            assert block == dynamics._BLOCK and block % chunk == 0
            assert chunk == 1 or chunk * 8 * n * n <= dynamics._CHUNK_BYTES
        assert dynamics._record_spans(20)[0] == 64
        assert dynamics._record_spans(1000)[0] == 1

    @pytest.mark.parametrize(
        "n, iters, alpha, tol",
        [(6, 0, 0.03, 0.0), (6, 255, 0.03, 0.0), (6, 600, 0.03, 0.0), (20, 700, 0.03, 5.3783),
         (100, 300, 0.03, 0.0), (5, 3000, 80.0, 0.0)],
    )
    def test_row_blocks_concatenate_to_the_trace(self, n, iters, alpha, tol):
        # each finished block is passed once, in order, and the blocks are
        # the returned (or the partial) trace bit for bit, NaN included; the
        # runs end at a block's end, mid-block, on tol (401 rows) and by
        # divergence (7 rows)
        g = random_game(n, 8)
        w = metropolis_weights(random_tree(n, 8))

        def trace_of(**rows):
            try:
                return run(g, w, alpha, initial_estimates(n, 8), max_iters=iters, tol=tol, **rows)[1]
            except DivergenceError as exc:
                return exc.trace

        blocks = []
        trace = trace_of(rows=blocks.append)
        # run()'s docstring promises record arrays, blocks and trace alike
        assert all(isinstance(block, np.recarray) for block in blocks)
        assert isinstance(trace, np.recarray)
        assert [len(block) for block in blocks[:-1]] == [dynamics._BLOCK] * (len(blocks) - 1)
        assert 0 < len(blocks[-1]) <= dynamics._BLOCK
        joined = np.concatenate(blocks)
        assert joined.tobytes() == trace.tobytes() == trace_of().tobytes()
        assert np.array_equal(joined["t"], np.arange(len(trace)))
        assert np.isnan(joined["lemma1_slack"][0]) and np.isnan(joined["lemma3_slack"][0])

    @pytest.mark.parametrize("n, iters", [(6, 600), (100, 300)])
    def test_fixed_horizon_blocks_are_rows_of_the_trace(self, n, iters):
        # a fixed horizon writes each block into its rows of one trace array,
        # and hands the caller those rows; a tol run keeps blocks of its own
        g = random_game(n, 8)
        w = metropolis_weights(random_tree(n, 8))
        for tol, shared in ((0.0, True), (1e-300, False)):
            blocks = []
            _, trace = run(g, w, 0.03, initial_estimates(n, 8), max_iters=iters, tol=tol, rows=blocks.append)
            assert len(trace) == iters + 1
            assert [np.shares_memory(block, trace) for block in blocks] == [shared] * len(blocks)

    def test_fixed_horizon_trace_is_the_only_row_storage(self):
        # run() allocates the rows of a fixed horizon once, and copies no
        # block into a second trace
        g, w, x0 = random_game(5, 1), metropolis_weights(random_tree(5, 2)), initial_estimates(5, 3)
        run(g, w, 1e-3, x0, max_iters=10)
        tracemalloc.start()
        try:
            _, trace = run(g, w, 1e-3, x0, max_iters=50_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trace) == 50_001
        assert peak <= 1.1 * trace.nbytes

    def test_divergence_gives_the_same_rows_on_both_trace_layouts(self):
        # at a fixed horizon the partial trace is the first rows of the one
        # trace array; with tol > 0 (never reached here) it is the blocks
        # joined; both are the rows up to the divergence, bit for bit
        g = random_game(5, 8)
        w = metropolis_weights(random_tree(5, 8))
        partial = []
        for tol in (0.0, 1e-300):
            with pytest.raises(DivergenceError) as excinfo:
                run(g, w, 80.0, initial_estimates(5, 8), max_iters=3000, tol=tol)
            trace = excinfo.value.trace
            assert len(trace) == excinfo.value.iteration + 1 == 7
            assert np.array_equal(trace.t, np.arange(7))
            partial.append(trace.tobytes())
        assert partial[0] == partial[1]

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
        with pytest.raises(ValueError, match="max_iters must be >= 0, got -1"):
            run(g, w, 0.1, np.zeros((4, 4)), max_iters=-1)
        # a NaN tol once ran the fixed horizon; 2.5 steps failed in allocation
        with pytest.raises(ValueError, match="tolerance must be >= 0, got nan"):
            run(g, w, 0.1, np.zeros((4, 4)), max_iters=10, tol=math.nan)
        for bad in (2.5, "3", None):
            with pytest.raises(ValueError, match=f"max_iters must be an integer, got {bad!r}"):
                run(g, w, 0.1, np.zeros((4, 4)), max_iters=bad)
        _, trace = run(g, w, 0.1, np.zeros((4, 4)), max_iters=np.int64(3))
        assert len(trace) == 4
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
    x_star_mat = np.tile(x_star, (n, 1))
    x = np.array(x0, dtype=float)
    rows = []
    for t in range(iters + 1):
        avg = x.mean(axis=0)
        g = own_gradient(game, x)
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


def step_replay_final(game, w, alpha, x0, iters):
    """The state after ``iters`` public ``step()`` calls from ``x0``."""
    x = np.array(x0, dtype=float)
    for _ in range(iters):
        x = step(x, w, alpha, game)
    return x


class TestInPlaceStep:
    """Where a chunk holds more than one state, run() steps in place into
    one buffer per run.  Its states and norms must equal, bit for bit, those
    of states advanced one at a time by the public step(), and its final
    state must be the caller's own array, not a slot of that buffer."""

    NORMS = (
        "consensus_violation",
        "distance_to_ne",
        "avg_distance_to_ne",
        "grad_norm",
    )

    @staticmethod
    def setup_case(n, topology="tree"):
        game = random_game(n, 8)
        w = metropolis_weights(build_graph(topology, n, 8))
        return game, w, initial_estimates(n, 8)

    def check_final(self, final, expected):
        assert final.base is None and final.flags.c_contiguous and final.flags.owndata
        np.testing.assert_array_equal(final, expected)

    def check_horizons(self, game, w, x0):
        chunk, _ = dynamics._record_spans(game.n)
        assert chunk > 1 and isinstance(w.operator, np.ndarray)
        for iters in sorted({0, 1, 2, chunk - 1, chunk, chunk + 1}):
            final, trace = run(game, w, 0.03, x0, max_iters=iters)
            assert len(trace) == iters + 1
            self.check_final(final, step_replay_final(game, w, 0.03, x0, iters))
            ref = reference_norm_columns(game, w, 0.03, x0, iters)
            for k, name in enumerate(self.NORMS):
                np.testing.assert_array_equal(trace[name], ref[:, k])

    # the row lengths where numpy's pairwise sum and the chunk size change
    @pytest.mark.parametrize("n", [2, 6, 7, 15, 20, 64, 90])
    def test_horizons_around_a_chunk_match_step_replay(self, n):
        self.check_horizons(*self.setup_case(n))

    @pytest.mark.parametrize("n", [5, 20, 64])
    def test_fortran_ordered_w_matches_step_replay(self, n):
        # MixingMatrix keeps the order it is given: run()'s ndarray.dot must
        # match step()'s @ on a Fortran-ordered w too
        game, w, x0 = self.setup_case(n)
        w_f = MixingMatrix(np.asfortranarray(w.w))
        assert w_f.w.flags.f_contiguous and not w_f.w.flags.c_contiguous
        self.check_horizons(game, w_f, x0)

    def test_tol_stop_inside_a_chunk_matches_step_replay(self):
        game, w, x0 = self.setup_case(20)
        chunk, _ = dynamics._record_spans(20)
        _, full = run(game, w, 0.03, x0, max_iters=3 * chunk)
        stop = chunk + chunk // 2 + 3
        final, trace = run(game, w, 0.03, x0, max_iters=3 * chunk, tol=full.distance_to_ne[stop])
        assert len(trace) == stop + 1 and 0 < stop % chunk < chunk - 1
        self.check_final(final, step_replay_final(game, w, 0.03, x0, stop))

    def test_divergence_inside_a_chunk_matches_step_replay(self):
        game, w, x0 = self.setup_case(20)
        chunk, block = dynamics._record_spans(20)
        with pytest.raises(DivergenceError) as excinfo:
            run(game, w, 0.7, x0, max_iters=3 * block)
        t = excinfo.value.iteration
        assert 0 < t % chunk < chunk - 1
        ref = reference_norm_columns(game, w, 0.7, x0, t)
        for k, name in enumerate(self.NORMS):
            np.testing.assert_array_equal(excinfo.value.trace[name], ref[:, k])

    def test_fortran_ordered_x0_is_read_not_written(self):
        game, w, x0 = self.setup_case(20)
        chunk, _ = dynamics._record_spans(20)
        x0_f = np.asfortranarray(x0)
        final, trace = run(game, w, 0.03, x0_f, max_iters=chunk + 1)
        np.testing.assert_array_equal(x0_f, x0)
        self.check_final(final, step_replay_final(game, w, 0.03, x0, chunk + 1))
        np.testing.assert_array_equal(
            trace.distance_to_ne, reference_norm_columns(game, w, 0.03, x0, chunk + 1)[:, 1]
        )

    @pytest.mark.parametrize("n, topology", [(20, "tree"), (100, "tree"), (240, "ring")])
    def test_final_state_owns_its_data(self, n, topology):
        # a copy of the last slot where a chunk holds several states, so it
        # neither pins the run's buffer nor shares memory with it
        game, w, x0 = self.setup_case(n, topology)
        final, _ = run(game, w, 0.03, x0, max_iters=5)
        self.check_final(final, step_replay_final(game, w, 0.03, x0, 5))

    def test_multi_state_chunks_never_meet_a_sparse_operator(self):
        # The in-place path needs out=, which a CSR operator lacks.  sigma < 1
        # needs a connected support: at least 2(n - 1) off-diagonal nonzeros
        # (3n - 2 in all for Metropolis weights, whose diagonal is positive).
        # The CSR rule SPARSE_FILL_RATIO * nnz <= n**2 cannot hold at that
        # count wherever a chunk holds more than one state.
        from gradplay.network import SPARSE_FILL_RATIO

        for n in range(2, 2001):
            if dynamics._record_spans(n)[0] > 1:
                assert SPARSE_FILL_RATIO * 2 * (n - 1) > n * n
        assert dynamics._record_spans(90)[0] > 1 and dynamics._record_spans(91)[0] == 1
        for topology in ("tree", "ring", "star"):
            assert isinstance(metropolis_weights(build_graph(topology, 90, 1)).operator, np.ndarray)

    def test_sparsest_valid_matrix_is_dense_where_a_chunk_holds_states(self):
        # Any valid MixingMatrix has at least 2 nonzeros per row: a row with
        # one nonzero, and so its column, is a permutation's, which forces
        # sigma = 1.  So SPARSE_FILL_RATIO * 2n > n**2 keeps every operator
        # dense wherever run() steps in place.
        from gradplay.network import SPARSE_FILL_RATIO

        in_place = [n for n in range(2, 2001) if dynamics._record_spans(n)[0] > 1]
        for n in in_place:
            assert SPARSE_FILL_RATIO * 2 * n > n * n
        # the sparsest valid matrix at the largest such n: 0.5 I + 0.5 P,
        # P a cyclic shift, with 2n nonzeros and sigma = cos(pi / n)
        n = max(in_place)
        w = MixingMatrix(0.5 * np.eye(n) + 0.5 * np.roll(np.eye(n), 1, axis=1))
        assert np.count_nonzero(w.w) == 2 * n
        assert w.sigma == pytest.approx(math.cos(math.pi / n), rel=1e-12)
        assert isinstance(w.operator, np.ndarray)


def lockstep_cells(n, specs):
    """Run inputs ``(game, w, alpha, x0)``, one per ``(topology, seed, alpha)``."""
    return [
        (
            random_game(n, seed),
            metropolis_weights(build_graph(topology, n, seed)),
            alpha,
            initial_estimates(n, seed + 1),
        )
        for topology, seed, alpha in specs
    ]


def outcome_of(cell, iters, **kwargs):
    """``run``'s ``(final, trace)``, or the DivergenceError it raised."""
    try:
        return run(*cell, max_iters=iters, **kwargs)
    except DivergenceError as exc:
        return exc


def assert_same_outcome(outcome, alone):
    assert type(outcome) is type(alone)
    if isinstance(alone, DivergenceError):
        assert (outcome.iteration, str(outcome)) == (alone.iteration, str(alone))
        trace, expected = outcome.trace, alone.trace
    else:
        (final, trace), (expected_final, expected) = outcome, alone
        assert final.shape == expected_final.shape and final.tobytes() == expected_final.tobytes()
        assert final.flags.owndata and final.flags.c_contiguous
    assert isinstance(trace, np.recarray) and trace.dtype == IterationTrace
    assert len(trace) == len(expected) and trace.tobytes() == expected.tobytes()


class TestLockstep:
    """A Lockstep group steps its cells together in one loop with a cell
    axis; every cell's own run() call must return, or raise, the bytes of
    that cell run alone."""

    # Four 90 x 90 cells a chunk of four states: groups form up to n = 90,
    # the largest n whose run alone steps a chunk of several states.
    WIDE_CHUNK_BYTES = 4 * 4 * 8 * 90 * 90

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(3, 90),
        specs=st.lists(
            st.tuples(
                st.sampled_from(("tree", "ring", "complete", "star")),
                st.integers(0, 2**16),
                st.sampled_from((0.03, 0.5, 1.0, 3.0)),
            ),
            min_size=2,
            max_size=4,
        ),
        iters=st.integers(0, dynamics._BLOCK - 1),
    )
    def test_a_group_gives_the_bytes_of_runs_alone(self, n, specs, iters):
        cells = lockstep_cells(n, specs)
        alone = [outcome_of(cell, iters) for cell in cells]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dynamics, "_CHUNK_BYTES", self.WIDE_CHUNK_BYTES)
            group = dynamics.Lockstep(cells, iters)
            # taken last cell first: the first call steps them all
            for cell, expected in reversed(list(zip(cells, alone))):
                assert_same_outcome(outcome_of(cell, iters, batch=group), expected)

    def test_stops_inside_a_chunk_and_at_the_horizon(self):
        # cells that diverge at different iterations of one chunk, and cells
        # that reach the horizon, over chunks of 4 states and blocks of 32
        specs = [(t, seed, a) for t in ("tree", "ring", "star") for seed, a in
                 enumerate((0.03, 0.7, 0.8, 0.9, 1.0))]
        cells = lockstep_cells(20, specs)
        assert dynamics._record_spans(20, len(cells)) == (4, 32)
        alone = [outcome_of(cell, 200) for cell in cells]
        stops = {exc.iteration for exc in alone if isinstance(exc, DivergenceError)}
        assert len(stops) > 3 and len({t % 4 for t in stops}) > 1
        assert any(not isinstance(outcome, DivergenceError) for outcome in alone)
        group = dynamics.Lockstep(cells, 200)
        for cell, expected in zip(cells, alone):
            assert_same_outcome(outcome_of(cell, 200, batch=group), expected)

    def test_refuses_inputs_that_are_not_a_cell_before_any_step(self, monkeypatch):
        cells = lockstep_cells(5, [("tree", 1, 0.03), ("ring", 2, 0.03)])
        alone = [outcome_of(cell, 20) for cell in cells]
        group = dynamics.Lockstep(cells, 20)
        steps = []
        iterate = dynamics._iterate
        monkeypatch.setattr(dynamics, "_iterate", lambda *a: steps.append(a) or iterate(*a))
        (game, w, alpha, x0), other = cells[0], lockstep_cells(5, [("star", 3, 0.03)])[0]
        for args, kwargs in [
            ((other[0], w, alpha, x0), {}),  # another game
            ((game, cells[1][1], alpha, x0), {}),  # another cell's matrix
            ((game, w, 0.04, x0), {}),  # another step size
            ((game, w, alpha, x0.copy()), {}),  # an equal array, not the cell's own
            ((game, w, alpha, x0), {"max_iters": 19}),
            ((game, w, alpha, x0), {"tol": 1e-3}),
        ]:
            with pytest.raises(ValueError, match="not a cell of this Lockstep group"):
                run(*args, **{"max_iters": 20, **kwargs}, batch=group)
        with pytest.raises(ValueError, match="takes no rows callback"):
            run(*cells[0], max_iters=20, rows=lambda block: None, batch=group)
        assert steps == []
        # the group still serves each of its cells, once, from one stepping
        for cell, expected in zip(cells, alone):
            assert_same_outcome(outcome_of(cell, 20, batch=group), expected)
        assert len(steps) == 1
        with pytest.raises(ValueError, match="not a cell of this Lockstep group yet to be taken"):
            run(*cells[0], max_iters=20, batch=group)

    def test_refuses_cells_that_do_not_form_a_group(self):
        five = lockstep_cells(5, [("tree", 1, 0.03), ("ring", 2, 0.03)])
        large = lockstep_cells(91, [("tree", 1, 0.03), ("ring", 2, 0.03)])
        for cells, iters in [
            (five[:1], 20),  # one run is a run alone
            (five + lockstep_cells(6, [("tree", 1, 0.03)]), 20),  # two sizes
            (five, dynamics._BLOCK),  # a horizon of more than one block
            (large, 5),  # no chunk of four stacked states within _CHUNK_BYTES
        ]:
            with pytest.raises(ValueError, match="do not form a Lockstep group"):
                dynamics.Lockstep(cells, iters)
        game, w, alpha, x0 = five[0]
        with pytest.raises(ValueError, match="step size"):
            dynamics.Lockstep([five[1], (game, w, math.nan, x0)], 20)
        with pytest.raises(ValueError, match="x0 has shape"):
            dynamics.Lockstep([five[1], (game, w, alpha, x0[:3])], 20)
        with pytest.raises(TypeError, match="MixingMatrix"):
            dynamics.Lockstep([five[1], (game, w.w, alpha, x0)], 20)
        with pytest.raises(ValueError, match="max_iters must be >= 0"):
            dynamics.Lockstep(five, -1)

    def test_fits_bounds_the_held_states(self):
        # a group's chunk of stacked states, and its block of column means
        # and gradients, stay within the budget of a run alone's chunk, and
        # its trace within one _BLOCK a cell
        assert dynamics.Lockstep.fits(20, 20, 200) and dynamics.Lockstep.fits(23, 15, 200)
        assert not dynamics.Lockstep.fits(21, 20, 200) and not dynamics.Lockstep.fits(24, 15, 200)
        assert not dynamics.Lockstep.fits(20, 15, dynamics._BLOCK)
        assert not dynamics.Lockstep.fits(20, 1, 200)
        for n in range(2, 100):
            for cells in range(2, 40):
                chunk, block = dynamics._record_spans(n, cells)
                if dynamics.Lockstep.fits(n, cells, 0):
                    assert 4 <= chunk and chunk * cells * 8 * n * n <= dynamics._CHUNK_BYTES
                    assert dynamics._BLOCK % block == 0 and block % chunk == 0
                    assert block == chunk or 2 * block * cells * 8 * n <= dynamics._CHUNK_BYTES


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
        assert isinstance(w.operator, _CsrOperator)
        self.check(random_game(240, 21), w, 0.02, initial_estimates(240, 22), 30)


#: The smallest n whose one-state chunks run() reduces on a worker thread.
OVERLAP_N = math.isqrt(dynamics._OVERLAP_FLOATS - 1) + 1


class TestOverlappedNorms:
    """From _OVERLAP_FLOATS a worker thread reduces the norms of state t while
    run() steps to t + 1.  The trace, the final state, a tol stop and a
    divergence must be those of the one-thread reference to the bit, and no
    thread may outlive the call."""

    NORMS = ("consensus_violation", "distance_to_ne", "avg_distance_to_ne", "grad_norm")
    # at the threshold (a dense operator) and above it (CSR)
    SIZES = [OVERLAP_N, 250]

    @staticmethod
    def setup_case(n):
        game = random_game(n, 8)
        w = metropolis_weights(build_graph("tree", n, 8))
        return game, w, initial_estimates(n, 8)

    @staticmethod
    def assert_same_rows(trace, expected):
        for name in IterationTrace.names:  # NaN equals NaN column by column
            np.testing.assert_array_equal(trace[name], expected[name])

    @staticmethod
    def threads_during(*args, **kwargs):
        """run()'s result and the threads alive while it called ``rows``."""
        seen = []
        result = run(*args, **kwargs, rows=lambda block: seen.append(threading.active_count()))
        return result, set(seen)

    def test_sizes_straddle_the_csr_switch(self):
        assert dynamics._record_spans(OVERLAP_N - 1)[0] == 1
        assert (OVERLAP_N - 1) ** 2 < dynamics._OVERLAP_FLOATS <= OVERLAP_N**2
        assert isinstance(self.setup_case(OVERLAP_N)[1].operator, np.ndarray)
        assert isinstance(self.setup_case(250)[1].operator, _CsrOperator)

    @pytest.mark.parametrize("n, extra", [(OVERLAP_N - 1, 0), (OVERLAP_N, 1), (250, 1)])
    def test_the_worker_runs_from_the_threshold(self, n, extra):
        game, w, x0 = self.setup_case(n)
        before = threading.active_count()
        _, seen = self.threads_during(game, w, 0.03, x0, 3)
        assert seen == {before + extra}
        assert threading.active_count() == before

    @pytest.mark.parametrize("n", SIZES)
    def test_norm_columns_and_final_state_match_step_replay(self, n, monkeypatch):
        game, w, x0 = self.setup_case(n)
        update, steps = dynamics._update, []
        monkeypatch.setattr(dynamics, "_update", lambda *args: steps.append(1) or update(*args))
        for iters in (0, 1, 17):
            steps.clear()
            final, trace = run(game, w, 0.03, x0, max_iters=iters)
            assert len(steps) == iters  # no step past the horizon
            ref = reference_norm_columns(game, w, 0.03, x0, iters)
            for k, name in enumerate(self.NORMS):
                np.testing.assert_array_equal(trace[name], ref[:, k])
            assert final.base is None and final.flags.c_contiguous and final.flags.owndata
            np.testing.assert_array_equal(final, step_replay_final(game, w, 0.03, x0, iters))

    @pytest.mark.parametrize("n", SIZES)
    def test_tol_stop_returns_the_state_it_stopped_at(self, n):
        # the state computed ahead of the stop is dropped
        game, w, x0 = self.setup_case(n)
        _, full = run(game, w, 0.03, x0, max_iters=40)
        tol = full.distance_to_ne[23]
        stop = int(np.argmax(full.distance_to_ne <= tol))
        final, trace = run(game, w, 0.03, x0, max_iters=40, tol=tol)
        assert len(trace) == stop + 1 and stop < 40
        self.assert_same_rows(trace, full[: stop + 1])
        np.testing.assert_array_equal(final, step_replay_final(game, w, 0.03, x0, stop))

    @pytest.mark.parametrize("n", SIZES)
    def test_divergence_matches_the_reference(self, n, monkeypatch):
        game, w, x0 = self.setup_case(n)
        with pytest.raises(DivergenceError) as excinfo:
            run(game, w, 2.0, x0, max_iters=60)
        monkeypatch.setattr(dynamics, "_OVERLAP_FLOATS", math.inf)  # one thread
        with pytest.raises(DivergenceError) as reference:
            run(game, w, 2.0, x0, max_iters=60)
        t = excinfo.value.iteration
        assert 0 < t == reference.value.iteration < 60
        ref = reference_norm_columns(game, w, 2.0, x0, t)
        for k, name in enumerate(self.NORMS):
            np.testing.assert_array_equal(excinfo.value.trace[name], ref[:, k])
        self.assert_same_rows(excinfo.value.trace, reference.value.trace)

    @pytest.mark.parametrize("n", SIZES)
    def test_overflowing_run_warns_nothing(self, n, recwarn):
        # numpy's errstate is per thread: the worker sets the run's own
        game, w, x0 = self.setup_case(n)
        with pytest.raises(DivergenceError) as excinfo:
            run(game, w, 1e300, x0, max_iters=50)
        assert not math.isfinite(excinfo.value.trace[-1].distance_to_ne)
        assert not [wn for wn in recwarn if issubclass(wn.category, RuntimeWarning)]

    def test_no_thread_outlives_the_run(self):
        game, w, x0 = self.setup_case(250)
        before = threading.active_count()
        run(game, w, 0.03, x0, max_iters=5)
        assert threading.active_count() == before
        with pytest.raises(DivergenceError):
            run(game, w, 2.0, x0, max_iters=60)
        assert threading.active_count() == before

        def full_disk(block):
            raise OSError(28, "No space left on device")

        for iters in (5, 300):  # the last block, and a block before it
            with pytest.raises(OSError, match="No space"):
                run(game, w, 0.03, x0, max_iters=iters, rows=full_disk)
            assert threading.active_count() == before

    def test_concurrent_runs_under_a_short_switch_interval(self):
        # more runs than cores, each with its own worker: a hand-over lost
        # between a caller and its worker shows as a wrong row or a hang
        game, w, x0 = self.setup_case(250)
        _, expected = run(game, w, 0.03, x0, max_iters=12)
        traces = {}

        def one(k):
            traces[k] = run(game, w, 0.03, x0, max_iters=12)[1]

        callers = [threading.Thread(target=one, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert sorted(traces) == [0, 1, 2, 3]
        for trace in traces.values():
            self.assert_same_rows(trace, expected)

    def test_a_worker_exception_reaches_the_caller_unchanged(self, monkeypatch):
        game, w, x0 = self.setup_case(250)
        chunk_norms, boom = dynamics._chunk_norms, ArithmeticError("boom")
        calls = []

        def failing(xs, *args):
            calls.append(threading.current_thread())
            if len(calls) == 3:
                raise boom
            return chunk_norms(xs, *args)

        monkeypatch.setattr(dynamics, "_chunk_norms", failing)
        before = threading.active_count()
        with pytest.raises(ArithmeticError) as excinfo:
            run(game, w, 0.03, x0, max_iters=10)
        assert excinfo.value is boom
        assert len(calls) == 3 and threading.main_thread() not in calls
        assert threading.active_count() == before


class TestSparseOperator:
    """Sparse graphs are iterated through a CSR operator; the dense product
    is the reference."""

    NORMS = ("consensus_violation", "distance_to_ne", "avg_distance_to_ne", "grad_norm")

    @pytest.mark.parametrize("graph", [ring(240), star(300)], ids=["ring240", "star300"])
    def test_run_matches_dense_loop(self, graph):
        n, alpha, iters = graph.n, 0.02, 40
        g = random_game(n, 21)
        w = metropolis_weights(graph)
        assert isinstance(w.operator, _CsrOperator)
        x0 = initial_estimates(n, 22)
        final, trace = run(g, w, alpha, x0, max_iters=iters)
        ref_final, ref_norms = dense_reference_run(g, w.w, alpha, x0, iters)
        assert_allclose(final, ref_final, rtol=1e-12, atol=1e-14)
        for k, name in enumerate(self.NORMS):
            assert_allclose(trace[name], ref_norms[:, k], rtol=1e-12)

    def test_step_applies_the_operator(self):
        g = random_game(240, 4)
        w = metropolis_weights(ring(240))
        assert isinstance(w.operator, _CsrOperator)
        x = initial_estimates(240, 5)
        expected = w.w @ x
        expected[np.diag_indices(240)] -= 0.05 * own_gradient(g, x)
        assert_allclose(step(x, w, 0.05, g), expected, rtol=1e-12, atol=1e-14)


class TestInitialEstimates:
    def test_uniform_deterministic_and_bounded(self):
        x1 = initial_estimates(9, 4)
        x2 = initial_estimates(9, 4)
        assert np.array_equal(x1, x2)
        assert np.all(np.abs(x1) <= 1.0)


class TestTraceCsv:
    def test_header_matches_contract(self):
        g = random_game(4, 3)
        w = metropolis_weights(star(4))
        _, trace = run(g, w, 1e-3, initial_estimates(4, 0), max_iters=3)
        text = trace_to_csv(trace)
        assert text.splitlines()[0] == SPEC_HEADER
        assert len(text.splitlines()) == len(trace) + 1
        # no rows give the header line alone, with no blank line after it
        assert trace_to_csv(trace[:0]) == SPEC_HEADER + "\n"

    @pytest.mark.parametrize("iters", [0, 2, 3, 4, 10])
    def test_blocks_write_the_whole_text(self, iters, monkeypatch):
        # run()'s blocks of 4 rows, each formatted as it finishes, give the
        # text of the whole trace at once
        monkeypatch.setattr(dynamics, "_BLOCK", 4)
        g = random_game(4, 3)
        w = metropolis_weights(star(4))
        blocks = []
        _, trace = run(g, w, 1e-3, initial_estimates(4, 0), max_iters=iters, rows=blocks.append)
        columns = [map(repr, trace[name].tolist()) for name in dynamics.TRACE_COLUMNS]
        whole = "\n".join([SPEC_HEADER, *map(",".join, zip(*columns))]) + "\n"
        text = SPEC_HEADER + "\n" + "".join(map(dynamics._csv_rows, blocks))
        assert text == trace_to_csv(trace) == whole
        assert len(blocks) == math.ceil(len(trace) / 4)

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
