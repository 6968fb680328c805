import io
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gradplay import (
    NotStronglyMonotoneError,
    QuadraticGame,
    estimate_constants,
    game_mapping,
    random_game,
    solve_nash_equilibrium,
)
from gradplay.game import _dump_game


def identity_game(n=2, b=None):
    return QuadraticGame(
        a=np.ones(n), b=np.zeros(n) if b is None else np.asarray(b, float), c=np.zeros((n, n))
    )


def hand_game():
    # n=2, a=(2,3), b=(1,-1), c12=0.5, c21=-0.5
    return QuadraticGame(
        a=np.array([2.0, 3.0]),
        b=np.array([1.0, -1.0]),
        c=np.array([[0.0, 0.5], [-0.5, 0.0]]),
    )


def own_gradient(game, i, x):
    """Player i's own partial gradient at the joint action x."""
    return float(game.a[i] * x[i] + game.b[i] + game.c[i] @ x)


def game_doc(game):
    """The plain document that ``game.json`` encodes."""
    doc = {
        "n": game.n,
        "a": game.a.tolist(),
        "b": game.b.tolist(),
        "c": game.c.ravel().tolist(),
    }
    if game.seed is not None:
        doc["seed"] = game.seed
    return doc


def dumped(game):
    out = io.StringIO()
    _dump_game(game, out)
    return out.getvalue()


def game_from_doc(doc):
    """Read ``game.json`` back, as the README describes."""
    n = doc["n"]
    return QuadraticGame(doc["a"], doc["b"], np.reshape(doc["c"], (n, n)), seed=doc.get("seed"))


def mapping_oracle(game, x):
    """Independent per-component scalar evaluation of the affine mapping."""
    n = game.n
    out = []
    for i in range(n):
        acc = game.a[i] * x[i] + game.b[i]
        for j in range(n):
            if j != i:
                acc += game.c[i, j] * x[j]
        out.append(acc)
    return np.array(out)


class TestGameMapping:
    def test_identity(self):
        g = identity_game()
        assert_allclose(game_mapping(g, np.array([3.0, -2.0])), [3.0, -2.0], rtol=0)

    def test_hand_example(self):
        g = hand_game()
        x = np.array([1.0, 1.0])
        got = game_mapping(g, x)
        assert_allclose(got, [3.5, 1.5], rtol=0, atol=0)
        assert_allclose(got, mapping_oracle(g, x), rtol=1e-15)

    def test_matches_scalar_oracle_random(self):
        rng = np.random.default_rng(7)
        for seed in range(10):
            g = random_game(6, seed)
            x = rng.uniform(-3, 3, 6)
            assert_allclose(game_mapping(g, x), mapping_oracle(g, x), rtol=1e-13)

    def test_zero_at_equilibrium(self):
        for seed in range(5):
            g = random_game(8, seed)
            x_star = solve_nash_equilibrium(g)
            norm_f = np.linalg.norm(game_mapping(g, x_star))
            assert norm_f <= 1e-10 * (1 + np.linalg.norm(g.b))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            game_mapping(identity_game(), np.zeros(3))

    def test_stack_gives_one_row_per_vector(self):
        g = random_game(6, 4)
        xs = np.random.default_rng(5).uniform(-3, 3, (9, 6))
        got = game_mapping(g, xs)
        assert got.shape == (9, 6)
        assert_allclose(got, [game_mapping(g, x) for x in xs], rtol=1e-15)
        assert game_mapping(g, xs[:0]).shape == (0, 6)

    @pytest.mark.parametrize("shape", [(4, 3), (3,), (2, 2, 2), ()])
    def test_stack_with_wrong_last_dimension_rejected(self, shape):
        with pytest.raises(ValueError, match="expected"):
            game_mapping(identity_game(), np.zeros(shape))


class TestLocalGradient:
    def test_identity(self):
        assert own_gradient(identity_game(), 0, np.array([5.0, 0.0])) == 5.0
        assert game_mapping(identity_game(), np.array([5.0, 0.0]))[0] == 5.0

    def test_hand_example(self):
        x = np.array([1.0, 1.0])
        assert own_gradient(hand_game(), 1, x) == pytest.approx(1.5, rel=1e-15)
        assert game_mapping(hand_game(), x)[1] == pytest.approx(1.5, rel=1e-15)

    def test_consistency_with_mapping(self):
        rng = np.random.default_rng(11)
        g = random_game(5, 0)
        for _ in range(100):
            x = rng.uniform(-4, 4, 5)
            f = game_mapping(g, x)
            for i in range(5):
                assert own_gradient(g, i, x) == pytest.approx(f[i], rel=1e-13, abs=1e-13)


def eig2_oracle(m):
    """Closed-form eigenvalues of a symmetric 2x2 matrix."""
    half_trace = (m[0, 0] + m[1, 1]) / 2
    radius = np.sqrt(((m[0, 0] - m[1, 1]) / 2) ** 2 + m[0, 1] * m[1, 0])
    return half_trace - radius, half_trace + radius


class TestEstimateConstants:
    def test_identity(self):
        consts = estimate_constants(identity_game(3))
        assert consts.mu == pytest.approx(1.0, rel=1e-12)
        assert_allclose(consts.l_per_player, np.ones(3), rtol=1e-12)
        assert consts.l == pytest.approx(1.0, rel=1e-12)
        assert consts.l_mapping == pytest.approx(np.sqrt(3), rel=1e-12)

    def test_symmetric_2x2(self):
        g = QuadraticGame(
            a=np.array([2.0, 2.0]),
            b=np.zeros(2),
            c=np.array([[0.0, 1.0], [1.0, 0.0]]),
        )
        lo, hi = eig2_oracle(g.mapping_matrix)  # symmetric already
        assert (lo, hi) == (1.0, 3.0)
        consts = estimate_constants(g)
        assert consts.mu == pytest.approx(lo, rel=1e-12)
        assert_allclose(consts.l_per_player, [np.sqrt(5)] * 2, rtol=1e-12)

    def test_derived_fields(self):
        consts = estimate_constants(random_game(9, 4))
        assert consts.l == pytest.approx(np.max(consts.l_per_player), rel=0)
        assert consts.l_mapping == pytest.approx(consts.l * np.sqrt(9), rel=1e-15)
        assert consts.kappa == pytest.approx(consts.l_mapping / consts.mu, rel=1e-15)
        assert consts.kappa >= 1.0

    def test_not_strongly_monotone(self):
        # Row-diagonally dominant yet indefinite symmetric part: the a-range
        # is deliberately wide so dominance alone cannot save it.
        g = QuadraticGame(
            a=np.array([1.0, 10.0]),
            b=np.zeros(2),
            c=np.array([[0.0, 0.9], [9.0, 0.0]]),
        )
        lo, _ = eig2_oracle((g.mapping_matrix + g.mapping_matrix.T) / 2)
        assert lo < 0
        with pytest.raises(NotStronglyMonotoneError):
            estimate_constants(g)

    def test_computed_once_per_game(self):
        g = random_game(9, 4)
        assert estimate_constants(g) is estimate_constants(g) is g.constants

    def test_not_strongly_monotone_raises_on_every_call(self):
        g = QuadraticGame(
            a=np.array([1.0, 10.0]),
            b=np.zeros(2),
            c=np.array([[0.0, 0.9], [9.0, 0.0]]),
        )
        for _ in range(2):
            with pytest.raises(NotStronglyMonotoneError):
                estimate_constants(g)

    def test_monotonicity_inner_product(self):
        rng = np.random.default_rng(3)
        g = random_game(12, 5)
        mu = estimate_constants(g).mu
        for _ in range(1000):
            u = rng.uniform(-5, 5, 12)
            v = rng.uniform(-5, 5, 12)
            du = u - v
            lhs = (game_mapping(g, u) - game_mapping(g, v)) @ du
            assert lhs >= mu * (du @ du) * (1 - 1e-9) - 1e-12

    def test_per_player_lipschitz_with_equality_direction(self):
        rng = np.random.default_rng(4)
        g = random_game(7, 2)
        consts = estimate_constants(g)
        a_mat = g.mapping_matrix
        for _ in range(200):
            x = rng.uniform(-5, 5, 7)
            y = rng.uniform(-5, 5, 7)
            i = int(rng.integers(0, 7))
            diff = abs(own_gradient(g, i, x) - own_gradient(g, i, y))
            assert diff <= consts.l_per_player[i] * np.linalg.norm(x - y) * (1 + 1e-12)
        # equality is attained when x - y is parallel to row i
        for i in range(7):
            y = rng.uniform(-2, 2, 7)
            x = y + 0.37 * a_mat[i]
            diff = abs(own_gradient(g, i, x) - own_gradient(g, i, y))
            assert diff == pytest.approx(
                consts.l_per_player[i] * np.linalg.norm(x - y), rel=1e-12
            )

    def test_mapping_lipschitz(self):
        rng = np.random.default_rng(5)
        g = random_game(10, 6)
        consts = estimate_constants(g)
        for _ in range(500):
            x = rng.uniform(-5, 5, 10)
            y = rng.uniform(-5, 5, 10)
            lhs = np.linalg.norm(game_mapping(g, x) - game_mapping(g, y))
            assert lhs <= consts.l_mapping * np.linalg.norm(x - y) * (1 + 1e-12)


def cramer_2x2_oracle(a_mat, rhs):
    det = a_mat[0, 0] * a_mat[1, 1] - a_mat[0, 1] * a_mat[1, 0]
    x0 = (rhs[0] * a_mat[1, 1] - a_mat[0, 1] * rhs[1]) / det
    x1 = (a_mat[0, 0] * rhs[1] - rhs[0] * a_mat[1, 0]) / det
    return np.array([x0, x1])


class TestSolveNashEquilibrium:
    def test_identity(self):
        g = identity_game(2, b=[-1.0, 2.0])
        assert_allclose(solve_nash_equilibrium(g), [1.0, -2.0], rtol=1e-14)

    def test_cramer_oracle(self):
        g = hand_game()
        expected = cramer_2x2_oracle(g.mapping_matrix, -g.b)
        assert_allclose(solve_nash_equilibrium(g), expected, rtol=1e-13)

    def test_singular_game_refused(self):
        # a_i = 1 and c symmetric with unit coupling: A = [[1, 1], [1, 1]]
        g = QuadraticGame(a=np.ones(2), b=np.zeros(2), c=np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            solve_nash_equilibrium(g)

    def test_two_methods_agree(self):
        for seed in range(10):
            g = random_game(15, seed)
            direct = solve_nash_equilibrium(g)
            lstsq = np.linalg.lstsq(g.mapping_matrix, -g.b, rcond=None)[0]
            assert np.linalg.norm(direct - lstsq) <= 1e-9 * (1 + np.linalg.norm(direct))

    def test_solved_once_returned_as_copy(self):
        g = random_game(8, 3)
        first = solve_nash_equilibrium(g)
        first[:] = 0.0
        second = solve_nash_equilibrium(g)
        assert np.array_equal(second, g.equilibrium)
        assert not np.array_equal(second, first)
        assert not g.equilibrium.flags.writeable

    def test_equilibrium_of_random_games(self):
        for seed in range(20):
            g = random_game(6, seed)
            x_star = solve_nash_equilibrium(g)
            assert_allclose(game_mapping(g, x_star), np.zeros(6), atol=1e-11)


class TestRandomGame:
    def test_deterministic_in_seed(self):
        g1, g2 = random_game(10, 42), random_game(10, 42)
        assert np.array_equal(g1.a, g2.a)
        assert np.array_equal(g1.b, g2.b)
        assert np.array_equal(g1.c, g2.c)

    def test_different_seeds_differ(self):
        assert not np.array_equal(random_game(10, 1).a, random_game(10, 2).a)

    def test_zero_coupling_is_diagonal(self):
        g = random_game(8, 0, coupling_scale=0.0)
        assert np.all(g.c == 0.0)
        consts = estimate_constants(g)
        assert consts.mu == pytest.approx(np.min(g.a), rel=1e-12)
        assert consts.mu >= 1.0

    def test_always_strongly_monotone(self):
        # eigenvalue check of the symmetric part runs inside estimate_constants
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            seed = int(rng.integers(0, 10_000))
            consts = estimate_constants(random_game(n, seed))
            assert consts.mu > 0

    def test_row_dominance(self):
        for seed in range(10):
            g = random_game(12, seed, coupling_scale=1.5)
            row_sums = np.sum(np.abs(g.c), axis=1)
            assert np.all(row_sums <= 0.9 * g.a + 1e-12)

    @pytest.mark.parametrize("scale", [0.0, 0.01, 0.2, 1.0, 5.0])
    def test_rescale_matches_per_row_loop(self, scale):
        for n in (2, 7, 40):
            g = random_game(n, n, coupling_scale=scale)
            rng = np.random.default_rng(n)
            a = rng.uniform(1.0, 2.0, n)
            rng.uniform(-1.0, 1.0, n)
            c = scale * rng.uniform(-1.0, 1.0, (n, n))
            np.fill_diagonal(c, 0.0)
            for i in range(n):
                row_sum = float(np.sum(np.abs(c[i])))
                if row_sum > 0.9 * a[i]:
                    c[i] *= 0.9 * a[i] / row_sum
            assert g.c.tobytes() == c.tobytes()

    def test_input_errors(self):
        with pytest.raises(ValueError):
            random_game(1, 0)
        with pytest.raises(ValueError):
            random_game(5, 0, coupling_scale=-0.1)
        for scale in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                random_game(5, 0, coupling_scale=scale)
        # each entry is finite, but a row sum of four of them overflows
        with pytest.raises(ValueError, match="overflows"):
            random_game(5, 0, coupling_scale=1e308)
        assert np.isfinite(random_game(2, 0, coupling_scale=1e308).c).all()


class TestConstruction:
    def test_nonzero_diagonal_rejected(self):
        c = np.zeros((2, 2))
        c[0, 0] = 1e-9
        with pytest.raises(ValueError):
            QuadraticGame(a=np.ones(2), b=np.zeros(2), c=c)

    def test_nonpositive_a_rejected(self):
        with pytest.raises(ValueError):
            QuadraticGame(a=np.array([1.0, 0.0]), b=np.zeros(2), c=np.zeros((2, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            QuadraticGame(a=np.ones(2), b=np.zeros(3), c=np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_b_rejected(self, bad):
        # A NaN b once passed the equilibrium residual test (NaN > tol is
        # False) and surfaced only as a divergence at t = 0.
        with pytest.raises(ValueError, match="finite"):
            QuadraticGame(a=np.ones(2), b=np.array([0.5, bad]), c=np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_c_rejected(self, bad):
        c = np.zeros((2, 2))
        c[0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            QuadraticGame(a=np.ones(2), b=np.zeros(2), c=c)

    def test_infinite_a_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            QuadraticGame(a=np.array([1.0, math.inf]), b=np.zeros(2), c=np.zeros((2, 2)))

    def test_arrays_immutable(self):
        g = identity_game()
        with pytest.raises(ValueError):
            g.a[0] = 2.0


class TestSerialization:
    def test_round_trip_bit_exact(self):
        g = random_game(9, 123, coupling_scale=0.37)
        g2 = game_from_doc(json.loads(dumped(g)))
        assert np.array_equal(g.a, g2.a)
        assert np.array_equal(g.b, g2.b)
        assert np.array_equal(g.c, g2.c)
        assert g2.seed == 123

    def test_file_round_trip(self, tmp_path):
        g = random_game(5, 7)
        path = tmp_path / "game.json"
        with open(path, "w", encoding="utf-8") as f:
            _dump_game(g, f)
        with open(path, encoding="utf-8") as f:
            g2 = game_from_doc(json.load(f))
        assert np.array_equal(g.a, g2.a)
        assert np.array_equal(g.c, g2.c)
        assert g2.seed == 7

    def test_dict_fields(self):
        doc = json.loads(dumped(hand_game()))
        assert list(doc) == ["n", "a", "b", "c"]
        assert doc["n"] == 2
        assert len(doc["c"]) == 4  # row-major n^2
        assert "seed" not in doc  # hand-built game has no provenance

    @pytest.mark.parametrize("n", [2, 20, 300])
    @pytest.mark.parametrize("seed", [None, 17])
    def test_streamed_file_equals_json_dump(self, n, seed, tmp_path):
        drawn = random_game(n, 5 if seed is None else seed)
        g = QuadraticGame(a=drawn.a, b=drawn.b, c=drawn.c, seed=seed)
        path = tmp_path / "game.json"
        with open(path, "w", encoding="utf-8") as f:
            _dump_game(g, f)
        expected = json.dumps(game_doc(g), indent=2) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")
        back = game_from_doc(json.loads(path.read_text()))
        assert np.array_equal(back.a, g.a) and np.array_equal(back.b, g.b)
        assert np.array_equal(back.c, g.c)
        assert back.seed == seed

    def test_streamed_extreme_floats_spelled_as_json_dump(self):
        g = QuadraticGame(
            a=np.array([1.0, 2.0, 3.0]),
            b=np.array([-0.0, 1.7976931348623157e308, -5e-324]),
            c=np.array([[0.0, -0.0, 1e-300], [5e-324, 0.0, 1e300], [0.1, 2.5, 0.0]]),
        )
        assert dumped(g) == json.dumps(game_doc(g), indent=2) + "\n"
