import numpy as np
import pytest
from numpy.testing import assert_allclose

from gradplay import (
    DisconnectedGraphError,
    Graph,
    MixingMatrix,
    average_property_check,
    complete,
    graph_to_edgelist,
    metropolis_weights,
    random_tree,
    ring,
    save_mixing_matrix,
    second_largest_singular_value,
    star,
)
from gradplay.network import SPARSE_FILL_RATIO


def sigma_eig_oracle(w):
    """For symmetric doubly stochastic W: drop the single top eigenvalue 1,
    return the largest remaining absolute eigenvalue."""
    eig = np.sort(np.linalg.eigvalsh(w))
    return max(abs(eig[0]), abs(eig[-2])) if len(eig) > 1 else 0.0


class TestGraphConstructors:
    def test_tree_two_nodes(self):
        assert random_tree(2, 0).edges == ((0, 1),)

    @pytest.mark.parametrize("n", [2, 5, 13, 40])
    def test_tree_shape(self, n):
        g = random_tree(n, 3)
        assert len(g.edges) == n - 1
        assert g.is_connected()

    def test_tree_deterministic(self):
        assert random_tree(17, 9).edges == random_tree(17, 9).edges
        assert random_tree(17, 9).edges != random_tree(17, 10).edges

    def test_complete_3(self):
        assert complete(3).edges == ((0, 1), (0, 2), (1, 2))

    def test_ring_4(self):
        g = ring(4)
        assert len(g.edges) == 4
        assert np.all(g.degrees == 2)

    def test_star_5(self):
        g = star(5)
        assert len(g.edges) == 4
        assert g.degrees[0] == 4
        assert np.all(g.degrees[1:] == 1)

    def test_size_minimums(self):
        with pytest.raises(ValueError):
            random_tree(1, 0)
        with pytest.raises(ValueError):
            ring(2)
        with pytest.raises(ValueError):
            complete(1)
        with pytest.raises(ValueError):
            star(1)

    def test_graph_validation(self):
        with pytest.raises(ValueError):
            Graph(n=3, edges=((0, 0),))  # self-loop
        with pytest.raises(ValueError):
            Graph(n=3, edges=((0, 3),))  # out of range
        with pytest.raises(ValueError, match="at least one node"):
            Graph(n=0, edges=())
        # symmetric storage: (2, 0) normalizes to (0, 2)
        assert Graph(n=3, edges=((2, 0),)).edges == ((0, 2),)

    def test_connectivity(self):
        assert not Graph(n=4, edges=((0, 1), (2, 3))).is_connected()
        assert Graph(n=4, edges=((0, 1), (1, 2), (2, 3))).is_connected()


class TestMetropolisWeights:
    def test_complete_two_is_exact_averaging(self):
        w = metropolis_weights(complete(2))
        assert_allclose(w.w, [[0.5, 0.5], [0.5, 0.5]], rtol=0, atol=0)
        # boundary case: sigma = 0 is admitted
        assert w.sigma == pytest.approx(0.0, abs=1e-15)

    def test_star_3_hand_values(self):
        w = metropolis_weights(star(3)).w
        third, two_thirds = 1.0 / 3.0, 2.0 / 3.0
        assert w[0, 1] == w[0, 2] == third
        assert w[0, 0] == pytest.approx(third, rel=1e-15)
        assert w[1, 1] == w[2, 2] == pytest.approx(two_thirds, rel=1e-15)
        assert w[1, 2] == 0.0

    def test_ring_4_sigma_closed_form(self):
        # circulant (1/3, 1/3, 0, 1/3): spectrum {1, 1/3, -1/3, 1/3}
        w = metropolis_weights(ring(4))
        assert w.sigma == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert w.sigma == pytest.approx(sigma_eig_oracle(w.w), abs=1e-10)

    @pytest.mark.parametrize(
        "graph",
        [random_tree(12, 0), ring(9), complete(6), star(8), random_tree(30, 4)],
        ids=["tree12", "ring9", "complete6", "star8", "tree30"],
    )
    def test_structure(self, graph):
        w = metropolis_weights(graph)
        assert np.max(np.abs(w.w.sum(axis=0) - 1)) <= 1e-12
        assert np.max(np.abs(w.w.sum(axis=1) - 1)) <= 1e-12
        assert np.array_equal(w.w, w.w.T)  # exactly symmetric
        assert np.all(np.diag(w.w) > 0)
        edges = set(graph.edges)
        for i in range(graph.n):
            for j in range(i + 1, graph.n):
                assert ((i, j) in edges) == (w.w[i, j] > 0)
        assert 0 <= w.sigma < 1

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            metropolis_weights(Graph(n=4, edges=((0, 1), (2, 3))))

    @pytest.mark.parametrize(
        "graph",
        [Graph(1, ()), complete(2), random_tree(40, 3), ring(17), complete(9), star(25)],
        ids=["single", "complete2", "tree40", "ring17", "complete9", "star25"],
    )
    def test_matches_per_edge_loop(self, graph):
        deg = np.zeros(graph.n, dtype=int)
        for i, j in graph.edges:
            deg[i] += 1
            deg[j] += 1
        ref = np.zeros((graph.n, graph.n))
        for i, j in graph.edges:
            ref[i, j] = ref[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
        for i in range(graph.n):
            ref[i, i] = 1.0 - float(np.sum(ref[i]))
        assert np.array_equal(graph.degrees, deg)
        assert metropolis_weights(graph).w.tobytes() == ref.tobytes()


class TestSecondLargestSingularValue:
    def test_exact_averaging_matrix(self):
        n = 6
        assert second_largest_singular_value(np.full((n, n), 1 / n)) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_identity_no_mixing(self):
        # doubly stochastic but not mixing; the query reports sigma = 1
        assert second_largest_singular_value(np.eye(5)) == pytest.approx(1.0, rel=1e-14)
        with pytest.raises(ValueError):
            MixingMatrix(np.eye(5))  # violates sigma < 1

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            second_largest_singular_value(np.ones((2, 3)))

    @pytest.mark.parametrize("n", [5, 10, 20])
    @pytest.mark.parametrize("kind", ["tree", "ring", "star", "complete"])
    def test_agrees_with_eigendecomposition_oracle(self, n, kind):
        graph = {
            "tree": lambda: random_tree(n, 1),
            "ring": lambda: ring(n),
            "star": lambda: star(n),
            "complete": lambda: complete(n),
        }[kind]()
        w = metropolis_weights(graph)
        assert abs(w.sigma - sigma_eig_oracle(w.w)) <= 1e-10


def sigma_svd_oracle(w):
    """The definition: top singular value of ``W - 11^T/n``."""
    n = w.shape[0]
    return float(np.linalg.svd(w - np.ones((n, n)) / n, compute_uv=False)[0])


class TestSigmaAgainstSvd:
    """Symmetric inputs (every Metropolis matrix) take ``eigvalsh``; the SVD
    is the definition."""

    @pytest.mark.parametrize("n", [5, 10, 20])
    @pytest.mark.parametrize("kind", ["tree", "ring", "star", "complete"])
    def test_four_topologies(self, n, kind):
        graph = {"tree": random_tree(n, 1), "ring": ring(n), "star": star(n), "complete": complete(n)}
        w = metropolis_weights(graph[kind])
        assert abs(w.sigma - sigma_svd_oracle(w.w)) <= 1e-12

    def test_thousand_node_tree(self):
        w = metropolis_weights(random_tree(1000, 4))
        assert abs(w.sigma - sigma_svd_oracle(w.w)) <= 1e-12

    def test_non_symmetric_input_keeps_svd(self):
        # Doubly stochastic, not symmetric: a lazy cyclic shift mixed with
        # uniform averaging.
        n = 6
        shift = np.roll(np.eye(n), 1, axis=1)
        w = 0.5 * np.eye(n) + 0.3 * shift + 0.2 * np.full((n, n), 1 / n)
        assert not np.array_equal(w, w.T)
        assert MixingMatrix(w).sigma == sigma_svd_oracle(w)


class TestOperator:
    @pytest.mark.parametrize(
        "graph", [random_tree(20, 3), random_tree(200, 3), complete(100)], ids=["tree20", "tree200", "complete100"]
    )
    def test_dense_graphs_use_w_itself(self, graph):
        w = metropolis_weights(graph)
        assert w.operator is w.w

    def test_sparse_graph_uses_csr(self):
        w = metropolis_weights(random_tree(1000, 3))
        op = w.operator
        assert op.format == "csr" and op.nnz == np.count_nonzero(w.w) == 3 * 1000 - 2
        assert w.operator is op  # built once
        x = np.random.default_rng(0).uniform(-1, 1, (1000, 7))
        assert_allclose(op @ x, w.w @ x, rtol=1e-12, atol=1e-15)

    def test_threshold_is_fill_ratio(self):
        # A ring's Metropolis matrix has 3n nonzeros: sparse from n = 3 * ratio.
        n0 = 3 * SPARSE_FILL_RATIO
        below = metropolis_weights(ring(n0 - 1))
        assert below.operator is below.w
        assert metropolis_weights(ring(n0)).operator.format == "csr"


class TestAveragingContraction:
    def test_consensual_vectors(self):
        w = metropolis_weights(ring(5))
        lhs, rhs = average_property_check(w, np.ones(5))
        assert lhs == pytest.approx(0.0, abs=1e-14)
        assert rhs == pytest.approx(0.0, abs=1e-14)
        lhs, rhs = average_property_check(w, -3.7 * np.ones(5))
        assert lhs <= 1e-14 and rhs <= 1e-14

    def test_thousand_random_vectors_on_tree(self):
        w = metropolis_weights(random_tree(20, 5))
        rng = np.random.default_rng(12)
        for _ in range(1000):
            lhs, rhs = average_property_check(w, rng.uniform(-10, 10, 20))
            assert lhs <= rhs + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            average_property_check(metropolis_weights(ring(4)), np.ones(5))

    def test_stack_gives_one_pair_per_row(self):
        w = metropolis_weights(random_tree(20, 5))
        xs = np.random.default_rng(13).uniform(-10, 10, (50, 20))
        lhs, rhs = average_property_check(w, xs)
        assert lhs.shape == rhs.shape == (50,)
        ref = np.array([average_property_check(w, x) for x in xs])
        np.testing.assert_allclose(lhs, ref[:, 0], rtol=1e-12)
        np.testing.assert_allclose(rhs, ref[:, 1], rtol=1e-12)
        empty = average_property_check(w, xs[:0])
        assert empty[0].shape == empty[1].shape == (0,)

    def test_single_vector_gives_floats(self):
        lhs, rhs = average_property_check(metropolis_weights(ring(4)), np.arange(4.0))
        assert type(lhs) is float and type(rhs) is float

    @pytest.mark.parametrize("shape", [(3, 5), (5,), (2, 4, 4), ()])
    def test_stack_with_wrong_last_dimension_rejected(self, shape):
        with pytest.raises(ValueError, match="expected"):
            average_property_check(metropolis_weights(ring(4)), np.ones(shape))


class TestMixingMatrixValidation:
    def test_not_doubly_stochastic_rejected(self):
        bad = np.array([[0.7, 0.2], [0.3, 0.8]])
        with pytest.raises(ValueError):
            MixingMatrix(bad)

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(ValueError, match="mixing matrix must be square"):
            MixingMatrix(np.full(shape, 0.5))

    def test_negative_entries_rejected(self):
        bad = np.array([[1.2, -0.2], [-0.2, 1.2]])
        with pytest.raises(ValueError):
            MixingMatrix(bad)

    def test_constructor_computes_sigma(self):
        w = MixingMatrix(metropolis_weights(ring(6)).w)
        assert 0 < w.sigma < 1
        assert w.sigma == metropolis_weights(ring(6)).sigma

    def test_sigma_cannot_be_passed(self):
        # A caller-supplied sigma could disagree with w and void every
        # certificate built on it.
        with pytest.raises(TypeError):
            MixingMatrix(metropolis_weights(ring(6)).w, sigma=0.01)

    def test_exact_averaging_snaps_to_zero(self):
        w = metropolis_weights(complete(7)).w  # rounding leaves ~1.7e-16
        assert second_largest_singular_value(w) > 0
        assert MixingMatrix(w).sigma == 0.0


def edges_from_text(text, n):
    """Read ``graph.edges`` back: one 1-indexed ``i j`` pair per line."""
    pairs = [tuple(int(v) - 1 for v in line.split()) for line in text.splitlines()]
    return Graph(n=n, edges=tuple(pairs))


class TestSerialization:
    def test_edgelist_one_indexed(self):
        text = graph_to_edgelist(Graph(n=3, edges=((0, 1), (1, 2))))
        assert text == "1 2\n2 3\n"

    def test_edgelist_round_trip(self):
        g = random_tree(14, 8)
        assert edges_from_text(graph_to_edgelist(g), g.n) == g

    def test_mixing_csv_full_precision(self, tmp_path):
        w = metropolis_weights(random_tree(7, 3))
        path = tmp_path / "w.csv"
        save_mixing_matrix(w, path)
        back = np.loadtxt(path, delimiter=",")
        assert np.array_equal(back, w.w)

    def test_mixing_csv_bytes(self, tmp_path):
        # one shortest repr per entry: zeros, -0.0 and dense rows alike
        def one_repr_per_entry(w):
            return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in w.w)

        cyclic = 0.5 * (np.eye(6) + np.roll(np.eye(6), 1, axis=1))
        cyclic[0, 3] = cyclic[4, 1] = -0.0
        dense = np.full((3, 3), 0.5)
        dense[0, 0] = dense[2, 2] = 0.0
        dense[1, 1] = -0.0
        matrices = [metropolis_weights(random_tree(30, 9)), MixingMatrix(cyclic), MixingMatrix(dense)]
        for n in (5, 240):
            matrices += [metropolis_weights(b(n)) for b in (lambda n: random_tree(n, 4), ring, complete, star)]
        path = tmp_path / "w.csv"
        for w in matrices:
            save_mixing_matrix(w, path)
            assert path.read_text() == one_repr_per_entry(w)
        assert "-0.0" in one_repr_per_entry(matrices[1]) and "-0.0" in one_repr_per_entry(matrices[2])
