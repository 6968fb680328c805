"""Communication graphs and doubly stochastic mixing matrices.

The mixing matrix ``W`` drives consensus: it is nonnegative, its sparsity
pattern matches the graph's edges (plus a positive diagonal), and its row
and column sums are 1.  Its effectiveness is measured by ``sigma``, the
largest singular value of ``W - (1/n) 11^T``: applying ``W`` shrinks the
disagreement of any vector with its mean by at least that factor.

The shipped construction is the Metropolis rule, which is symmetric and
doubly stochastic on any connected graph.  ``sigma`` lies in ``[0, 1)`` for
connected graphs; 0 occurs only for exact averaging (e.g. the Metropolis
matrix of the 2-node complete graph).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import floattext
from .errors import DisconnectedGraphError

__all__ = [
    "Graph",
    "MixingMatrix",
    "random_tree",
    "ring",
    "complete",
    "star",
    "metropolis_weights",
    "second_largest_singular_value",
    "average_property_check",
    "graph_to_edgelist",
    "save_mixing_matrix",
]


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes ``0 .. n-1``.

    Edges are stored as sorted ``(i, j)`` pairs with ``i < j``.  The named
    constructors in this module always produce connected graphs; a raw
    ``Graph`` may be disconnected, and consumers that need connectivity
    (e.g. :func:`metropolis_weights`) check :meth:`is_connected` themselves.
    """

    n: int
    edges: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one node")
        pairs = np.asarray(self.edges, dtype=np.int64)
        if not pairs.size:
            pairs = pairs.reshape(0, 2)
        elif pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"edges must be (i, j) pairs, got an array of shape {pairs.shape}")
        lo, hi = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
        bad = (lo == hi) | (lo < 0) | (hi >= self.n)
        if bad.any():  # name the first bad edge as given
            i, j = pairs[bad.argmax()].tolist()
            if i == j:
                raise ValueError(f"self-loop ({i}, {j}) not allowed")
            raise ValueError(f"edge ({i}, {j}) out of range for n={self.n}")
        # a list, not an iterator: tuple() grows in steps over an iterator, 1.7x slower
        pairs = list(zip(lo.tolist(), hi.tolist()))
        keys = lo * self.n + hi  # increasing keys are sorted, distinct pairs
        if not (keys[1:] > keys[:-1]).all():  # complete() gives O(n**2) of them so
            pairs = sorted(set(pairs))
        object.__setattr__(self, "edges", tuple(pairs))

    @property
    def degrees(self) -> np.ndarray:
        return np.bincount(np.ravel(self.edges).astype(int), minlength=self.n)

    def is_connected(self) -> bool:
        if self.n == 1:
            return True
        adj = [[] for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        seen = {0}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        return len(seen) == self.n


#: :attr:`MixingMatrix.operator` is sparse when ``SPARSE_FILL_RATIO * nnz(w)
#: <= n**2``, i.e. for trees, rings and stars (nnz ~ 3n) from n = 225 on.
#: Set from whole ``gradplay run`` processes at the default 1000 steps, which
#: include the one-time ``import scipy.sparse`` (~0.2 s): on a 2-CPU host CSR
#: lost at n = 200 (0 to +16 %), broke even at 210-220 and won from 230 on
#: (-14 to -23 % at 230-300).  One ``W @ x`` alone breaks even much earlier,
#: at n**2 / nnz of 12-16.
SPARSE_FILL_RATIO = 75


@dataclass(frozen=True)
class MixingMatrix:
    """A doubly stochastic weight matrix together with its contraction factor.

    ``sigma`` is computed here, never passed in: the second largest singular
    value of ``w`` (equivalently the top singular value of the deflated
    matrix ``w - (1/n) 11^T``), with values below 1e-12 snapped to exactly
    0.  On a complete graph the true ``sigma`` is 0 but rounding reports
    ~1e-16, so the snap makes the perfect-mixing boundary case
    deterministic.  The constructor enforces finite entries, double
    stochasticity to 1e-12 and ``sigma < 1``.
    """

    w: np.ndarray
    sigma: float = field(init=False)

    def __post_init__(self):
        w = np.array(self.w, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"mixing matrix must be square, got shape {w.shape}")
        if not np.all(np.isfinite(w)):  # NaN would pass both checks below
            raise ValueError("mixing matrix entries must be finite")
        if np.any(w < 0):
            raise ValueError("mixing matrix entries must be nonnegative")
        row_err = float(np.max(np.abs(w.sum(axis=1) - 1.0)))
        col_err = float(np.max(np.abs(w.sum(axis=0) - 1.0)))
        if max(row_err, col_err) > 1e-12:
            raise ValueError(
                f"matrix is not doubly stochastic: row error {row_err:.3e}, "
                f"column error {col_err:.3e} (tolerance 1e-12)"
            )
        sigma = second_largest_singular_value(w)
        if sigma < 1e-12:
            sigma = 0.0
        if not sigma < 1.0:
            raise ValueError(
                f"sigma={sigma!r} outside [0, 1): the graph cannot be "
                "connected (or the matrix does not mix)"
            )
        w.setflags(write=False)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "sigma", sigma)

    @property
    def n(self) -> int:
        return self.w.shape[0]

    @cached_property
    def operator(self):
        """``w`` in the form the iteration multiplies by.

        A ``scipy.sparse.csr_array`` when at most one entry in
        ``SPARSE_FILL_RATIO`` is nonzero (the Metropolis matrix of a tree,
        ring or star from 225 nodes), so that ``operator @ x`` costs
        O((n + |E|) n) instead of O(n^3); otherwise the dense ``w`` itself.
        The two agree to rounding, not bit for bit.  scipy is imported only
        here, so dense runs never pay for the import.
        """
        if SPARSE_FILL_RATIO * np.count_nonzero(self.w) > self.w.size:
            return self.w
        from scipy.sparse import csr_array

        return csr_array(self.w)


def random_tree(n: int, seed: int) -> Graph:
    """Random spanning tree on ``n`` nodes, deterministic in ``seed``.

    Node ``k`` (k = 1 .. n-1) attaches to a uniformly random earlier node,
    which guarantees connectivity with exactly ``n - 1`` edges.
    """
    if n < 2:
        raise ValueError(f"tree needs n >= 2, got {n}")
    rng = np.random.default_rng(seed)
    edges = [(int(rng.integers(0, k)), k) for k in range(1, n)]
    return Graph(n=n, edges=tuple(edges))


def ring(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"ring needs n >= 3, got {n}")
    return Graph(n=n, edges=tuple((k, (k + 1) % n) for k in range(n)))


def complete(n: int) -> Graph:
    if n < 2:
        raise ValueError(f"complete graph needs n >= 2, got {n}")
    return Graph(n=n, edges=np.column_stack(np.triu_indices(n, 1)))


def star(n: int) -> Graph:
    """Star with center node 0."""
    if n < 2:
        raise ValueError(f"star needs n >= 2, got {n}")
    return Graph(n=n, edges=tuple((0, k) for k in range(1, n)))


def metropolis_weights(g: Graph) -> MixingMatrix:
    """Metropolis mixing matrix of a connected graph.

    ``w_ij = 1 / (1 + max(deg_i, deg_j))`` on edges, diagonal filled so each
    row sums to 1.  The result is symmetric, doubly stochastic, has a
    strictly positive diagonal, and its off-diagonal support is exactly the
    edge set.

    On a complete graph every weight is ``1/n``, i.e. exact averaging, and
    ``sigma`` is exactly 0 (see :class:`MixingMatrix`).
    """
    if not g.is_connected():
        raise DisconnectedGraphError(
            "metropolis_weights requires a connected graph"
        )
    pairs = np.array(g.edges, dtype=np.int64).reshape(-1, 2)
    deg = np.bincount(pairs.ravel(), minlength=g.n)
    i, j = pairs.T
    w = np.zeros((g.n, g.n))
    w[i, j] = w[j, i] = 1.0 / (1.0 + np.maximum(deg[i], deg[j]))
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return MixingMatrix(w)


def second_largest_singular_value(w: np.ndarray) -> float:
    """Second largest singular value of a doubly stochastic matrix.

    Computed as the largest singular value of ``w - (1/n) 11^T``; this is the
    exact contraction factor of disagreement under one application of ``w``,
    and for symmetric ``w`` it equals the largest absolute eigenvalue on the
    subspace orthogonal to the all-ones vector.  An exactly symmetric ``w``
    (every Metropolis matrix) takes that route, ``eigvalsh``, about 3x faster
    than the SVD at n = 1000; any other ``w`` takes the SVD.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {w.shape}")
    n = w.shape[0]
    deflated = w - np.full((n, n), 1.0 / n)
    if np.array_equal(w, w.T):
        return float(np.max(np.abs(np.linalg.eigvalsh(deflated))))
    return float(np.linalg.svd(deflated, compute_uv=False)[0])


def _row_dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot products of ``u`` and ``v`` along the last axis, one per vector of
    a stack.  Each is the BLAS dot that ``np.linalg.norm`` takes for a single
    vector, so a row of a stack gets the bits of that vector alone."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def average_property_check(w: MixingMatrix, x: np.ndarray):
    """Both sides of the averaging contraction for one vector.

    Returns ``(lhs, rhs) = (||W x - 1 xbar||, sigma * ||x - 1 xbar||)``;
    the mixing property asserts ``lhs <= rhs`` (up to rounding).  For a stack
    of vectors, shape ``(k, n)``, ``lhs`` and ``rhs`` are arrays with one
    entry per row, each computed with the same operations as a single call.
    """
    x = np.asarray(x, dtype=float)
    n = w.n
    if x.ndim not in (1, 2) or x.shape[-1] != n:
        raise ValueError(f"x has shape {x.shape}, expected ({n},) or (k, {n})")
    xbar = x.mean(axis=-1, keepdims=True)
    mixed = (w.w @ x[..., None])[..., 0] - xbar
    spread = x - xbar
    lhs = np.sqrt(_row_dots(mixed, mixed))
    rhs = w.sigma * np.sqrt(_row_dots(spread, spread))
    if x.ndim == 1:
        return float(lhs), float(rhs)
    return lhs, rhs


def graph_to_edgelist(g: Graph) -> str:
    """Edge-list text: one ``i j`` pair per line, 1-indexed."""
    return "".join(f"{i + 1} {j + 1}\n" for i, j in g.edges)


def save_mixing_matrix(w: MixingMatrix, path) -> None:
    """Dense CSV, row-major, shortest round-trip decimal (``repr``) per
    entry; only the entries with a bit set are formatted
    (:func:`~gradplay.floattext.matrix_lines`)."""
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(floattext.matrix_lines(w.w))
