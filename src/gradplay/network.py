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

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass, field
from functools import cache, cached_property

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


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph on nodes ``0 .. n-1``.

    ``edges`` is kept as a read-only ``(m, 2)`` int64 array of the distinct
    integer pairs ``(i, j)`` with ``i < j``, sorted.  The named constructors
    always give connected graphs; a raw ``Graph`` may be disconnected, and
    consumers that need connectivity check :meth:`is_connected` themselves.
    """

    n: int
    edges: np.ndarray

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)):
            raise ValueError(f"graph node count must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValueError("graph needs at least one node")
        pairs = np.asarray(self.edges)
        if not pairs.size:  # () is a float array
            pairs = np.empty((0, 2), np.int64)
        elif pairs.dtype.kind not in "iu":
            raise ValueError(f"edges must be integer pairs, got {pairs.dtype} entries")
        elif pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"edges must be (i, j) pairs, got an array of shape {pairs.shape}")
        lo, hi = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
        bad = (lo == hi) | (lo < 0) | (hi >= self.n)
        if bad.any():  # name the first bad edge as given
            i, j = pairs[bad.argmax()].tolist()
            if i == j:
                raise ValueError(f"self-loop ({i}, {j}) not allowed")
            raise ValueError(f"edge ({i}, {j}) out of range for n={self.n}")
        edges = np.column_stack((lo, hi)).astype(np.int64, copy=False)
        # named constructors give pairs in order: no run keeps numpy's sort code (~0.13 MB)
        if not ((lo[1:] > lo[:-1]) | ((lo[1:] == lo[:-1]) & (hi[1:] > hi[:-1]))).all():
            edges = edges[np.lexsort((hi, lo))]
            edges = edges[np.r_[True, (edges[1:] != edges[:-1]).any(axis=1)]]
        edges.setflags(write=False)
        object.__setattr__(self, "edges", edges)

    @property
    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n)

    def is_connected(self) -> bool:
        """Whether node 0 reaches every node, in one pass over the edges per hop."""
        reached = np.zeros(self.n, dtype=bool)
        reached[0] = True
        i, j = self.edges.T
        while (cross := reached[i] != reached[j]).any():
            reached[i[cross]] = reached[j[cross]] = True
        return bool(reached.all())


#: :attr:`MixingMatrix.operator` is sparse when ``SPARSE_FILL_RATIO * nnz(w)
#: <= n**2``, i.e. for trees, rings and stars (nnz ~ 3n) from n = 225 on.
#: Set from whole ``gradplay run`` processes at the default 1000 steps, when
#: the first sparse operator of a process still imported ``scipy.sparse``
#: (~0.2 s): on a 2-CPU host CSR lost at n = 200 (0 to +16 %), broke even at
#: 210-220 and won from 230 on (-14 to -23 % at 230-300).  One ``W @ x``
#: alone breaks even much earlier, at n**2 / nnz of 12-16.  The operator now
#: loads only scipy's compiled kernel (under 1 ms), so the ratio is likely
#: higher than it need be; re-deriving it is left for later, since moving it
#: changes the bits of the runs it moves across the switch.
SPARSE_FILL_RATIO = 75


def _sparsetools_file():
    """Path of scipy's compiled ``scipy/sparse/_sparsetools`` extension, or
    None where no such file is found.  Found without importing scipy."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    for folder in spec.submodule_search_locations:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(folder, "sparse", "_sparsetools" + suffix)
            if os.path.isfile(path):
                return path
    return None


@cache
def _sparsetools():
    """scipy's ``_sparsetools`` extension, loaded from its file alone in
    ~1 ms and 0.1 MB: ``scipy`` and ``scipy.sparse``, whose import takes
    ~0.2 s and ~22 MB resident, are neither run nor entered in
    ``sys.modules``.  Where the file cannot be found or loaded, the module
    that ``scipy.sparse`` imports."""
    path = _sparsetools_file()
    if path is not None:
        name = "scipy.sparse._sparsetools"
        entered = name in sys.modules
        loader = importlib.machinery.ExtensionFileLoader(name, path)
        try:
            module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
            loader.exec_module(module)
        except ImportError:
            pass
        else:
            if not entered:  # CPython enters the module; scipy.sparse enters its own on import
                sys.modules.pop(name, None)
            return module
    from scipy.sparse import _sparsetools

    return _sparsetools


class _CsrOperator:
    """A square matrix in compressed sparse row form, multiplied into an
    ndarray by scipy's ``csr_matvecs``: the kernel, the entries and their
    order of ``scipy.sparse.csr_array(w) @ x``, so the same bits."""

    def __init__(self, w: np.ndarray):
        rows, self.indices = np.nonzero(w)  # row-major, as scipy orders them
        self.data = w[rows, self.indices]
        self.n = w.shape[0]
        self.indptr = np.searchsorted(rows, np.arange(self.n + 1))
        self._matvecs = _sparsetools().csr_matvecs

    def __matmul__(self, x) -> np.ndarray:
        """The product with each column of ``x``, whose first axis is n."""
        x = np.ascontiguousarray(x, dtype=float)
        n = self.n
        if x.shape[:1] != (n,):  # csr_matvecs checks no size
            raise ValueError(f"operand has shape {x.shape}, expected ({n}, ...)")
        out = np.zeros(x.shape)
        self._matvecs(
            n, n, x.size // n, self.indptr, self.indices, self.data, x.ravel(), out.ravel()
        )
        return out


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

        A CSR operator when at most one entry in ``SPARSE_FILL_RATIO`` is
        nonzero (the Metropolis matrix of a tree, ring or star from 225
        nodes), so that ``operator @ x`` costs O((n + |E|) n) instead of
        O(n^3); otherwise the dense ``w`` itself.  The two agree to rounding,
        not bit for bit.  The CSR operator gives the bits of
        ``scipy.sparse.csr_array(w) @ x`` through scipy's compiled kernel,
        loaded without importing ``scipy.sparse``.
        """
        if SPARSE_FILL_RATIO * np.count_nonzero(self.w) > self.n * self.n:
            return self.w
        return _CsrOperator(self.w)


def random_tree(n: int, seed: int) -> Graph:
    """Random spanning tree on ``n`` nodes, deterministic in ``seed``.

    Node ``k`` (k = 1 .. n-1) attaches to a uniformly random earlier node,
    which guarantees connectivity with exactly ``n - 1`` edges.
    """
    if n < 2:
        raise ValueError(f"tree needs n >= 2, got {n}")
    rng = np.random.default_rng(seed)
    # integers(0, np.arange(1, n)) draws the same, but keeps ~0.1 MB more resident
    return Graph(n=n, edges=sorted((int(rng.integers(0, k)), k) for k in range(1, n)))


def ring(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"ring needs n >= 3, got {n}")
    # (0, 1), (0, n - 1), (1, 2), (2, 3), ..., (n - 2, n - 1): in order
    return Graph(n=n, edges=np.column_stack((np.r_[0, : n - 1], np.r_[1, n - 1, 2:n])))


def complete(n: int) -> Graph:
    if n < 2:
        raise ValueError(f"complete graph needs n >= 2, got {n}")
    return Graph(n=n, edges=np.column_stack(np.triu_indices(n, 1)))


def star(n: int) -> Graph:
    """Star with center node 0."""
    if n < 2:
        raise ValueError(f"star needs n >= 2, got {n}")
    return Graph(n=n, edges=np.column_stack((np.zeros(n - 1, dtype=np.int64), np.arange(1, n))))


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
    deg = g.degrees
    i, j = g.edges.T
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
    deflated = w - 1.0 / n
    if np.array_equal(w, w.T):
        return float(np.max(np.abs(np.linalg.eigvalsh(deflated))))
    return float(np.linalg.svd(deflated, compute_uv=False)[0])


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
    lhs = np.sqrt(np.vecdot(mixed, mixed))
    rhs = w.sigma * np.sqrt(np.vecdot(spread, spread))
    if x.ndim == 1:
        return float(lhs), float(rhs)
    return lhs, rhs


def graph_to_edgelist(g: Graph) -> str:
    """Edge-list text: one ``i j`` pair per line, 1-indexed, formatted
    ``floattext.CHUNK`` edges at a time: never O(n**2) Python ints at once."""
    step = floattext.CHUNK
    chunks = (g.edges[start : start + step] + 1 for start in range(0, len(g.edges), step))
    return "".join(("{} {}\n" * len(c)).format(*c.ravel().tolist()) for c in chunks)


def save_mixing_matrix(w: MixingMatrix, path) -> None:
    """Dense CSV, row-major, shortest round-trip decimal (``repr``) per
    entry; only the entries with a bit set are formatted
    (:func:`~gradplay.floattext.matrix_lines`)."""
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(floattext.matrix_lines(w.w))
