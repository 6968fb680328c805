"""The distributed gradient-play iteration on the estimation matrix.

Each player keeps one row of an ``n x n`` estimation matrix: her running
estimate of the full joint action.  Entry ``(i, i)`` is her own action.  One
iteration mixes every column through the mixing matrix ``W`` and then
corrects each player's own-action entry with a local gradient step:

    x[i, l] <- sum_j w[i, j] * x[j, l]                      for l != i
    x[i, i] <- sum_j w[i, j] * x[j, i] - alpha * g_i        g_i = own partial
                                                            gradient at row i

in matrix form ``x <- W x - alpha * Diag(g)``, where ``g_i = A[i] . x[i] +
b_i`` is the dot product of row i of the game's mapping matrix with player
i's own row of estimates.  The column means (the network-wide running
average) then follow the exact recursion ``avg <- avg - (alpha / n) * g``.

:func:`run` iterates this update and records four norms and the recursion
residual of every state.  Its loop only steps: it computes the own gradients,
applies the update and holds the states.  The own gradients of a state are
one ``np.vecdot`` of the mapping matrix and the state, one BLAS dot a row,
with no ``n x n`` temporary.  The states of a chunk (as many as fit in a
cache-sized byte budget; one state from n = 91) are stepped in place into one
buffer allocated per run: each product is written into its slot by
``ndarray.dot``, each state's own gradients into their held row by
``np.vecdot``, and the gradient correction, taken against alpha held as an
n-vector, is applied through precomputed diagonal views; a one-state chunk
allocates each new state.  The two norms of the ``n x n`` states and the
column means (one ``einsum`` over the chunk) are reduced once per chunk, the
gradient norms and residuals once per block of 256 states.  A one-state
chunk computes its own gradients and the next state before its norms are
reduced, ahead of need: a state that stops the run (a ``tol`` stop or a
divergence) drops the state computed after it, no step is taken past the
horizon, and the run holds one more ``n x n`` state during each reduction.
From n = 200 (``_OVERLAP_FLOATS``) a thread started for the run reduces
each state's norms meanwhile.  The reductions are the same calls on the
same arrays, so every value is the same.  A block's columns hold its
states in rows 1.., and row 0 carries the last state of the block before
(NaN before t = 0).  Each finished block becomes its trace rows
at once, with, column-wise against the row above, the recursion residual and
the slack (rhs - lhs) of the three per-step inequalities of the
geometric-rate proof; the rows are filled by key into a plain structured
array and handed over as a record-array view, and a caller may take the
blocks as they finish.  A fixed horizon (``tol = 0``) knows its row count,
so the trace is one array allocated before the first step, and each block
is written into its rows of it; only a run that may stop on ``tol`` keeps
its blocks apart and joins them at the end.

A :class:`Lockstep` group steps several fixed-horizon runs of one size
together in the same loop, whose held arrays then carry a cell axis: each
step is one stacked ``np.matmul`` of the cells' mixing matrices, one
stacked ``np.vecdot`` of their mapping matrices for the own gradients, the
step against per-cell alphas, and the diagonal correction through stacked
diagonal views; each chunk's norms and each block's trace rows are reduced
for all cells at once.  A run alone is the case of one cell and keeps its
2-D ``ndarray.dot``.  Every call is the same per-cell arithmetic, so each
cell gets the bytes of its run alone, and each cell is still run, and its
result returned, by its own :func:`run` call.
"""

from __future__ import annotations

import math
import operator
import sys
import threading

import numpy as np

from . import floattext
from .errors import DivergenceError
from .game import QuadraticGame, estimate_constants, solve_nash_equilibrium
from .network import MixingMatrix

__all__ = [
    "IterationTrace",
    "Lockstep",
    "TRACE_COLUMNS",
    "step",
    "initial_estimates",
    "run",
    "trace_to_csv",
]

#: Divergence guard: abort when the distance to the equilibrium exceeds this
#: multiple of its initial value.  Admissible step sizes contract, so the
#: guard only ever trips on a step size far beyond the certified ceiling.
DIVERGENCE_FACTOR = 1e12

#: Most states whose column means and own gradients :func:`run` holds at once.
_BLOCK = 256

#: Most bytes of ``n x n`` states that :func:`run` holds for one reduction of
#: their norms, so that a chunk stays in cache (see :func:`_record_spans`).
_CHUNK_BYTES = 256 * 1024

#: Entries of an ``n x n`` state from which :func:`run`'s one-state branch
#: reduces each state's norms on a worker thread while it steps to the next
#: state (:class:`_NormWorker`; n >= 200).  Per-iteration time of 80 steps
#: on a random tree, alternating pairs in one warm process per run, one BLAS
#: thread, 2 vCPUs, thread against none (medians of 10 pairs): 1.22-1.31x
#: at n = 91-100 (lower in 0 of 10), 0.76-1.07x at 105-175 (lower in 2 to
#: 10 of 10), 0.80-0.90x at 200 (8-10 of 10 in each of four runs) and
#: 0.73-0.79x at 300 (10 of 10 in each of three runs); 0.65x at 500 and
#: 0.61x at 750 and 1000 (6 pairs, 6 of 6).
_OVERLAP_FLOATS = 200 * 200

#: Trace columns, in ``trace.csv`` order.  All norms are Frobenius norms of
#: ``n x n`` matrices.  The slack columns hold ``rhs - lhs`` of the
#: corresponding inequality; nonnegative slack (up to rounding) means the
#: inequality held.
#:
#: * ``lemma1_slack``: consensus-violation contraction for the transition
#:   into this iterate, ``sigma * cv_prev + alpha * sqrt((n-1)/n) * gn_prev
#:   - cv``.
#: * ``lemma2_slack``: gradient-norm bound at this iterate,
#:   ``L * distance_to_ne - grad_norm``.
#: * ``lemma3_slack``: averaged-iterate contraction for the transition into
#:   this iterate, ``avg_d_prev**2 + (L**2 * alpha / mu) * cv_prev**2 -
#:   (1 + mu * alpha / n) * avg_d**2`` (valid whenever ``alpha <= mu / L**2``).
#:
#: At ``t = 0`` there is no arriving transition, so ``lemma1_slack`` and
#: ``lemma3_slack`` are NaN.
TRACE_COLUMNS = (
    "t",
    "consensus_violation",
    "distance_to_ne",
    "avg_distance_to_ne",
    "grad_norm",
    "lemma1_slack",
    "lemma2_slack",
    "lemma3_slack",
)

#: The header line of ``trace.csv``.
_TRACE_HEADER = ",".join(TRACE_COLUMNS) + "\n"

#: Record dtype of a trace: one row per visited state, ``t`` an integer and
#: every other column a float.  :func:`run` returns a ``np.recarray`` of it,
#: so ``trace.distance_to_ne`` is a column and ``trace[-1].distance_to_ne``
#: a single value.  After the ``trace.csv`` columns, ``recursion_residual``
#: is ``|avg - pred| / (1 + |pred|)`` for the transition into this state,
#: ``pred = avg_prev - (alpha / n) * g_prev`` (NaN at ``t = 0``).
IterationTrace = np.dtype(
    [(TRACE_COLUMNS[0], np.int64)]
    + [(name, np.float64) for name in (*TRACE_COLUMNS[1:], "recursion_residual")]
)

def _check_step_size(alpha) -> None:
    if not 0 < alpha < math.inf:
        raise ValueError(f"step size must be finite and > 0, got {alpha}")


def _check_inputs(game, w) -> None:
    if not isinstance(game, QuadraticGame):
        raise TypeError(f"expected a QuadraticGame, got {type(game).__name__}")
    if not isinstance(w, MixingMatrix):
        raise TypeError(f"expected a MixingMatrix, got {type(w).__name__}")


def _own_gradient(game: QuadraticGame, x_mat: np.ndarray) -> np.ndarray:
    """Each player's own partial gradient ``g_i = A[i] . x[i] + b_i``: row i of
    the mapping matrix against player i's row of estimates, one BLAS dot a
    row (``np.vecdot``), with no ``n x n`` temporary."""
    return np.vecdot(game.mapping_matrix, x_mat) + game.b


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm(v)`` of a real array, Frobenius for a matrix: the same
    BLAS dot of the flattened array, without its per-call overhead.  The
    flattened temporary dies with the call, so ``run()`` keeps no extra
    ``n x n`` array alive into the next step."""
    v = v.ravel()
    return math.sqrt(v @ v)


def _update(w_op, x_mat: np.ndarray, alpha: float, g: np.ndarray) -> np.ndarray:
    # w_op is MixingMatrix.operator, dense or CSR; both give an ndarray, whose
    # diagonal einsum returns as a writable view.
    out = w_op @ x_mat
    diagonal = np.einsum("ii->i", out)
    diagonal -= alpha * g
    return out


def step(x_mat: np.ndarray, w: MixingMatrix, alpha: float, game: QuadraticGame) -> np.ndarray:
    """One gradient-play update ``W x - alpha * Diag(g)``, with ``g_i`` player
    i's own partial gradient at row i: ``A[i] . x[i] + b_i``, one BLAS dot of
    row i of the mapping matrix with row i of ``x_mat`` (``np.vecdot``), as
    :func:`run` computes it.

    Only the diagonal (own-action) entries receive the gradient correction;
    every other entry is pure neighborhood averaging.  Takes the inputs of
    :func:`run`, and applies ``w`` through its ``operator`` as it does.
    """
    _check_inputs(game, w)
    _check_step_size(alpha)
    x_mat = np.asarray(x_mat, dtype=float)
    n = game.n
    if x_mat.shape != (n, n) or w.n != n:
        raise ValueError(
            f"shape mismatch: game n={n}, mixing matrix {w.w.shape}, estimates {x_mat.shape}"
        )
    return _update(w.operator, x_mat, alpha, _own_gradient(game, x_mat))


def initial_estimates(n: int, seed: int = 0) -> np.ndarray:
    """Starting estimation matrix: entrywise uniform on [-1, 1],
    deterministic in ``seed``."""
    return np.random.default_rng(seed).uniform(-1.0, 1.0, (n, n))


def run(
    game: QuadraticGame,
    w: MixingMatrix,
    alpha: float,
    x0: np.ndarray,
    max_iters: int,
    tol: float = 0.0,
    *,
    rows=None,
    batch=None,
):
    """Iterate gradient play until the NE distance drops to ``tol`` or
    ``max_iters`` steps have been taken.

    Parameters
    ----------
    game : QuadraticGame
        Supplies gradients and the exact oracles (equilibrium, mu, L) used
        for stopping and for the recorded slack columns.
    w : MixingMatrix
        Mixing matrix, applied through its ``operator`` (sparse for sparse
        graphs); its ``sigma`` enters the recorded slacks.
    alpha : float
        Constant step size, finite and > 0.
    x0 : ndarray, shape (n, n)
        Initial estimation matrix.
    max_iters : int
        Maximum number of update steps.
    tol : float
        Stop once the Frobenius distance to the consensual equilibrium
        matrix is <= tol.  The default 0 gives a fixed horizon.
    rows : callable, optional
        Called with each finished block of trace rows (a record array of at
        most ``_BLOCK`` rows), in order, while the run goes on; the blocks
        concatenate to the returned trace, or to the partial trace of a
        diverged run.  At a fixed horizon each block is a view of its rows
        of the trace.  Not taken together with ``batch``.
    batch : Lockstep, optional
        A group that holds this run as one of its cells: ``game``, ``w`` and
        ``x0`` the cell's own objects, ``alpha`` equal to its step size, and
        ``max_iters`` and ``tol`` the group's.  The group's first call steps
        all of its cells together; each call returns, or raises, its own
        cell's result, with the bytes of the run made without ``batch``.

    Returns
    -------
    (final, trace) : (ndarray, np.recarray of dtype IterationTrace)
        The trace has one row per visited state, the initial one included.
        At a fixed horizon (``tol == 0``) it is a view of one array of
        ``max_iters + 1`` rows, allocated before the first step (in a group,
        one row of an array for all its cells), or of its first rows if the
        run stopped early; with ``tol > 0`` it is the finished blocks joined.

    Notes
    -----
    A fixed horizon allocates its whole trace up front, 72 bytes a row
    (``IterationTrace``).  Where the allocator refuses that size, the call
    fails at once with numpy's ``MemoryError`` (``ValueError`` past numpy's
    largest array size).  Where it only reserves address space (Linux's
    default overcommit), pages are committed as rows are written, so a
    trace larger than free memory can still get the process killed partway.
    What guards against that is ``ExperimentConfig.validate`` and ``audit``,
    which refuse such horizons before any run
    (``footprint._check_footprint``).

    From n = 91, where a chunk is one state, the call computes the own
    gradients at t and state t + 1 (only while t is below ``max_iters``)
    before it reduces the norms of state t, so it holds one more ``n x n``
    state during each reduction.  If state t stops the run (``tol`` or
    divergence), state t + 1 is computed and dropped.  From
    ``_OVERLAP_FLOATS`` entries of a state (n >= 200), a thread started for
    the call reduces those norms meanwhile, and the stop test waits for
    them.  The results are those of one thread to the bit, an exception
    raised in the thread is raised by the call, and the thread is joined
    before the call returns or raises.

    Raises
    ------
    MemoryError
        If the allocator refuses a fixed horizon's trace (see Notes).
    DivergenceError
        If the distance to the equilibrium is not finite or exceeds
        ``DIVERGENCE_FACTOR`` times its initial value (step size far above
        the ceiling).  Its ``trace`` holds the rows up to that iteration.
    ValueError
        Before any step, for invalid inputs, or with ``batch`` for inputs
        that are not a cell of the group yet to be taken, or ``rows`` given.
    """
    _check_inputs(game, w)
    _check_step_size(alpha)
    max_iters = _check_horizon(max_iters, tol)
    if batch is None:
        [outcome] = _iterate([(game, w, alpha, x0)], max_iters, tol, rows)
    elif rows is not None:
        raise ValueError("a run of a Lockstep group takes no rows callback")
    else:
        outcome = batch._take(game, w, alpha, x0, max_iters, tol)
    if isinstance(outcome, DivergenceError):
        raise outcome
    return outcome


class Lockstep:
    """Fixed-horizon runs of one size that :func:`run` steps together.

    ``cells`` are the inputs ``(game, w, alpha, x0)`` of the runs, checked
    here as :func:`run` checks them, and ``max_iters`` their common horizon
    (``tol`` is 0).  Each cell is still run by its own call
    ``run(game, w, alpha, x0, max_iters, batch=group)``.  The first such
    call steps every cell from its ``x0`` as it is then: each step is one
    stacked ``np.matmul`` of the cells' mixing matrices, one stacked
    ``np.vecdot`` for their own gradients and one call per remaining gradient
    operation on the stacked states, where a run alone makes those calls once
    per state.  Each call then returns, or raises, its own cell's result and
    the group lets go of it.  A group forms only where :meth:`fits` holds.  It
    then holds a chunk of stacked states within ``_CHUNK_BYTES``, a block of
    their column means and gradients within the same budget
    (:func:`_record_spans`), and fewer than ``_BLOCK`` trace rows a cell.
    """

    def __init__(self, cells, max_iters):
        max_iters = _check_horizon(max_iters, 0.0)
        cells = [tuple(cell) for cell in cells]
        for game, w, alpha, x0 in cells:
            _check_inputs(game, w)
            _check_step_size(alpha)
            _start(game, w, x0)
        sizes = {game.n for game, *_ in cells}
        if len(sizes) != 1 or not self.fits(*sizes, len(cells), max_iters):
            raise ValueError(
                f"{len(cells)} runs of sizes {sorted(sizes)} over {max_iters} steps "
                "do not form a Lockstep group"
            )
        self._cells, self._max_iters, self._outcomes = cells, max_iters, None

    @staticmethod
    def fits(n: int, cells: int, max_iters: int) -> bool:
        """Whether ``cells`` runs of size ``n`` over ``max_iters`` steps form a
        group: two or more, whose stacked chunk holds at least four states
        within ``_CHUNK_BYTES``, over a horizon within one block."""
        return cells > 1 and max_iters < _BLOCK and _record_spans(n, cells)[0] > 1

    def _take(self, game, w, alpha, x0, max_iters, tol):
        """The outcome of the call of :func:`run` for one cell: its
        ``(final, trace)`` or its ``DivergenceError``."""
        index = next(
            (
                i
                for i, cell in enumerate(self._cells)
                if cell is not None
                and cell[0] is game
                and cell[1] is w
                and cell[3] is x0
                and cell[2] == alpha
            ),
            None,
        )
        if index is None or max_iters != self._max_iters or tol != 0:
            raise ValueError(
                "run inputs are not a cell of this Lockstep group yet to be taken "
                f"(its runs take max_iters={self._max_iters}, tol=0)"
            )
        if self._outcomes is None:  # no cell taken yet
            self._outcomes = _iterate(self._cells, self._max_iters, 0.0, None)
        outcome, self._outcomes[index], self._cells[index] = self._outcomes[index], None, None
        return outcome


def _check_horizon(max_iters, tol) -> int:
    """``max_iters`` as an int, once it and ``tol`` are valid."""
    if not tol >= 0:  # NaN included
        raise ValueError(f"tolerance must be >= 0, got {tol}")
    try:
        max_iters = operator.index(max_iters)
    except TypeError:
        raise ValueError(f"max_iters must be an integer, got {max_iters!r}") from None
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")
    return max_iters


def _start(game, w, x0) -> np.ndarray:
    """The state a run of checked ``game`` and ``w`` starts from: a checked
    C-ordered float copy of ``x0``."""
    n = game.n
    x = np.array(x0, dtype=float, order="C")
    if x.shape != (n, n):
        raise ValueError(f"x0 has shape {x.shape}, expected ({n}, {n})")
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 must be finite")
    if w.n != n:
        raise ValueError(f"mixing matrix is {w.n} x {w.n}, game has n={n}")
    return x


def _iterate(cells, max_iters, tol, rows) -> list:
    """The outcome of each run of ``cells``, stepped together: its
    ``(final, trace)`` or its ``DivergenceError`` (see :func:`run`).

    ``cells`` hold inputs ``(game, w, alpha, x0)`` of one size, checked but
    for ``x0``, which is checked and copied here.  One cell is a run alone;
    several (a :class:`Lockstep` group, ``tol = 0`` and no ``rows``) add a
    cell axis after the state axis of every held array, so that each call
    of the loop serves them all.  A cell that stops steps on with the
    others, and its rows past the stop are dropped."""
    games, ws, alphas, x0s = zip(*cells)
    n, solo = games[0].n, len(cells) == 1
    starts = [_start(game, w, x0) for game, w, x0 in zip(games, ws, x0s)]

    def stack(parts):  # the one cell's own, or one array with a cell axis
        return parts[0] if solo else np.stack(parts)

    def of(array, c):  # cell c's part of an array with a cell axis
        return array if solo else array[c]

    factors = [
        _slack_factors(w.sigma, estimate_constants(game), alpha, n)
        for game, w, alpha in zip(games, ws, alphas)
    ]
    factors = factors[0] if solo else np.array(factors).T  # each factor over the cells
    x_stars = [solve_nash_equilibrium(game) for game in games]
    x_star = stack(x_stars)
    cell_axis = () if solo else (len(cells),)
    spans = _record_spans(n, len(cells))
    chunk, block = (min(span, max_iters + 1) for span in spans)
    # A fixed horizon knows its rows: each finished block is written into its
    # rows of one trace array.  A tol stop does not, so its blocks are kept
    # and joined at the end.
    whole = np.empty((*cell_axis, max_iters + 1), IterationTrace) if tol == 0 else None
    blocks = []
    # Column means (0) and own gradients (1), and consensus violations (0)
    # and NE distances (1), of a block's states in rows 1..; row 0 carries
    # the last state of the block before (NaN before t = 0).  A chunk divides
    # the block, so its rows never straddle two blocks.
    held = np.full((2, block + 1, *cell_axis, n), math.nan)
    norms = np.full((2, block + 1, *cell_axis), math.nan)
    filled = 1
    work = None
    if spans[0] > 1:
        # A chunk's states (0) and their differences (1), allocated once.  The
        # loop steps in place: W times the state in slot k - 1 goes into slot
        # k, and the own gradient into the held row.  Only a full chunk is
        # followed by another, whose slot 0 takes the last slot (-1).  A run
        # alone applies its dense w by ndarray.dot (a CSR operator has no out=
        # and needs n >= 225, where a chunk is one state); a group applies
        # its stacked matrices by one np.matmul, with the same bits per cell.
        work = np.empty((2, chunk, *cell_axis, n, n))
        work[0, 0] = stack(starts)
        slots = list(work[0])
        diagonals = list(np.einsum("...ii->...i", work[0]))
        grads = list(held[1])
        a_mat = stack([game.mapping_matrix for game in games])
        b = stack([game.b for game in games])
        if solo:
            product = ws[0].operator.dot
        else:
            w_stack = np.stack([w.operator for w in ws])

            def product(x, out):
                np.matmul(w_stack, x, out=out)

        # alpha as an n-vector: a Python-float operand takes numpy's slower
        # scalar path; the products alpha * g_i are the same bits
        alpha_rows = np.repeat(np.array(alphas, dtype=float), n).reshape(*cell_axis, n)
        step_g = np.empty((*cell_axis, n))
    else:
        [(game, w, alpha, _)], [x] = cells, starts
        w_op = w.operator

    # A one-state chunk steps to the next state before its norms are
    # reduced, from _OVERLAP_FLOATS on a worker thread meanwhile.
    overlap = work is None and n * n >= _OVERLAP_FLOATS
    # each cell's (iteration, distance) where it stopped, and its final state
    ends, finals, left = [None] * len(cells), [None] * len(cells), len(cells)
    # A diverging run overflows; the guard below turns the non-finite
    # distance into a DivergenceError.
    with np.errstate(over="ignore", invalid="ignore"), _NormWorker(x_star, n, overlap) as worker:
        initial = [_norm(start - xs) for start, xs in zip(starts, x_stars)]
        del starts  # a one-state chunk frees its first state at its first step
        # a state whose distance is not <= this finite limit (NaN and inf
        # included) diverged, unless its distance is <= tol
        limits = np.array(
            [min(DIVERGENCE_FACTOR * max(d, 1e-300), sys.float_info.max) for d in initial]
        )
        t = 0  # iteration of the chunk's first state
        while True:
            # Step through one chunk, holding its states; then reduce them.
            size = min(chunk, max_iters + 1 - t)
            if work is None:
                if t:  # frees the state before, as the gradient allocates
                    x = ahead
                worker.start(x)
                g = held[1, filled] = _own_gradient(game, x)
                if t < max_iters:  # dropped if state t stops the run
                    ahead = _update(w_op, x, alpha, g)
            else:
                for k in range(size):
                    if k or t:
                        product(slots[k - 1], slots[k])
                        np.multiply(g, alpha_rows, step_g)
                        diagonals[k] -= step_g
                    g = np.vecdot(a_mat, slots[k], out=grads[filled + k])
                    np.add(g, b, g)
                worker.start(work[0, :size], work[1, :size])

            span = slice(filled, filled + size)
            held[0, span], norms[0, span], norms[1, span] = worker.result()
            dist = norms[1, span]
            going = (dist > tol) & (dist <= limits)  # False for NaN
            kept = size
            if not going.all():
                dist, hit = dist.reshape(size, -1), ~going.reshape(size, -1)
                for c in np.flatnonzero(hit.any(axis=0)):
                    if ends[c] is None:
                        stop = int(hit[:, c].argmax())
                        ends[c], left = (t + stop, float(dist[stop, c])), left - 1
                        # a final state that is a slot is copied, so that
                        # the caller's final state is not a slot
                        finals[c] = x if work is None else of(slots[stop], c).copy()
                        kept = stop + 1 if solo else size
            filled += kept
            last = not left or t + size > max_iters
            if filled > block or last:
                first = t + kept - filled + 1  # the iteration of row 1
                if whole is None:
                    finished = np.empty(filled - 1, IterationTrace)
                    blocks.append(finished)
                else:
                    finished = whole[..., first : first + filled - 1]
                _trace_rows(
                    finished, first, *held[:, :filled], *norms[:, :filled], x_star, factors
                )
                if rows is not None:
                    rows(finished.view(np.recarray))
                held[:, 0], norms[:, 0], filled = held[:, filled - 1], norms[:, filled - 1], 1
            if not last:
                t += size
                continue
            outcomes = []
            for c, end in enumerate(ends):
                if end is None:
                    end = t + kept - 1, None
                    finals[c] = x if work is None else of(slots[kept - 1], c).copy()
                iteration, distance = end
                rows_c = np.concatenate(blocks) if whole is None else of(whole, c)[: iteration + 1]
                trace = rows_c.view(np.recarray)
                if distance is None or distance <= tol:
                    outcomes.append((finals[c], trace))
                    continue
                err = DivergenceError(
                    f"diverged at iteration {iteration}: distance {distance:.3e} exceeds "
                    f"{DIVERGENCE_FACTOR:.0e} x initial {initial[c]:.3e} "
                    f"(alpha={alphas[c]} too large)"
                )
                err.iteration = iteration
                err.trace = trace  # partial trace for post-mortem reporting
                outcomes.append(err)
            return outcomes


def _record_spans(n: int, cells: int = 1) -> tuple:
    """``(chunk, block)``: how many states of each of ``cells`` runs stepped
    together :func:`run` holds for one reduction of their ``n x n`` norms,
    and for one reduction of their column means and own gradients.  A chunk
    is the largest power of two of states whose ``cells`` stacks fit within
    ``_CHUNK_BYTES``, at most a block, so it divides the block.  Below four
    states (from n = 91 for one run) a chunk is one state, stepped by
    allocation; this keeps every CSR operator (n >= 225) off the in-place
    path, whose products need ``out=``.  A block is ``_BLOCK`` states for
    one run; a group halves it, down to a chunk, until its cells' column
    means and own gradients fit within ``_CHUNK_BYTES`` too."""
    fit = _CHUNK_BYTES // (8 * n * n * cells)
    chunk = min(_BLOCK, 1 << (fit.bit_length() - 1)) if fit >= 4 else 1
    block = _BLOCK
    while cells > 1 and block > chunk and 2 * 8 * n * cells * block > _CHUNK_BYTES:
        block //= 2
    return chunk, block


def _chunk_norms(xs, x_star, n, diff):
    """Column means, consensus violations and NE distances of a stack of
    states, for the held rows of :func:`run`: states ``(k, n, n)`` of one run
    against its ``x_star`` ``(n,)``, or ``(k, cells, n, n)`` of a group
    against ``(cells, n)``.  Each mean is a sum over n (the floating-point
    operations of mean) and each norm the BLAS dot of _norm.  The
    differences go into ``diff``, or, for a single ``n x n`` state without
    it, into temporaries, each freed before the next is built.  A single
    state is reduced as it is (the stacked reduction was 6-15 % slower per
    run at n = 100)."""
    if xs.ndim == 2:
        mean = xs.sum(axis=0) / n
        cv = _norm(np.subtract(xs, mean, out=diff))
        return mean, [cv], [_norm(np.subtract(xs, x_star, out=diff))]
    # einsum adds the rows in order, as x.sum(axis=0) does, with less
    # dispatch than xs.sum(axis=1)
    means = np.einsum("...ij->...j", xs) / n
    cv = _flat_dots(np.subtract(xs, means[..., None, :], out=diff))
    dist = _flat_dots(np.subtract(xs, x_star[..., None, :], out=diff))
    return (means, *np.sqrt([cv, dist]))


class _NormWorker:
    """The norm reductions of :func:`run`, one :func:`_chunk_norms` call a
    chunk: ``start(xs, diff)`` hands over a chunk, ``result()`` returns its
    reduction.  Without ``overlap`` the reduction runs in ``result()``.

    With it, a thread started for the run reduces one state at a time while
    the calling thread steps on, and ``result()`` waits for it and raises
    on the calling thread what the reduction raised.  Its differences go into
    one ``n x n`` buffer allocated here, on the calling thread.  Differences
    allocated by the thread come from the thread's own malloc arena, which
    cannot reuse memory the caller freed: the scale-tree benchmark process
    then peaked at 137.8 and 139.1 MB, against 132.2 and 133.2 MB with this
    buffer (two runs each).  The thread runs under the run's ``np.errstate``,
    which a new thread does not inherit, and calls nothing that
    ``perfbench/tracing.py`` wraps (its span stack is one thread's).
    Leaving the ``with`` block waits for a reduction under way and joins the
    thread."""

    def __init__(self, x_star, n, overlap):
        self.args, self.job, self.reduced = (x_star, n), None, None
        self.thread, self.busy = None, False
        if overlap:
            self.diff = np.empty((n, n))
            self.posted, self.done = threading.Lock(), threading.Lock()
            self.posted.acquire()
            self.done.acquire()
            self.thread = threading.Thread(target=self._work, name="run norms")

    def __enter__(self):
        if self.thread is not None:
            self.thread.start()
        return self

    def __exit__(self, *exc_info):
        if self.thread is not None:
            if self.busy:
                self.done.acquire()
            self.job = None  # ends the thread
            self.posted.release()
            self.thread.join()

    def start(self, xs, diff=None):
        if self.thread is None:
            self.job = xs, diff
        else:
            self.job, self.busy = (xs, self.diff), True
            self.posted.release()

    def result(self):
        if self.thread is None:
            return self._reduce()
        self.done.acquire()
        self.busy = False
        reduced, self.reduced = self.reduced, None
        if isinstance(reduced, BaseException):
            raise reduced
        return reduced

    def _reduce(self):
        (xs, diff), self.job = self.job, None
        return _chunk_norms(xs, *self.args, diff)

    def _work(self):
        with np.errstate(over="ignore", invalid="ignore"):
            while True:
                self.posted.acquire()
                if self.job is None:
                    return
                try:
                    self.reduced = self._reduce()
                except BaseException as exc:  # raised again on the calling thread
                    self.reduced = exc
                self.done.release()


def _flat_dots(stack: np.ndarray) -> np.ndarray:
    """The squared norm of each ``n x n`` matrix of a stack."""
    flat = stack.reshape(*stack.shape[:-2], -1)
    return np.vecdot(flat, flat)


def _slack_factors(sigma, consts, alpha, n) -> tuple:
    """A run's factors of its trace columns: ``alpha / n``, ``sigma``,
    ``alpha * sqrt((n - 1) / n)``, ``L``, ``L**2 * alpha / mu`` and
    ``1 + mu * alpha / n``, each the float that its column's expression
    computes, so that a group's cells, which hold them as arrays, get the
    bits of a run alone."""
    big_l, mu = consts.l, consts.mu
    return (
        alpha / n,
        sigma,
        alpha * math.sqrt((n - 1) / n),
        big_l,
        big_l**2 * alpha / mu,
        1.0 + mu * alpha / n,
    )


def _trace_rows(trace, t, means, grads, cv, dist, x_star, factors) -> None:
    """Fill ``trace`` with the rows of the states in rows 1.. of a block's
    columns, iterations ``t``..; row 0 is the state before (NaN before
    t = 0, which makes the first row's transition columns NaN).  Every norm
    is the BLAS dot of _norm, so row 0 has the bits of the last row of the
    block before; the recursion residual and the slacks compare each row
    with the one above.  ``trace`` is a plain structured array, filled by
    key.  A group's columns have a cell axis after the row axis, its
    ``x_star`` and :func:`_slack_factors` one in front, and its ``trace``
    one row per cell in front of the iterations."""
    step, sigma, lemma1_gn, big_l, lemma3_cv, lemma3_avg = factors
    n = means.shape[-1]
    trace["t"] = np.arange(t, t + trace.shape[-1])
    trace["consensus_violation"], trace["distance_to_ne"] = cv[1:].T, dist[1:].T
    pred = means[:-1] - np.expand_dims(step, -1) * grads[:-1]
    vectors = (means - x_star, grads, means[1:] - pred, pred)
    dev, gn, miss, pred_norm = (np.sqrt(np.vecdot(v, v)) for v in vectors)
    avg_d = math.sqrt(n) * dev
    trace["avg_distance_to_ne"], trace["grad_norm"] = avg_d[1:].T, gn[1:].T
    trace["recursion_residual"] = (miss / (1.0 + pred_norm)).T
    # the norms of a diverged run may be inf or NaN: their slacks are too
    with np.errstate(over="ignore", invalid="ignore"):
        trace["lemma1_slack"] = (sigma * cv[:-1] + lemma1_gn * gn[:-1] - cv[1:]).T
        trace["lemma2_slack"] = (big_l * dist[1:] - gn[1:]).T
        trace["lemma3_slack"] = (
            avg_d[:-1] ** 2 + lemma3_cv * cv[:-1] ** 2 - lemma3_avg * avg_d[1:] ** 2
        ).T


def _csv_rows(block) -> str:
    """The ``trace.csv`` lines of a block of trace rows (none for no rows),
    each value as its ``repr`` (:func:`~gradplay.floattext.csv_lines`).
    ``run_experiment`` writes each block of :func:`run` as it finishes,
    never the text of a whole trace."""
    block = block.view(np.ndarray)
    table = np.column_stack([block[name] for name in TRACE_COLUMNS[1:]])
    return "".join(floattext.csv_lines(table, index=block["t"]))


def trace_to_csv(trace) -> str:
    """``trace.csv`` text for a trace."""
    return _TRACE_HEADER + _csv_rows(trace)
