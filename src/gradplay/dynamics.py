"""The distributed gradient-play iteration on the estimation matrix.

Each player keeps one row of an ``n x n`` estimation matrix: her running
estimate of the full joint action.  Entry ``(i, i)`` is her own action.  One
iteration mixes every column through the mixing matrix ``W`` and then
corrects each player's own-action entry with a local gradient step:

    x[i, l] <- sum_j w[i, j] * x[j, l]                      for l != i
    x[i, i] <- sum_j w[i, j] * x[j, i] - alpha * g_i        g_i = own partial
                                                            gradient at row i

in matrix form ``x <- W x - alpha * Diag(g)``.  The column means (the
network-wide running average) then follow the exact recursion
``avg <- avg - (alpha / n) * g``.

:func:`run` iterates this update and records four norms and the recursion
residual of every state.  Its loop only steps: it computes the own gradients,
applies the update and holds the states.  The states of a chunk (as many as
fit in a cache-sized byte budget; one state from n = 91) are stepped in place
into one buffer allocated per run: each product is written into its slot by
``ndarray.dot``, and the gradient correction, taken against alpha held as an
n-vector, is applied through precomputed diagonal views; a one-state chunk
allocates each new state.  The two norms of the ``n x n`` states and the
column means (one ``einsum`` over the chunk) are reduced once per chunk, the
gradient norms and residuals once per block of 256 states.  From n = 200
(``_OVERLAP_FLOATS``) a thread started for the run reduces each state's
norms while the calling thread computes its own gradients and the next
state, ahead of need; a state that stops the run drops the state computed
after it, and no step is taken past the horizon.  The reductions are the
same calls on the same arrays, so every value is the same.  A block's
columns hold its states in rows 1.., and row 0 carries the last state of the
block before (NaN before t = 0).  Each finished block becomes its trace rows
at once, with, column-wise against the row above, the recursion residual and
the slack (rhs - lhs) of the three per-step inequalities of the
geometric-rate proof; the rows are filled by key into a plain structured
array and handed over as a record-array view, and a caller may take the
blocks as they finish.
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
from .network import MixingMatrix, _row_dots

__all__ = [
    "IterationTrace",
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
    return (game.mapping_matrix * x_mat).sum(axis=1) + game.b


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
    i's own partial gradient at row i.

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
        diverged run.

    Returns
    -------
    (final, trace) : (ndarray, np.recarray of dtype IterationTrace)
        The trace has one row per visited state, the initial one included.

    Notes
    -----
    From ``_OVERLAP_FLOATS`` entries of a state (n >= 200), a thread started
    for the call reduces the norms of state t while the calling thread
    computes the own gradients at t and state t + 1 (only while t is below
    ``max_iters``).  The stop test waits for the norms; if state t stops the
    run, state t + 1 is dropped.  The results are those of one thread to
    the bit, an exception raised in the thread is raised by the call, and
    the thread is joined before the call returns or raises.

    Raises
    ------
    DivergenceError
        If the distance to the equilibrium is not finite or exceeds
        ``DIVERGENCE_FACTOR`` times its initial value (step size far above
        the ceiling).  Its ``trace`` holds the rows up to that iteration.
    """
    _check_inputs(game, w)
    _check_step_size(alpha)
    if not tol >= 0:  # NaN included
        raise ValueError(f"tolerance must be >= 0, got {tol}")
    try:
        max_iters = operator.index(max_iters)
    except TypeError:
        raise ValueError(f"max_iters must be an integer, got {max_iters!r}") from None
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")

    n = game.n
    x = np.array(x0, dtype=float, order="C")
    if x.shape != (n, n):
        raise ValueError(f"x0 has shape {x.shape}, expected ({n}, {n})")
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 must be finite")
    if w.n != n:
        raise ValueError(f"mixing matrix is {w.n} x {w.n}, game has n={n}")

    consts = estimate_constants(game)
    x_star = solve_nash_equilibrium(game)
    w_op = w.operator
    chunk, block = (min(span, max_iters + 1) for span in _record_spans(n))
    blocks = []  # the trace's rows, one finished block at a time
    # Column means (0) and own gradients (1), and consensus violations (0)
    # and NE distances (1), of a block's states in rows 1..; row 0 carries
    # the last state of the block before (NaN before t = 0).  A chunk divides
    # the block, so its rows never straddle two blocks.
    held = np.full((2, block + 1, n), math.nan)
    norms = np.full((2, block + 1), math.nan)
    filled = 1
    work = None
    if chunk > 1:
        # A chunk's states (0) and their differences (1), allocated once.  The
        # loop steps in place: W times the state in slot k - 1 goes into slot
        # k, and the own gradient into the held row.  Only a full chunk is
        # followed by another, whose slot 0 takes the last slot (-1).  w_op is
        # the dense w here: a CSR operator has no out= and needs n >= 225,
        # where a chunk is one state.
        work = np.empty((2, chunk, n, n))
        work[0, 0] = x
        slots = list(work[0])
        diagonals = list(np.einsum("kii->ki", work[0]))
        grads = list(held[1])
        scratch = work[1, 0]  # free while stepping
        a_mat, b = game.mapping_matrix, game.b
        # alpha as an n-vector: a Python-float operand takes numpy's slower
        # scalar path; the products alpha * g_i are the same bits
        alphas, step_g = np.full(n, alpha, dtype=float), np.empty(n)

    # From _OVERLAP_FLOATS a one-state chunk's norms are reduced on a worker
    # thread while this thread steps to the next state, ahead of need.
    overlap = work is None and n * n >= _OVERLAP_FLOATS
    # A diverging run overflows; the guard below turns the non-finite
    # distance into a DivergenceError.
    with np.errstate(over="ignore", invalid="ignore"), _NormWorker(x_star, n, overlap) as worker:
        initial_dist = _norm(x - x_star)
        # a state whose distance is not <= this finite limit (NaN and inf
        # included) diverged, unless its distance is <= tol
        dist_limit = min(DIVERGENCE_FACTOR * max(initial_dist, 1e-300), sys.float_info.max)
        t = 0  # iteration of the chunk's first state
        while True:
            # Step through one chunk, holding its states; then reduce them.
            size = min(chunk, max_iters + 1 - t)
            if work is None:
                if t:  # frees the state before, as the gradient allocates
                    x = ahead if overlap else _update(w_op, x, alpha, g)
                worker.start(x)
                g = held[1, filled] = _own_gradient(game, x)
                if overlap and t < max_iters:  # dropped if state t stops the run
                    ahead = _update(w_op, x, alpha, g)
            else:
                for k in range(size):
                    if k or t:
                        w_op.dot(slots[k - 1], slots[k])
                        np.multiply(g, alphas, step_g)
                        diagonals[k] -= step_g
                    np.multiply(a_mat, slots[k], out=scratch)
                    g = np.add.reduce(scratch, axis=1, out=grads[filled + k])
                    np.add(g, b, g)
                worker.start(work[0, :size], work[1, :size])

            span = slice(filled, filled + size)
            held[0, span], norms[0, span], norms[1, span] = worker.result()
            dist = norms[1, span].tolist()
            stop = next((k for k, d in enumerate(dist) if d <= tol or not d <= dist_limit), None)
            kept = size if stop is None else stop + 1
            filled += kept
            last = stop is not None or t + size > max_iters
            if filled > block or last:
                finished = _trace_rows(  # row 0 is iteration t + kept - filled
                    t + kept - filled, *held[:, :filled], *norms[:, :filled],
                    x_star, w.sigma, consts, alpha, n,
                )
                blocks.append(finished)
                if rows is not None:
                    rows(finished)
                held[:, 0], norms[:, 0], filled = held[:, filled - 1], norms[:, filled - 1], 1
            if not last:
                t += size
                continue
            # the rows as one record array; a final state that is a slot is
            # copied, so that the caller's final state is not a slot
            trace = np.concatenate(blocks).view(np.recarray)
            if stop is None or dist[stop] <= tol:
                return (x if work is None else slots[kept - 1].copy()), trace
            t += stop
            err = DivergenceError(
                f"diverged at iteration {t}: distance {dist[stop]:.3e} exceeds "
                f"{DIVERGENCE_FACTOR:.0e} x initial {initial_dist:.3e} "
                f"(alpha={alpha} too large)"
            )
            err.iteration = t
            err.trace = trace  # partial trace for post-mortem reporting
            raise err


def _record_spans(n: int) -> tuple:
    """``(chunk, block)``: how many states :func:`run` holds for one
    reduction of their ``n x n`` norms, and for one reduction of their column
    means and own gradients.  A chunk is the largest power of two of states
    within ``_CHUNK_BYTES``, at most a block, so it divides ``_BLOCK``.
    Below four states (from n = 91) a chunk is one state, stepped by
    allocation; this keeps every CSR operator (n >= 225) off the in-place
    path, whose products need ``out=``."""
    fit = _CHUNK_BYTES // (8 * n * n)
    return (min(_BLOCK, 1 << (fit.bit_length() - 1)) if fit >= 4 else 1), _BLOCK


def _chunk_norms(xs, x_star, n, diff):
    """Column means, consensus violations and NE distances of a stack of
    states, for the held rows of :func:`run`.  Each mean is a sum over n (the
    floating-point operations of mean) and each norm the BLAS dot of _norm.
    The differences go into ``diff``, or, for a single ``n x n`` state
    without it, into temporaries, each freed before the next is built.  A
    single state is reduced as it is (the stacked reduction was 6-15 % slower
    per run at n = 100)."""
    if xs.ndim == 2:
        mean = xs.sum(axis=0) / n
        cv = _norm(np.subtract(xs, mean, out=diff))
        return mean, [cv], [_norm(np.subtract(xs, x_star, out=diff))]
    # einsum adds the rows in order, as x.sum(axis=0) does, with less
    # dispatch than xs.sum(axis=1)
    means = np.einsum("kij->kj", xs) / n
    cv = _flat_dots(np.subtract(xs, means[:, None], out=diff))
    dist = _flat_dots(np.subtract(xs, x_star, out=diff))
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
    flat = stack.reshape(len(stack), -1)
    return _row_dots(flat, flat)


def _trace_rows(t, means, grads, cv, dist, x_star, sigma, consts, alpha, n) -> np.recarray:
    """The trace rows of the states in rows 1.. of a block's columns; row 0
    is the state before, iteration ``t`` (NaN before t = 0, which makes the
    first row's transition columns NaN).  Every norm is the BLAS dot of
    _norm, so row 0 gets the bits of the last row of the block before; the
    recursion residual and the slacks compare each row with the one above.
    The rows are filled by key in a plain structured array, and handed over
    as a record-array view."""
    trace = np.empty(len(dist), dtype=IterationTrace)
    trace["t"] = np.arange(t, t + len(trace))
    trace["consensus_violation"], trace["distance_to_ne"] = cv, dist
    pred = means[:-1] - (alpha / n) * grads[:-1]
    vectors = (means - x_star, grads, means[1:] - pred, pred)
    dev, gn, miss, pred_norm = (np.sqrt(_row_dots(v, v)) for v in vectors)
    avg_d = math.sqrt(n) * dev
    trace["avg_distance_to_ne"], trace["grad_norm"] = avg_d, gn
    trace["recursion_residual"][1:] = miss / (1.0 + pred_norm)
    big_l, mu = consts.l, consts.mu
    # the norms of a diverged run may be inf or NaN: their slacks are too
    with np.errstate(over="ignore", invalid="ignore"):
        trace["lemma1_slack"][1:] = (
            sigma * cv[:-1] + alpha * math.sqrt((n - 1) / n) * gn[:-1] - cv[1:]
        )
        trace["lemma2_slack"][1:] = big_l * dist[1:] - gn[1:]
        trace["lemma3_slack"][1:] = (
            avg_d[:-1] ** 2
            + (big_l**2 * alpha / mu) * cv[:-1] ** 2
            - (1.0 + mu * alpha / n) * avg_d[1:] ** 2
        )
    return trace[1:].view(np.recarray)


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
    return ",".join(TRACE_COLUMNS) + "\n" + _csv_rows(trace)
