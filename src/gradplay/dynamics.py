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

:func:`run` iterates this update and records four norms per iteration:
consensus violation, distances to the equilibrium and gradient norm.  After
the loop it derives, column-wise, the slack (rhs - lhs) of the three
per-step inequalities that drive the geometric-rate proof.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DivergenceError
from .game import QuadraticGame, estimate_constants, solve_nash_equilibrium
from .network import MixingMatrix

__all__ = [
    "IterationTrace",
    "TRACE_COLUMNS",
    "diag_gradient",
    "step",
    "running_average",
    "consensual_matrix",
    "initial_estimates",
    "run",
    "trace_to_csv",
    "write_trace_csv",
]

#: Divergence guard: abort when the distance to the equilibrium exceeds this
#: multiple of its initial value.  Admissible step sizes contract, so the
#: guard only ever trips on a step size far beyond the certified ceiling.
DIVERGENCE_FACTOR = 1e12

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
#: a single value.
IterationTrace = np.dtype(
    [(TRACE_COLUMNS[0], np.int64)] + [(name, np.float64) for name in TRACE_COLUMNS[1:]]
)


def _check_step_size(alpha) -> None:
    if not 0 < alpha < math.inf:
        raise ValueError(f"step size must be finite and > 0, got {alpha}")


def _own_gradient(game: QuadraticGame, x_mat: np.ndarray) -> np.ndarray:
    return np.sum(game.mapping_matrix * x_mat, axis=1) + game.b


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm(v)`` of a real array, Frobenius for a matrix: the same
    BLAS dot of the flattened array, without its per-call overhead.  The
    flattened temporary dies with the call, so ``run()`` keeps no extra
    ``n x n`` array alive into the next step."""
    v = v.ravel()
    return math.sqrt(v @ v)


def _update(w_op, x_mat: np.ndarray, alpha: float, g: np.ndarray, own) -> np.ndarray:
    # w_op is a dense matrix or MixingMatrix.operator; both give an ndarray.
    # own is np.arange(n), made once by a caller that updates many times.
    out = w_op @ x_mat
    out[own, own] -= alpha * g
    return out


def diag_gradient(game, x_mat: np.ndarray) -> np.ndarray:
    """Each player's own partial gradient evaluated at her own row.

    Component ``i`` equals ``game_mapping(row i)[i]``.  The diagonal matrix
    carrying this vector is the gradient-correction term of the update; its
    Frobenius norm is the Euclidean norm of the returned vector.

    ``game`` may also be a callable ``x_mat -> vector`` supplying the same
    per-row gradients for a non-quadratic game.
    """
    x_mat = np.asarray(x_mat, dtype=float)
    if callable(game):
        g = np.asarray(game(x_mat), dtype=float)
        if g.shape != (x_mat.shape[0],):
            raise ValueError(
                f"gradient callback returned shape {g.shape}, "
                f"expected ({x_mat.shape[0]},)"
            )
        return g
    n = game.n
    if x_mat.shape != (n, n):
        raise ValueError(f"estimation matrix has shape {x_mat.shape}, expected ({n}, {n})")
    return _own_gradient(game, x_mat)


def step(x_mat: np.ndarray, w, alpha: float, game) -> np.ndarray:
    """One gradient-play update ``W x - alpha * Diag(g)``.

    Only the diagonal (own-action) entries receive the gradient correction;
    every other entry is pure neighborhood averaging.  A
    :class:`MixingMatrix` is applied through its ``operator``, as in
    :func:`run`; a plain array is applied densely.
    """
    _check_step_size(alpha)
    x_mat = np.asarray(x_mat, dtype=float)
    w_op = w.operator if isinstance(w, MixingMatrix) else np.asarray(w, dtype=float)
    if w_op.shape != x_mat.shape:
        raise ValueError(
            f"shape mismatch: mixing matrix {w_op.shape}, estimates {x_mat.shape}"
        )
    own = np.arange(x_mat.shape[0])
    return _update(w_op, x_mat, alpha, diag_gradient(game, x_mat), own)


def running_average(x_mat: np.ndarray) -> np.ndarray:
    """Column means: the network-wide average estimate of each action."""
    x_mat = np.asarray(x_mat, dtype=float)
    return x_mat.mean(axis=0)


def consensual_matrix(v: np.ndarray) -> np.ndarray:
    """Matrix with every row equal to ``v``."""
    v = np.asarray(v, dtype=float)
    return np.tile(v, (v.shape[0], 1))


def initial_estimates(n: int, seed: int = 0, kind: str = "uniform") -> np.ndarray:
    """Starting estimation matrix, deterministic in ``seed``.

    ``uniform``: entrywise uniform on [-1, 1] (default).
    ``zero``: all zeros.
    ``self``: random own action on the diagonal, zero estimates elsewhere.
    """
    if kind == "zero":
        return np.zeros((n, n))
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.uniform(-1.0, 1.0, (n, n))
    if kind == "self":
        return np.diag(rng.uniform(-1.0, 1.0, n))
    raise ValueError(f"unknown initializer kind {kind!r}")


def run(
    game: QuadraticGame,
    w: MixingMatrix,
    alpha: float,
    x0: np.ndarray,
    max_iters: int,
    tol: float = 0.0,
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

    Returns
    -------
    (final, trace) : (ndarray, np.recarray of dtype IterationTrace)
        The trace has one row per visited state, the initial one included.

    Raises
    ------
    DivergenceError
        If the distance to the equilibrium is not finite or exceeds
        ``DIVERGENCE_FACTOR`` times its initial value (step size far above
        the ceiling).  Its ``trace`` holds the rows up to that iteration.
    """
    if not isinstance(game, QuadraticGame):
        raise TypeError(
            "run() needs a QuadraticGame (exact equilibrium and constants); "
            "for a plain gradient callback iterate step() directly"
        )
    _check_step_size(alpha)
    if tol < 0:
        raise ValueError(f"tolerance must be >= 0, got {tol}")
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")

    n = game.n
    x = np.array(x0, dtype=float)
    if x.shape != (n, n):
        raise ValueError(f"x0 has shape {x.shape}, expected ({n}, {n})")
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 must be finite")
    if w.n != n:
        raise ValueError(f"mixing matrix is {w.n} x {w.n}, game has n={n}")

    consts = estimate_constants(game)
    x_star = solve_nash_equilibrium(game)
    x_star_mat = consensual_matrix(x_star)
    w_op = w.operator
    norms = []  # (consensus_violation, distance_to_ne, avg_distance_to_ne, grad_norm)

    def trace():
        return _trace_from_norms(norms, w.sigma, consts.mu, consts.l, alpha, n)

    own = np.arange(n)
    sqrt_n = math.sqrt(n)
    # Each mean is a sum over n: the floating-point operations of mean,
    # without its per-call overhead.  A diverging run overflows; the guard
    # below turns the non-finite distance into a DivergenceError.
    with np.errstate(over="ignore", invalid="ignore"):
        initial_dist = _norm(x - x_star_mat)
        dist_limit = DIVERGENCE_FACTOR * max(initial_dist, 1e-300)
        for t in range(max_iters + 1):
            avg = x.sum(axis=0) / n
            dist = _norm(x - x_star_mat)
            g = _own_gradient(game, x)
            norms.append((_norm(x - avg), dist, sqrt_n * _norm(avg - x_star), _norm(g)))

            if dist <= tol:
                break
            if not math.isfinite(dist) or dist > dist_limit:
                err = DivergenceError(
                    f"diverged at iteration {t}: distance {dist:.3e} exceeds "
                    f"{DIVERGENCE_FACTOR:.0e} x initial {initial_dist:.3e} "
                    f"(alpha={alpha} too large)"
                )
                err.iteration = t
                err.trace = trace()  # partial trace for post-mortem reporting
                raise err
            if t == max_iters:
                break
            x = _update(w_op, x, alpha, g, own)

    return x, trace()


def _trace_from_norms(norms, sigma, mu, big_l, alpha, n) -> np.recarray:
    """The trace of a run from its per-state norms: the slack columns are
    shifts and products of whole norm columns."""
    trace = np.recarray(len(norms), dtype=IterationTrace)
    cv, dist, avg_d, gn = np.array(norms, dtype=float).reshape(-1, 4).T
    trace.t = np.arange(len(norms))
    trace.consensus_violation = cv
    trace.distance_to_ne = dist
    trace.avg_distance_to_ne = avg_d
    trace.grad_norm = gn
    trace.lemma1_slack[:1] = trace.lemma3_slack[:1] = math.nan
    # the norms of a diverged run may be inf or NaN: their slacks are too
    with np.errstate(over="ignore", invalid="ignore"):
        trace.lemma1_slack[1:] = (
            sigma * cv[:-1] + alpha * math.sqrt((n - 1) / n) * gn[:-1] - cv[1:]
        )
        trace.lemma2_slack = big_l * dist - gn
        trace.lemma3_slack[1:] = (
            avg_d[:-1] ** 2
            + (big_l**2 * alpha / mu) * cv[:-1] ** 2
            - (1.0 + mu * alpha / n) * avg_d[1:] ** 2
        )
    return trace


def trace_to_csv(trace) -> str:
    """CSV text for a trace; full double precision via shortest repr."""
    columns = [map(repr, trace[name].tolist()) for name in TRACE_COLUMNS]
    lines = [",".join(TRACE_COLUMNS), *map(",".join, zip(*columns))]
    return "\n".join(lines) + "\n"


def write_trace_csv(trace, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(trace_to_csv(trace))
