"""Quadratic games: affine gradient mappings, exact constants, Nash equilibria.

A game couples ``n`` players, each choosing a scalar action ``x_i``.  Player
``i`` pays ``0.5*a[i]*x_i**2 + b[i]*x_i + (sum_{j != i} c[i, j]*x_j) * x_i``,
so her partial gradient in her own action is affine and the stacked gradient
mapping of the whole game is ``F(x) = A x + b`` with ``A = diag(a) + c``.

Because the mapping is affine, the strong-monotonicity constant ``mu``, the
per-player Lipschitz constants and the unique Nash equilibrium (the zero of
``F``) all have closed forms; this module computes them exactly instead of
estimating them from samples, so every downstream bound check is noise-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NotStronglyMonotoneError

__all__ = [
    "QuadraticGame",
    "GameConstants",
    "game_mapping",
    "estimate_constants",
    "solve_nash_equilibrium",
    "random_game",
]


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class QuadraticGame:
    """Coefficient bundle of a quadratic game.

    Attributes
    ----------
    a : ndarray, shape (n,)
        Quadratic self-coefficients, all strictly positive.
    b : ndarray, shape (n,)
        Linear coefficients.
    c : ndarray, shape (n, n)
        Coupling coefficients, zero diagonal.  ``c[i, j]`` is the weight of
        player j's action inside player i's gradient.
    seed : int or None
        Provenance only (the RNG seed used by :func:`random_game`); does not
        affect equality or any computation.

    Strong monotonicity of the induced mapping (Assumption: the symmetric
    part of ``A = diag(a) + c`` is positive definite) is not checked here
    because it costs an eigendecomposition; :func:`estimate_constants`
    verifies it and raises :class:`NotStronglyMonotoneError` otherwise.
    Games built by :func:`random_game` satisfy it by construction.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    seed: int | None = field(default=None, compare=False)

    def __post_init__(self):
        a = _readonly(np.atleast_1d(self.a))
        b = _readonly(np.atleast_1d(self.b))
        c = _readonly(np.atleast_2d(self.c))
        n = a.shape[0]
        if a.ndim != 1 or b.shape != (n,) or c.shape != (n, n):
            raise ValueError(
                f"inconsistent shapes: a {a.shape}, b {b.shape}, c {c.shape}"
            )
        if not np.all(a > 0):
            raise ValueError("all self-coefficients a_i must be > 0")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b)) and np.all(np.isfinite(c))):
            raise ValueError("game coefficients a, b and c must all be finite")
        if np.any(np.diag(c) != 0.0):
            raise ValueError("coupling matrix c must have an exactly zero diagonal")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @cached_property
    def mapping_matrix(self) -> np.ndarray:
        """The matrix ``A = diag(a) + c`` of the affine mapping ``F(x) = A x + b``."""
        return _readonly(np.diag(self.a) + self.c)

    @cached_property
    def constants(self) -> GameConstants:
        """The exact constants; see :func:`estimate_constants`.  Computed once
        per game; a game that is not strongly monotone raises on every access."""
        a_mat = self.mapping_matrix
        sym = (a_mat + a_mat.T) / 2.0
        mu = float(np.linalg.eigvalsh(sym)[0])
        if mu <= 0:
            raise NotStronglyMonotoneError(
                f"game mapping is not strongly monotone: smallest symmetric-part "
                f"eigenvalue is {mu:.6g} (must be > 0)"
            )
        l_per_player = np.linalg.norm(a_mat, axis=1)
        l = float(np.max(l_per_player))
        l_mapping = l * float(np.sqrt(self.n))
        return GameConstants(
            mu=mu,
            l_per_player=l_per_player,
            l=l,
            l_mapping=l_mapping,
            kappa=l_mapping / mu,
        )

    @cached_property
    def equilibrium(self) -> np.ndarray:
        """The equilibrium, read-only; see :func:`solve_nash_equilibrium`."""
        a_mat = self.mapping_matrix
        try:
            x_star = np.linalg.solve(a_mat, -self.b)
        except np.linalg.LinAlgError:
            raise np.linalg.LinAlgError(
                "mapping matrix is singular; the game has no unique equilibrium "
                "(strong monotonicity must not hold)"
            ) from None
        residual = float(np.linalg.norm(a_mat @ x_star + self.b))
        if residual > 1e-10 * (1.0 + float(np.linalg.norm(self.b))):
            raise np.linalg.LinAlgError(
                f"equilibrium solve residual {residual:.3e} exceeds tolerance; "
                "system too ill-conditioned"
            )
        return _readonly(x_star)


@dataclass(frozen=True)
class GameConstants:
    """Exact regularity constants of a quadratic game.

    ``mu`` is the strong-monotonicity constant (smallest eigenvalue of the
    symmetric part of ``A``), ``l_per_player[i]`` the Lipschitz constant of
    player i's partial gradient (Euclidean norm of row i of ``A``), ``l``
    their maximum, ``l_mapping = l * sqrt(n)`` the Lipschitz constant of the
    full mapping, and ``kappa = l_mapping / mu`` its condition number.
    """

    mu: float
    l_per_player: np.ndarray
    l: float
    l_mapping: float
    kappa: float

    def __post_init__(self):
        object.__setattr__(self, "l_per_player", _readonly(self.l_per_player))


def game_mapping(game: QuadraticGame, x: np.ndarray) -> np.ndarray:
    """Evaluate the stacked gradient mapping ``F(x) = A x + b``.

    Component ``i`` is player i's partial gradient of her own cost at the
    joint action ``x``.  ``x`` may also be a stack of joint actions, shape
    ``(k, n)``; row ``r`` of the result is then ``F(x[r])``, computed as the
    same matrix-vector product as a single call on ``x[r]``.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != game.n:
        raise ValueError(f"x has shape {x.shape}, expected ({game.n},) or (k, {game.n})")
    return (game.mapping_matrix @ x[..., None])[..., 0] + game.b


def estimate_constants(game: QuadraticGame) -> GameConstants:
    """Compute mu, per-player Lipschitz constants, L, L*sqrt(n) and kappa exactly.

    The result is cached on the game (``game.constants``), so repeated calls
    cost nothing.

    Raises
    ------
    NotStronglyMonotoneError
        If the smallest eigenvalue of the symmetric part of ``A`` is <= 0,
        i.e. the game violates the strong-monotonicity assumption.
    """
    return game.constants


def solve_nash_equilibrium(game: QuadraticGame) -> np.ndarray:
    """Solve ``A x* = -b`` directly; the unique zero of the game mapping.

    The solve is cached on the game (``game.equilibrium``); each call returns
    a fresh writable copy.  The system is nonsingular whenever the game is
    strongly monotone; a singular or numerically unreliable solve raises
    ``numpy.linalg.LinAlgError``.
    """
    return game.equilibrium.copy()


def random_game(n: int, seed: int, coupling_scale: float = 0.2) -> QuadraticGame:
    """Draw a random strongly monotone quadratic game, deterministic in ``seed``.

    Coefficients: ``a_i`` uniform on [1, 2], ``b_i`` uniform on [-1, 1],
    ``c_ij`` uniform on ``coupling_scale * [-1, 1]``.  Each off-diagonal row
    of ``c`` is then rescaled, if necessary, so that its absolute sum stays
    below ``0.9 * a_i``, which keeps ``A`` strictly row-diagonally dominant
    and (with the [1, 2] range for ``a``) the symmetric part positive
    definite.
    """
    if n < 2:
        raise ValueError(f"need at least 2 players, got n={n}")
    if not 0 <= coupling_scale < math.inf:
        raise ValueError(f"coupling_scale must be finite and >= 0, got {coupling_scale}")
    rng = np.random.default_rng(seed)
    a = rng.uniform(1.0, 2.0, n)
    b = rng.uniform(-1.0, 1.0, n)
    draws = rng.uniform(-1.0, 1.0, (n, n))
    c = coupling_scale * draws
    np.fill_diagonal(c, 0.0)
    # |c| goes into the spent draws: a fresh n x n array raised peak RSS
    with np.errstate(over="ignore"):  # an infinite row sum is refused below
        row_sums = np.abs(c, out=draws).sum(axis=1)
    if np.any(row_sums == math.inf):
        raise ValueError(
            f"coupling_scale={coupling_scale!r} is too large: a row sum of |c| overflows"
        )
    budget = 0.9 * a
    c *= (budget / np.maximum(row_sums, budget))[:, None]
    return QuadraticGame(a=a, b=b, c=c, seed=seed)

