"""Closed-form step-size ceilings and geometric contraction certificates.

Given the game constants ``mu`` (strong monotonicity) and ``l`` (largest
per-player Lipschitz constant), the network contraction factor ``sigma`` and
the player count ``n``, this module evaluates:

* the five admissibility ceilings whose minimum bounds the constant step
  size ``alpha`` (:func:`step_size_terms`, :func:`alpha_max`);
* the certificate of one step size (:func:`step_size_plan`, the only
  builder of a :class:`StepSizePlan`): the ceiling terms, the 2x2 positive
  matrix that couples the squared averaged-iterate error and the squared
  consensus violation across one iteration, and its spectral quantities:
  discriminant, both eigenvalues and the contraction rate ``q = lambda1``.
  :func:`rate_bound` returns that plan;
* the equivalent quadratic-root form of the fifth ceiling term
  (:func:`quadratic_form_alpha_bound`), a second route to the same number;
* the asymptotic rate-gap comparison against the GRANE algorithm
  (:func:`grane_rate_comparison`).

Throughout, ``beta = (1/sigma**2 - 1) / 2`` and ``gamma = 1/(1 + mu*alpha/n)``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import InadmissibleStepSizeError, PerfectMixingError

__all__ = [
    "StepSizePlan",
    "RateComparison",
    "step_size_terms",
    "alpha_max",
    "rate_bound",
    "quadratic_form_alpha_bound",
    "step_size_plan",
    "grane_rate_comparison",
]


def _validate_constants(mu: float, l: float, sigma: float, n: int) -> None:
    if not 0 < mu < math.inf:
        raise ValueError(f"mu must be finite and > 0, got {mu}")
    if not 0 < l < math.inf:
        raise ValueError(f"l must be finite and > 0, got {l}")
    if l < mu:
        # mu <= a_i <= ||row i of A|| <= l in every game.
        raise ValueError(f"l must be >= mu, got l={l} < mu={mu}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if sigma == 0:
        raise PerfectMixingError(
            "sigma = 0 (perfect mixing): the third ceiling term vanishes and "
            "no step size is certified; the iteration itself still works"
        )
    if not 0 < sigma < 1:
        raise ValueError(
            f"sigma must lie in (0, 1), got {sigma}; sigma >= 1 means the "
            "mixing matrix does not contract disagreement"
        )


def _check_double_range(values, constants: str) -> None:
    if not all(0 < v < math.inf for v in values):
        raise ValueError(f"{constants}: a derived quantity leaves the double range")


def step_size_terms(mu: float, l: float, sigma: float, n: int):
    """The five step-size ceiling terms, in order.

    Geometric convergence is certified for any ``0 < alpha < min(terms)``:

    * ``t1 = 1``
    * ``t2 = mu / (2 l^2)``
    * ``t3 = (sigma / 2l) sqrt(n/(n-1)) (sqrt(2)/sqrt(1+sigma^2) - 1)``
    * ``t4 = (n/mu) (8/(sqrt(1+sigma^2) - sqrt(2))^2 - 1)``
    * ``t5 = (sqrt(n^2 + 2 mu^4 (1-sigma^2) / ((n-1) l^4 (1+sigma^2))) - n)
      / (2 mu)``

    All five are strictly positive on the admissible domain.  ``t5`` is by
    far the smallest for large ``n`` or poorly mixing graphs.  Constants that
    take a term out of the double range raise ``ValueError``.

    Differences of nearby quantities (``sqrt(2) - sqrt(1+sigma^2)``,
    ``sqrt(n^2 + x) - n``, ``1 - sigma^2``) are evaluated in rationalized
    form, so every term keeps full relative accuracy even for ``sigma``
    near 1 or tiny ``mu / l``.
    """
    _validate_constants(mu, l, sigma, n)
    one_minus_s2 = (1.0 - sigma) * (1.0 + sigma)
    one_plus_s2 = 1.0 + sigma * sigma
    root_1s2 = math.sqrt(one_plus_s2)
    try:
        t1 = 1.0
        t2 = mu / (2.0 * l * l)
        # sqrt(2)/sqrt(1+s^2) - 1 == (1 - s^2) / (sqrt(1+s^2) (sqrt(2) + sqrt(1+s^2)))
        t3 = (
            sigma
            / (2.0 * l)
            * math.sqrt(n / (n - 1.0))
            * one_minus_s2
            / (root_1s2 * (math.sqrt(2.0) + root_1s2))
        )
        # (sqrt(1+s^2) - sqrt(2))^2 == (1 - s^2)^2 / (sqrt(1+s^2) + sqrt(2))^2
        t4 = n / mu * (
            8.0 * (root_1s2 + math.sqrt(2.0)) ** 2 / (one_minus_s2 * one_minus_s2) - 1.0
        )
        # sqrt(n^2 + x) - n == x / (sqrt(n^2 + x) + n)
        x = 2.0 * mu**4 * one_minus_s2 / ((n - 1.0) * l**4 * one_plus_s2)
        t5 = x / ((math.sqrt(n * n + x) + n) * 2.0 * mu)
        terms = t1, t2, t3, t4, t5
    except ArithmeticError:  # a power overflows, or a square underflows to 0
        terms = (math.nan,)
    _check_double_range(terms, f"mu={mu!r}, l={l!r}, sigma={sigma!r}, n={n}")
    return terms


def alpha_max(mu: float, l: float, sigma: float, n: int) -> float:
    """Minimum of the five ceiling terms; the certified step-size supremum."""
    return min(step_size_terms(mu, l, sigma, n))


def rate_bound(mu: float, l: float, sigma: float, n: int, alpha: float) -> StepSizePlan:
    """Contraction rate ``q(alpha)`` and the spectral data behind it.

    The :class:`StepSizePlan` of ``alpha``: ``q`` is the dominant
    eigenvalue ``lambda1`` of its comparison matrix ``z``, and the squared
    error envelope decays like ``q**t``.  Guarantees on the admissible domain:
    ``0 < q < 1`` and ``lambda1 > |lambda2|``.

    Precision note: once ``mu * alpha / n`` shrinks toward machine epsilon
    the computed ``q`` rounds to 1, and :func:`step_size_plan` refuses such
    a step size.
    """
    return step_size_plan(mu, l, sigma, n, alpha)


def quadratic_form_alpha_bound(mu: float, l: float, sigma: float, n: int) -> float:
    """Fifth ceiling term via its equivalent quadratic-root form.

    Solves ``c mu alpha^2 + n c alpha - 1 < 0`` with
    ``c = (2 (n-1) / mu^3) ((1+sigma^2)/(1-sigma^2)) l^4`` for the positive
    root.  Algebraically identical to ``step_size_terms(...)[4]``; the two
    routes serve as mutual cross-checks.
    """
    _validate_constants(mu, l, sigma, n)
    try:
        one_minus_s2 = (1.0 - sigma) * (1.0 + sigma)
        c = 2.0 * (n - 1.0) / mu**3 * (1.0 + sigma * sigma) / one_minus_s2 * l**4
        y = 4.0 * mu / c
        # -n + sqrt(n^2 + y) == y / (n + sqrt(n^2 + y))
        t5 = y / ((n + math.sqrt(n * n + y)) * 2.0 * mu)
    except ArithmeticError:  # a power overflows, or mu**3 underflows to 0
        t5 = math.nan
    _check_double_range((t5,), f"mu={mu!r}, l={l!r}, sigma={sigma!r}, n={n}")
    return t5


@dataclass(frozen=True)
class StepSizePlan:
    """A chosen step size with its full admissibility and rate certificate.

    ``terms`` are the five ceiling terms, ``alpha_max`` their minimum,
    ``alpha`` the chosen value (strictly inside ``(0, alpha_max)``), and the
    remaining fields the spectral quantities of the coupled error recursion
    at that ``alpha``.  ``z`` is the read-only 2x2 comparison matrix ``Z``:
    one iteration satisfies ``z_{t+1} <= Z z_t`` elementwise for
    ``z_t = (||avg error||_F^2, ||consensus violation||_F^2)``.
    :meth:`to_dict` leaves it out.
    """

    mu: float
    l: float
    sigma: float
    n: int
    terms: tuple
    alpha_max: float
    alpha: float
    beta: float
    gamma: float
    d: float
    lambda1: float
    lambda2: float
    q: float
    z: np.ndarray = field(repr=False, compare=False)

    def to_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "z"}
        doc["terms"] = list(self.terms)
        return doc

    def to_text(self) -> str:
        lines = [f"{key}: {value!r}" for key, value in self.to_dict().items()]
        return "\n".join(lines) + "\n"


def step_size_plan(
    mu: float, l: float, sigma: float, n: int, alpha: float | None = None
) -> StepSizePlan:
    """Build a :class:`StepSizePlan`, the one certificate of a step size.

    ``alpha=None`` selects ``0.9 * alpha_max``: the certificate requires a
    strict inequality and the ceiling itself carries floating-point
    rounding, so a margin below the supremum is kept by default.  Raises
    :class:`InadmissibleStepSizeError` unless ``0 < alpha < alpha_max`` and
    the computed ``q`` is below 1.
    """
    terms = step_size_terms(mu, l, sigma, n)
    ceiling = min(terms)
    if alpha is None:
        alpha = 0.9 * ceiling
    if not 0 < alpha < ceiling:
        raise InadmissibleStepSizeError(
            f"alpha={alpha!r} outside (0, {ceiling!r}): contraction rate "
            "q < 1 is not guaranteed"
        )
    # 1 - sigma^2 and the derived ratios are kept in cancellation-free form.
    one_minus_s2 = (1.0 - sigma) * (1.0 + sigma)
    one_plus_s2 = 1.0 + sigma * sigma
    two_s2 = 2.0 * sigma * sigma  # 0 where sigma**2 underflows
    beta = one_minus_s2 / two_s2 if two_s2 else math.inf  # == (1/sigma^2 - 1) / 2
    one_plus_beta = one_plus_s2 / two_s2 if two_s2 else math.inf
    _check_double_range((beta, one_plus_beta), f"mu={mu!r}, l={l!r}, sigma={sigma!r}, n={n}")
    gamma = 1.0 / (1.0 + mu * alpha / n)
    s = sigma + alpha * math.sqrt((n - 1.0) / n) * l
    a22 = one_plus_beta * s * s
    # (1 + beta) / beta == (1 + sigma^2) / (1 - sigma^2)
    d = (gamma - a22) ** 2 + 8.0 * (n - 1.0) / (
        n + mu * alpha
    ) * alpha**3 / mu * one_plus_s2 / one_minus_s2 * l**4
    sqrt_d = math.sqrt(d)
    lambda1 = (gamma + a22 + sqrt_d) / 2.0
    lambda2 = (gamma + a22 - sqrt_d) / 2.0
    if not lambda1 < 1.0:
        raise InadmissibleStepSizeError(
            f"alpha={alpha!r} is too small for a contraction rate q < 1 in "
            f"double precision (q rounds to {lambda1!r})"
        )
    z = np.array(
        [
            [gamma, gamma * 2.0 * l * l * alpha / mu],
            [one_plus_s2 / one_minus_s2 * (n - 1.0) / n * alpha * alpha * l * l, a22],
        ]
    )
    z.setflags(write=False)
    return StepSizePlan(
        mu=float(mu),
        l=float(l),
        sigma=float(sigma),
        n=int(n),
        terms=tuple(float(t) for t in terms),
        alpha_max=float(ceiling),
        alpha=float(alpha),
        beta=beta,
        gamma=gamma,
        d=d,
        lambda1=lambda1,
        lambda2=lambda2,
        q=lambda1,
        z=z,
    )


@dataclass(frozen=True)
class RateComparison:
    """Asymptotic rate-gap comparison: this gradient play vs the GRANE.

    Both algorithms contract like ``(1 - gap)**t``; larger gap is faster.
    The gap expressions are the published asymptotic forms with unstated
    constants, so the comparison is order-of-magnitude, not a runtime
    prediction.  ``asymptotic_regime`` is False for ``n < 10``, where the
    "sufficiently large n" simplifications are least reliable.
    """

    grane_gap: float
    play_gap: float
    ratio_play_over_grane: float
    kappa: float
    play_faster: bool
    asymptotic_regime: bool
    alpha_asymptotic: float | None = None
    grane_gamma_r: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    def to_text(self) -> str:
        d = self.to_dict()
        lines = [f"{key}: {value!r}" for key, value in d.items()]
        if not self.asymptotic_regime:
            lines.append(
                "note: n < 10 is outside the large-n regime these gap "
                "expressions were derived for"
            )
        lines.append("note: asymptotic comparison (order notation), not a runtime prediction")
        return "\n".join(lines) + "\n"


def grane_rate_comparison(
    mu: float,
    l: float,
    n: int,
    sigma: float | None = None,
    lap_sigma_max: float | None = None,
    lap_lambda_min_nonzero: float | None = None,
) -> RateComparison:
    """Compare the contraction gaps of gradient play and the GRANE.

    * GRANE gap: ``mu^6 / (l^6 n^6)``.
    * Gradient-play gap: ``mu^4 / (l^4 n^2 (n-1))``, obtained by inserting
      the asymptotic step size ``mu^3 (1-sigma^2) / (2 n (n-1) l^4
      (1+sigma^2))`` into ``1 - mu*alpha/n``.

    Their ratio is ``(l^2/mu^2) n^4/(n-1)``, which exceeds 1 whenever the
    mapping condition number ``kappa = l sqrt(n) / mu`` is at least 1, so
    ``play_faster`` is always True on the valid domain.

    ``alpha_asymptotic`` is reported when ``sigma`` is supplied.
    ``lap_sigma_max`` (largest singular value of ``I - W``) and
    ``lap_lambda_min_nonzero`` (smallest nonzero eigenvalue of ``I - W``)
    come both or neither; with both, the intermediate GRANE constant
    ``gamma_r`` is reported as informational output; it comes from the
    GRANE's own analysis and plays no role in the gap comparison.
    """
    if not (0 < mu < math.inf and 0 < l < math.inf):
        raise ValueError(f"mu and l must be finite and > 0, got mu={mu}, l={l}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    try:
        kappa = l * math.sqrt(n) / mu
        grane_gap = mu**6 / (l**6 * float(n) ** 6)
        play_gap = mu**4 / (l**4 * float(n) ** 2 * (n - 1.0))
        alpha_asymptotic = None
        if sigma is not None:
            if not 0 <= sigma < 1:
                raise ValueError(f"sigma must lie in [0, 1), got {sigma}")
            alpha_asymptotic = (
                mu**3
                * (1.0 - sigma)
                * (1.0 + sigma)
                / (2.0 * n * (n - 1.0) * l**4 * (1.0 + sigma * sigma))
            )
        gamma_r = None
        if (lap_sigma_max is None) != (lap_lambda_min_nonzero is None):
            raise ValueError("lap_sigma_max and lap_lambda_min_nonzero must be given together")
        if lap_sigma_max is not None:
            if not (0 <= lap_sigma_max < math.inf and 0 < lap_lambda_min_nonzero < math.inf):
                raise ValueError(
                    "lap_sigma_max must be finite and >= 0 and "
                    "lap_lambda_min_nonzero finite and > 0"
                )
            gamma_r = 2.0 * n * (
                l / mu
                + (l / mu)
                * (1.0 + n * n * l * l / (mu * mu))
                * lap_sigma_max
                / lap_lambda_min_nonzero
            )
        values = [kappa, grane_gap, play_gap, play_gap / grane_gap]
        values += [v for v in (alpha_asymptotic, gamma_r) if v is not None]
    except ArithmeticError:  # a power overflows, or a gap underflows to 0
        values = [math.nan]
    _check_double_range(values, f"mu={mu!r}, l={l!r}, n={n}")
    if kappa < 1:
        raise ValueError(
            f"condition number l*sqrt(n)/mu = {kappa:.6g} < 1 is inconsistent "
            "with a strongly monotone mapping whose per-player Lipschitz "
            "constant is l (it must be >= 1)"
        )
    return RateComparison(
        grane_gap=grane_gap,
        play_gap=play_gap,
        ratio_play_over_grane=play_gap / grane_gap,
        kappa=kappa,
        play_faster=play_gap > grane_gap,
        asymptotic_regime=n >= 10,
        alpha_asymptotic=alpha_asymptotic,
        grane_gamma_r=gamma_r,
    )
