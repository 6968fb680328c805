import json
import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

import gradplay
from gradplay import (
    InadmissibleStepSizeError,
    PerfectMixingError,
    alpha_max,
    grane_rate_comparison,
    quadratic_form_alpha_bound,
    rate_bound,
    step_size_plan,
    step_size_terms,
)

# Frozen values for (mu, L, sigma, n) = (1, 1, 0.5, 2), derived once with
# 50-digit arithmetic (see mp_terms below, which re-derives them in-test).
T1, T2 = 1.0, 0.5
T3 = 0.093660204906684177081
T4 = 180.39367566701167878
T5 = 0.14017542509913797914
ALPHA_HALF_T3 = 0.046830102453342088541
LAMBDA1_AT_HALF_T3 = 0.97774656585598370579
LAMBDA2_AT_HALF_T3 = 0.70990013425452908798
D_AT_HALF_T3 = 0.071741710921632706941
GAMMA_AT_HALF_T3 = 0.97712066946972723139


def mp_terms(mu, l, sigma, n):
    """High-precision independent evaluation of the five ceiling terms."""
    with mpmath.workdps(50):
        mu, l, sigma, n = map(mpmath.mpf, (mu, l, sigma, n))
        sqrt = mpmath.sqrt
        t1 = mpmath.mpf(1)
        t2 = mu / (2 * l**2)
        t3 = sigma / (2 * l) * sqrt(n / (n - 1)) * (sqrt(2) / sqrt(1 + sigma**2) - 1)
        t4 = n / mu * (8 / (sqrt(1 + sigma**2) - sqrt(2)) ** 2 - 1)
        t5 = (
            sqrt(n**2 + 2 * mu**4 * (1 - sigma**2) / ((n - 1) * l**4 * (1 + sigma**2)))
            - n
        ) / (2 * mu)
        return [float(t) for t in (t1, t2, t3, t4, t5)]


def sample_constants(rng):
    """Random constants from the realizable regime (L >= mu, so kappa >= 1)."""
    n = int(rng.choice([2, 3, 5, 10, 20, 50]))
    mu = 10.0 ** rng.uniform(-1.5, 0.7)
    l = mu * 10.0 ** rng.uniform(0.0, 1.3)
    sigma = rng.uniform(0.02, 0.995)
    return mu, l, sigma, n


class TestStepSizeTerms:
    def test_frozen_reference_point(self):
        terms = step_size_terms(1.0, 1.0, 0.5, 2)
        assert_allclose(terms, [T1, T2, T3, T4, T5], rtol=5e-15)
        assert alpha_max(1.0, 1.0, 0.5, 2) == pytest.approx(T3, rel=5e-15)  # t3 binds

    def test_against_high_precision_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            mu, l, sigma, n = sample_constants(rng)
            assert_allclose(
                step_size_terms(mu, l, sigma, n), mp_terms(mu, l, sigma, n), rtol=1e-13
            )

    def test_t2_quarter_under_doubled_l(self):
        t2 = step_size_terms(1.3, 2.0, 0.5, 4)[1]
        t2_doubled = step_size_terms(1.3, 4.0, 0.5, 4)[1]
        assert t2_doubled == t2 / 4  # exact: scaling by a power of two

    def test_all_terms_positive(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            mu, l, sigma, n = sample_constants(rng)
            terms = step_size_terms(mu, l, sigma, n)
            assert all(t > 0 for t in terms)
            assert alpha_max(mu, l, sigma, n) > 0

    def test_perfect_mixing_rejected(self):
        with pytest.raises(PerfectMixingError):
            step_size_terms(1.0, 1.0, 0.0, 2)

    def test_sigma_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            step_size_terms(1.0, 1.0, 1.0, 2)
        with pytest.raises(ValueError):
            step_size_terms(1.0, 1.0, 1.5, 2)
        with pytest.raises(ValueError):
            step_size_terms(1.0, 1.0, -0.2, 2)

    def test_bad_constants_rejected(self):
        with pytest.raises(ValueError):
            step_size_terms(0.0, 1.0, 0.5, 2)
        with pytest.raises(ValueError):
            step_size_terms(1.0, -1.0, 0.5, 2)
        with pytest.raises(ValueError):
            step_size_terms(1.0, 1.0, 0.5, 1)
        for mu, l, sigma in [(math.nan, 2.0, 0.5), (1.0, math.inf, 0.5), (1.0, 2.0, math.nan)]:
            with pytest.raises(ValueError, match="must"):
                step_size_terms(mu, l, sigma, 20)
        # l**4 overflows; mu**4 underflows (t5 = 0); l*l underflows (t2 divides
        # by 0); n does not convert to a float
        out_of_range = [(1.0, 1e200, 20), (1e-100, 1.0, 20), (1e-170, 1e-170, 20), (1, 1, 10**400)]
        for mu, l, n in out_of_range:
            with pytest.raises(ValueError, match="leaves the double range"):
                step_size_terms(mu, l, 0.5, n)


class TestRateBound:
    def test_frozen_reference_point(self):
        rb = rate_bound(1.0, 1.0, 0.5, 2, ALPHA_HALF_T3)
        assert rb.q == rb.lambda1
        assert rb.lambda1 == pytest.approx(LAMBDA1_AT_HALF_T3, rel=1e-14)
        assert rb.lambda2 == pytest.approx(LAMBDA2_AT_HALF_T3, rel=1e-14)
        assert rb.d == pytest.approx(D_AT_HALF_T3, rel=1e-13)
        assert rb.gamma == pytest.approx(GAMMA_AT_HALF_T3, rel=1e-14)
        assert rb.beta == pytest.approx(1.5, rel=1e-15)
        assert rb.q < 1

    def test_rate_degrades_to_one_as_alpha_vanishes(self):
        q_tiny = rate_bound(1.0, 1.0, 0.5, 2, 1e-9).q
        q_small = rate_bound(1.0, 1.0, 0.5, 2, 1e-6).q
        assert q_small < q_tiny < 1.0
        assert 1.0 - q_tiny < 1e-8

    def test_eigensolver_cross_check(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            mu, l, sigma, n = sample_constants(rng)
            alpha = alpha_max(mu, l, sigma, n) * rng.uniform(0.05, 0.95)
            rb = rate_bound(mu, l, sigma, n, alpha)
            eig = np.sort(np.linalg.eigvals(step_size_plan(mu, l, sigma, n, alpha).z).real)
            assert abs(eig[1] - rb.lambda1) <= 1e-12
            assert abs(eig[0] - rb.lambda2) <= 1e-12
            assert rb.lambda1 > abs(rb.lambda2)
            assert 0 < rb.q < 1

    def test_inadmissible_alpha_rejected(self):
        ceiling = alpha_max(1.0, 1.0, 0.5, 2)
        for alpha in (0.0, -0.1, ceiling, ceiling * 1.01, 10.0):
            with pytest.raises(InadmissibleStepSizeError):
                rate_bound(1.0, 1.0, 0.5, 2, alpha)

    def test_certifying_inequality_chain(self):
        # The chain that certifies lambda1 < 1 on the admissible domain,
        # with s = sigma + alpha sqrt((n-1)/n) L:
        #   (1+beta) s^2  <  (sigma sqrt(1+beta) + 1)^2 / 4  <=  gamma
        #   lambda1  <  gamma + sqrt(gamma (2 a^3/mu)((1+beta)/beta)((n-1)/n) L^4)  <  1
        rng = np.random.default_rng(4)
        for _ in range(200):
            mu, l, sigma, n = sample_constants(rng)
            ceiling = alpha_max(mu, l, sigma, n)
            for frac in (0.05, 0.25, 0.5, 0.75, 0.999):
                alpha = ceiling * frac
                rb = rate_bound(mu, l, sigma, n, alpha)
                beta, gamma = rb.beta, rb.gamma
                s = sigma + alpha * math.sqrt((n - 1) / n) * l
                lhs = (1 + beta) * s * s
                mid = 0.25 * (sigma * math.sqrt(1 + beta) + 1) ** 2
                assert lhs < mid <= gamma * (1 + 1e-14)
                if 1.0 - gamma <= 1e-12:
                    continue  # below double resolution; nothing to compare
                lam_cap = gamma + math.sqrt(
                    gamma * (2 * alpha**3 / mu) * ((1 + beta) / beta) * ((n - 1) / n) * l**4
                )
                assert rb.lambda1 <= lam_cap * (1 + 1e-14)
                assert lam_cap < 1.0


class TestZMatrix:
    def test_entries_positive(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            mu, l, sigma, n = sample_constants(rng)
            alpha = alpha_max(mu, l, sigma, n) * rng.uniform(0.05, 0.95)
            z = step_size_plan(mu, l, sigma, n, alpha).z
            assert np.all(z > 0)

    def test_trace_det_identities(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            mu, l, sigma, n = sample_constants(rng)
            alpha = alpha_max(mu, l, sigma, n) * rng.uniform(0.05, 0.95)
            z = step_size_plan(mu, l, sigma, n, alpha).z
            rb = rate_bound(mu, l, sigma, n, alpha)
            assert np.trace(z) == pytest.approx(rb.lambda1 + rb.lambda2, rel=1e-12)
            assert np.linalg.det(z) == pytest.approx(
                rb.lambda1 * rb.lambda2, rel=1e-10, abs=1e-15
            )

    def test_characteristic_polynomial_roots(self):
        # numeric root-finder oracle on det(Z - lambda I)
        mu, l, sigma, n = 0.8, 2.1, 0.6, 5
        alpha = 0.5 * alpha_max(mu, l, sigma, n)
        z = step_size_plan(mu, l, sigma, n, alpha).z
        roots = np.sort(np.roots([1.0, -np.trace(z), np.linalg.det(z)]).real)
        rb = rate_bound(mu, l, sigma, n, alpha)
        assert_allclose(roots, [rb.lambda2, rb.lambda1], rtol=1e-12)

    def test_explicit_entries(self):
        mu, l, sigma, n, alpha = 1.0, 1.0, 0.5, 2, 0.01
        z = step_size_plan(mu, l, sigma, n, alpha).z
        beta = 0.5 * (1 / sigma**2 - 1)
        gamma = 1 / (1 + mu * alpha / n)
        s = sigma + alpha * math.sqrt(0.5) * l
        expected = [
            [gamma, gamma * 2 * alpha],
            [(1 + beta) / beta * 0.5 * alpha**2, (1 + beta) * s**2],
        ]
        assert_allclose(z, expected, rtol=1e-15)


class TestQuadraticFormBound:
    def test_frozen_reference_point(self):
        # c = 2 * (1.25 / 0.75) = 10/3, bound = (-2 + sqrt(4 + 1.2)) / 2
        assert quadratic_form_alpha_bound(1.0, 1.0, 0.5, 2) == pytest.approx(
            T5, rel=1e-14
        )
        by_hand = (-2 + math.sqrt(4 + 4 / (10 / 3))) / 2
        assert quadratic_form_alpha_bound(1.0, 1.0, 0.5, 2) == pytest.approx(
            by_hand, rel=1e-14
        )

    def test_equals_fifth_term(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            mu, l, sigma, n = sample_constants(rng)
            t5 = step_size_terms(mu, l, sigma, n)[4]
            alt = quadratic_form_alpha_bound(mu, l, sigma, n)
            assert abs(t5 - alt) <= 1e-12 * abs(t5)

    def test_monotone_in_sigma(self):
        values = [
            quadratic_form_alpha_bound(1.0, 1.0, s, 4) for s in (0.9, 0.7, 0.5, 0.3, 0.1)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_sigma_guards(self):
        with pytest.raises(ValueError):
            quadratic_form_alpha_bound(1.0, 1.0, 1.0, 2)
        with pytest.raises(PerfectMixingError):
            quadratic_form_alpha_bound(1.0, 1.0, 0.0, 2)

    def test_mu_cubed_underflow_rejected(self):
        with pytest.raises(ValueError, match="double range"):
            quadratic_form_alpha_bound(1e-110, 1.0, 0.5, 20)

    def test_l_fourth_overflow_rejected(self):
        with pytest.raises(ValueError, match="double range"):
            quadratic_form_alpha_bound(1.0, 1e200, 0.5, 20)


class TestStepSizePlan:
    def test_default_alpha_is_ninety_percent_of_ceiling(self):
        plan = step_size_plan(1.0, 1.0, 0.5, 2)
        assert plan.alpha == pytest.approx(0.9 * plan.alpha_max, rel=1e-15)
        assert plan.alpha_max == min(plan.terms)
        assert plan.q == plan.lambda1
        assert 0 < plan.gamma < 1
        assert plan.beta > 0
        assert plan.q < 1
        assert plan.lambda1 > abs(plan.lambda2)

    def test_explicit_alpha(self):
        plan = step_size_plan(1.0, 1.0, 0.5, 2, alpha=ALPHA_HALF_T3)
        assert plan.alpha == ALPHA_HALF_T3
        assert plan.q == pytest.approx(LAMBDA1_AT_HALF_T3, rel=1e-14)
        # q < 1 across the admissible interval, close to both of its ends
        ceiling = plan.alpha_max
        for alpha in np.linspace(ceiling / 50, ceiling * (1 - 1 / 50), 50):
            assert 0 < step_size_plan(1.0, 1.0, 0.5, 2, alpha=float(alpha)).q < 1

    def test_serialization(self):
        plan = step_size_plan(1.2, 2.0, 0.7, 6)
        doc = json.loads(plan.to_json())
        assert doc["n"] == 6
        assert doc["q"] == plan.q
        assert len(doc["terms"]) == 5
        text = plan.to_text()
        assert "alpha_max:" in text and "q:" in text
        assert repr(plan.q) in text  # full precision in the text report


    def test_rate_bound_and_z_matrix_are_views_of_the_plan(self):
        # rate_bound returns the plan, and the plan's z is the one route to Z
        plan = step_size_plan(1.2, 2.0, 0.7, 6, alpha=1e-4)
        assert rate_bound(1.2, 2.0, 0.7, 6, 1e-4) == plan
        assert np.array_equal(rate_bound(1.2, 2.0, 0.7, 6, 1e-4).z, plan.z)
        assert not plan.z.flags.writeable
        assert "z" not in plan.to_dict() and "z" not in plan.to_json()
        assert not hasattr(gradplay, "RateBound")
        assert not hasattr(gradplay, "z_matrix") and not hasattr(gradplay.bounds, "z_matrix")


class TestGraneComparison:
    def test_to_dict_fields_in_order(self):
        cmp = grane_rate_comparison(1.0, 2.0, 12, sigma=0.9)
        doc = cmp.to_dict()
        assert list(doc) == [
            "grane_gap",
            "play_gap",
            "ratio_play_over_grane",
            "kappa",
            "play_faster",
            "asymptotic_regime",
            "alpha_asymptotic",
            "grane_gamma_r",
        ]
        assert doc["ratio_play_over_grane"] == cmp.play_gap / cmp.grane_gap

    def test_frozen_twenty_players(self):
        cmp = grane_rate_comparison(1.0, 1.0, 20)
        assert cmp.grane_gap == 1.0 / 20**6
        assert cmp.grane_gap == pytest.approx(1.5625e-8, rel=1e-12)
        assert cmp.play_gap == 1.0 / (20**2 * 19)
        assert cmp.play_gap == pytest.approx(1.3158e-4, rel=1e-4)
        assert cmp.play_faster
        assert cmp.asymptotic_regime

    def test_ratio_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            mu, l, sigma, n = sample_constants(rng)
            cmp = grane_rate_comparison(mu, l, n)
            ratio = cmp.play_gap / cmp.grane_gap
            identity = (l / mu) ** 2 * n**4 / (n - 1)
            assert abs(ratio - identity) <= 1e-12 * identity
            # kappa >= 1 forces l^2/mu^2 >= 1/n, so the ratio never drops
            # below n^3/(n-1)
            assert ratio >= n**3 / (n - 1) * (1 - 1e-12)
            assert cmp.play_faster

    def test_kappa_one_boundary(self):
        for n in (2, 5, 20):
            mu = 1.3
            l = mu / math.sqrt(n)  # kappa == 1 exactly
            cmp = grane_rate_comparison(mu, l, n)
            assert cmp.kappa == pytest.approx(1.0, rel=1e-12)
            ratio = cmp.play_gap / cmp.grane_gap
            assert ratio == pytest.approx(n**3 / (n - 1), rel=1e-12)
            assert cmp.play_faster

    def test_condition_number_precondition(self):
        with pytest.raises(ValueError, match="condition number"):
            grane_rate_comparison(2.0, 0.5, 4)  # kappa = 0.5 < 1

    def test_asymptotic_alpha_only_with_sigma(self):
        without = grane_rate_comparison(1.0, 2.0, 12)
        assert without.alpha_asymptotic is None
        with_sigma = grane_rate_comparison(1.0, 2.0, 12, sigma=0.9)
        expected = 1.0 * (1 - 0.81) / (2 * 12 * 11 * 16 * (1 + 0.81))
        assert with_sigma.alpha_asymptotic == pytest.approx(expected, rel=1e-12)

    def test_small_n_flagged_outside_regime(self):
        assert not grane_rate_comparison(1.0, 1.0, 5).asymptotic_regime
        assert "outside the large-n regime" in grane_rate_comparison(1.0, 1.0, 5).to_text()

    def test_gamma_r_informational(self):
        cmp = grane_rate_comparison(
            1.0, 2.0, 10, lap_sigma_max=1.8, lap_lambda_min_nonzero=0.1
        )
        expected = 2 * 10 * (2.0 + 2.0 * (1 + 100 * 4) * 1.8 / 0.1)
        assert cmp.grane_gamma_r == pytest.approx(expected, rel=1e-12)

    def test_input_errors(self):
        with pytest.raises(ValueError):
            grane_rate_comparison(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            grane_rate_comparison(1.0, 1.0, 1)
        with pytest.raises(ValueError):
            grane_rate_comparison(1.0, 1.0, 5, sigma=1.0)
        for mu, l in [(math.nan, 1.0), (1.0, math.inf), (math.inf, math.inf)]:
            with pytest.raises(ValueError, match="finite"):
                grane_rate_comparison(mu, l, 20)
        with pytest.raises(ValueError, match="lap_lambda_min_nonzero"):
            grane_rate_comparison(1.0, 1.0, 20, None, math.nan, 1.0)
        # l**6 overflows; the GRANE gap underflows to 0; gamma_r overflows to inf
        for mu, l, lap in [(1.0, 1e60, None), (1e-60, 1.0, None), (1.0, 1.0, (1e300, 1e-300))]:
            lap_sigma_max, lap_lambda_min = lap or (None, None)
            with pytest.raises(ValueError, match="leaves the double range"):
                grane_rate_comparison(mu, l, 20, None, lap_sigma_max, lap_lambda_min)

