import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalineage.ancestral import (
    ModelParams,
    ancestral_pmf,
    lineage_pmf,
    singleton_lineage_pmf,
)
from coalineage.enumeration import enumerate_sequences, oracle_pmf_exact
from coalineage.errors import NumericalConditioningError
from coalineage.numerics import ENTRY_NOISE_BUDGET
from coalineage.posterior import (
    PredictiveQuery,
    cond_r_freq_pmf,
    cond_r_pmf,
    gt_new_lineage_prob,
    gt_singleton_prob,
    n_posterior,
    predictive_lineage_pmf,
    predictive_singleton_pmf,
)
from reference import cond_r_pmf_by_entry, factorial_moment_r, factorial_moment_r_freq

PARAMS = ModelParams(1.0, 0.5)


def pmf_moment(pmf, r):
    return sum(p * math.perm(x, r) for x, p in pmf.items() if x >= r)


class TestPredictiveQuery:
    def test_valid_and_frozen(self):
        q = PredictiveQuery(m=5, m_prime=3, y=2, params=PARAMS)
        assert (q.m, q.m_prime, q.y) == (5, 3, 2)
        with pytest.raises(AttributeError):
            q.m = 6

    def test_fresh_sample_allowed(self):
        # m = 0 with y = 0 describes a sample not yet drawn
        q = PredictiveQuery(m=0, m_prime=4, y=0, params=PARAMS)
        assert q.m == 0

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            PredictiveQuery(m=3, m_prime=2, y=4, params=PARAMS)
        with pytest.raises(ValueError):
            PredictiveQuery(m=-1, m_prime=2, y=0, params=PARAMS)
        with pytest.raises(ValueError):
            PredictiveQuery(m=3, m_prime=-2, y=1, params=PARAMS)
        with pytest.raises(ValueError):
            PredictiveQuery(m=3.0, m_prime=2, y=1, params=PARAMS)
        with pytest.raises(ValueError):
            PredictiveQuery(m=True, m_prime=2, y=1, params=PARAMS)


class TestCondR:
    def test_hand_values(self):
        # n=2 atoms, one seen in the single draw; the next draw hits the
        # unseen atom with probability 1/(theta+n+m) = 1/4
        pmf = cond_r_pmf(2, 1, 1, 1, 1.0)
        assert pmf.support_offset == 1
        np.testing.assert_allclose(pmf.probs, [0.75, 0.25], rtol=1e-14)
        # all atoms already seen: the count cannot move
        pmf = cond_r_pmf(1, 2, 3, 1, 2.0)
        np.testing.assert_allclose(pmf.probs, [1.0], rtol=0)

    def test_no_extra_draws_is_point_mass(self):
        for n, m, y in [(3, 2, 1), (5, 5, 4), (2, 6, 0)]:
            pmf = cond_r_pmf(n, m, 0, y, 1.5)
            assert pmf.support_offset == y and pmf.probs.tolist() == [1.0]

    def test_matches_enumeration_oracle(self):
        worst = 0.0
        for theta in [Fraction(1, 2), Fraction(1), Fraction(3)]:
            for n in range(1, 4):
                for m in range(1, 5 - n + 2):
                    for m_prime in range(1, 8 - n - m + 1):
                        seqs = enumerate_sequences(n, m + m_prime, theta)
                        for y in range(0, min(n, m) + 1):
                            exact = oracle_pmf_exact(
                                "cond_R", n_atoms=n, m=m, m_prime=m_prime,
                                y=y, theta=theta, sequences=seqs,
                            )
                            got = cond_r_pmf(n, m, m_prime, y, float(theta))
                            for x in range(y, min(n, y + m_prime) + 1):
                                worst = max(
                                    worst,
                                    abs(got.prob(x) - float(exact.get(x, Fraction(0)))),
                                )
        assert worst < 1e-13

    @given(
        n=st.integers(min_value=0, max_value=30),
        m=st.integers(min_value=0, max_value=20),
        m_prime=st.integers(min_value=0, max_value=15),
        y_frac=st.floats(min_value=0.0, max_value=1.0),
        theta=st.floats(min_value=0.05, max_value=40.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_mass_and_support(self, n, m, m_prime, y_frac, theta):
        y = round(y_frac * min(n, m))
        pmf = cond_r_pmf(n, m, m_prime, y, theta)
        np.testing.assert_allclose(pmf.probs.sum(), 1.0, atol=1e-11)
        assert pmf.support_offset == y
        assert len(pmf.probs) == min(n, y + m_prime) - y + 1

    @pytest.mark.parametrize("theta", [1e-3, 0.5, 9.48, 20.0])
    def test_matches_entry_by_entry_reference(self, theta):
        # the shifted prior urn law against the per-entry product of the
        # original urn's factors
        for n in (0, 1, 5, 17, 40, 150):
            for m in (1, 20, 146, 1000):
                cap = min(n, m)
                for m_prime in (0, 1, 50, 200):
                    for y in sorted({0, 1, cap // 2, cap} & set(range(cap + 1))):
                        got = cond_r_pmf(n, m, m_prime, y, theta)
                        want = cond_r_pmf_by_entry(n, m, m_prime, y, theta)
                        assert got.support_offset == want.support_offset == y
                        assert len(got.probs) == len(want.probs) == min(n, y + m_prime) - y + 1
                        np.testing.assert_allclose(got.probs, want.probs, rtol=0, atol=1e-12)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            cond_r_pmf(3, 2, 1, 3, 1.0)  # y above min(n, m)
        with pytest.raises(ValueError):
            cond_r_pmf(3, 2, -1, 1, 1.0)
        with pytest.raises(ValueError):
            cond_r_pmf(3, 2, 1, 1, 0.0)


class TestCondRFreq:
    def test_hand_value(self):
        # single atom at frequency 1; one more draw lands on it with
        # weight 2 out of theta+n+m = 3
        pmf = cond_r_freq_pmf(1, 1, 1, 1, 1, 1.0)
        np.testing.assert_allclose(pmf.probs, [1 / 3, 2 / 3], rtol=1e-13)

    def test_no_extra_draws_hits_nothing(self):
        pmf = cond_r_freq_pmf(1, 4, 3, 0, 2, 1.0)
        assert pmf.support_offset == 0 and pmf.probs.tolist() == [1.0]

    def test_matches_enumeration_oracle(self):
        worst = 0.0
        for theta in [Fraction(1, 2), Fraction(1), Fraction(3)]:
            for l in (1, 2):
                for n in range(1, 4):
                    for m in range(l, 5):
                        for m_prime in range(1, 8 - n - m + 1):
                            seqs = enumerate_sequences(n, m + m_prime, theta)
                            for y in range(0, min(n, m // l) + 1):
                                try:
                                    exact = oracle_pmf_exact(
                                        "cond_R_l", n_atoms=n, m=m, m_prime=m_prime,
                                        y=y, l=l, theta=theta, sequences=seqs,
                                    )
                                except ValueError:
                                    continue  # conditioning event impossible
                                got = cond_r_freq_pmf(l, n, m, m_prime, y, float(theta))
                                for x in range(0, min(y, m_prime) + 1):
                                    worst = max(
                                        worst,
                                        abs(got.prob(x) - float(exact.get(x, Fraction(0)))),
                                    )
        assert worst < 1e-13

    @pytest.mark.parametrize("theta", [0.5, 9.5])
    @pytest.mark.parametrize("l", [1, 2])
    def test_entries_within_noise_budget_of_exact_rationals(self, l, theta):
        # the escape chances here are ratios of 50-factor rising factorials
        # with bases near 200, which floats built from lgamma values near
        # 10^3 get wrong beyond the 1e-8 entry contract; Fractions do not
        n, m, m_prime, y = 40, 146, 50, 20
        b = Fraction(theta) + n + m

        def rising(x):
            return math.prod((x + i for i in range(m_prime)), start=Fraction(1))

        escape = [rising(b - j * (1 + l)) / rising(b) for j in range(y + 1)]
        exact = [
            sum(
                (-1) ** (x - j) * math.comb(y, x) * math.comb(x, j) * escape[y - j]
                for j in range(x + 1)
            )
            for x in range(min(y, m_prime) + 1)
        ]
        got = cond_r_freq_pmf(l, n, m, m_prime, y, theta)
        assert got.support_offset == 0 and len(got.probs) == len(exact)
        assert max(abs(p - float(e)) for p, e in zip(got.probs, exact)) <= ENTRY_NOISE_BUDGET

    def test_mean_matches_first_moment(self):
        for (l, n, m, m_prime, y, theta) in [
            (1, 6, 5, 3, 2, 1.0),
            (2, 4, 8, 5, 3, 0.5),
            (1, 10, 7, 1, 4, 9.5),
            (3, 3, 9, 4, 2, 2.0),
        ]:
            pmf = cond_r_freq_pmf(l, n, m, m_prime, y, theta)
            np.testing.assert_allclose(
                pmf.mean(),
                factorial_moment_r_freq(1, l, n, m, m_prime, y, theta),
                rtol=1e-11,
            )

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            cond_r_freq_pmf(0, 3, 2, 1, 1, 1.0)
        with pytest.raises(ValueError):
            cond_r_freq_pmf(2, 3, 5, 1, 3, 1.0)  # y above min(n, m//l)


class TestFactorialMoments:
    def test_match_pmf_moments(self):
        worst = 0.0
        for (n, m, m_prime, y, theta) in [
            (5, 4, 3, 2, 1.0), (8, 6, 5, 3, 0.5), (3, 7, 2, 1, 3.0), (12, 9, 6, 5, 9.5),
        ]:
            pmf = cond_r_pmf(n, m, m_prime, y, theta)
            for r in range(4):
                worst = max(
                    worst,
                    abs(factorial_moment_r(r, n, m, m_prime, y, theta) - pmf_moment(pmf, r)),
                )
        for (l, n, m, m_prime, y, theta) in [
            (1, 5, 4, 3, 2, 1.0), (2, 6, 7, 4, 3, 0.5), (1, 9, 6, 5, 4, 9.5),
        ]:
            pmf = cond_r_freq_pmf(l, n, m, m_prime, y, theta)
            for r in range(4):
                worst = max(
                    worst,
                    abs(
                        factorial_moment_r_freq(r, l, n, m, m_prime, y, theta)
                        - pmf_moment(pmf, r)
                    ),
                )
        assert worst < 1e-10

    def test_one_draw_means(self):
        # with one extra draw the means are elementary urn ratios
        for (n, m, y, theta) in [(5, 4, 2, 1.0), (9, 3, 1, 0.5), (7, 7, 6, 9.5)]:
            np.testing.assert_allclose(
                factorial_moment_r(1, n, m, 1, y, theta),
                y + (n - y) / (theta + n + m),
                rtol=1e-12,
            )
            for l in (1, 2):
                if y <= min(n, m // l):
                    np.testing.assert_allclose(
                        factorial_moment_r_freq(1, l, n, m, 1, y, theta),
                        y * (1 + l) / (theta + n + m),
                        rtol=1e-12,
                    )

    def test_bounds_and_degenerate_orders(self):
        assert factorial_moment_r(0, 4, 3, 2, 1, 1.0) == 1.0
        assert factorial_moment_r(5, 4, 3, 2, 1, 1.0) == 0.0
        assert factorial_moment_r_freq(3, 1, 4, 3, 2, 2, 1.0) == 0.0
        with pytest.raises(ValueError):
            factorial_moment_r(-1, 4, 3, 2, 1, 1.0)


class TestNPosterior:
    def test_normalized_on_line_count_support(self):
        post = n_posterior(5, 2, PARAMS)
        assert post.support_offset == 0
        np.testing.assert_allclose(post.probs.sum(), 1.0, atol=1e-12)

    def test_bayes_inversion(self):
        # mixing the posterior back through the observation law must
        # recover the population line-count law
        m, params = 5, ModelParams(1.0, 0.5)
        lin = lineage_pmf(m, params)
        anc = ancestral_pmf(None, params)
        acc = np.zeros(len(anc.probs) + m + 1)
        for y in range(m + 1):
            post = n_posterior(m, y, params, mode="total")
            for n, w in post.items():
                acc[n] += lin.prob(y) * w
        worst = max(abs(acc[n] - anc.prob(n)) for n in range(len(anc.probs)))
        assert worst < 1e-12

    def test_singleton_mode_bayes_inversion(self):
        m, params = 4, ModelParams(2.0, 0.6)
        marg = singleton_lineage_pmf(m, params)
        anc = ancestral_pmf(None, params)
        acc = np.zeros(len(anc.probs) + m + 1)
        for y in range(m + 1):
            post = n_posterior(m, y, params, mode="singleton")
            for n, w in post.items():
                acc[n] += marg.prob(y) * w
        worst = max(abs(acc[n] - anc.prob(n)) for n in range(len(anc.probs)))
        assert worst < 1e-12

    def test_negligible_event_refused(self):
        # after five coalescent time units a sample of six will not show
        # six distinct surviving lines
        with pytest.raises(NumericalConditioningError):
            n_posterior(6, 6, ModelParams(1.0, 5.0))

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            n_posterior(0, 0, PARAMS)
        with pytest.raises(ValueError):
            n_posterior(5, 6, PARAMS)
        with pytest.raises(ValueError):
            n_posterior(5, 2, PARAMS, mode="marginal")


class TestPredictiveLineage:
    def test_fresh_sample_is_marginal(self):
        q = PredictiveQuery(m=0, m_prime=5, y=0, params=PARAMS)
        got = predictive_lineage_pmf(q)
        assert got.tv_distance(lineage_pmf(5, PARAMS)) < 1e-14

    def test_no_enlargement_is_point_mass(self):
        q = PredictiveQuery(m=4, m_prime=0, y=2, params=PARAMS)
        pmf = predictive_lineage_pmf(q)
        assert pmf.support_offset == 2 and pmf.probs.tolist() == [1.0]

    def test_time_zero(self):
        q = PredictiveQuery(m=3, m_prime=2, y=3, params=ModelParams(1.0, 0.0))
        pmf = predictive_lineage_pmf(q)
        assert pmf.support_offset == 5 and pmf.probs.tolist() == [1.0]
        with pytest.raises(NumericalConditioningError):
            predictive_lineage_pmf(
                PredictiveQuery(m=3, m_prime=2, y=2, params=ModelParams(1.0, 0.0))
            )

    def test_law_of_total_probability(self):
        # averaging the predictive over the observed law recovers the
        # m + m' marginal
        m, m_prime, params = 4, 3, ModelParams(1.0, 0.5)
        lin_m = lineage_pmf(m, params)
        target = lineage_pmf(m + m_prime, params)
        acc = np.zeros(m + m_prime + 1)
        for y in range(m + 1):
            q = PredictiveQuery(m=m, m_prime=m_prime, y=y, params=params)
            for x, p in predictive_lineage_pmf(q).items():
                acc[x] += lin_m.prob(y) * p
        worst = max(abs(acc[x] - target.prob(x)) for x in range(m + m_prime + 1))
        assert worst < 1e-8

    def test_routes_agree(self):
        worst = 0.0
        for (m, m_prime, y, theta, t) in [
            (4, 3, 2, 1.0, 0.5), (6, 2, 1, 0.5, 0.34), (5, 5, 4, 9.5, 0.34),
            (8, 4, 3, 2.0, 1.0), (3, 6, 0, 1.0, 0.8),
        ]:
            q = PredictiveQuery(m=m, m_prime=m_prime, y=y, params=ModelParams(theta, t))
            worst = max(
                worst,
                predictive_lineage_pmf(q).tv_distance(
                    predictive_lineage_pmf(q, method="closed")
                ),
            )
        assert worst < 1e-10

    def test_support_and_mass(self):
        q = PredictiveQuery(m=7, m_prime=4, y=3, params=ModelParams(0.5, 0.4))
        pmf = predictive_lineage_pmf(q)
        assert pmf.support_offset == 3 and len(pmf.probs) == 5
        np.testing.assert_allclose(pmf.probs.sum(), 1.0, atol=1e-12)

    def test_method_validated(self):
        q = PredictiveQuery(m=4, m_prime=3, y=2, params=PARAMS)
        with pytest.raises(ValueError):
            predictive_lineage_pmf(q, method="exact")


class TestPredictiveSingleton:
    def test_degenerate_cases(self):
        for q in [
            PredictiveQuery(m=0, m_prime=3, y=0, params=PARAMS),
            PredictiveQuery(m=5, m_prime=0, y=2, params=PARAMS),
        ]:
            pmf = predictive_singleton_pmf(q)
            assert pmf.support_offset == 0 and pmf.probs.tolist() == [1.0]

    def test_nothing_to_hit(self):
        pmf = predictive_singleton_pmf(
            PredictiveQuery(m=6, m_prime=2, y=0, params=PARAMS)
        )
        assert pmf.probs.tolist() == [1.0]

    def test_routes_agree(self):
        worst = 0.0
        for (m, m_prime, y, theta, t) in [
            (4, 2, 1, 1.0, 0.5), (5, 3, 2, 1.0, 0.5), (5, 1, 3, 1.0, 0.5),
            (6, 2, 0, 1.3, 0.4), (6, 4, 3, 2.0, 0.6), (8, 8, 5, 0.5, 0.3),
            (8, 3, 8, 9.5, 0.34), (7, 5, 1, 3.0, 1.0),
        ]:
            q = PredictiveQuery(m=m, m_prime=m_prime, y=y, params=ModelParams(theta, t))
            worst = max(
                worst,
                predictive_singleton_pmf(q).tv_distance(
                    predictive_singleton_pmf(q, method="closed")
                ),
            )
        assert worst < 1e-10

    def test_support_and_mass(self):
        q = PredictiveQuery(m=9, m_prime=3, y=5, params=ModelParams(1.0, 0.4))
        pmf = predictive_singleton_pmf(q)
        assert pmf.support_offset == 0 and len(pmf.probs) == 4
        np.testing.assert_allclose(pmf.probs.sum(), 1.0, atol=1e-12)
        assert 0.0 <= pmf.mean() <= 3.0


class TestGoodTuring:
    def test_new_line_matches_predictive(self):
        # the one-draw discovery chance is the m'=1 predictive mass at y+1
        worst = 0.0
        for (m, y, theta, t) in [
            (5, 2, 1.0, 0.5), (8, 1, 0.5, 0.34), (6, 4, 9.5, 0.34), (10, 3, 2.0, 1.0),
        ]:
            params = ModelParams(theta, t)
            q = PredictiveQuery(m=m, m_prime=1, y=y, params=params)
            worst = max(
                worst,
                abs(gt_new_lineage_prob(m, y, params) - predictive_lineage_pmf(q).prob(y + 1)),
            )
        assert worst < 1e-12

    def test_new_line_matches_posterior_mean(self):
        # independently: average the one-draw chance (n-y)/(theta+n+m)
        # over the line-count posterior
        worst = 0.0
        for (m, y, theta, t) in [(5, 2, 1.0, 0.5), (6, 4, 2.0, 0.4), (8, 1, 9.5, 0.34)]:
            params = ModelParams(theta, t)
            post = n_posterior(m, y, params, mode="total")
            mix = math.fsum(w * (n - y) / (theta + n + m) for n, w in post.items())
            worst = max(worst, abs(gt_new_lineage_prob(m, y, params) - mix))
        assert worst < 1e-12

    def test_singleton_matches_predictive_mean(self):
        worst = 0.0
        for (m, y, theta, t) in [(5, 2, 1.0, 0.5), (6, 1, 1.0, 0.5), (8, 4, 0.5, 0.4)]:
            params = ModelParams(theta, t)
            q = PredictiveQuery(m=m, m_prime=1, y=y, params=params)
            worst = max(
                worst,
                abs(gt_singleton_prob(m, y, params) - predictive_singleton_pmf(q).mean()),
            )
        assert worst < 1e-10

    def test_singleton_routes_agree(self):
        worst = 0.0
        for (m, y, theta, t) in [
            (5, 2, 1.0, 0.5), (6, 1, 1.0, 0.5), (8, 4, 1.0, 0.5), (7, 3, 2.0, 0.4),
            (9, 2, 9.5, 0.34), (10, 5, 0.5, 0.8), (12, 6, 3.0, 0.2),
        ]:
            params = ModelParams(theta, t)
            worst = max(
                worst,
                abs(
                    gt_singleton_prob(m, y, params)
                    - gt_singleton_prob(m, y, params, method="closed")
                ),
            )
        assert worst < 1e-10

    def test_probability_ranges(self):
        for m in (3, 7, 12):
            lin = lineage_pmf(m, PARAMS)
            single = singleton_lineage_pmf(m, PARAMS)
            for y in range(m + 1):
                # conditioning events with negligible marginal mass are
                # refused outright, so only look at the feasible ones
                if lin.prob(y) > 1e-10:
                    assert 0.0 <= gt_new_lineage_prob(m, y, PARAMS) <= 1.0
                if single.prob(y) > 1e-10:
                    assert 0.0 <= gt_singleton_prob(m, y, PARAMS) <= 1.0
        assert gt_singleton_prob(5, 0, PARAMS) == 0.0

    def test_negligible_event_refused(self):
        with pytest.raises(NumericalConditioningError):
            gt_new_lineage_prob(6, 6, ModelParams(1.0, 5.0))

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            gt_new_lineage_prob(0, 0, PARAMS)
        with pytest.raises(ValueError):
            gt_singleton_prob(5, 6, PARAMS)
        with pytest.raises(ValueError):
            gt_singleton_prob(5, 2, PARAMS, method="series")
