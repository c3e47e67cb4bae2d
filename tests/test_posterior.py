import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalineage.ancestral import (
    ModelParams,
    _ancestral_values,
    ancestral_pmf,
    lineage_pmf,
    singleton_lineage_pmf,
)
from coalineage.enumeration import enumerate_sequences, oracle_pmf_exact
from coalineage import numerics, posterior
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
from reference import (
    cond_r_freq_pmf_by_level,
    cond_r_pmf_by_entry,
    factorial_moment_r,
    factorial_moment_r_freq,
    hit_law_by_steps,
    hit_law_definition,
    log_escape_by_step,
    predictive_lineage_by_level,
    predictive_singleton_by_level,
)

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

    @pytest.mark.parametrize(
        "l, n, m, m_prime, y",
        [(1, 10, 12, 5, 3), (2, 10, 12, 5, 3), (1, 40, 146, 50, 10), (3, 9, 15, 7, 4),
         (1, 5, 5, 0, 3), (2, 3, 8, 2, 3)],
    )
    def test_positive_form_is_the_inclusion_exclusion_law(self, l, n, m, m_prime, y):
        # in exact rationals, the positive form's steps give the definition
        for theta in (Fraction(1, 2), Fraction(19, 2), Fraction(3)):
            b = theta + n + m
            assert hit_law_by_steps(l, b, m_prime, y) == hit_law_definition(l, b, m_prime, y)

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_matches_the_50_digit_positive_form(self, l):
        for (n, m, m_prime, y), theta in itertools.product(
            ((10, 12, 5, 3), (40, 146, 50, 10), (80, 146, 200, 40), (100, 1000, 500, 60),
             (60, 146, 1, 20)),
            (0.5, 9.5, 20.0),
        ):
            if y > m // l:
                continue
            got = cond_r_freq_pmf(l, n, m, m_prime, y, theta).probs
            with mpmath.workdps(50):
                want = hit_law_by_steps(l, mpmath.mpf(theta) + n + m, m_prime, y)
            assert len(got) == len(want) == min(y, m_prime) + 1
            assert max(abs(float(w - p)) for p, w in zip(got, want)) <= 1e-12, (n, m, m_prime, y)

    def test_large_level_row_holds_its_digits(self):
        # the inclusion-exclusion kernel returned this row 1.4e-8 off the
        # exact law, under its noise gate
        exact = hit_law_definition(1, Fraction(9.5) + 80 + 146, 200, 40)
        got = cond_r_freq_pmf(1, 80, 146, 200, 40, 9.5).probs
        assert max(abs(p - float(e)) for p, e in zip(got, exact)) <= 1e-13

    def test_wide_row_holds_a_few_blocks(self):
        # a row of 201 x 201 (x, K) terms, ten blocks, is cut into runs along
        # x: past its part-count table, its transients stay near a few blocks
        y = 200
        assert (y + 1) ** 2 > 8 * numerics.BLOCK_TERMS
        cond_r_freq_pmf(1, 400, 1000, y, y, 9.5)  # first-call allocations are not counted
        tracemalloc.start()
        try:
            cond_r_freq_pmf(1, 400, 1000, y, y, 9.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (y + 1) * y * 8 + 12 * 8 * numerics.BLOCK_TERMS

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

    def test_built_once_per_observation(self, monkeypatch):
        # every point of a discovery curve conditions on the same posterior:
        # one likelihood per population level, whatever m' is asked; the
        # likelihoods of each mode are one stack of every level
        m, params = 30, ModelParams(2.5, 0.4)
        levels = len(np.flatnonzero(_ancestral_values(params, None)))
        calls = Counter()
        reobserved_rows, freq_rows = posterior._reobserved_rows, posterior._freq_rows

        def counted_reobserved_rows(rows, m, theta):
            # the likelihood passes theta itself; predictive rows shift it
            if theta == params.theta:
                calls["reobserved stacks"] += 1
                calls["reobserved levels"] += len(rows)
            return reobserved_rows(rows, m, theta)

        def counted_freq_rows(l, rows, *args):
            calls["stacks"] += 1
            calls["stacked levels"] += len(rows)
            return freq_rows(l, rows, *args)

        monkeypatch.setattr(posterior, "_reobserved_rows", counted_reobserved_rows)
        monkeypatch.setattr(posterior, "_freq_rows", counted_freq_rows)
        n_posterior.cache_clear()
        # the sample's modal line count, and one singleton line
        y_total, y_single = 3, 1
        for m_prime in range(1, 6):
            predictive_lineage_pmf(PredictiveQuery(m, m_prime, y_total, params))
            predictive_singleton_pmf(PredictiveQuery(m, m_prime, y_single, params))
        gt_new_lineage_prob(m, y_total, params)
        gt_singleton_prob(m, y_single, params)
        assert calls == {
            "reobserved stacks": 1, "reobserved levels": levels, "stacks": 1, "stacked levels": levels
        }

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
            (146, 50, 2, 9.48, 0.34), (146, 200, 3, 9.48, 1.0), (500, 50, 5, 20.0, 0.34),
        ]:
            q = PredictiveQuery(m=m, m_prime=m_prime, y=y, params=ModelParams(theta, t))
            worst = max(
                worst,
                predictive_lineage_pmf(q).tv_distance(
                    predictive_lineage_pmf(q, method="closed")
                ),
            )
        assert worst < 1e-10

    @pytest.mark.parametrize(
        "m, m_prime, y, theta, t",
        [(146, 50, 3, 9.5, 0.15), (146, 200, 2, 9.5, 0.34), (500, 200, 10, 20.0, 0.15),
         (20, 200, 5, 3.0, 0.34)],
    )
    def test_closed_route_is_the_bayes_ratio_to_rounding(self, m, m_prime, y, theta, t):
        # the closed route weights the enlarged sample's law by P[y | x] / P[y]; every
        # entry is within 1e-15 of the same ratio taken in 40 digits over the same
        # float sample law and renormalized, which cancels P[y]
        params = ModelParams(theta, t)
        got = predictive_lineage_pmf(PredictiveQuery(m, m_prime, y, params), method="closed")
        enlarged = lineage_pmf(m + m_prime, params).probs
        with mpmath.workdps(40):
            th, comb, rf = mpmath.mpf(theta), mpmath.binomial, mpmath.rf
            weighted = [
                comb(m, y) * comb(m_prime, x - y) * rf(th + y, x - y) * rf(th + m + m_prime, y)
                / (comb(m + m_prime, x) * rf(th + m, y) * rf(th + m + y, x - y))
                * mpmath.mpf(float(enlarged[x]))
                for x in range(y, y + m_prime + 1)
            ]
            total = mpmath.fsum(weighted)
            reference = np.array([float(w / total) for w in weighted])
        assert got.support_offset == y
        assert np.max(np.abs(got.probs - reference)) <= 1e-15

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

    def test_closed_route_refuses_or_agrees_at_small_t(self):
        # at t = 0.1 the closed route's escape moments are noise-limited;
        # divided by their own marginal and summed by inclusion-exclusion,
        # that noise must either pass the gate within the dual-route bound
        # or be refused
        params = ModelParams(0.5, 0.1)
        for m, m_prime, y in ((15, 4, 6), (15, 4, 1), (25, 4, 6)):
            q = PredictiveQuery(m, m_prime, y, params)
            try:
                closed = predictive_singleton_pmf(q, method="closed")
            except NumericalConditioningError:
                continue
            assert closed.tv_distance(predictive_singleton_pmf(q)) <= 1e-8, (m, m_prime, y)

    def test_closed_route_refuses_where_binomials_pass_int64(self):
        # C(70, 35) exceeds 2**63; the closed routes must reach their
        # marginal gate, as the mixture route does, not fail on that row
        params = ModelParams(1000.0, 1.0)
        q = PredictiveQuery(80, 1, 70, params)
        for route in (
            lambda: predictive_singleton_pmf(q),
            lambda: predictive_singleton_pmf(q, method="closed"),
            lambda: gt_singleton_prob(80, 70, params, method="closed"),
        ):
            with pytest.raises(NumericalConditioningError, match="negligible mass"):
                route()

    def test_support_and_mass(self):
        q = PredictiveQuery(m=9, m_prime=3, y=5, params=ModelParams(1.0, 0.4))
        pmf = predictive_singleton_pmf(q)
        assert pmf.support_offset == 0 and len(pmf.probs) == 4
        np.testing.assert_allclose(pmf.probs.sum(), 1.0, atol=1e-12)
        assert 0.0 <= pmf.mean() <= 3.0


def law_or_refusal(build):
    """A law's exact bits, or its refusal's type and message."""
    try:
        law = build()
    except (NumericalConditioningError, ValueError) as err:
        return type(err).__name__, str(err)
    return law.support_offset, law.probs.tobytes(), law.mass_defect, law.renormalized


# hit laws rounded from exact rationals (reference.hit_law_definition)
COND_R_FREQ_EXACT = {
    (1, 5, 8, 4, 3, 9.5): [0.31533464449609633, 0.4979830229964326, 0.17447659915029842,
                           0.012205733357172656],
    (1, 120, 146, 1, 20, 9.5): [0.8548094373865699, 0.14519056261343014],
    (3, 40, 146, 4, 20, 20.0): [0.14253671946235985, 0.3749585895061445, 0.34034208369370883,
                                0.12610437262189056, 0.016058234715896177],
}
# float64 results of the closed singleton routes, frozen from their code
CLOSED_SINGLETON_FROZEN = {
    (8, 4, 3, 9.5, 0.34): [0.2993334943097645, 0.501319335354478, 0.1856602972627848,
                           0.013686873072972684],
    (25, 4, 6, 0.5, 1.0): [0.1668321156111692, 0.4335418422151999, 0.31879304584799306,
                           0.07612855461488262, 0.004704441710755155],
    (146, 1, 3, 9.5, 0.34): [0.9625228553482853, 0.03747714465171473],
}
GT_SINGLETON_FROZEN = {
    # (m, y, theta, t): (mixture, closed); the mixture's value is rounded from a
    # 50-digit population series mixed with exact rational urn likelihoods
    (8, 3, 9.5, 0.34): (0.27791287135191595, 0.2779128713519137),
    (25, 1, 20.0, 0.15): (0.03961551164615694, 0.03961551164630395),
    (146, 3, 9.5, 0.34): (0.03747714465171844, 0.03747714465171473),
}


class TestHitTable:
    def test_mixture_routes_sum_no_signed_series(self, monkeypatch):
        # the urn rows and hit tables are sums of positive terms: with the
        # population law cached, no singleton mixture route calls the signed
        # kernel or its noise gate
        from coalineage import ancestral, pmf

        params = ModelParams(9.5, 0.34)
        _ancestral_values(params, None)

        def refuse(*args):
            raise AssertionError("a signed kernel was called")

        for module in (numerics, ancestral, posterior, pmf):
            for name in ("signed_log_sums", "reliable_values"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        singleton_lineage_pmf(146, params)
        predictive_singleton_pmf(PredictiveQuery(146, 50, 3, params))
        gt_singleton_prob(146, 3, params)
        cond_r_freq_pmf(2, 40, 146, 50, 10, 9.5)

    def test_mixture_matches_level_by_level_reference(self):
        # bit for bit, refusals and their messages included, over the grid
        # the one-pass table must not move
        refused = 0
        for m, m_prime, y, theta, t in itertools.product(
            (8, 25, 146), (1, 4, 50, 200), (0, 1, 3, 6, 20), (0.5, 9.5, 20.0), (0.15, 0.34, 1.0)
        ):
            if y > m:
                continue
            q = PredictiveQuery(m, m_prime, y, ModelParams(theta, t))
            got = law_or_refusal(lambda: predictive_singleton_pmf(q))
            assert got == law_or_refusal(lambda: predictive_singleton_by_level(q)), q
            refused += isinstance(got[1], str)
        assert refused > 50

    def test_total_mixture_matches_level_by_level_reference(self):
        # the total predictive mixes one table of the enlarged type count laws;
        # the reference adds each level's cond_r_pmf on its own, bit for bit
        outcomes = Counter()
        for m, m_prime, y, theta, t in itertools.product(
            (8, 25, 146), (1, 4, 50, 200), (0, 1, 3, 6, 20), (0.5, 9.5, 20.0), (0.15, 0.34, 1.0)
        ):
            if y > m:
                continue
            q = PredictiveQuery(m, m_prime, y, ModelParams(theta, t))
            got = law_or_refusal(lambda: predictive_lineage_pmf(q))
            assert got == law_or_refusal(lambda: predictive_lineage_by_level(q)), q
            outcomes[isinstance(got[1], str)] += 1
        assert outcomes[False] > 200 and outcomes[True] > 50

    def test_cond_r_freq_matches_level_by_level_reference(self):
        for l, n, m, m_prime, y, theta in itertools.product(
            (1, 2, 3), (0, 5, 40, 120), (0, 7, 50, 146), (0, 1, 4, 50, 200), (0, 1, 6, 20, 40),
            (0.5, 9.5, 20.0),
        ):
            args = (l, n, m, m_prime, y, theta)
            assert law_or_refusal(lambda: cond_r_freq_pmf(*args)) == law_or_refusal(
                lambda: cond_r_freq_pmf_by_level(*args)
            ), args
        for args, probs in COND_R_FREQ_EXACT.items():
            assert np.max(np.abs(cond_r_freq_pmf(*args).probs - probs)) <= 1e-15, args

    @pytest.mark.parametrize("block_terms", [1, 100, 1000, numerics.BLOCK_TERMS, 1 << 16])
    def test_escape_table_matches_the_one_total_loop(self, monkeypatch, block_terms):
        # the closed route's escape block is one _log_escape call over every n,
        # whatever runs of rows it is built in (1 << 16 builds each table in one run)
        monkeypatch.setattr(numerics, "BLOCK_TERMS", block_terms)
        for m, m_prime, y, theta in ((8, 4, 3, 9.5), (25, 200, 20, 0.5), (146, 50, 6, 20.0)):
            totals = theta + np.arange(y, m + m_prime + 1) + m
            table = posterior._log_escape(totals, m_prime, y, 2)
            for row, b in zip(table, totals.tolist()):
                assert row.tobytes() == log_escape_by_step(b, m_prime, y, 2).tobytes()

    def test_escape_build_holds_one_block_at_a_time(self):
        # 1,000 levels of 200 steps, three BLOCK_TERMS of steps: beyond its
        # own result the build holds one run's arrays and list, about 8
        # floats a step of the run, where building every level at once
        # holds several times that
        levels, y = 1000, 100
        totals = 9.5 + 146 + y + np.arange(levels, dtype=float)
        tracemalloc.start()
        try:
            table = posterior._log_escape(totals, 200, y, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert levels * 2 * y > 3 * numerics.BLOCK_TERMS
        assert peak - table.nbytes < 12 * 8 * numerics.BLOCK_TERMS

    def test_closed_route_and_discovery_keep_their_values(self):
        for (m, m_prime, y, theta, t), probs in CLOSED_SINGLETON_FROZEN.items():
            q = PredictiveQuery(m, m_prime, y, ModelParams(theta, t))
            assert predictive_singleton_pmf(q, method="closed").probs.tolist() == probs
        for (m, y, theta, t), (mixture, closed) in GT_SINGLETON_FROZEN.items():
            params = ModelParams(theta, t)
            assert gt_singleton_prob(m, y, params, method="closed") == closed
            assert abs(gt_singleton_prob(m, y, params) - mixture) <= 1e-14


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
