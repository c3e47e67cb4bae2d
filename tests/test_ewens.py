import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chisquare

from coalineage.errors import NumericalConditioningError
from coalineage.ewens import (
    AlleleConfiguration,
    AllelicPartition,
    esf_log_prob,
    expected_k,
    hoppe_sample,
    theta_mle,
)
from reference import signless_stirling1

SINGH_SPECTRUM = {1: 10, 2: 3, 3: 7, 5: 2, 6: 2, 8: 1, 11: 1, 68: 1}

# root of expected_k(146, theta) = 27, computed independently to 50 digits
# and rounded; brentq should land within its own tolerance of this
SINGH_THETA_MLE = 9.481630475931087

EXPECTED_K_146_95 = 27.034045260677980


def integer_partitions(m):
    """All integer partitions of m as weakly decreasing tuples."""

    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    return list(rec(m, m))


def set_partition_count(counts):
    """Number of set partitions of sum(counts) items with these block sizes."""
    m = sum(counts)
    total = math.factorial(m)
    for c in counts:
        total //= math.factorial(c)
    mult = {}
    for c in counts:
        mult[c] = mult.get(c, 0) + 1
    for a in mult.values():
        total //= math.factorial(a)
    return total


class TestConfigurationTypes:
    def test_configuration_sorts_and_exposes_m_k(self):
        cfg = AlleleConfiguration((1, 3, 2, 1))
        assert cfg.counts == (3, 2, 1, 1)
        assert cfg.m == 7
        assert cfg.k == 4

    def test_configuration_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            AlleleConfiguration((2, 0))
        with pytest.raises(ValueError):
            AlleleConfiguration(())
        with pytest.raises(ValueError):
            AlleleConfiguration((2, -1))
        with pytest.raises(ValueError):
            AlleleConfiguration((2.0, 1))
        with pytest.raises(ValueError):
            AlleleConfiguration((True, 1))

    def test_partition_round_trips(self):
        part = AllelicPartition.from_dict(SINGH_SPECTRUM)
        assert part.m == 146
        assert part.k == 27
        assert part.as_dict() == SINGH_SPECTRUM
        cfg = part.to_configuration()
        assert cfg.m == 146 and cfg.k == 27
        assert cfg.to_partition() == part

    def test_partition_strips_trailing_zeros(self):
        assert AllelicPartition((2, 1, 0, 0)).spectrum == (2, 1)
        assert AllelicPartition((2, 1)) == AllelicPartition((2, 1, 0))

    def test_partition_rejects_empty_and_negative(self):
        with pytest.raises(ValueError):
            AllelicPartition(())
        with pytest.raises(ValueError):
            AllelicPartition((0, 0))
        with pytest.raises(ValueError):
            AllelicPartition((-1, 2))
        with pytest.raises(ValueError):
            AllelicPartition.from_dict({})
        with pytest.raises(ValueError):
            AllelicPartition.from_dict({0: 3})


class TestSamplingProbability:
    def test_exact_value_small_configuration(self):
        # counts (3,2,1), theta=1/2: theta^3 * 2! / (theta)_6
        theta = Fraction(1, 2)
        rising = Fraction(1)
        for j in range(6):
            rising *= theta + j
        exact = theta**3 * 2 / rising
        got = esf_log_prob(AlleleConfiguration((3, 2, 1)), 0.5)
        assert got == pytest.approx(math.log(float(exact)), rel=1e-13)

    def test_normalizes_over_set_partitions(self):
        for m in (4, 6):
            for theta in (0.5, 1.0, 3.0):
                total = math.fsum(
                    set_partition_count(counts)
                    * math.exp(esf_log_prob(AlleleConfiguration(counts), theta))
                    for counts in integer_partitions(m)
                )
                assert total == pytest.approx(1.0, rel=1e-12)

    def test_class_count_marginal_matches_stirling_law(self):
        # sum over shapes with k blocks = |s1|(m,k) theta^k / (theta)_m
        m = 6
        for theta in (0.5, 3.0):
            log_rising = math.fsum(math.log(theta + j) for j in range(m))
            for k in range(1, m + 1):
                marginal = math.fsum(
                    set_partition_count(counts)
                    * math.exp(esf_log_prob(AlleleConfiguration(counts), theta))
                    for counts in integer_partitions(m)
                    if len(counts) == k
                )
                law = signless_stirling1(m, k) * theta**k / math.exp(log_rising)
                assert marginal == pytest.approx(law, rel=1e-11)

    def test_accepts_partition_form(self):
        cfg = AlleleConfiguration((3, 2, 2))
        assert esf_log_prob(cfg.to_partition(), 1.7) == esf_log_prob(cfg, 1.7)

    def test_rejects_nonpositive_theta(self):
        with pytest.raises(ValueError):
            esf_log_prob(AlleleConfiguration((2, 1)), 0.0)


class TestExpectedK:
    def test_frozen_value(self):
        assert expected_k(146, 9.5) == pytest.approx(EXPECTED_K_146_95, rel=1e-13)

    def test_boundary_and_monotonicity(self):
        assert expected_k(1, 2.3) == pytest.approx(1.0)
        values = [expected_k(50, th) for th in (0.1, 1.0, 5.0, 40.0)]
        assert all(a < b for a, b in zip(values, values[1:]))
        # strictly between 1 and m for finite theta
        assert 1 < expected_k(50, 0.1) and expected_k(50, 40.0) < 50

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            expected_k(0, 1.0)
        with pytest.raises(ValueError):
            expected_k(5, -1.0)


class TestThetaMle:
    def test_case_study_estimate(self):
        part = AllelicPartition.from_dict(SINGH_SPECTRUM)
        est = theta_mle(part)
        assert est == pytest.approx(SINGH_THETA_MLE, rel=1e-10)
        assert 9.4 < est < 9.6
        assert theta_mle(part.to_configuration()) == est

    def test_estimate_solves_likelihood_equation(self):
        cfg = AlleleConfiguration((5, 3, 1, 1))
        est = theta_mle(cfg)
        assert expected_k(cfg.m, est) == pytest.approx(cfg.k, abs=1e-9)

    def test_all_distinct_diverges(self):
        with pytest.raises(NumericalConditioningError, match="diverges"):
            theta_mle(AlleleConfiguration((1, 1, 1, 1, 1)))

    def test_single_allele_degenerate(self):
        with pytest.raises(NumericalConditioningError, match="degenerate"):
            theta_mle(AlleleConfiguration((7,)))


class TestHoppeSample:
    def test_deterministic_given_seed(self):
        a = hoppe_sample(30, 2.0, seed=42)
        b = hoppe_sample(30, 2.0, seed=42)
        assert a == b
        assert a.m == 30

    def test_class_count_matches_stirling_law(self):
        m, theta, reps = 8, 1.5, 4000
        log_rising = math.fsum(math.log(theta + j) for j in range(m))
        law = np.array(
            [signless_stirling1(m, k) * theta**k / math.exp(log_rising) for k in range(1, m + 1)]
        )
        counts = np.zeros(m, dtype=int)
        for i in range(reps):
            counts[hoppe_sample(m, theta, seed=[811, i]).k - 1] += 1
        # pool bins with small expectation from the right
        expected = law * reps
        while expected[-1] < 5:
            expected[-2] += expected[-1]
            counts[-2] += counts[-1]
            expected, counts = expected[:-1], counts[:-1]
        stat = chisquare(counts, expected)
        assert stat.pvalue > 1e-3

    def test_estimator_recovery_from_replicates(self):
        estimates = []
        for i in range(200):
            part = hoppe_sample(500, 2.0, seed=[3120, i])
            try:
                estimates.append(theta_mle(part))
            except NumericalConditioningError:
                continue
        assert len(estimates) > 190
        assert 1.5 < float(np.median(estimates)) < 2.6

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            hoppe_sample(0, 1.0, seed=1)
        with pytest.raises(ValueError):
            hoppe_sample(5, 0.0, seed=1)
