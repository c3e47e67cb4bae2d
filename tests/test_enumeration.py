import math
from fractions import Fraction

import numpy as np
import pytest

from coalineage.enumeration import (
    DrawSequence,
    enumerate_sequences,
    oracle_pmf,
    oracle_pmf_exact,
)
from reference import signless_stirling1, urn_forward_atom_counts, urn_forward_sample


class TestEnumerateSequences:
    def test_probabilities_sum_to_one_exactly(self):
        for n, m, theta in [(0, 5, 1), (2, 3, Fraction(1, 2)), (3, 4, 3), (1, 6, 9.5)]:
            seqs = enumerate_sequences(n, m, theta)
            assert sum(s.probability for s in seqs) == 1

    def test_single_draw_weights(self):
        # one atom, theta=1: atom draw and new-class draw are equally likely
        seqs = enumerate_sequences(1, 1, 1)
        probs = {s.outcomes: s.probability for s in seqs}
        assert probs == {(1,): Fraction(1, 2), (-1,): Fraction(1, 2)}

    def test_atom_reinforcement(self):
        # drawing the same atom twice beats splitting across two atoms:
        # weights 1 then 2 versus 1 then 1
        seqs = enumerate_sequences(2, 2, 1)
        probs = {s.outcomes: s.probability for s in seqs}
        assert probs[(1, 1)] == Fraction(1 * 2, 3 * 4)
        assert probs[(1, 2)] == Fraction(1 * 1, 3 * 4)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            enumerate_sequences(6, 7, 1)
        with pytest.raises(ValueError):
            enumerate_sequences(0, 13, 1)

    def test_rejects_nonpositive_theta(self):
        with pytest.raises(ValueError):
            enumerate_sequences(1, 2, 0)
        with pytest.raises(ValueError):
            enumerate_sequences(1, 2, -1)


class TestOracleMarginals:
    def test_distinct_atoms_hand_value(self):
        # two atoms, three draws, theta=1, worked out by hand
        law = oracle_pmf_exact("R", n_atoms=2, m=3, theta=1)
        assert law == {0: Fraction(1, 10), 1: Fraction(3, 5), 2: Fraction(3, 10)}

    def test_single_atom_single_draw(self):
        law = oracle_pmf_exact("R", n_atoms=1, m=1, theta=1)
        assert law == {0: Fraction(1, 2), 1: Fraction(1, 2)}

    def test_class_count_matches_signless_stirling(self):
        # with no atoms the class count follows |s(m,k)| theta^k / (theta)_m
        for theta in [Fraction(1, 2), Fraction(1), Fraction(3)]:
            p, q = theta.numerator, theta.denominator
            for m in range(1, 7):
                law = oracle_pmf_exact("K", n_atoms=0, m=m, theta=theta)
                denom = math.prod(p + q * i for i in range(m))
                for k in range(1, m + 1):
                    expected = Fraction(signless_stirling1(m, k) * p**k * q ** (m - k), denom)
                    assert law.get(k, Fraction(0)) == expected

    def test_frequency_level_counts(self):
        # R_l over l partitions the atoms drawn at least once:
        # sum_l R_l-weighted counts reconstruct both R and the draw total
        seqs = enumerate_sequences(3, 4, Fraction(1, 2))
        r = oracle_pmf_exact("R", n_atoms=3, m=4, theta=Fraction(1, 2), sequences=seqs)
        mean_r = sum(Fraction(k) * v for k, v in r.items())
        mean_levels = Fraction(0)
        for l in range(1, 5):
            law = oracle_pmf_exact(
                "R_l", n_atoms=3, m=4, theta=Fraction(1, 2), l=l, sequences=seqs
            )
            mean_levels += sum(Fraction(k) * v for k, v in law.items())
        assert mean_levels == mean_r

    def test_joint_recovers_marginals(self):
        n, m, theta = 2, 3, Fraction(3)
        joint = oracle_pmf_exact("joint_NMKV", n_atoms=n, m=m, theta=theta)
        assert sum(joint.values()) == 1
        r_from_joint: dict[int, Fraction] = {}
        v_from_joint: dict[int, Fraction] = {}
        for (atom_counts, class_sizes), prob in joint.items():
            r = sum(1 for c in atom_counts if c > 0)
            v = sum(class_sizes)
            assert sum(atom_counts) + v == m
            r_from_joint[r] = r_from_joint.get(r, Fraction(0)) + prob
            v_from_joint[v] = v_from_joint.get(v, Fraction(0)) + prob
        assert r_from_joint == oracle_pmf_exact("R", n_atoms=n, m=m, theta=theta)
        assert v_from_joint == oracle_pmf_exact("V", n_atoms=n, m=m, theta=theta)


class TestOracleConditionals:
    def test_enlargement_hand_value(self):
        law = oracle_pmf_exact("cond_R", n_atoms=2, m=1, m_prime=1, y=1, theta=1)
        assert law == {1: Fraction(3, 4), 2: Fraction(1, 4)}

    def test_reobservation_hand_value(self):
        law = oracle_pmf_exact(
            "cond_R_l", n_atoms=2, m=2, m_prime=1, y=2, l=1, theta=1
        )
        assert law == {0: Fraction(1, 5), 1: Fraction(4, 5)}

    def test_impossible_condition_raises(self):
        with pytest.raises(ValueError, match="probability zero"):
            oracle_pmf_exact("cond_R", n_atoms=1, m=1, m_prime=1, y=5, theta=1)

    def test_zero_extension_is_degenerate(self):
        # with no extra draws, R stays at y and no level atom is re-seen
        law = oracle_pmf_exact("cond_R", n_atoms=2, m=2, m_prime=0, y=1, theta=1)
        assert law == {1: Fraction(1)}
        law = oracle_pmf_exact(
            "cond_R_l", n_atoms=2, m=2, m_prime=0, y=1, l=2, theta=1
        )
        assert law == {0: Fraction(1)}


class TestFloatView:
    def test_matches_exact(self):
        exact = oracle_pmf_exact("R", n_atoms=2, m=3, theta=1)
        view = oracle_pmf("R", n_atoms=2, m=3, theta=1)
        for x, frac in exact.items():
            assert view.prob(x) == float(frac)

    def test_joint_refused(self):
        with pytest.raises(ValueError, match="composite"):
            oracle_pmf("joint_NMKV", n_atoms=1, m=2, theta=1)


class TestForwardSamplers:
    def test_scalar_sampler_is_deterministic(self):
        a = urn_forward_sample(2, 6, 1.5, seed=123)
        b = urn_forward_sample(2, 6, 1.5, seed=123)
        assert a == b
        counts, sizes = a
        assert sum(counts) + sum(sizes) == 6

    def test_atom_counts_match_oracle(self):
        # distinct-atom counts from the vectorized sampler against the
        # exact law, 2e5 samples, 5 sigma per entry
        n_samples = 200_000
        counts = urn_forward_atom_counts(2, 3, 1, n_samples, seed=7)
        freq = np.bincount((counts > 0).sum(axis=1), minlength=3) / n_samples
        exact = np.array([0.1, 0.6, 0.3])
        sigma = np.sqrt(exact * (1 - exact) / n_samples)
        np.testing.assert_array_less(np.abs(freq - exact), 5 * sigma + 1e-12)

    def test_scalar_sampler_matches_oracle(self):
        # full sampler (with class bookkeeping): check the class-count law
        theta = Fraction(3, 2)
        exact = oracle_pmf_exact("K", n_atoms=1, m=3, theta=theta)
        n_samples = 30_000
        ks = np.array(
            [len(urn_forward_sample(1, 3, theta, seed=[97, i])[1]) for i in range(n_samples)]
        )
        freq = np.bincount(ks, minlength=4) / n_samples
        for k in range(4):
            p = float(exact.get(k, Fraction(0)))
            sigma = math.sqrt(p * (1 - p) / n_samples)
            assert abs(freq[k] - p) < 5 * sigma + 1e-9
