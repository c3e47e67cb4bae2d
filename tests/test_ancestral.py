import itertools
import math
import time
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from coalineage import ancestral, numerics, posterior
from coalineage.ancestral import (
    ModelParams,
    _ancestral_values,
    _last_index,
    _line_count_entries,
    _lineage_entries,
    ancestral_pmf,
    death_rate,
    lineage_mean,
    lineage_pmf,
    r_freq_pmf,
    r_pmf,
    rho,
    singleton_lineage_pmf,
    tmrca_cdf,
)
from coalineage.enumeration import enumerate_sequences, oracle_pmf_exact
from coalineage.errors import NumericalConditioningError
from coalineage.ewens import AlleleConfiguration, esf_log_prob
from coalineage.numerics import (
    SignedLogValue,
    log_factorials,
    reliable_values,
)
from coalineage.pmf import Pmf

from reference import (
    ancestral_values_by_row,
    lineage_entries_by_row,
    mixture_by_level,
    freq_law_by_steps,
    freq_law_definition,
    pmf_by_entry,
    singleton_closed_entries_by_moment,
    singleton_lineage_by_level,
    singleton_posterior_by_level,
    values_by_entry,
)

SINGLETON_GRID_M = (1, 5, 20, 146, 1000)
SINGLETON_GRID_THETA = (0.5, 1.0, 3.0, 9.5, 20.0)
SINGLETON_GRID_T = (0.05, 0.08, 0.1, 0.15, 0.34, 1.0, 2.0)


def assert_same_law(build, reference, where, tol=1e-15):
    """The two laws agree within tol per entry on one support, or both refuse
    with the same error type, message and cancellation ratio."""
    outcomes = []
    for compute in (build, reference):
        try:
            outcomes.append(compute())
        except (NumericalConditioningError, ValueError) as err:
            ratio = getattr(err, "cancellation_ratio", None)
            outcomes.append((type(err).__name__, str(err), ratio))
    got, want = outcomes
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want, where
        return
    assert got.support_offset == want.support_offset and len(got.probs) == len(want.probs), where
    assert np.max(np.abs(got.probs - want.probs)) <= tol, where


# Reference values below come from an independent high-precision
# evaluation of the same series (40+ digits), frozen here as floats.

ANCESTRAL_REFS = {
    (0.5, 0.34): [7.9169696672492049e-7, 0.00013516390342220753, 0.003338403371243244,
                  0.028476498517512895, 0.1117358474469469, 0.2329299105782306],
    (1.0, 0.34): [4.2753970837624421e-6, 0.00035244673759366071, 0.0062965883808240898,
                  0.043107624372029874, 0.14234577992634646, 0.25649406917677865],
    (9.5, 0.34): [0.038968696383854538, 0.17740504768655648, 0.30927671719707335,
                  0.27619137941044927, 0.14237683568172208, 0.045215060937681139],
    (9.5, 1.0):  [0.91078441569006213, 0.087256808784123126, 0.001945691304491486,
                  1.3055314495194286e-5, 2.8884830699339959e-8, 2.1991467995388247e-11],
    (1.0, 5.0):  [0.8359208022733478, 0.16380680085511384, 0.0002723934877428975,
                  3.3837951654935804e-9, 2.9738479736726651e-16, 1.8113209982185904e-25],
}

SAMPLE_146_REF = [0.05116075624826821, 0.20955653598607835, 0.3261492963770173,
                  0.2578817333028153, 0.11667743463211351, 0.03222224580700002,
                  0.005653080226279691, 0.0006470719460578468]
SAMPLE_146_MEAN = 2.302187  # and the case-study value 2.31 after rounding


class TestDeathRateAndRho:
    def test_rates(self):
        assert death_rate(0, 2.0) == 0.0
        assert death_rate(1, 2.0) == 1.0
        assert death_rate(5, 1.0) == 12.5

    def test_rho_values(self):
        # theta=1, t=0.5: level rates are 0.5 and 2, so the exponents
        # are 0.25 and 1
        params = ModelParams(1.0, 0.5)
        r1 = rho(1, params)
        assert r1.sign == -1
        np.testing.assert_allclose(r1.value, -2.0 * math.exp(-0.25), rtol=1e-14)
        r2 = rho(2, params)
        assert r2.sign == 1
        np.testing.assert_allclose(r2.value, 4.0 * math.exp(-1.0), rtol=1e-14)
        # a decay that overflows is an exact zero, as in the kernels, where
        # the same parameters give the sample law P[0] = 1
        huge = ModelParams(20.0, 1e308)
        assert rho(2, huge) == SignedLogValue(0, -math.inf)
        assert lineage_pmf(5, huge).prob(0) == 1.0

    def test_rho_domain(self):
        with pytest.raises(ValueError):
            rho(0, ModelParams(1.0, 0.5))
        with pytest.raises(ValueError):
            death_rate(-1, 1.0)


@pytest.mark.parametrize("theta", [math.inf, 1e306], ids=["inf", "lgamma-overflow"])
@pytest.mark.parametrize(
    "law",
    [
        lambda theta: r_pmf(3, 5, theta),
        lambda theta: r_freq_pmf(1, 3, 5, theta),
        lambda theta: posterior.cond_r_pmf(3, 5, 2, 1, theta),
        lambda theta: posterior.cond_r_freq_pmf(1, 3, 5, 2, 1, theta),
        lambda theta: esf_log_prob(AlleleConfiguration((2, 1)), theta),
    ],
    ids=["r_pmf", "r_freq_pmf", "cond_r_pmf", "cond_r_freq_pmf", "esf_log_prob"],
)
def test_raw_theta_refused_like_model_params(law, theta):
    # the same gate as ModelParams: no nan law, no bare OverflowError
    with pytest.raises(ValueError, match="theta must be"):
        ModelParams(theta, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="theta must be"):
            law(theta)


class TestAncestralPmf:
    def test_frozen_references(self):
        for (theta, t), expected in ANCESTRAL_REFS.items():
            pmf = ancestral_pmf(None, ModelParams(theta, t))
            np.testing.assert_allclose(pmf.probs[:6], expected, rtol=1e-9, atol=1e-15)
            assert pmf.mass_defect < 1e-8

    def test_small_t_support_growth(self):
        # at theta=9.5, t=0.1 the mass sits around n=16 and the adaptive
        # rule must push the support well past the default start
        pmf = ancestral_pmf(None, ModelParams(9.5, 0.1))
        assert len(pmf.probs) > 40
        np.testing.assert_allclose(pmf.mean(), 15.8856615, atol=1e-4)
        # entries of size 1e-6 carry absolute noise ~1e-9 here by design
        np.testing.assert_allclose(pmf.probs[5], 4.7608246048842127e-6, atol=2e-8)

    def test_closes_at_t_tenth_for_small_theta(self):
        # entry rounding noise leaves a ~1e-8 mass defect here; closure
        # judges the true tail by entry decay, so the defect stays small
        # and flagged instead of triggering a futile support hunt
        for theta in (0.5, 1.0):
            pmf = ancestral_pmf(None, ModelParams(theta, 0.1))
            assert len(pmf.probs) < 200
            assert 0.0 <= pmf.mass_defect < 1e-6

    def test_far_smaller_t_still_flagged(self):
        for theta, t in ((1.0, 0.005), (9.5, 0.01)):
            with pytest.raises(NumericalConditioningError):
                ancestral_pmf(None, ModelParams(theta, t))

    def test_explicit_truncation_must_cover_mass(self):
        params = ModelParams(9.5, 0.34)
        with pytest.raises(NumericalConditioningError, match="mass defect"):
            ancestral_pmf(3, params)
        full = ancestral_pmf(40, params)
        np.testing.assert_allclose(full.probs[:6], ANCESTRAL_REFS[(9.5, 0.34)], rtol=1e-9)

    def test_zero_time_rejected(self):
        with pytest.raises(ValueError, match="infinity"):
            ancestral_pmf(None, ModelParams(1.0, 0.0))

    def test_explicit_truncation_sums_no_zero_rows(self):
        # rows past _last_index are exact zeros: the law is the kernel's
        # sum over every row, with those rows appended as zeros
        params = ModelParams(9.5, 0.34)
        top = _last_index(params)
        assert top < 40
        rows = _line_count_entries(-log_factorials(top + 1), range(41), params)
        want = reliable_values(*rows, str, "")
        law = ancestral_pmf(40, params)
        assert law.probs.tobytes() == want.tobytes()
        assert law.mass_defect == abs(1.0 - float(want.sum())) and not law.renormalized

    def test_huge_truncation_is_refused_cheaply(self):
        params = ModelParams(9.5, 0.34)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(ValueError, match=f"in \\[0, {ancestral.MAX_TRUNCATION}\\]"):
                ancestral_pmf(10**12, params)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0 and peak < 2**20

    @pytest.mark.parametrize("theta", [1e7, 1e12, 1e300])
    def test_large_theta_builds_no_rows_past_the_series(self, theta):
        # every row past _last_index is an exact zero, so the adaptive
        # start must not build ceil(theta) of them
        params = ModelParams(theta, 0.34)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            pmf = ancestral_pmf(None, params)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pmf.probs) <= 2 * (_last_index(params) + 1)
        assert pmf.probs[0] == 1.0 and pmf.mass_defect == 0.0
        assert elapsed < 0.5 and peak < 2**20


class TestLineagePmf:
    def test_frozen_singh_values(self):
        pmf = lineage_pmf(146, ModelParams(9.5, 0.34))
        np.testing.assert_allclose(pmf.probs[:8], SAMPLE_146_REF, rtol=1e-9)
        np.testing.assert_allclose(pmf.mean(), SAMPLE_146_MEAN, atol=1e-5)

    def test_mean_at_zero_time_is_sample_size(self):
        for m in [1, 2, 17]:
            assert lineage_mean(m, ModelParams(1.0, 0.0)) == m

    def test_against_oracle_mixture(self):
        # the sample law is the seed-type law averaged over the
        # population line count; both sides computed independently
        for m, theta, t in [(8, 1.0, 0.5), (25, 9.5, 0.34), (12, 0.5, 1.0)]:
            params = ModelParams(theta, t)
            direct = lineage_pmf(m, params)
            anc = ancestral_pmf(None, params)
            mix = np.zeros(m + 1)
            for n, w in anc.items():
                if w == 0.0:
                    continue
                rp = r_pmf(n, m, theta)
                mix[: len(rp.probs)] += w * rp.probs
            assert 0.5 * np.abs(mix - direct.probs).sum() < 1e-10

    def test_small_t_large_m_flagged(self):
        with pytest.raises(NumericalConditioningError) as exc_info:
            lineage_pmf(146, ModelParams(9.5, 0.01))
        err = exc_info.value
        assert err.min_reliable_t is not None
        assert err.min_reliable_t > 0.01
        # the reported time must actually work
        lineage_pmf(146, ModelParams(9.5, err.min_reliable_t))

    def test_mean_decreases_in_time(self):
        means = [lineage_mean(30, ModelParams(2.0, t)) for t in [0.2, 0.5, 1.0, 2.0]]
        assert all(a > b for a, b in zip(means, means[1:]))


@pytest.mark.parametrize(
    "law",
    [
        lambda: lineage_pmf(5, ModelParams(1.0, 0.5)).probs,
        lambda: lineage_pmf(5, ModelParams(1.0, 0.0)).probs,
        lambda: _ancestral_values(ModelParams(1.0, 0.5), None),
        lambda: posterior.n_posterior(5, 2, ModelParams(1.0, 0.5), mode="total").probs,
    ],
    ids=["lineage", "point-mass", "population", "posterior"],
)
def test_memoized_laws_are_read_only(law):
    kept = law().tobytes()
    with pytest.raises(ValueError):
        law()[:] = 0.0
    assert law().tobytes() == kept


class TestTmrcaCdf:
    def test_matches_pmf_tail(self):
        params = ModelParams(9.5, 0.34)
        pmf = lineage_pmf(146, params)
        for r in [0, 2, 4]:
            np.testing.assert_allclose(
                tmrca_cdf(146, r, params), pmf.probs[: r + 1].sum(), rtol=1e-12
            )
        np.testing.assert_allclose(tmrca_cdf(146, 4, params), 0.9614257565, rtol=1e-8)

    def test_monotone_in_time(self):
        vals = [tmrca_cdf(20, 3, ModelParams(1.0, t)) for t in [0.3, 0.6, 1.2, 2.4]]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_degenerate_levels(self):
        assert tmrca_cdf(5, 5, ModelParams(1.0, 0.1)) == 1.0
        assert tmrca_cdf(5, 7, ModelParams(1.0, 0.1)) == 1.0
        with pytest.raises(ValueError):
            tmrca_cdf(5, -1, ModelParams(1.0, 0.1))
        with pytest.raises(ValueError, match="m must be"):
            tmrca_cdf(-3, 5, ModelParams(1.0, 0.1))


class TestSeedTypeLaws:
    def test_r_pmf_hand_values(self):
        np.testing.assert_allclose(r_pmf(2, 3, 1.0).probs, [0.1, 0.6, 0.3], rtol=1e-12)
        np.testing.assert_allclose(r_pmf(1, 1, 1.0).probs, [0.5, 0.5], rtol=1e-12)
        # no seed types: everything is new
        assert r_pmf(0, 4, 2.0).probs.tolist() == [1.0]
        # no draws: nothing re-observed
        assert r_pmf(3, 0, 2.0).probs.tolist() == [1.0]

    def test_r_freq_hand_values(self):
        np.testing.assert_allclose(r_freq_pmf(1, 1, 1, 1.0).probs, [0.5, 0.5], rtol=1e-12)
        # P[the single seed type is drawn twice in two draws] = (1/2)(2/3)
        np.testing.assert_allclose(r_freq_pmf(2, 1, 2, 1.0).probs, [2 / 3, 1 / 3], rtol=1e-12)

    def test_r_laws_match_oracle(self):
        worst = 0.0
        for theta in [Fraction(1, 2), Fraction(1), Fraction(3)]:
            for n in range(0, 5):
                for m in range(0, 7 - n):
                    seqs = enumerate_sequences(n, m, theta)
                    exact = oracle_pmf_exact("R", n_atoms=n, m=m, theta=theta, sequences=seqs)
                    got = r_pmf(n, m, float(theta))
                    for x in range(0, min(n, m) + 1):
                        worst = max(worst, abs(got.prob(x) - float(exact.get(x, Fraction(0)))))
                    for l in range(1, 4):
                        exact_l = oracle_pmf_exact(
                            "R_l", n_atoms=n, m=m, theta=theta, l=l, sequences=seqs
                        )
                        got_l = r_freq_pmf(l, n, m, float(theta))
                        for x in range(0, n + 1):
                            worst = max(
                                worst, abs(got_l.prob(x) - float(exact_l.get(x, Fraction(0))))
                            )
        assert worst < 1e-13

    @pytest.mark.parametrize("l", [1, 2, 3])
    @pytest.mark.parametrize("m", [20, 146, 1000])
    def test_r_freq_matches_entry_by_entry_reference(self, l, m):
        # every entry, tail entries down to 1e-235 included, within a relative
        # 1e-12 of the exact law; a lone level's law has the bits of its
        # one-level table
        points = [(n, theta) for n in (0, 1, 7, 50) for theta in (0.5, 9.5, 20.0)]
        for n, theta in points + [(20, 20.0), (200, 9.5)]:
            got = r_freq_pmf(l, n, m, theta).probs
            want = [float(p) for p in freq_law_definition(l, n, m, Fraction(theta))]
            assert len(got) == len(want) == min(n, m // l) + 1
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, err_msg=f"{n}, {theta}")
            (row,) = ancestral._freq_rows(l, np.array([n]), m, theta)
            assert got.tobytes() == row.tobytes() and not row.flags.writeable

    @pytest.mark.parametrize(
        "l, n, m", [(1, 7, 12), (2, 7, 12), (3, 6, 14), (2, 20, 40), (1, 0, 5), (3, 2, 1)]
    )
    def test_positive_form_is_the_inclusion_exclusion_law(self, l, n, m):
        # in exact rationals, the positive form's steps give the definition
        for theta in (Fraction(1, 2), Fraction(19, 2), Fraction(3)):
            assert freq_law_by_steps(l, n, m, theta) == freq_law_definition(l, n, m, theta)

    @pytest.mark.parametrize("theta", [20.0, 9.5])
    def test_large_level_rows_hold_their_digits(self, theta):
        # the inclusion-exclusion kernel returned these rows 2.76e-7 (theta = 20)
        # and 2.59e-7 (theta = 9.5) off the exact law, under its noise gate
        exact = freq_law_definition(1, 50, 146, Fraction(theta))
        got = r_freq_pmf(1, 50, 146, theta).probs
        assert max(abs(p - float(e)) for p, e in zip(got, exact)) <= 1e-13

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            r_pmf(-1, 3, 1.0)
        with pytest.raises(ValueError):
            r_pmf(2, 3, 0.0)
        with pytest.raises(ValueError):
            r_freq_pmf(0, 2, 3, 1.0)


class TestSingletonLineagePmf:
    @pytest.mark.parametrize("m", [6, 146, 1000])
    def test_mixture_consistency(self, m):
        # must equal the frequency-level mixture it is defined as, and
        # integrate to one
        params = ModelParams(1.5, 0.4)
        pmf = singleton_lineage_pmf(m, params)
        np.testing.assert_allclose(pmf.probs.sum(), 1.0, rtol=1e-12)
        anc = ancestral_pmf(None, params)
        expected = np.zeros(m + 1)
        for n, w in anc.items():
            if w == 0.0:
                continue
            inner = r_freq_pmf(1, n, m, params.theta)
            expected[: len(inner.probs)] += w * inner.probs
        np.testing.assert_allclose(pmf.probs, expected / expected.sum(), rtol=1e-12)

    def test_single_sample_unit(self):
        # with one sample unit, it is a singleton ancestor precisely when
        # its own line is still alive: P = sum_n d_n * n/(theta+n)
        params = ModelParams(2.0, 0.7)
        pmf = singleton_lineage_pmf(1, params)
        anc = ancestral_pmf(None, params)
        expected = sum(w * n / (params.theta + n) for n, w in anc.items())
        np.testing.assert_allclose(pmf.prob(1), expected, rtol=1e-10)

    def test_zero_time_rejected(self):
        with pytest.raises(ValueError):
            singleton_lineage_pmf(4, ModelParams(1.0, 0.0))

    @pytest.mark.parametrize("m", SINGLETON_GRID_M)
    def test_stacked_law_matches_per_level_mixture(self, m):
        # the law and the singleton posterior read one table of every level;
        # the references build each level's one-level law on its own
        for theta, t in itertools.product(SINGLETON_GRID_THETA, SINGLETON_GRID_T):
            params = ModelParams(theta, t)
            assert_same_law(
                lambda: singleton_lineage_pmf(m, params),
                lambda: singleton_lineage_by_level(m, params),
                (m, theta, t),
            )
            for y in sorted({y for y in (0, 1, 3, m // 2, m) if y <= m}):
                assert_same_law(
                    lambda: posterior.n_posterior(m, y, params, mode="singleton"),
                    lambda: singleton_posterior_by_level(m, y, params),
                    (m, y, theta, t),
                )

    @pytest.mark.parametrize("m", [0, 1, 5, 20, 146])
    def test_law_is_the_level_by_level_mixture_bit_for_bit(self, m):
        # the levels are added in increasing n even when the table is one
        # column wide (m = 0), where a numpy column sum would go pairwise.
        # The stacked rows, each padded to its run's widest level, are the
        # one-level laws' bits, so the law is singleton_lineage_by_level's
        def bits(build):
            try:
                law = build()
            except NumericalConditioningError as err:
                return str(err)
            return law.probs.tobytes(), repr(law.mass_defect), law.renormalized

        def own_rows_by_level(params):
            weights = _ancestral_values(params, None)
            levels = np.flatnonzero(weights)
            rows = dict(zip(levels.tolist(), ancestral._freq_rows(1, levels, m, params.theta)))
            return mixture_by_level(
                weights, lambda n: Pmf(0, rows[n], 0.0), 0, m + 1, "singleton ancestor count"
            )

        for theta, t in itertools.product(SINGLETON_GRID_THETA, (0.1, 0.15, 0.34, 1.0)):
            params = ModelParams(theta, t)
            got = bits(lambda: singleton_lineage_pmf(m, params))
            assert got == bits(lambda: own_rows_by_level(params)), (m, theta, t)
            assert got == bits(lambda: singleton_lineage_by_level(m, params)), (m, theta, t)

    def test_stacked_law_holds_a_few_blocks(self):
        # the sweep box's largest stack: 48 levels whose (y, j) squares pad
        # to a 110,592-term cube that the kernel builds in runs.  Its transients
        # stay near what one-level rows need, so a process running many such
        # laws keeps the resident set that the level-by-level mixture had
        params = ModelParams(0.5, 0.15)
        levels = np.flatnonzero(_ancestral_values(params, None))
        assert len(levels) == 48 and levels[-1] == 47
        assert 48**3 > 20 * numerics.BLOCK_TERMS and numerics.BLOCK_TERMS <= 1 << 12
        singleton_lineage_pmf(146, params)  # the kept tables are not counted
        _ancestral_values.cache_clear()
        tracemalloc.start()
        try:
            singleton_lineage_pmf(146, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 * 8 * numerics.BLOCK_TERMS

    @pytest.mark.parametrize("m", [1, 6, 20, 30])
    def test_closed_route_matches_mixture(self, m):
        for theta, t in ((0.5, 1.0), (1.5, 0.4), (9.5, 0.34)):
            params = ModelParams(theta, t)
            closed = singleton_lineage_pmf(m, params, method="closed")
            assert closed.tv_distance(singleton_lineage_pmf(m, params)) <= 1e-8

    def test_both_routes_match_mpmath_mixture_series(self):
        # the closed route sums through numerics.exact_count_sums and the
        # mixture through positive urn rows, so the reference takes neither:
        # 50-digit population series, and the urn law through weak
        # compositions
        for m, theta, t in ((8, 1.0, 0.34), (12, 3.0, 0.2), (20, 0.5, 1.0), (20, 9.5, 0.15)):
            params = ModelParams(theta, t)
            reference = np.array([float(p) for p in singleton_law_mpmath(m, theta, t)])
            for method in ("mixture", "closed"):
                law = singleton_lineage_pmf(m, params, method)
                assert np.max(np.abs(law.probs - reference)) <= 1e-9, (m, theta, t, method)


# (m, lo, i_hi, extra_log rows) for the closed kernel: the law's own call,
# predictive-shaped calls with lo >= 1 and several rows, and calls where one
# moment's triangle exceeds BLOCK_TERMS (i_hi = 90 with two rows, i_hi = 100)
CLOSED_KERNEL_CALLS = (
    (0, 0, 0, 1), (1, 0, 1, 1), (5, 0, 5, 1), (20, 0, 20, 1), (30, 0, 30, 1), (60, 0, 60, 1),
    (8, 3, 13, 4), (20, 1, 25, 2), (20, 7, 60, 3), (30, 30, 35, 2), (40, 12, 90, 2),
    (90, 0, 90, 2), (60, 2, 100, 1),
)


def closed_routes(m, y, params):
    """The three routes through the closed singleton kernel at one point."""
    return {
        "law": lambda: singleton_lineage_pmf(m, params, method="closed").probs.tobytes(),
        "predictive": lambda: posterior.predictive_singleton_pmf(
            posterior.PredictiveQuery(m, 3, y, params), method="closed"
        ).probs.tobytes(),
        "discovery": lambda: posterior.gt_singleton_prob(m, y, params, method="closed"),
    }


def outcome(compute):
    """The result, or the refusal's type and message."""
    try:
        return compute()
    except (NumericalConditioningError, ValueError) as err:
        return type(err).__name__, str(err)


class TestClosedMomentStack:
    """The closed singleton kernel's stacked moments against the loop that sums
    one binomial moment per signed_log_sums call."""

    @pytest.mark.parametrize("m, lo, i_hi, rows", CLOSED_KERNEL_CALLS)
    def test_matches_moment_by_moment_loop(self, m, lo, i_hi, rows):
        rng = np.random.default_rng(1000 * m + i_hi)
        for theta, t in ((0.5, 0.1), (1.0, 0.05), (3.0, 0.34), (20.0, 2.0), (9.5, 1e308)):
            params = ModelParams(theta, t)
            extra_log = np.zeros((1, i_hi + 1)) if rows == 1 else rng.normal(size=(rows, i_hi + 1))
            got = ancestral._singleton_closed_entries(m, lo, params, i_hi, extra_log)
            want = singleton_closed_entries_by_moment(m, lo, params, i_hi, extra_log)
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.tobytes() == w.tobytes(), (m, lo, i_hi, theta, t)

    def test_grid_reaches_a_moment_longer_than_a_block(self):
        # the first moment's triangle, over every row, alone exceeds a block
        # in one-row calls and in calls of several rows
        rows_past_a_block = {
            rows
            for m, lo, i_hi, rows in CLOSED_KERNEL_CALLS
            if m >= max(lo, 1)
            and rows * (i_hi - max(lo, 1) + 1) * (i_hi - max(lo, 1) + 2) // 2 > numerics.BLOCK_TERMS
        }
        assert {1, 2} <= rows_past_a_block

    def test_closed_routes_keep_their_results_and_refusals(self, monkeypatch):
        # the law, the predictive and the discovery probability, each with the
        # stacked kernel and with the moment loop in its place: the same bytes,
        # or the same refusal type and message
        stacked, by_moment = {}, {}
        points = [
            (m, y, ModelParams(theta, t))
            for m in (5, 20, 30)
            for y in (1, m // 2)
            for theta in (0.5, 1.0, 9.5)
            for t in (0.05, 0.1, 0.15, 0.34)
        ]
        for results in (stacked, by_moment):
            if results is by_moment:
                for module in (ancestral, posterior):
                    monkeypatch.setattr(
                        module, "_singleton_closed_entries", singleton_closed_entries_by_moment
                    )
            for m, y, params in points:
                for route, compute in closed_routes(m, y, params).items():
                    results[m, y, params, route] = outcome(compute)
        assert stacked == by_moment
        for route in ("law", "predictive", "discovery"):
            kinds = {type(r) for key, r in stacked.items() if key[-1] == route}
            assert tuple in kinds and len(kinds) == 2, route  # some refuse, some return

    def test_closed_law_sums_its_moments_in_two_blocks(self, monkeypatch):
        # at m = 20 the 20 moments, each padded to the first's 210 terms, are
        # one block of 19 moments and one of the last, where the moment loop
        # makes 20 calls
        calls, rho_calls = [], []
        kernel, log_abs_rho = ancestral.signed_log_sums, ancestral._log_abs_rho
        monkeypatch.setattr(
            ancestral, "signed_log_sums", lambda *a: (calls.append(a), kernel(*a))[1]
        )
        monkeypatch.setattr(
            ancestral, "_log_abs_rho", lambda *a: (rho_calls.append(a), log_abs_rho(*a))[1]
        )
        singleton_lineage_pmf(20, ModelParams(3.0, 0.4), method="closed")
        assert [np.size(log_terms) for log_terms, _ in calls] == [19 * 210, 1]
        assert max(np.size(log_terms) for log_terms, _ in calls) <= numerics.BLOCK_TERMS
        assert len(rho_calls) == 1

    def test_log_rho_is_taken_once_per_kernel_call(self, monkeypatch):
        kernel_calls, rho_calls = [], []
        kernel, log_abs_rho = ancestral._singleton_closed_entries, ancestral._log_abs_rho

        def counted(*args):
            kernel_calls.append(args)
            return kernel(*args)

        for module in (ancestral, posterior):
            monkeypatch.setattr(module, "_singleton_closed_entries", counted)
        monkeypatch.setattr(
            ancestral, "_log_abs_rho", lambda *a: (rho_calls.append(a), log_abs_rho(*a))[1]
        )
        for m, y in ((20, 4), (30, 10), (60, 2)):
            for compute in closed_routes(m, y, ModelParams(9.5, 0.34)).values():
                outcome(compute)
        assert len(kernel_calls) == 9 and len(rho_calls) == len(kernel_calls)

    @pytest.mark.parametrize("m", [20, 30, 40, 50, 60])
    def test_stacked_moments_hold_a_few_blocks(self, m):
        # at m = 60, 60 moments of up to 1,830 terms each: summed as one block
        # they would take 60 x 1,830 floats, about 880 KB; in blocks of whole
        # moments the transients stay within a few blocks at every m
        params = ModelParams(3.0, 0.4)
        singleton_lineage_pmf(m, params, method="closed")  # the kept tables are not counted
        tracemalloc.start()
        try:
            singleton_lineage_pmf(m, params, method="closed")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 8 * numerics.BLOCK_TERMS


def compositions_without_ones(total: int, parts: int) -> int:
    """Weak compositions of total into parts with no part equal to 1.

    q nonzero parts, each at least 2, are C(total-q-1, q-1) compositions.
    """
    if total == 0:
        return 1
    return sum(
        math.comb(parts, q) * math.comb(total - q - 1, q - 1)
        for q in range(1, min(parts, total // 2) + 1)
    )


def singleton_law_mpmath(m: int, theta: float, t: float, dps: int = 50) -> list:
    """The singleton mixture series at dps digits.

    The population law d_n is its line-of-descent series, summed to the
    index where every term is below e^-140.  Given n seed types, the
    number s of the m draws that land on them is beta-binomial(m; n,
    theta), and given s their counts are uniform over the weak
    compositions of s into n parts, so exactly x of them are singletons
    in C(n,x) compositions_without_ones(s-x, n-x) of C(s+n-1, n-1).
    """
    # past top, every term is below e^-140 (the bound of ancestral._last_index)
    top, log_growth = 1, math.log1p(theta) + theta * math.log(2)
    while log_growth + 4 * top * math.log(2) + 140 > t * top * (top - 1 + theta) / 2:
        top += 1
    with mpmath.workdps(dps):
        theta_, t_ = mpmath.mpf(theta), mpmath.mpf(t)
        decay = [
            (2 * i - 1 + theta_) * mpmath.exp(-t_ * i * (i - 1 + theta_) / 2)
            for i in range(top + 1)
        ]
        inv_fact = [1 / mpmath.factorial(k) for k in range(top + 1)]
        law = [mpmath.mpf(0)] * (m + 1)
        for n in range(top + 1):
            # d_n = 1{n=0} + sum over i of (-1)^(i+n) decay_i (n+theta)_(i-1) / (n! (i-n)!)
            d = mpmath.mpf(n == 0)
            rising = mpmath.rf(n + theta_, max(n, 1) - 1)
            for i in range(max(n, 1), top + 1):
                d += (-1) ** (i + n) * decay[i] * rising * inv_fact[n] * inv_fact[i - n]
                rising *= n + theta_ + i - 1
            for s in range(m + 1):
                p_s = math.comb(m, s) * mpmath.rf(n, s) * mpmath.rf(theta_, m - s)
                p_s /= mpmath.rf(n + theta_, m)
                if p_s == 0:
                    continue
                share = d * p_s / (math.comb(s + n - 1, n - 1) if n else 1)
                for x in range(min(s, n) + 1):
                    law[x] += share * (math.comb(n, x) * compositions_without_ones(s - x, n - x))
        return law


KERNEL_M = (0, 1, 20, 146, 1000)
KERNEL_THETA = (0.5, 9.5, 20.0)
KERNEL_T = (0.15, 0.34, 2.0)
# at t = 1e308 the decay exponent t i(i-1+theta)/2 overflows to inf
WARNING_T = KERNEL_T + (1e308,)


def refusal(compute) -> str | None:
    try:
        compute()
    except NumericalConditioningError as err:
        return str(err)
    return None


class TestBlockKernels:
    """The (x, i) block kernels and array gates against the row-by-row references."""

    @pytest.mark.parametrize("m", KERNEL_M)
    def test_sample_law_matches_row_reference(self, m):
        for theta in KERNEL_THETA:
            for t in KERNEL_T:
                params = ModelParams(theta, t)
                what = lambda x: f"entry at {x}"
                np.testing.assert_allclose(
                    reliable_values(*_lineage_entries(m, params), what, "r"),
                    values_by_entry(lineage_entries_by_row(m, params), what, "r"),
                    rtol=1e-12, atol=0.0,
                )

    def test_population_law_matches_row_reference(self):
        for theta in KERNEL_THETA:
            for t in KERNEL_T:
                params = ModelParams(theta, t)
                values = _ancestral_values(params, None)
                np.testing.assert_allclose(
                    values,
                    ancestral_values_by_row(params, range(len(values))),
                    rtol=1e-12, atol=0.0,
                )

    @pytest.mark.parametrize("theta", KERNEL_THETA)
    def test_refusals_match_row_reference(self, theta):
        params = ModelParams(theta, 0.05)
        sample = refusal(
            lambda: Pmf.from_signed_sums(
                *_lineage_entries(146, params), 0, context="sample line count"
            )
        )
        assert sample is not None
        assert sample == refusal(
            lambda: pmf_by_entry(lineage_entries_by_row(146, params), "sample line count")
        )
        assert sample in refusal(lambda: lineage_pmf(146, params))
        population = refusal(lambda: _ancestral_values.__wrapped__(params, None))
        assert population is not None
        assert population == refusal(
            lambda: ancestral_values_by_row(params, range(_last_index(params) + 1))
        )

    def test_no_runtime_warnings_reach_callers(self):
        # the kernels pad with -inf and exponentiate refused peaks; none of
        # that may surface as a numpy RuntimeWarning.  The closed routes
        # run where they are affordable, m <= 20.
        for cached in (_ancestral_values, posterior.n_posterior):
            cached.cache_clear()
        numerics._PASCAL.clear()
        numerics._LOG_FACTORIALS.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in KERNEL_M:
                routes = ("mixture", "closed") if m <= 20 else ("mixture",)
                for theta in KERNEL_THETA:
                    for t in WARNING_T:
                        self._every_law(m, ModelParams(theta, t), routes)

    @staticmethod
    def _every_law(m, params, routes):
        laws = [
            lambda: lineage_pmf(m, params),
            lambda: ancestral_pmf(None, params),
            *(lambda r=r: singleton_lineage_pmf(m, params, method=r) for r in routes),
        ]
        if m > 0:
            y_total = int(np.argmax(lineage_pmf(m, params).probs))
            y_single = int(np.argmax(singleton_lineage_pmf(m, params).probs))
            for r in routes:
                laws += [
                    lambda r=r: posterior.predictive_lineage_pmf(
                        posterior.PredictiveQuery(m, 5, y_total, params), method=r
                    ),
                    lambda r=r: posterior.predictive_singleton_pmf(
                        posterior.PredictiveQuery(m, 5, y_single, params), method=r
                    ),
                    lambda r=r: posterior.gt_singleton_prob(m, y_single, params, method=r),
                ]
            laws.append(lambda: posterior.gt_new_lineage_prob(m, y_total, params))
        for law in laws:
            refusal(law)
