import importlib
import math
import pkgutil
import warnings
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coalineage
from coalineage import ancestral, numerics, posterior
from coalineage.ancestral import (
    ModelParams,
    ancestral_pmf,
    lineage_pmf,
    r_freq_pmf,
    r_pmf,
    singleton_lineage_pmf,
)
from coalineage.errors import NumericalConditioningError
from coalineage.numerics import (
    SignedLogValue,
    log_factorials,
    log_gamma_table,
    log_rising_factorial,
    moment_count_sums,
    reliable_values,
    signed_log_sums,
)
from coalineage.posterior import PredictiveQuery, predictive_singleton_pmf
from reference import (
    log_falling_factorial,
    moment_count_sums_two_pass,
    parts_ratios_from_counts,
    signed_log_sum,
    signless_stirling1,
    stirling2,
    values_by_entry,
)


def exact_rising(x: Fraction, n: int) -> Fraction:
    out = Fraction(1)
    for i in range(n):
        out *= x + i
    return out


class TestLogFactorials:
    def test_rising_small_exact(self):
        for x in [Fraction(1, 2), Fraction(1), Fraction(19, 2), Fraction(3)]:
            for n in range(0, 12):
                expected = exact_rising(x, n)
                got = log_rising_factorial(float(x), n)
                np.testing.assert_allclose(got, math.log(expected), rtol=1e-13)

    def test_rising_zero_base_sentinel(self):
        assert log_rising_factorial(0.0, 1) == -math.inf
        assert log_rising_factorial(0.0, 5) == -math.inf
        assert log_rising_factorial(0.0, 0) == 0.0

    def test_rising_rejects_bad_args(self):
        with pytest.raises(ValueError):
            log_rising_factorial(1.0, -1)
        with pytest.raises(ValueError):
            log_rising_factorial(-0.5, 2)

    @given(
        x=st.floats(min_value=0.01, max_value=500.0),
        n=st.integers(min_value=0, max_value=50),
        k=st.integers(min_value=0, max_value=50),
    )
    def test_rising_recurrence(self, x, n, k):
        # (x)_(n+k) = (x)_n * (x+n)_k
        lhs = log_rising_factorial(x, n + k)
        rhs = log_rising_factorial(x, n) + log_rising_factorial(x + n, k)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10)

    def test_falling_integer_matches_perm(self):
        for x in range(0, 15):
            for n in range(0, x + 1):
                got = log_falling_factorial(float(x), n)
                expected = math.perm(x, n)
                assert got.sign == (1 if expected > 0 else 0)
                if expected > 0:
                    np.testing.assert_allclose(
                        got.log_magnitude, math.log(expected), rtol=1e-13
                    )

    def test_falling_vanishes_and_flips_sign(self):
        assert log_falling_factorial(3.0, 4).sign == 0
        # 2.5 * 1.5 * 0.5 * (-0.5) < 0
        got = log_falling_factorial(2.5, 4)
        assert got.sign == -1
        np.testing.assert_allclose(got.value, 2.5 * 1.5 * 0.5 * -0.5, rtol=1e-13)

    def test_gamma_table_at_indices_matches_full_table(self):
        for base in (1.0, 0.79, 9.5):
            full = log_gamma_table(base, 40)
            at = [0, 3, 3, 17, 39]
            sparse = log_gamma_table(base, 40, at)
            assert sparse[at].tolist() == full[at].tolist()
            assert np.isnan(np.delete(sparse, at)).all()


class TestLogFactorialTable:
    def test_matches_lgamma_after_growth_in_steps(self, monkeypatch):
        monkeypatch.setattr(numerics, "_LOG_FACTORIALS", [])
        for size in (0, 1, 7, 3, 40, 41, 300):
            assert log_factorials(size).tolist() == [math.lgamma(1.0 + k) for k in range(size)]

    def test_view_is_read_only(self):
        view = log_factorials(10)
        with pytest.raises(ValueError):
            view[3] = 0.0

    def test_laws_do_not_depend_on_table_size(self, monkeypatch):
        laws = (
            lambda: r_pmf(300, 1000, 9.5),
            lambda: r_freq_pmf(1, 40, 1000, 9.5),
            lambda: lineage_pmf(1000, ModelParams(9.5, 0.34)),
        )

        def run(law):
            pmf = law()
            return pmf.probs.tobytes(), repr(pmf.mass_defect)

        cold = []
        for law in laws:
            monkeypatch.setattr(numerics, "_LOG_FACTORIALS", [])
            cold.append(run(law))
        log_factorials(5001)
        assert [run(law) for law in laws] == cold


class TestSignedLogValue:
    def test_invalid_sign_rejected(self):
        with pytest.raises(ValueError):
            SignedLogValue(2, 0.0)
        with pytest.raises(ValueError):
            SignedLogValue(0, 0.0)
        with pytest.raises(ValueError):
            SignedLogValue(1, -math.inf)


def alternating_exp_terms(x: float, count: int):
    # exp(-x) = sum (-1)^k x^k / k!, first count terms
    k = np.arange(count)
    return k * math.log(x) - np.array([math.lgamma(j + 1) for j in k]), (-1.0) ** k


def value_of(sums, log_peaks):
    return sums * np.exp(log_peaks)


class TestSignedLogSum:
    def test_matches_direct_sum(self):
        rng = np.random.default_rng(42)
        vals = rng.normal(size=(20, 15)) * 10.0 ** rng.integers(-3, 3, size=(20, 15))
        sums, log_peaks = signed_log_sums(np.log(np.abs(vals)), np.sign(vals))
        for r, row in enumerate(vals):
            np.testing.assert_allclose(
                value_of(sums[r], log_peaks[r]), math.fsum(row.tolist()), rtol=1e-12
            )
        assert np.all(np.abs(sums) <= 15.0)
        np.testing.assert_allclose(log_peaks, np.log(np.abs(vals)).max(axis=1), rtol=1e-12)

    def test_all_zero_terms(self):
        sums, log_peaks = signed_log_sums(np.array([[-math.inf, -math.inf]]), np.ones((1, 2)))
        assert sums.tolist() == [0.0]
        assert log_peaks.tolist() == [-math.inf]

    def test_exact_cancellation(self):
        sums, log_peaks = signed_log_sums(np.array([[0.0, 0.0]]), np.array([[1.0, -1.0]]))
        assert sums.tolist() == [0.0]
        assert log_peaks.tolist() == [0.0]

    def test_mild_alternating_series_accurate(self):
        xs = [0.5, 1.0, 5.0]
        terms = [alternating_exp_terms(x, 60) for x in xs]
        sums, log_peaks = signed_log_sums(
            np.array([t for t, _ in terms]), np.array([s for _, s in terms])
        )
        np.testing.assert_allclose(value_of(sums, log_peaks), np.exp(-np.array(xs)), rtol=1e-10)
        assert np.all(np.abs(sums) > 1e-8)

    def test_catastrophic_cancellation_flagged(self):
        # terms near 20^20/20! ~ 4e7 against a true sum of 2e-9: every
        # surviving digit is noise, and the diagnostic must say so
        log_terms, signs = alternating_exp_terms(20.0, 120)
        sums, _ = signed_log_sums(log_terms[None, :], signs[None, :])
        assert abs(sums[0]) < 1e-8

    @given(
        st.lists(
            st.floats(min_value=1e-5, max_value=1e5),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=200)
    def test_same_sign_sums_match_fsum(self, values):
        sums, log_peaks = signed_log_sums(np.log([values]), np.ones((1, len(values))))
        np.testing.assert_allclose(value_of(sums, log_peaks)[0], math.fsum(values), rtol=1e-12)
        assert sums[0] >= 1.0 - 1e-12


class TestSignedLogSums:
    def test_padded_rows_match_single_row_sums(self):
        rng = np.random.default_rng(7)
        rows = [rng.normal(size=k) * 10.0 ** rng.integers(-3, 3, size=k) for k in (1, 4, 9)]
        log_terms = np.full((len(rows) + 1, 9), -math.inf)
        signs = np.ones((len(rows) + 1, 9))
        for r, vals in enumerate(rows):
            log_terms[r, : len(vals)] = np.log(np.abs(vals))
            signs[r, : len(vals)] = np.sign(vals)
        sums, log_peaks = signed_log_sums(log_terms, signs)
        for r, vals in enumerate(rows):
            total, ratio, log_peak = signed_log_sum(np.log(np.abs(vals)), np.sign(vals))
            assert log_peaks[r] == log_peak
            np.testing.assert_allclose(abs(sums[r]), ratio, rtol=1e-15)
            np.testing.assert_allclose(value_of(sums[r], log_peaks[r]), total.value, rtol=1e-14)
        # an all-padding row is an empty sum
        assert (sums[-1], log_peaks[-1]) == (0.0, -math.inf)


class TestExactCountSums:
    """moment_count_sums over unit moment sums, where each moment is its log."""

    def test_matches_exact_inclusion_exclusion(self):
        # binomial moments S_k of N independent events are the elementary
        # symmetric sums of their chances, so the exact count law is known
        # twice over: by the product DP and by inclusion-exclusion in
        # Fractions.  The kernel must match it for every size and every lo,
        # as sizes grow and shrink again.
        rng = np.random.default_rng(11)
        for size in [*range(1, 13), *range(12, 0, -1)]:
            chances = [Fraction(int(rng.integers(1, 64)), 64) for _ in range(size)]
            law, moments = [Fraction(1)], [Fraction(1)]
            for p in chances:
                law = [a * (1 - p) + b * p for a, b in zip(law + [0], [0] + law)]
                moments = [a + b * p for a, b in zip(moments + [0], [0] + moments)]
            log_moments = np.log([float(s) for s in moments])
            for lo in range(size + 1):
                exact = [
                    sum((-1) ** (k - z) * math.comb(k, z) * moments[k] for k in range(z, size + 1))
                    for z in range(lo, size + 1)
                ]
                assert exact == law[lo:]
                sums, log_peaks = moment_count_sums(np.ones(size + 1), log_moments, lo)
                assert len(sums) == size + 1 - lo
                got = sums * np.exp(log_peaks)
                # within a few dozen ulps of the largest term
                assert np.all(np.abs(got - [float(e) for e in exact]) <= 1e-14 * np.exp(log_peaks))
                if lo == 0:
                    full = sums
                # rows past lo are the same sums, bit for bit
                assert sums.tolist() == full[lo:].tolist()

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_stack_matches_row_by_row(self, data):
        # each level of a stack, padded with -inf past its own moments, gives
        # the bits of its own one-row call, whatever block size cuts the stack
        top = data.draw(st.integers(1, 24), label="top")
        lo = data.draw(st.integers(0, top), label="lo")
        lengths = data.draw(st.lists(st.integers(0, top), min_size=1, max_size=6), label="lengths")
        stack = np.full((len(lengths), top), -math.inf)
        for row, length in zip(stack, lengths):
            steps = data.draw(
                st.lists(st.floats(0.0, 8.0), min_size=length, max_size=length), label="steps"
            )
            row[:length] = 3.0 - np.cumsum(steps)
        block_terms = data.draw(st.sampled_from([1, 5, 64, numerics.BLOCK_TERMS]), label="block")
        kept = numerics.BLOCK_TERMS
        numerics.BLOCK_TERMS = block_terms
        try:
            sums, log_peaks = moment_count_sums(np.ones(stack.shape), stack, lo)
        finally:
            numerics.BLOCK_TERMS = kept
        assert sums.shape == log_peaks.shape == (len(lengths), top - lo)
        for r, length in enumerate(lengths):
            width = max(0, length - lo)
            if width:
                row_sums, row_peaks = moment_count_sums(np.ones(length), stack[r, :length], lo)
                assert sums[r, :width].tobytes() == row_sums.tobytes()
                assert log_peaks[r, :width].tobytes() == row_peaks.tobytes()
            # entries past a level's own moments are exact zeros
            assert sums[r, width:].tolist() == [0.0] * (top - lo - width)
            assert log_peaks[r, width:].tolist() == [-math.inf] * (top - lo - width)
        if len(lengths) == 1:
            row_sums, row_peaks = moment_count_sums(np.ones(top), stack[0], lo)
            assert sums[0].tobytes() == row_sums.tobytes()
            assert log_peaks[0].tobytes() == row_peaks.tobytes()

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_one_pass_matches_two_passes(self, data):
        # signed moments with zeros, negatives and -inf peaks, stacked or not,
        # and lo up to top, where no entry is left: the one signed pass and its
        # fused peaks give the bits of two passes over a whole (z, k) block
        top = data.draw(st.integers(0, 24), label="top")
        lo = data.draw(st.integers(0, top), label="lo")
        lead = data.draw(st.sampled_from([(), (1,), (3,), (2, 2)]), label="lead")
        size = math.prod(lead) * top
        sums = data.draw(
            st.lists(st.sampled_from([0.0, -1e-17]) | st.floats(-1.0, 1.0), min_size=size,
                     max_size=size), label="sums",
        )
        log_peaks = data.draw(
            st.lists(st.just(-math.inf) | st.floats(-50.0, 50.0), min_size=size, max_size=size),
            label="log_peaks",
        )
        sums = np.reshape(sums, lead + (top,))
        log_peaks = np.reshape(log_peaks, lead + (top,))
        block_terms = data.draw(st.sampled_from([1, 5, 64, numerics.BLOCK_TERMS]), label="block")
        kept = numerics.BLOCK_TERMS
        numerics.BLOCK_TERMS = block_terms
        try:
            got = moment_count_sums(sums, log_peaks, lo)
            want = moment_count_sums_two_pass(sums, log_peaks, lo)
        finally:
            numerics.BLOCK_TERMS = kept
        for g, w in zip(got, want):
            assert g.shape == w.shape == lead + (top - lo,)
            assert g.tobytes() == w.tobytes()


# laws through every kernel that blocks cuts: the line-count series, both
# singleton routes and both singleton predictives; at y = 4 the closed
# predictive's first moment, over its five rows, alone exceeds a block
BLOCK_PARAMS = ModelParams(3.0, 0.4)
BLOCK_LAWS = {
    "sample, m = 146": lambda: lineage_pmf(146, BLOCK_PARAMS),
    "sample, m = 1000": lambda: lineage_pmf(1000, BLOCK_PARAMS),
    "population": lambda: ancestral_pmf(None, BLOCK_PARAMS),
    **{
        f"singleton {method}, m = {m}": partial(singleton_lineage_pmf, m, BLOCK_PARAMS, method)
        for method in ("mixture", "closed")
        for m in (20, 40, 60)
    },
    **{
        f"singleton predictive, {method}": partial(
            predictive_singleton_pmf, PredictiveQuery(40, 10, 4, BLOCK_PARAMS), method
        )
        for method in ("mixture", "closed")
    },
}


def block_law_results():
    """Every law of BLOCK_LAWS, or its refusal, computed afresh."""
    ancestral._ancestral_values.cache_clear()
    posterior.n_posterior.cache_clear()
    results = {}
    for name, law in BLOCK_LAWS.items():
        try:
            pmf = law()
        except NumericalConditioningError as err:
            results[name] = ("refused", str(err), err.cancellation_ratio)
            continue
        results[name] = (
            "returned", pmf.support_offset, pmf.probs.tobytes(), repr(pmf.mass_defect),
            pmf.renormalized,
        )
    return results


class TestBlocks:
    """numerics.blocks, the one rule by which every kernel cuts its work."""

    def test_runs_pad_every_item_to_their_first(self, monkeypatch):
        monkeypatch.setattr(numerics, "BLOCK_TERMS", 10)
        assert numerics.blocks([]) == []
        assert numerics.blocks([3, 3, 2, 2, 1]) == [slice(0, 3), slice(3, 5)]
        # an item larger than a block is a run of its own; size 0 counts as 1
        assert numerics.blocks(np.array([11, 4, 0, 0])) == [slice(0, 1), slice(1, 3), slice(3, 4)]

    def test_no_call_holds_more_than_a_block(self, monkeypatch):
        # every signed_log_sums call, by name in numerics and in ancestral,
        # which imports it: at most BLOCK_TERMS floats, unless it holds one
        # item alone (one row of the kernel's second-to-last axis) that is larger
        shapes = []
        kernel = numerics.signed_log_sums

        def counted(log_terms, signs):
            shapes.append(np.shape(log_terms))
            return kernel(log_terms, signs)

        for module in (numerics, ancestral):
            monkeypatch.setattr(module, "signed_log_sums", counted)
        block_law_results()
        oversized = [shape for shape in shapes if math.prod(shape) > numerics.BLOCK_TERMS]
        assert all(shape[-2] == 1 for shape in oversized), oversized
        # the closed predictive's first moment is such an item
        assert oversized and len(shapes) > len(BLOCK_LAWS)

    @pytest.mark.parametrize("block_terms", [1, 100, 1 << 16])
    def test_results_do_not_depend_on_the_block_size(self, monkeypatch, block_terms):
        # BLOCK_TERMS has one owner, so patching it reaches every kernel
        want = block_law_results()
        monkeypatch.setattr(numerics, "BLOCK_TERMS", block_terms)
        assert block_law_results() == want
        assert all(result[0] == "returned" for result in want.values())


class TestPartsRatios:
    """numerics._parts_ratios, whose size-2 table (l = 1 hit parts, l = 2 urn
    parts) is the binomial closed form, not a walk over exact integers."""

    def test_size_two_matches_the_integer_form_bit_for_bit(self):
        want = parts_ratios_from_counts(2, 300, 300)
        got = numerics._parts_ratios(2, 300, 300)
        assert got.dtype == float and got.tobytes() == want.tobytes()
        for count, top in ((0, 0), (0, 5), (7, 0), (7, 3), (3, 7), (299, 300)):
            assert numerics._parts_ratios(2, count, top).tobytes() == want[: count + 1, :top].tobytes()

    def test_other_sizes_match_the_integer_form(self):
        for size, count, top in ((1, 4, 0), (3, 12, 24), (4, 9, 27)):
            got = numerics._parts_ratios(size, count, top)
            assert got.tobytes() == parts_ratios_from_counts(size, count, top).tobytes()

    def test_stacked_l1_hit_rows_keep_their_bits(self, monkeypatch):
        # the l = 1 hit tables read the size-2 table; rows stacked over several
        # urn totals, and a row wide enough to be cut along x, are the same bits
        # as from the integer form
        cases = [
            (9.5 + 146 + np.arange(1.0, 6.0), 50, 10),
            (0.5 + 25 + np.arange(5.0), 4, 3),
            (20.0 + 300 + np.arange(3.0), 200, 150),
        ]
        with monkeypatch.context() as patch:
            patch.setattr(posterior, "_parts_ratios", parts_ratios_from_counts)
            want = [posterior._hit_terms(1, *case) for case in cases]
        for case, table in zip(cases, want):
            assert posterior._hit_terms(1, *case).tobytes() == table.tobytes()


def gate(sums, log_peaks):
    return reliable_values(np.array(sums), np.array(log_peaks), lambda r: f"entry {r}", "remedy")


class TestReliableValue:
    def test_noise_and_clipping_gates(self):
        benign = signed_log_sums(np.array([[0.0, math.log(0.5)]]), np.array([[1.0, -1.0]]))
        assert reliable_values(*benign, str, "remedy").tolist() == [0.5]
        # a peak term of e^20 leaves rounding noise near e^(20 - 34.5) ~ 5e-7
        noisy = signed_log_sums(np.array([[20.0, 20.0]]), np.array([[1.0, -1.0]]))
        with pytest.raises(NumericalConditioningError, match="lost all significant digits"):
            reliable_values(*noisy, str, "remedy")
        # negatives within the clipping floor become zero, larger ones are refused
        assert gate([-1e-12], [0.0]).tolist() == [0.0]
        with pytest.raises(NumericalConditioningError, match="negative"):
            gate([-1e-6], [0.0])

    def test_refuses_first_failing_entry_in_index_order(self):
        # entry 0 passes, 1 is negative beyond the floor, 2 is noise
        with pytest.raises(NumericalConditioningError, match="entry 1 is negative"):
            gate([0.5, -1e-6, 1.0], [0.0, 0.0, 40.0])
        with pytest.raises(NumericalConditioningError, match="entry 1 lost all"):
            gate([0.5, 1.0, -1e-6], [0.0, 40.0, 0.0])

    def test_overflowing_refused_entries_stay_silent(self):
        # a refused entry whose peak would overflow exp, next to an empty sum
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalConditioningError, match="entry 1 lost all"):
                gate([0.0, 1.0], [-math.inf, 800.0])

    @pytest.mark.parametrize(
        "rows",
        [
            [[0.0, math.log(0.5)], [-math.inf, -math.inf], [-3.0, -5.0]],
            # the second row is negative within its noise, the third beyond the floor
            [[0.0], [0.0, 0.0, -36.0], [0.0, math.log(1.0 + 1e-6)]],
            # the second row has a peak whose noise is over budget
            [[-2.0, -2.5], [20.0, 20.0], [0.0, math.log(1.0 + 1e-6)]],
            [[-1.0], [800.0, 799.0]],
        ],
    )
    def test_matches_per_entry_gate(self, rows):
        width = max(len(r) for r in rows)
        log_terms = np.full((len(rows), width), -math.inf)
        signs = np.ones((len(rows), width))
        for r, row in enumerate(rows):
            log_terms[r, : len(row)] = row
            signs[r, 1 : len(row)] = -1.0
        what = lambda r: f"entry {r}"
        try:
            expected = values_by_entry(
                [signed_log_sum(log_terms[r], signs[r]) for r in range(len(rows))], what, "remedy"
            )
        except NumericalConditioningError as err:
            with pytest.raises(NumericalConditioningError) as got:
                reliable_values(*signed_log_sums(log_terms, signs), what, "remedy")
            assert str(got.value) == str(err)
            np.testing.assert_allclose(
                got.value.cancellation_ratio, err.cancellation_ratio, rtol=1e-15
            )
        else:
            np.testing.assert_allclose(
                reliable_values(*signed_log_sums(log_terms, signs), what, "remedy"),
                expected, rtol=1e-14,
            )


def brute_set_partitions(n: int) -> list[list[list[int]]]:
    if n == 0:
        return [[]]
    out = []
    for smaller in brute_set_partitions(n - 1):
        for i, block in enumerate(smaller):
            out.append(smaller[:i] + [block + [n]] + smaller[i + 1 :])
        out.append(smaller + [[n]])
    return out


class TestStirling:
    def test_second_kind_counts_partitions(self):
        for n in range(0, 8):
            parts = brute_set_partitions(n)
            for k in range(0, n + 1):
                assert stirling2(n, k) == sum(1 for p in parts if len(p) == k)

    def test_first_kind_row_sums_to_factorial(self):
        for n in range(0, 31):
            assert sum(signless_stirling1(n, k) for k in range(n + 1)) == math.factorial(n)

    def test_known_columns(self):
        for n in range(2, 20):
            assert stirling2(n, 2) == 2 ** (n - 1) - 1
            assert stirling2(n, n - 1) == math.comb(n, 2)
            assert signless_stirling1(n, 1) == math.factorial(n - 1)
            assert signless_stirling1(n, n - 1) == math.comb(n, 2)

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            stirling2(31, 2)
        with pytest.raises(ValueError):
            stirling2(5, 6)
        with pytest.raises(ValueError):
            signless_stirling1(-1, 0)


def test_every_exported_helper_has_a_package_caller():
    # the package re-exports nothing from numerics, so a name in its __all__
    # that no sibling module imports is a helper only tests call; such a
    # helper belongs in tests/reference.py
    imported = set()
    for info in pkgutil.iter_modules(coalineage.__path__):
        if info.name != "numerics":
            module = vars(importlib.import_module(f"coalineage.{info.name}"))
            imported |= {
                name for name in numerics.__all__ if module.get(name) is getattr(numerics, name)
            }
    assert sorted(set(numerics.__all__) - imported) == []
