import math

import numpy as np
import pytest

from coalineage.errors import NumericalConditioningError
from coalineage.pmf import Pmf


def test_nan_mass_refused():
    with pytest.raises(NumericalConditioningError, match="mass defect nan"):
        Pmf.from_floats([math.nan, 1.0])


def test_cdf_and_quantile_with_offset():
    pmf = Pmf(3, np.array([0.25, 0.5, 0.25]), 0.0)
    np.testing.assert_array_equal(pmf.cdf(), [0.25, 0.75, 1.0])
    assert pmf.quantile(0.0) == 3
    assert pmf.quantile(0.25) == 3  # exactly on a cdf step
    assert pmf.quantile(0.5) == 4
    assert pmf.quantile(0.75) == 4  # exactly on a cdf step
    assert pmf.quantile(1.0) == 5


def test_from_mixture_places_each_law_by_its_offset():
    # two levels' laws from offset 1: one on {2, 3}, one on {1} padded with zeros
    table = np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0]])
    mixture = Pmf.from_mixture(np.array([0.25, 0.75]), table, 1, 3, "test")
    assert mixture.support_offset == 1
    np.testing.assert_array_equal(mixture.probs, [0.75, 0.125, 0.125])


def test_from_mixture_adds_rows_in_order_even_in_one_column():
    # numpy sums a lone column pairwise from eight rows up; the mixture must
    # add level by level, so tiny later levels are lost against the first
    weights = np.full(16, 2.0**-53)  # half an ulp of 1.0 each
    weights[0] = 1.0
    assert float(weights.sum()) == 1.0 + 7 * 2.0**-52  # the pairwise sum keeps them
    mixture = Pmf.from_mixture(weights, np.ones((16, 1)), 0, 2, "test")
    assert mixture.mass_defect == 0.0 and not mixture.renormalized
    np.testing.assert_array_equal(mixture.probs, [1.0, 0.0])



def _rows_or_refusal(build):
    try:
        return [row.tobytes() for row in build()]
    except NumericalConditioningError as err:
        return str(err)


@pytest.mark.parametrize(
    "sums, log_peaks",
    [
        # every row passes: unit mass, a small defect to repair, and an empty entry
        ([[0.25, 0.75], [0.5, 0.5 + 1e-9], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0], [0.0, -math.inf]]),
        # row 1 fails its mass check before row 2 fails its noise gate
        ([[0.5, 0.5], [0.5, 0.25], [0.5, 0.5]], [[0.0, 0.0], [0.0, 0.0], [40.0, 0.0]]),
        # row 1 is negative beyond the floor before row 2 fails its mass check
        ([[1.0, 0.0], [1.0, -1e-6], [0.3, 0.3]], [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
        # an empty row, then a nan row, each refused by its mass check before the next
        ([[0.5, 0.5], [0.0, 0.0], [0.5, 0.25]], [[0.0, 0.0], [-math.inf] * 2, [0.0, 0.0]]),
        ([[0.5, 0.5], [math.nan, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0], [-math.inf] * 2]),
    ],
)
def test_from_signed_rows_is_from_signed_sums_per_row(sums, log_peaks):
    # the table's rows are the probs of from_signed_sums, bit for bit, or the
    # refusal of the first failing row
    sums, log_peaks = np.array(sums), np.array(log_peaks)
    expected = _rows_or_refusal(
        lambda: [Pmf.from_signed_sums(s, p, 2, context="test").probs for s, p in zip(sums, log_peaks)]
    )
    assert _rows_or_refusal(lambda: Pmf.from_signed_rows(sums, log_peaks, 2, "test")) == expected
    if not isinstance(expected, str):
        table = Pmf.from_signed_rows(sums, log_peaks, 2, "test")
        assert table.shape == sums.shape and not table.flags.writeable
