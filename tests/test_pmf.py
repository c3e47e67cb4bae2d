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
    laws = {1: Pmf(2, np.array([0.5, 0.5]), 0.0), 3: Pmf(1, np.array([1.0]), 0.0)}
    # level 2 has zero weight, so its law is never asked for
    mixture = Pmf.from_mixture(np.array([0.0, 0.25, 0.0, 0.75]), laws.__getitem__, 1, 3, "test")
    assert mixture.support_offset == 1
    np.testing.assert_array_equal(mixture.probs, [0.75, 0.125, 0.125])



def _pmfs_or_refusal(build):
    try:
        return [(p.support_offset, p.probs.tobytes(), p.mass_defect, p.renormalized) for p in build()]
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
    sums, log_peaks = np.array(sums), np.array(log_peaks)
    expected = _pmfs_or_refusal(
        lambda: [Pmf.from_signed_sums(s, p, 2, context="test") for s, p in zip(sums, log_peaks)]
    )
    assert _pmfs_or_refusal(lambda: Pmf.from_signed_rows(sums, log_peaks, 2, "test")) == expected
