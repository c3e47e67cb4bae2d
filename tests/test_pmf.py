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


def test_from_rows_gives_a_row_its_bits_alone_or_padded():
    # nine entries: numpy's pairwise sum over ten or more would group them
    # differently from a sum over nine, where left to right it cannot
    rng = np.random.default_rng(3)
    row = rng.random(9)
    row *= (1.0 + 1e-9) / row.sum()
    table = np.zeros((3, 40))
    table[0], table[1, :9], table[2, :4] = 1 / 40, row, 0.25
    probs, defects = Pmf.from_rows(table, "test")
    law = Pmf.from_row(row, 2, "test")
    assert probs[1, :9].tobytes() == law.probs.tobytes() and not probs[1, 9:].any()
    assert defects[1] == law.mass_defect and len(defects) == 3
    assert law.support_offset == 2 and law.renormalized and 0 < law.mass_defect < 2e-9
    assert not probs.flags.writeable and not law.probs.flags.writeable
    with pytest.raises(NumericalConditioningError, match="test: mass defect"):
        Pmf.from_rows(table * [[1.0], [1.0], [0.5]], "test")
