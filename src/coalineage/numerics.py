"""Log-space primitives and exactly rounded signed summation.

The line-count series and the closed singleton routes are alternating sums
whose terms can dwarf the result: their terms are taken in log space with
explicit signs and summed by signed_log_sums (math.fsum of each row shifted
by its peak), and reliable_values refuses a result whose digits are
rounding noise.  moment_count_sums is the one inclusion-exclusion kernel:
one signed pass over signed binomial moments, each entry's log peak fused
from the same terms.  The mixture routes' urn rows and hit tables are sums
of positive terms, each one running sum of logs of O(1) step ratios
(_running_sums, with _parts_ratios).  Every kernel cuts its work into calls
of at most BLOCK_TERMS floats by one rule, blocks.  Every log k! is read
from log_factorials, the one table this module keeps for the process;
lgamma(theta + k) tables are built per call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalConditioningError

__all__ = [
    "SignedLogValue",
    "log_factorials",
    "log_gamma_table",
    "log_rising_factorial",
    "signed_log_sums",
    "blocks",
    "moment_count_sums",
    "reliable_values",
]

CLIP_FLOOR = 1e-10
# exp(log_max_term - LOG_NOISE_SHIFT) estimates the absolute rounding noise
# of a sum whose largest term has that log magnitude (2**-52 ~ exp(-36),
# padded for term-count growth).
LOG_NOISE_SHIFT = 34.5
# a probability entry whose absolute noise exceeds this is unusable; for
# results bounded by 1, crossing it implies a cancellation ratio far below
# 1e-8
ENTRY_NOISE_BUDGET = 1e-8


@dataclass(frozen=True)
class SignedLogValue:
    """A real number stored as (sign, log magnitude).

    ``sign`` is -1, 0, or +1, and ``log_magnitude`` is -inf exactly when
    the sign is 0.  ancestral.rho returns its series coefficients so, as their
    signs alternate and magnitudes span hundreds of orders; kernels use arrays.
    """

    sign: int
    log_magnitude: float

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0, or +1, got {self.sign!r}")
        if (self.sign == 0) != (self.log_magnitude == -math.inf):
            raise ValueError("sign 0 must pair with log magnitude -inf and vice versa")

    @property
    def value(self) -> float:
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.log_magnitude)


def _require_theta(theta: float) -> None:
    if not (theta > 0.0):
        raise ValueError(f"theta must be positive, got {theta}")
    if math.isinf(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    try:
        math.lgamma(theta)
    except OverflowError:
        raise ValueError(
            f"theta must be below about 2.56e305, where lgamma(theta) overflows, got {theta}"
        ) from None


# log k! for k below the largest size any call has asked for
_LOG_FACTORIALS: list = []


def log_factorials(size: int) -> np.ndarray:
    """log k! = lgamma(1 + k) for k = 0..size-1, as a read-only view.

    Every caller reads the same table, kept for the process; a call
    larger than any before extends it, and an entry has the same value
    whatever size the table had when it was evaluated.
    """
    table = _LOG_FACTORIALS[0] if _LOG_FACTORIALS else np.zeros(0)
    if len(table) < size:
        table = np.concatenate((table, [math.lgamma(1.0 + k) for k in range(len(table), size)]))
        table.flags.writeable = False
        _LOG_FACTORIALS[:] = [table]
    return table[:size]


def log_gamma_table(base: float, size: int, at=None) -> np.ndarray:
    """lgamma(base + k) for k = 0..size-1.

    With base theta, differences of entries give log rising factorials
    (theta + a)_n = G[a + n] - G[a]; log k! comes from log_factorials.  A kernel
    that reads few entries of a long table passes their indices as
    ``at``: only those are evaluated, the rest are nan.  An entry has the
    same value either way.
    """
    if at is None:
        return np.array([math.lgamma(base + k) for k in range(size)])
    read = np.zeros(size, dtype=bool)
    read[at] = True
    table = np.full(size, math.nan)
    table[read] = [math.lgamma(base + k) for k in np.flatnonzero(read).tolist()]
    return table


def log_rising_factorial(x: float, n: int) -> float:
    """log of the rising factorial (x)_n = x (x+1) ... (x+n-1), for x >= 0 (every
    base in this package is theta plus a count) and n >= 0: -inf when x == 0 and
    n >= 1 (the product has the factor 0), and (x)_0 == 1 for every x."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if n == 0:
        return 0.0
    if x == 0.0:
        return -math.inf
    return math.lgamma(x + n) - math.lgamma(x)


def signed_log_sums(log_terms: np.ndarray, signs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row sums of sign * exp(log_term) over a (rows x terms) array.

    Rows of different lengths are padded with log term -inf, which
    contributes nothing.  Returns two arrays over the rows, (sums,
    log_peaks): log_peaks[r] is the log magnitude of the largest term of
    row r (-inf for an all-padding row) and sums[r] the row's total
    divided by that term, so the row's value is sums[r] * exp(log_peaks[r])
    and |sums[r]| is its cancellation ratio: near 1 for benign sums, tiny
    when the digits that survive are rounding error.  Each row is shifted
    by its own peak and its scaled mantissas are combined with
    math.fsum, which is exact, so a sum differs from the true sum of the
    rounded terms only by the final rounding.  log_terms may have more
    leading axes than one: every axis but the last indexes rows, the
    results keep those axes, and signs broadcasts against it.
    """
    log_terms = np.asarray(log_terms, dtype=float)
    log_peaks = log_terms.max(axis=-1, initial=-math.inf)
    shift = np.where(log_peaks > -math.inf, log_peaks, 0.0)
    # one block-sized array: shifted, exponentiated and signed in place
    scaled = np.subtract(log_terms, shift[..., None])
    np.exp(scaled, out=scaled)
    scaled *= signs
    # row by row, so no Python list of the whole block is built
    rows = scaled.reshape(log_peaks.size, scaled.shape[-1])
    sums = np.fromiter(map(math.fsum, map(np.ndarray.tolist, rows)), float, log_peaks.size)
    return sums.reshape(log_peaks.shape), log_peaks


# floats in one kernel call (32 KB, so a stack's transients stay near one block's)
BLOCK_TERMS = 1 << 12


def blocks(sizes) -> list[slice]:
    """Runs of consecutive items, each as many as fit in BLOCK_TERMS floats
    when every item is padded to the run's first (one item if that alone is
    larger; size 0 counts as 1): the rule by which every kernel cuts its work."""
    runs, a = [], 0
    while a < len(sizes):
        b = min(len(sizes), a + (BLOCK_TERMS // max(1, int(sizes[a])) or 1))
        runs.append(slice(a, b))
        a = b
    return runs


def _parts_ratios(size: int, count: int, top: int) -> np.ndarray:
    """p(k, r + 1) / p(k, r), k = 0..count, r = 0..top-1 (0 where p(k, r + 1) is), with
    p(k, r) the ways to write r as k ordered parts in 0..size-1, from exact integers."""
    row, ratios = [1] + [0] * top, np.zeros((count + 1, top))
    for k in range(count + 1 if top else 0):
        ratios[k] = [b / a if b else 0.0 for a, b in zip(row, row[1:])]
        prefix = list(itertools.accumulate(row))
        row = [s - prefix[r - size] if r >= size else s for r, s in enumerate(prefix)]
    return ratios


@np.errstate(divide="ignore")  # a zero step is log 0
def _running_sums(log_start: np.ndarray, outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Entry (row, a, b) = log_start[row] + the logs of outer[row, :a] and of inner[row, a, :b]:
    each term as one running sum of logs of O(1) step ratios (-inf past a zero step)."""
    log_terms = np.empty(inner.shape[:2] + (inner.shape[2] + 1,))
    log_terms[:, 0, 0] = log_start
    np.log(outer, out=log_terms[:, 1:, 0])
    np.log(inner, out=log_terms[:, :, 1:])
    np.cumsum(log_terms[:, :, 0], axis=1, out=log_terms[:, :, 0])
    return np.cumsum(log_terms, axis=2, out=log_terms)


def moment_count_sums(
    sums: np.ndarray, log_peaks: np.ndarray, lo: int
) -> tuple[np.ndarray, np.ndarray]:
    """signed_log_sums results for P[exactly z of N events], z = lo..N, from the binomial
    moments S_k, k = 0..N, given as signed_log_sums results (S_k = sums[k] e^log_peaks[k]).

    S_k sums the chance of every k of the events at once; moments below lo are not
    read, and one that rounds to zero or below counts as zero.  Entry z is the sum over
    k = z..N of (-1)^(k-z) C(k,z) S_k, each term taken as k! S_k / (z! (k-z)!), in one
    signed pass.  Its log peak is fused: the largest log C(k,z) plus moment k's own log
    peak, the same terms built over the peaks, so reliable_values reads it as one sum;
    its sum is rescaled to match, and an entry with no terms stays 0.

    The moments may also be a stack of rows, with results stacked the same way, its
    (row, z, k) terms cut by blocks into runs of rows or of z; an entry has its bits in
    any stack, as a -inf moment's terms are exact zeros.
    """
    top = sums.shape[-1]
    lead, width = sums.shape[:-1], top - lo
    log_fact = log_factorials(top)
    # log (k-z)! (+inf at k < z) and (-1)^(k-z) as (z, k) views of 1-D float tables over
    # k - z: row z starts at entry width - 1 - z, so no (z, k) block is built
    gap = np.arange(1 - width, width)
    gap_log_fact, gap_signs = (
        np.ndarray((width, width), float, table, max(width - 1, 0) * 8, (-8, 8))
        for table in (np.where(gap >= 0, log_fact[np.abs(gap)], math.inf), (-1.0) ** gap)
    )
    log_fact = log_fact[lo:]
    log_moments = np.log(sums, out=np.full(sums.shape, -math.inf), where=sums > 0) + log_peaks
    weighted, peak_weighted = (
        (part[..., lo:].reshape(math.prod(lead), width) + log_fact)[:, None, :]
        for part in (log_moments, log_peaks)
    )
    sums, log_peaks = np.empty((2, len(weighted), width))
    for rows in blocks(np.full(len(weighted), width**2)):
        for z in blocks(np.full(width, (rows.stop - rows.start) * width)):
            # in place: one array holds the peak terms, then the signed terms
            terms = peak_weighted[rows] - log_fact[z, None]
            terms -= gap_log_fact[z]
            peaks = terms.max(axis=-1, initial=-math.inf)
            np.subtract(weighted[rows], log_fact[z, None], out=terms)
            terms -= gap_log_fact[z]
            row_sums, row_peaks = signed_log_sums(terms, gap_signs[z])
            shift = np.where(row_peaks > -math.inf, peaks, 0.0)
            sums[rows, z], log_peaks[rows, z] = row_sums * np.exp(row_peaks - shift), peaks
    return sums.reshape(*lead, width), log_peaks.reshape(*lead, width)


def reliable_values(
    sums: np.ndarray, log_peaks: np.ndarray, what: Callable[[int], str], remedy: str
) -> np.ndarray:
    """The values of signed_log_sums results, or a refusal.

    A sum carries absolute rounding noise on the order of its peak term
    times accumulated ulps; a sum whose noise exceeds ENTRY_NOISE_BUDGET
    (for probability-sized results, a cancellation ratio far below 1e-8)
    is refused.  A negative value within the larger of CLIP_FLOOR and the
    noise scale is clipped to zero; a larger negative is refused.  The
    refusal names the first failing entry r in index order as what(r);
    ``remedy`` names the way around it.
    """
    noise = np.exp(np.minimum(log_peaks - LOG_NOISE_SHIFT, 700.0))
    noisy = noise > ENTRY_NOISE_BUDGET
    # a refused entry's peak may overflow exp; its value is never read
    values = sums * np.exp(np.where(noisy, 0.0, log_peaks))
    refused = noisy | (values < -np.maximum(CLIP_FLOOR, noise))
    if refused.any():
        r = int(np.argmax(refused))
        ratio = abs(float(sums.flat[r]))
        if noisy.flat[r]:
            raise NumericalConditioningError(
                f"{what(r)} lost all significant digits (cancellation ratio "
                f"{ratio:.2e}, noise scale {noise.flat[r]:.2e}); {remedy}",
                cancellation_ratio=ratio,
            )
        raise NumericalConditioningError(
            f"{what(r)} is negative beyond the clipping floor ({values.flat[r]:.3e})",
            cancellation_ratio=ratio,
        )
    return np.maximum(values, 0.0)
