"""Log-space primitives and exactly rounded signed summation.

Every distribution in this package is an alternating sum whose terms can
dwarf the result, so all term arithmetic happens in log space with explicit
signs.  Every sum runs through signed_log_sums, which takes a padded
(rows x terms) block, shifts each row by its own peak term, combines it
with one exact math.fsum and returns two arrays: the scaled sums, whose
magnitudes are the cancellation ratios, and the log peaks.  reliable_values
turns those arrays into numbers only where the surviving digits are more
than rounding noise; otherwise callers see a NumericalConditioningError
naming the first failing entry.  Every kernel cuts its work into calls of
at most BLOCK_TERMS floats by one rule, blocks.  exact_count_sums is the
one inclusion-exclusion path: every "exactly z of N events" law goes
through it, one row or a stack of levels at a time, each level only over
its own width, and moment_count_sums takes it over moments that are signed
sums themselves (the closed singleton routes, whose moments are one stack
of series).  Every table of log k! is read from one, log_factorials, kept
for the process and grown on demand; no binomial coefficient has a helper
here, as each caller builds its own from exact integers or from running
products.  The lgamma(theta + k) tables are built per call, and a kernel
that reads few entries of a long one evaluates only those.
"""

from __future__ import annotations

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
    "exact_count_sums",
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
    the sign is 0.  This is the currency of every series term here: signs
    alternate structurally, magnitudes span hundreds of orders.
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
    """log of the rising factorial (x)_n = x (x+1) ... (x+n-1).

    Args:
        x: base, must be >= 0 (every base in this package is theta plus a
            nonnegative count).
        n: number of factors, must be >= 0.

    Returns:
        log (x)_n as a plain float; -inf when x == 0 and n >= 1 (the
        product contains the factor 0).  (x)_0 == 1 for every x.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if n == 0:
        return 0.0
    if x == 0.0:
        return -math.inf
    return math.lgamma(x + n) - math.lgamma(x)


def signed_log_sums(
    log_terms: np.ndarray, signs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
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


# log (k-z)! (+inf at k < z) and (-1)^(k-z) over the largest (z, k) block
# built so far, up to PASCAL_KEEP a side (1 MB); a smaller block is
# its top-left corner, and a larger one serves its own call only
_PASCAL: list = []
PASCAL_KEEP = 256
# floats in one signed_log_sums call of any kernel (32 KB, so a stack's
# transients stay near one block's), under the one rule of blocks
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


def exact_count_sums(log_moments: np.ndarray, lo: int) -> tuple[np.ndarray, np.ndarray]:
    """signed_log_sums results for P[exactly z of N events], z = lo..N.

    log_moments[k] = log S_k, k = 0..N, where the binomial moment S_k sums
    the chance of every k of the events at once; entries below lo are not
    read.  Entry z is the sum over k = z..N of (-1)^(k-z) C(k,z) S_k, each
    term taken as k! S_k / (z! (k-z)!), so its log peak is the largest
    log C(k,z) + log S_k.

    log_moments may also be a stack of rows, one per level, with results
    stacked the same way.  A level's width runs from lo to its last moment
    that is not -inf; its entries past it are exact zeros, (0.0, -inf), and
    no term past it is built.  Widest level first, the (level, z, k) terms
    are cut by blocks into runs of whole levels, and a level wider than a
    block into runs of rows z.  A term past a level's width is an exact
    zero, so an entry has the same bits in any stack, and one row is a stack.
    """
    top = log_moments.shape[-1]
    block = _PASCAL[0] if _PASCAL else None
    log_fact = log_factorials(top)
    if block is None or len(block[0]) < top:
        gap = np.arange(top) - np.arange(top)[:, None]
        gap_log_fact = np.where(gap >= 0, log_fact[np.abs(gap)], math.inf)
        block = (gap_log_fact, np.where(gap % 2 == 0, 1.0, -1.0))
        if top <= PASCAL_KEEP:
            _PASCAL[:] = [block]
    k = slice(lo, top)
    gap_log_fact, signs = block[0][k, k], block[1][k, k]
    log_fact = log_fact[k]
    lead, width = log_moments.shape[:-1], top - lo
    # one row per level; widths and order shun numpy code no other path runs (bool math, argsort)
    log_moments = log_moments[..., k].reshape(math.prod(lead), width)
    widths = np.where(log_moments != -math.inf, np.arange(1, width + 1), 0)
    widths = widths.max(axis=1, initial=0).tolist()
    # widest first; a level of width 0 is left out, and stays zeros
    levels = filter(widths.__getitem__, range(len(widths)))
    order = sorted(levels, key=widths.__getitem__, reverse=True)
    sums, log_peaks = np.zeros((len(widths), width)), np.full((len(widths), width), -math.inf)
    for run in blocks([widths[row] ** 2 for row in order]):
        rows = order[run]
        span = widths[rows[0]]
        weighted = (log_moments[rows, :span] + log_fact[:span])[:, None, :]
        for z in blocks(np.full(span, len(rows) * span)):
            log_terms = weighted - log_fact[z, None]
            log_terms -= gap_log_fact[z, :span]  # in place: one array until it is shifted
            sums[rows, z], log_peaks[rows, z] = signed_log_sums(log_terms, signs[z, :span])
    return sums.reshape(*lead, width), log_peaks.reshape(*lead, width)


def moment_count_sums(
    sums: np.ndarray, log_peaks: np.ndarray, lo: int
) -> tuple[np.ndarray, np.ndarray]:
    """exact_count_sums over binomial moments that are signed_log_sums results.

    A moment that rounds to zero or below counts as zero.  Entry z's log
    peak is the largest log C(k,z) plus moment k's own log peak (a second
    call, over the peaks), so reliable_values reads it as one fused sum;
    its sum is rescaled to match, and an entry with no terms stays 0.  A
    stack of moment rows gives a stack of entry rows, as in exact_count_sums.
    """
    log_moments = np.log(sums, out=np.full(sums.shape, -math.inf), where=sums > 0) + log_peaks
    sums, peaks = exact_count_sums(log_moments, lo)
    entry_peaks = exact_count_sums(log_peaks, lo)[1]
    return sums * np.exp(peaks - np.where(peaks > -math.inf, entry_peaks, 0.0)), entry_peaks


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
    ``remedy`` names the way around it.  Stacked rows are gated entry by
    entry the same way, and r is then the flat index.
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
