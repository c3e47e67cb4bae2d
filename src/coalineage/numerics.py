"""Log-space primitives and exactly rounded signed summation.

Every distribution in this package is an alternating sum whose terms can
dwarf the result, so all term arithmetic happens in log space with explicit
signs.  Every sum runs through signed_log_sums, which takes a padded
(rows x terms) block, shifts each row by its own peak term, combines it
with one exact math.fsum and returns two arrays: the scaled sums, whose
magnitudes are the cancellation ratios, and the log peaks.  reliable_values
turns those arrays into numbers only where the surviving digits are more
than rounding noise; otherwise callers see a NumericalConditioningError
naming the first failing entry.  exact_count_sums is the one
inclusion-exclusion path: every "exactly z of N events" law goes through
it.  Log-gamma values come from math.lgamma, in per-call tables where a
kernel needs many of them, evaluated only at the entries the kernel reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalConditioningError

__all__ = [
    "SignedLogValue",
    "log_gamma_table",
    "log_rising_factorial",
    "log_binomial",
    "signed_log_sums",
    "exact_count_sums",
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

    @classmethod
    def from_value(cls, x: float) -> "SignedLogValue":
        if x == 0.0:
            return cls(0, -math.inf)
        return cls(1 if x > 0 else -1, math.log(abs(x)))

    @property
    def value(self) -> float:
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.log_magnitude)

    def __mul__(self, other: "SignedLogValue") -> "SignedLogValue":
        sign = self.sign * other.sign
        if sign == 0:
            return SignedLogValue(0, -math.inf)
        return SignedLogValue(sign, self.log_magnitude + other.log_magnitude)


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


def log_gamma_table(base: float, size: int, at=None) -> np.ndarray:
    """lgamma(base + k) for k = 0..size-1.

    With base 1 this is log k!; with base theta, differences of entries
    give log rising factorials (theta + a)_n = G[a + n] - G[a].  A kernel
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


def log_binomial(n: int, k: int) -> float:
    """log of the binomial coefficient C(n, k); -inf outside 0 <= k <= n."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if k < 0 or k > n:
        return -math.inf
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


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
    rounded terms only by the final rounding.
    """
    log_terms = np.asarray(log_terms, dtype=float)
    log_peaks = log_terms.max(axis=1, initial=-math.inf)
    shift = np.where(log_peaks > -math.inf, log_peaks, 0.0)
    scaled = np.asarray(signs, dtype=float) * np.exp(log_terms - shift[:, None])
    # row by row, so no Python list of the whole block is built
    sums = np.array([math.fsum(row.tolist()) for row in scaled], dtype=float)
    return sums, log_peaks


# log k!, log (k-z)! (+inf at k < z) and (-1)^(k-z) over the largest (z, k)
# block built so far; a smaller block is its top-left corner
_PASCAL: list = []


def exact_count_sums(log_moments: np.ndarray, lo: int) -> tuple[np.ndarray, np.ndarray]:
    """signed_log_sums results for P[exactly z of N events], z = lo..N.

    log_moments[k] = log S_k, k = 0..N, where the binomial moment S_k sums
    the chance of every k of the events at once.  Entry z is the sum over
    k = z..N of (-1)^(k-z) C(k,z) S_k, each term taken as k! S_k / (z! (k-z)!).
    """
    top = len(log_moments)
    block = _PASCAL[0] if _PASCAL else None
    if block is None or len(block[0]) < top:
        log_fact = log_gamma_table(1.0, top)
        gap = np.arange(top) - np.arange(top)[:, None]
        gap_log_fact = np.where(gap >= 0, log_fact[np.abs(gap)], math.inf)
        block = (log_fact, gap_log_fact, np.where(gap % 2 == 0, 1.0, -1.0))
        _PASCAL[:] = [block]
    log_fact, gap_log_fact, signs = block
    k = slice(lo, top)
    log_fact = log_fact[k]
    log_terms = (log_moments[k] + log_fact)[None, :] - log_fact[:, None] - gap_log_fact[k, k]
    return signed_log_sums(log_terms, signs[k, k])


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
        ratio = abs(float(sums[r]))
        if noisy[r]:
            raise NumericalConditioningError(
                f"{what(r)} lost all significant digits (cancellation ratio "
                f"{ratio:.2e}, noise scale {noise[r]:.2e}); {remedy}",
                cancellation_ratio=ratio,
            )
        raise NumericalConditioningError(
            f"{what(r)} is negative beyond the clipping floor ({values[r]:.3e})",
            cancellation_ratio=ratio,
        )
    return np.maximum(values, 0.0)
