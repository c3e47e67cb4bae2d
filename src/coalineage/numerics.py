"""Log-space primitives and exactly rounded signed summation.

Every distribution in this package is an alternating sum whose terms can
dwarf the result, so all term arithmetic happens in log space with explicit
signs.  Every sum runs through signed_log_sums, which sums each row of a
padded (rows x terms) array with one peak shift and one exact math.fsum
per row and reports how much cancellation occurred; signed_log_sum is its
one-row case.  reliable_value turns a sum into a number only when the
surviving digits are more than rounding noise; otherwise callers see a
NumericalConditioningError.  Log-gamma values come from math.lgamma, in
per-call tables where a kernel needs many of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalConditioningError

__all__ = [
    "SignedLogValue",
    "log_gamma_table",
    "log_rising_factorial",
    "log_binomial",
    "signed_log_sum",
    "signed_log_sums",
    "reliable_value",
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


def log_gamma_table(base: float, size: int) -> np.ndarray:
    """lgamma(base + k) for k = 0..size-1.

    With base 1 this is log k!; with base theta, differences of entries
    give log rising factorials (theta + a)_n = G[a + n] - G[a].
    """
    return np.array([math.lgamma(base + k) for k in range(size)])


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
) -> list[tuple[SignedLogValue, float, float]]:
    """Row sums of sign * exp(log_term) over a (rows x terms) array.

    Rows of different lengths are padded with log term -inf, which
    contributes nothing.  Each row gives (total, cancellation_ratio, log
    of the peak term magnitude).  The ratio is |total| over the peak
    term: near 1 for benign sums, tiny when the digits that survive are
    rounding error.  Each row is shifted by its own peak and its scaled
    mantissas are combined with math.fsum, which is exact, so a total
    differs from the true sum of the rounded terms only by the final
    rounding.
    """
    log_terms = np.asarray(log_terms, dtype=float)
    peaks = np.max(log_terms, axis=1, initial=-math.inf)
    shift = np.where(peaks > -math.inf, peaks, 0.0)
    scaled = np.asarray(signs, dtype=float) * np.exp(log_terms - shift[:, None])
    sums = []
    for row, m in zip(scaled, peaks.tolist()):
        if m == -math.inf:
            sums.append((SignedLogValue(0, -math.inf), 1.0, -math.inf))
            continue
        total = math.fsum(row.tolist())
        ratio = abs(total)  # largest scaled magnitude is 1 by construction
        if total == 0.0:
            sums.append((SignedLogValue(0, -math.inf), ratio, m))
        else:
            sums.append(
                (SignedLogValue(1 if total > 0 else -1, math.log(abs(total)) + m), ratio, m)
            )
    return sums


def signed_log_sum(
    log_terms: np.ndarray, signs: np.ndarray
) -> tuple[SignedLogValue, float, float]:
    """signed_log_sums of a single row of terms."""
    return signed_log_sums(np.atleast_2d(log_terms), np.atleast_2d(signs))[0]


def reliable_value(
    entry: tuple[SignedLogValue, float, float], what: str, remedy: str
) -> float:
    """The value of a signed_log_sum result, or a refusal.

    The sum carries absolute rounding noise on the order of its peak term
    times accumulated ulps; a sum whose noise exceeds ENTRY_NOISE_BUDGET
    (for probability-sized results, a cancellation ratio far below 1e-8)
    is refused.  A negative value within the larger of CLIP_FLOOR and the
    noise scale is clipped to zero; a larger negative is refused.
    ``what`` names the quantity and ``remedy`` the way around a refusal.
    """
    total, ratio, log_peak = entry
    noise = 0.0 if log_peak == -math.inf else math.exp(min(log_peak - LOG_NOISE_SHIFT, 700.0))
    if noise > ENTRY_NOISE_BUDGET:
        raise NumericalConditioningError(
            f"{what} lost all significant digits (cancellation ratio "
            f"{ratio:.2e}, noise scale {noise:.2e}); {remedy}",
            cancellation_ratio=ratio,
        )
    value = total.value
    if value < -max(CLIP_FLOOR, noise):
        raise NumericalConditioningError(
            f"{what} is negative beyond the clipping floor ({value:.3e})",
            cancellation_ratio=ratio,
        )
    return max(value, 0.0)
