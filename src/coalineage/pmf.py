"""Finite probability mass functions with conditioning diagnostics.

A Pmf here is a contiguous block of probabilities starting at
``support_offset``, plus bookkeeping about how trustworthy the numbers
are: the mass defect observed before any repair, and whether the entries
were renormalized.  Signed log-space sums pass every entry through the
package-wide noise gate (numerics.reliable_values), then the mass
tolerance; sums of positive terms pass the mass tolerance alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalConditioningError
from .numerics import CLIP_FLOOR, reliable_values

__all__ = ["Pmf", "MASS_TOLERANCE"]

MASS_TOLERANCE = 1e-6


@dataclass(frozen=True)
class Pmf:
    """Probabilities over the integers support_offset, support_offset+1, ...

    mass_defect is |1 - total mass| measured before repair; for truncated
    distributions it is the discarded tail.  renormalized records whether
    the stored probs were rescaled to unit mass.
    """

    support_offset: int
    probs: np.ndarray
    mass_defect: float
    renormalized: bool = False

    def __post_init__(self):
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))

    @property
    def support(self) -> range:
        return range(self.support_offset, self.support_offset + len(self.probs))

    def prob(self, x: int) -> float:
        i = x - self.support_offset
        if 0 <= i < len(self.probs):
            return float(self.probs[i])
        return 0.0

    def mean(self) -> float:
        xs = np.arange(self.support_offset, self.support_offset + len(self.probs))
        return float(xs @ self.probs)

    def cdf(self) -> np.ndarray:
        return np.cumsum(self.probs)

    def quantile(self, p: float) -> int:
        """Smallest x in the support with P[X <= x] >= p."""
        c = self.cdf()
        idx = int(np.searchsorted(c, p - 1e-12))
        idx = min(idx, len(self.probs) - 1)
        return self.support_offset + idx

    def tv_distance(self, other: "Pmf") -> float:
        lo = min(self.support_offset, other.support_offset)
        hi = max(self.support_offset + len(self.probs),
                 other.support_offset + len(other.probs))
        a = np.zeros(hi - lo)
        b = np.zeros(hi - lo)
        a[self.support_offset - lo : self.support_offset - lo + len(self.probs)] = self.probs
        b[other.support_offset - lo : other.support_offset - lo + len(other.probs)] = other.probs
        return 0.5 * float(np.abs(a - b).sum())

    def items(self):
        for i, p in enumerate(self.probs):
            yield self.support_offset + i, float(p)

    @classmethod
    def from_signed_sums(
        cls, sums: np.ndarray, log_peaks: np.ndarray, support_offset: int = 0, context: str = "pmf"
    ) -> "Pmf":
        """Assemble a Pmf from the (sums, log_peaks) arrays of numerics.signed_log_sums.

        Entry i is sums[i] * exp(log_peaks[i]).  Every entry passes
        numerics.reliable_values: one entry lost to rounding noise, or negative
        beyond its noise scale, fails the pmf, and the refusal names the first.
        The entries are scaled to unit mass and the pre-repair defect is
        recorded; truncated laws go through from_floats.
        """
        values = reliable_values(
            sums,
            log_peaks,
            lambda i: f"{context}: entry at {support_offset + i}",
            "use the simulation path for this parameter regime",
        )
        return cls._mass_checked(values, support_offset, True, context)

    @classmethod
    def from_rows(cls, values, context: str) -> tuple[np.ndarray, list[float]]:
        """Each row of a (rows x entries) table of nonnegative floats, mass-checked and
        renormalized, as one read-only table, and each row's mass defect.  A row is totalled
        left to right, so zeros that pad it add nothing: its bits are the same in any table."""
        totals = np.cumsum(values, axis=1)[:, -1:]
        defects = [_mass_defect(total, context) for total in totals.ravel().tolist()]
        probs = values / totals
        probs.flags.writeable = False  # read-only, as every Pmf's probs are
        return probs, defects

    @classmethod
    def from_row(cls, values, support_offset: int, context: str) -> "Pmf":
        """The Pmf of one row of nonnegative floats, with the bits from_rows gives it."""
        (probs,), (defect,) = cls.from_rows(np.asarray(values)[None], context)
        return cls(support_offset, probs, defect, defect > 1e-15)

    @classmethod
    def from_floats(
        cls,
        probs,
        support_offset: int = 0,
        renormalize: bool = True,
        context: str = "pmf",
    ) -> "Pmf":
        """Assemble from plain floats with the same mass checks, no per-entry gates."""
        values = np.asarray(probs, dtype=float).copy()
        neg = values < 0.0
        if np.any(values < -CLIP_FLOOR):
            raise NumericalConditioningError(
                f"{context}: negative probability beyond the clipping floor"
            )
        values[neg] = 0.0
        return cls._mass_checked(values, support_offset, renormalize, context)

    @classmethod
    def from_mixture(cls, weights, table, support_offset, size, context) -> "Pmf":
        """The law sum_r weights[r] table[r], with size entries from support_offset.

        Row r of the (levels x entries) table is one level's zero-padded law from
        support_offset.  The rows are added in order as one running sum (no BLAS
        call or pairwise reduction), padded to size and checked by from_floats.
        """
        probs = np.zeros(size)
        probs[: table.shape[1]] = np.cumsum(weights[:, None] * table, axis=0)[-1]
        return cls.from_floats(probs, support_offset, context=context)

    @classmethod
    def _mass_checked(cls, values, support_offset, renormalize, context) -> "Pmf":
        """The Pmf of one row of values, refused if its mass is off by more than MASS_TOLERANCE."""
        total = float(values.sum())
        defect = _mass_defect(total, context)
        # a defect within tolerance leaves the total positive
        probs = values / total if renormalize else values
        probs.flags.writeable = False  # a memoized law is shared by its callers
        return cls(support_offset, probs, defect, renormalize and defect > 1e-15)


def _mass_defect(total: float, context: str) -> float:
    """|1 - total|, or a refusal when it exceeds MASS_TOLERANCE."""
    defect = abs(1.0 - total)
    if not defect <= MASS_TOLERANCE:  # a nan defect is refused too
        raise NumericalConditioningError(
            f"{context}: mass defect {defect:.3e} exceeds {MASS_TOLERANCE:.0e}"
        )
    return defect
