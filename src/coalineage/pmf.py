"""Finite probability mass functions with conditioning diagnostics.

A Pmf here is a contiguous block of probabilities starting at
``support_offset``, plus bookkeeping about how trustworthy the numbers
are: the mass defect observed before any repair, and whether the entries
were renormalized.  Assembly from signed log-space sums passes every
entry through the package-wide noise gate (numerics.reliable_values) and
then the mass tolerance.
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
        cls, sums: np.ndarray, log_peaks: np.ndarray, support_offset: int = 0,
        renormalize: bool = True, context: str = "pmf",
    ) -> "Pmf":
        """Assemble a Pmf from the (sums, log_peaks) arrays of numerics.signed_log_sums.

        Entry i is sums[i] * exp(log_peaks[i]).  Every entry passes
        numerics.reliable_values, so one entry lost to rounding noise, or
        negative beyond its noise scale, fails the whole pmf, and the
        refusal names the first such entry.  With renormalize=True the
        surviving entries are scaled to unit mass and the pre-repair
        defect is recorded; truncated laws pass renormalize=False to keep
        the tail defect visible.
        """
        values = reliable_values(
            sums,
            log_peaks,
            lambda i: f"{context}: entry at {support_offset + i}",
            "use the simulation path for this parameter regime",
        )
        return cls._mass_checked(values, support_offset, renormalize, context)

    @classmethod
    def from_signed_rows(cls, sums, log_peaks, support_offset: int, context: str) -> np.ndarray:
        """The probs of from_signed_sums of each row of (rows x entries) stacks, as one table.

        Every row is gated, mass-checked and renormalized as
        from_signed_sums does it, in one pass and with the same bits, and
        the first failing row raises its own refusal.  The table is read-only.
        """
        try:
            values = reliable_values(sums, log_peaks, str, "")
        except NumericalConditioningError:
            # a row before the one the gate refused may fail its mass check
            # first: one row at a time, the first failing row is named
            for row, peaks in zip(sums, log_peaks):
                cls.from_signed_sums(row, peaks, support_offset, context=context)
            raise
        totals = values.sum(axis=1)
        for total in totals.tolist():
            _mass_defect(total, context)
        values /= totals[:, None]
        values.flags.writeable = False  # read-only, as every Pmf's probs are
        return values

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
    def from_mixture(cls, weights, component, support_offset, size, context) -> "Pmf":
        """The law sum_n weights[n] component(n), with size entries from support_offset.

        Levels of zero weight are skipped; the rest are added in increasing n, each into
        the slice where its own support lies, and the total is checked by from_floats.
        """
        probs = np.zeros(size)
        for n in np.flatnonzero(weights).tolist():
            law = component(n)
            lo = law.support_offset - support_offset
            probs[lo : lo + len(law.probs)] += weights[n] * law.probs
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
