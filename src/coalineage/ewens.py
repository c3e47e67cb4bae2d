"""Allele-configuration likelihood, theta estimation, and urn sampling.

A sample of m genes carrying k distinct alleles with counts (n_1..n_k)
has sampling probability theta^k prod (n_i - 1)! / (theta)_m for any
specific set partition with those block sizes; the number of alleles is
sufficient for theta, and its expectation sum_i theta/(theta+i) is
strictly increasing, so the likelihood equation has at most one root.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import NumericalConditioningError
from .numerics import _require_theta, log_rising_factorial

__all__ = [
    "AlleleConfiguration",
    "AllelicPartition",
    "esf_log_prob",
    "expected_k",
    "theta_mle",
    "hoppe_sample",
]


@dataclass(frozen=True)
class AlleleConfiguration:
    """Observed allele counts, one entry per distinct type, each >= 1."""

    counts: tuple[int, ...]

    def __post_init__(self):
        for c in self.counts:
            if isinstance(c, bool) or not isinstance(c, (int, np.integer)):
                raise ValueError(f"allele counts must be integers, got {c!r}")
        counts = tuple(sorted((int(c) for c in self.counts), reverse=True))
        if not counts:
            raise ValueError("a configuration needs at least one allele")
        if counts[-1] < 1:
            raise ValueError(f"allele counts must be >= 1, got {counts[-1]}")
        object.__setattr__(self, "counts", counts)

    @property
    def m(self) -> int:
        return sum(self.counts)

    @property
    def k(self) -> int:
        return len(self.counts)

    def to_partition(self) -> "AllelicPartition":
        return AllelicPartition.from_dict(Counter(self.counts))


@dataclass(frozen=True)
class AllelicPartition:
    """Allele frequency spectrum: spectrum[l-1] classes of size l."""

    spectrum: tuple[int, ...]

    def __post_init__(self):
        spectrum = tuple(int(c) for c in self.spectrum)
        if any(c < 0 for c in spectrum):
            raise ValueError("spectrum entries must be nonnegative")
        while spectrum and spectrum[-1] == 0:
            spectrum = spectrum[:-1]
        if not spectrum:
            raise ValueError("a partition needs at least one class")
        object.__setattr__(self, "spectrum", spectrum)

    @classmethod
    def from_dict(cls, sizes: dict[int, int]) -> "AllelicPartition":
        if not sizes:
            raise ValueError("a partition needs at least one class")
        hi = max(sizes)
        vec = [0] * hi
        for size, count in sizes.items():
            if size < 1:
                raise ValueError(f"class sizes must be >= 1, got {size}")
            vec[size - 1] = count
        return cls(tuple(vec))

    def as_dict(self) -> dict[int, int]:
        return {l + 1: c for l, c in enumerate(self.spectrum) if c > 0}

    @property
    def m(self) -> int:
        return sum((l + 1) * c for l, c in enumerate(self.spectrum))

    @property
    def k(self) -> int:
        return sum(self.spectrum)

    def to_configuration(self) -> AlleleConfiguration:
        counts = []
        for l, c in enumerate(self.spectrum):
            counts.extend([l + 1] * c)
        return AlleleConfiguration(tuple(counts))


def esf_log_prob(config: AlleleConfiguration | AllelicPartition, theta: float) -> float:
    """log probability of one specific set partition with these block sizes.

    Summing exp of this over all set partitions of m items (i.e. times
    m! / (prod n_i! prod a_l!) per frequency spectrum) gives 1.
    """
    _require_theta(theta)
    if isinstance(config, AllelicPartition):
        config = config.to_configuration()
    k, m = config.k, config.m
    return (
        k * math.log(theta)
        - log_rising_factorial(theta, m)
        + math.fsum(math.lgamma(c) for c in config.counts)
    )


def expected_k(m: int, theta: float) -> float:
    """Expected number of distinct alleles in a sample of size m."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 0.0 < theta < math.inf:
        raise ValueError(f"theta must be positive and finite, got {theta}")
    i = np.arange(m, dtype=float)
    return float(np.sum(theta / (theta + i)))


def theta_mle(config: AlleleConfiguration | AllelicPartition) -> float:
    """Maximum-likelihood theta from an observed configuration.

    The allele count k is sufficient; the estimate solves
    expected_k(m, theta) = k by bisecting a bracket down to adjacent
    floats, which works because expected_k is strictly increasing.

    Raises:
        NumericalConditioningError: k == m (every gene its own allele)
            pushes the likelihood to theta = infinity, and k == 1 pushes
            it to the theta = 0 boundary; neither has a finite positive
            estimate.
    """
    if isinstance(config, AllelicPartition):
        config = config.to_configuration()
    m, k = config.m, config.k
    if k >= m:
        raise NumericalConditioningError(
            f"theta MLE diverges: all {m} genes are distinct (k = m), "
            "the likelihood increases without bound"
        )
    if k <= 1:
        raise NumericalConditioningError(
            "theta MLE is degenerate: a single allele drives the estimate "
            "to the theta = 0 boundary"
        )
    lo, hi = 1e-9, 1.0
    while expected_k(m, hi) < k:
        hi *= 2.0
        if hi > 1e12:
            raise NumericalConditioningError(
                "theta MLE bracket search ran away; configuration is degenerate"
            )
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if expected_k(m, mid) < k:
            lo = mid
        else:
            hi = mid


def hoppe_sample(m: int, theta: float, seed) -> AllelicPartition:
    """Sample an allelic partition of m genes from the urn with mass theta.

    Draw i joins a new allele with probability theta/(theta+i-1), else an
    existing one proportionally to its count.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 0.0 < theta < math.inf:
        raise ValueError(f"theta must be positive and finite, got {theta}")
    rng = np.random.default_rng(seed)
    sizes: list[int] = []
    for i in range(m):
        u = rng.random() * (theta + i)
        if u < theta:
            sizes.append(1)
        else:
            u -= theta
            for j in range(len(sizes)):
                u -= sizes[j]
                if u < 0:
                    sizes[j] += 1
                    break
            else:
                # u landed on the total by float rounding; charge the last class
                sizes[-1] += 1
    return AllelicPartition.from_dict(Counter(sizes))
