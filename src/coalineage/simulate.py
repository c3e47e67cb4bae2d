"""Backward simulation of the block-counting process for an observed sample.

Conditional on an observed allelic partition, running time backward
deletes one sample unit at a time, uniformly at random, with the waiting
time at total weight x exponential of rate x(x+theta-1)/2.  The weight
trajectory is exactly the sample's ancestral death process; the size-1
block count tracks surviving alleles still represented by a single gene.
Deletions ignore the layout, so a replicate draws the death level d and
then a uniform d-subset of the m units, in the calling process.  It reads
only ``random()``, whose sequence for a given seed Python keeps across
versions, of its own ``random.Random`` keyed (master_seed, index).
"""

from __future__ import annotations

import operator
import os
import random
from dataclasses import dataclass
from itertools import takewhile
from math import isfinite, log

from .ancestral import ModelParams
from .ewens import AllelicPartition

__all__ = [
    "ReplicateSummary",
    "simulate_block_process",
    "run_replicates",
    "default_threads",
]


@dataclass(frozen=True, slots=True)
class ReplicateSummary:
    """End state of one replicate: surviving weight, size-1 blocks, stream key."""

    d_total: int
    d_singleton: int
    seed: object


def _tables(
    initial: AllelicPartition, theta: float, t_horizon: float
) -> tuple[list[int], list[float]]:
    """Class label per unit, and the holding-time scales at x = m, m-1, ..."""
    ModelParams(theta, t_horizon)
    sizes = initial.to_configuration().counts
    labels = [cls for cls, size in enumerate(sizes) for _ in range(size)]
    # death_rate's operand order: at x = 1, x + theta - 1 rounds to 0 for tiny theta
    scales = [2.0 / (x * (x - 1 + theta)) for x in range(len(labels), 0, -1)]
    # an infinite scale (x = 1, tiny theta) never dies; a zero draw times it is NaN
    return labels, list(takewhile(isfinite, scales))


def _stream_name(seed) -> str:
    """Canonical name of a nonnegative int seed or a sequence of them, e.g. "11,7"."""
    entries = [operator.index(s) for s in (seed if isinstance(seed, (list, tuple)) else [seed])]
    if min(entries, default=0) < 0:
        raise ValueError(f"seed entries must be nonnegative, got {seed!r}")
    return ",".join(map(str, entries))


def _replicate(labels: list, scales: list, t_horizon: float, stream: str) -> tuple[int, int]:
    """(d_total, d_singleton) at the horizon, drawn from the stream named ``stream``."""
    rnd = random.Random(stream).random
    d = m = len(labels)
    clock = 0.0
    for scale in scales:
        clock -= log(1.0 - rnd()) * scale
        if clock > t_horizon:
            break
        d -= 1
    # partial Fisher-Yates: survivor i is drawn from the units still in slots i..m-1
    units, hits = labels.copy(), [0] * (labels[-1] + 1)
    for i in range(d):
        j = i + int(rnd() * (m - i))
        hits[units[j]] += 1
        units[j] = units[i]
    return d, hits.count(1)


def simulate_block_process(
    initial: AllelicPartition, theta: float, t_horizon: float, seed
) -> ReplicateSummary:
    """End state of the deletion process from an observed partition at a horizon.

    Surviving weight and size-1 block count, both 0 once the process
    absorbs.  ``seed`` is a nonnegative int or a sequence of them;
    ``[s, i]`` gives replicate i of ``run_replicates`` with master seed s.
    """
    labels, scales = _tables(initial, theta, t_horizon)
    key = tuple(seed) if isinstance(seed, (list, tuple)) else seed
    return ReplicateSummary(*_replicate(labels, scales, t_horizon, _stream_name(seed)), key)


def default_threads() -> int:
    """Nominal thread count: COALESCENT_THREADS if set, else the machine's cores."""
    env = os.environ.get("COALESCENT_THREADS")
    if env is not None:
        try:
            n = int(env)
        except ValueError:
            raise ValueError(f"COALESCENT_THREADS must be an integer, got {env!r}") from None
        if n < 1:
            raise ValueError(f"COALESCENT_THREADS must be >= 1, got {env}")
        return n
    return os.cpu_count() or 1


def run_replicates(
    initial: AllelicPartition,
    theta: float,
    t_horizon: float,
    n_replicates: int,
    master_seed: int,
    threads: int | None = None,
) -> list[ReplicateSummary]:
    """Independent replicates of the block process, in index order.

    Replicate i equals ``simulate_block_process(..., [master_seed, i])``.
    ``threads`` is accepted for compatibility and changes nothing:
    replicates run one after another in this process.
    """
    if n_replicates < 1:
        raise ValueError(f"n_replicates must be >= 1, got {n_replicates}")
    if threads is None:
        default_threads()  # still refuses a malformed COALESCENT_THREADS
    labels, scales = _tables(initial, theta, t_horizon)
    master = _stream_name(master_seed)
    return [
        ReplicateSummary(*_replicate(labels, scales, t_horizon, f"{master},{i}"), (master_seed, i))
        for i in range(n_replicates)
    ]
