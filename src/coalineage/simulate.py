"""Backward simulation of the block-counting process for an observed sample.

Conditional on an observed allelic partition, running time backward
deletes one sample unit at a time, uniformly at random, with the waiting
time at total weight x exponential of rate x(x+theta-1)/2.  The weight
trajectory is exactly the sample's ancestral death process; the size-1
block count tracks surviving alleles still represented by a single gene.
Replicates use independent streams keyed (master_seed, replicate index),
so results do not depend on how replicates are chunked across workers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .ancestral import ModelParams
from .ewens import AllelicPartition

__all__ = [
    "ReplicateSummary",
    "simulate_block_process",
    "run_replicates",
    "default_threads",
]


@dataclass(frozen=True)
class ReplicateSummary:
    """End state of one replicate: surviving weight, size-1 blocks, stream key."""

    d_total: int
    d_singleton: int
    seed: object


def simulate_block_process(
    initial: AllelicPartition, theta: float, t_horizon: float, seed
) -> ReplicateSummary:
    """Run the deletion process from an observed partition to a horizon.

    Each event draws the exponential holding time at rate x(x+theta-1)/2,
    then removes one unit chosen uniformly among the x survivors (a block
    of size l loses a unit with probability l * spectrum[l-1] / x).  The
    summary reports the surviving weight and the size-1 block count at
    the horizon; both are 0 once the process absorbs.
    """
    ModelParams(theta, t_horizon)
    rng = np.random.default_rng(seed)
    spectrum = list(initial.spectrum)
    x = sum((l + 1) * c for l, c in enumerate(spectrum))
    clock = 0.0
    while x > 0:
        # death_rate's operand order: at x = 1, x + theta - 1 rounds to 0 for tiny theta
        clock += rng.exponential(2.0 / (x * (x - 1 + theta)))
        if clock > t_horizon:
            break
        u = rng.random() * x
        hit = -1
        for l0 in range(len(spectrum)):
            u -= (l0 + 1) * spectrum[l0]
            if u < 0:
                hit = l0
                break
        if hit < 0:
            hit = max(i for i, c in enumerate(spectrum) if c > 0)
        spectrum[hit] -= 1
        if hit > 0:
            spectrum[hit - 1] += 1
        x -= 1
    key = tuple(seed) if isinstance(seed, (list, tuple)) else seed
    return ReplicateSummary(d_total=x, d_singleton=spectrum[0] if spectrum else 0, seed=key)


def default_threads() -> int:
    """Worker count: COALESCENT_THREADS if set, else the machine's cores."""
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


def _replicate(initial, theta, t_horizon, master_seed, idx) -> tuple[int, int]:
    s = simulate_block_process(initial, theta, t_horizon, [master_seed, idx])
    return s.d_total, s.d_singleton


def run_replicates(
    initial: AllelicPartition,
    theta: float,
    t_horizon: float,
    n_replicates: int,
    master_seed: int,
    threads: int | None = None,
) -> list[ReplicateSummary]:
    """Independent replicates of the block process, in index order.

    Replicate i uses the stream keyed [master_seed, i] regardless of the
    worker layout, so any thread count produces the same summaries.  No
    more worker processes start than there are cores.
    """
    if n_replicates < 1:
        raise ValueError(f"n_replicates must be >= 1, got {n_replicates}")
    ModelParams(theta, t_horizon)  # refuse bad parameters before any worker forks
    if threads is None:
        threads = default_threads()
    # the pool forks every worker it is given on its first submit
    workers = min(threads, os.cpu_count() or 1, n_replicates)
    run_one = partial(_replicate, initial, theta, t_horizon, master_seed)
    if workers <= 1 or n_replicates < 256:
        rows = map(run_one, range(n_replicates))
    else:
        # numpy imports numpy.random on first use; do it here, once, rather
        # than in every forked worker on every call
        import numpy.random  # noqa: F401
        # imported here so that importing the package does not load
        # multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = -(-n_replicates // (4 * workers))
            rows = list(pool.map(run_one, range(n_replicates), chunksize=chunk))
    return [
        ReplicateSummary(d_total=d, d_singleton=s, seed=(master_seed, idx))
        for idx, (d, s) in enumerate(rows)
    ]
