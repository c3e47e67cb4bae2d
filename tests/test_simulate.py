import concurrent.futures
import math
import os
import subprocess
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import chi2_contingency, chisquare

from coalineage import simulate
from coalineage.ancestral import ModelParams, lineage_pmf, singleton_lineage_pmf
from coalineage.ewens import AllelicPartition
from coalineage.posterior import PredictiveQuery, predictive_lineage_pmf, predictive_singleton_pmf
from coalineage.simulate import (
    ReplicateSummary,
    default_threads,
    run_replicates,
    simulate_block_process,
)
from reference import (
    BlockState,
    simulate_block_process_by_event,
    simulate_death_process,
    step_block_process,
)

SMALL = AllelicPartition.from_dict({1: 2, 2: 1})  # classes of size 1, 1, 2


def reference_trajectory(initial, theta, t_horizon, seed):
    """Step-driven loop; must consume the stream exactly like the fast path."""
    rng = np.random.default_rng(seed)
    state = BlockState.from_partition(initial)
    clock = 0.0
    while state.x > 0:
        holding, nxt = step_block_process(state, theta, rng)
        if clock + holding > t_horizon:
            break
        clock += holding
        state = nxt
    return state.x, state.singletons


def marked_death_replicate(m, theta, t_horizon, rng):
    """Forward lineage simulation keeping present-day frequency per line.

    Coalescence merges two frequencies, mutation removes a line outright.
    Returns the surviving line count and the count of frequency-1 lines.
    """
    freqs = [1] * m
    clock = 0.0
    while freqs:
        n = len(freqs)
        clock += rng.exponential(2.0 / (n * (n - 1 + theta)))
        if clock > t_horizon:
            break
        if rng.random() * (n - 1 + theta) < theta:
            freqs.pop(rng.integers(n))
        else:
            i, j = sorted(rng.choice(n, size=2, replace=False))
            freqs[i] += freqs.pop(j)
    return len(freqs), sum(1 for f in freqs if f == 1)


def two_block_replicates(m, m_prime, theta, t_horizon, reps, rng):
    """The labelled coalescent with killing for m + m' lines, reps replicates at once.

    Line i carries its descendant counts in the first m individuals and in
    the last m'.  Coalescence adds the pairs, mutation removes a line, and
    every event takes one line away, so m + m' lockstep events finish every
    replicate.  The live lines of a replicate are kept in its first n slots.
    Returns the (reps x lines) first-block and second-block counts and n.
    """
    size = m + m_prime
    first = np.zeros((reps, size), dtype=np.int32)
    second = np.zeros((reps, size), dtype=np.int32)
    first[:, :m], second[:, m:] = 1, 1
    n, clock = np.full(reps, size), np.zeros(reps)
    running = np.ones(reps, dtype=bool)
    for _ in range(size):
        live = np.flatnonzero(running)
        k = n[live]
        clock[live] += rng.exponential(2.0 / (k * (k - 1 + theta)))
        running[live] = clock[live] <= t_horizon
        live = live[running[live]]
        k = n[live]
        kill = rng.random(len(live)) * (k - 1 + theta) < theta
        i = rng.integers(k)
        j = rng.integers(np.maximum(k - 1, 1))  # a line other than i, read by merges only
        j += j >= i
        # a merge adds line j into line i; then the removed slot (i for a
        # kill, j for a merge) takes the last live line
        merge, into, out = live[~kill], i[~kill], j[~kill]
        first[merge, into] += first[merge, out]
        second[merge, into] += second[merge, out]
        gone = np.where(kill, i, j)
        first[live, gone] = first[live, k - 1]
        second[live, gone] = second[live, k - 1]
        n[live] -= 1
        running &= n > 0
    return first, second, n


def pooled_chisquare(observed_counts, expected_probs, reps):
    """Chi-square with small-expectation bins pooled into the last one."""
    expected = np.asarray(expected_probs, dtype=float) * reps
    observed = np.asarray(observed_counts, dtype=float)
    keep = expected >= 5.0
    obs = np.append(observed[keep], observed[~keep].sum())
    exp = np.append(expected[keep], expected[~keep].sum())
    if exp[-1] == 0.0:
        obs, exp = obs[:-1], exp[:-1]
    exp *= obs.sum() / exp.sum()
    return chisquare(obs, exp).pvalue


class TestBlockState:
    def test_summary_properties(self):
        state = BlockState.from_partition(SMALL)
        assert state.spectrum == (2, 1)
        assert state.x == 4
        assert state.block_count == 3
        assert state.singletons == 2

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            BlockState((2, -1))


class TestStepBlockProcess:
    def test_absorbed_state_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="absorbed"):
            step_block_process(BlockState((0,)), 1.0, rng)

    def test_transitions_reach_only_adjacent_shapes(self):
        rng = np.random.default_rng(7)
        state = BlockState((2, 1))
        seen = set()
        for _ in range(400):
            _, nxt = step_block_process(state, 1.7, rng)
            seen.add(nxt.spectrum)
            assert nxt.x == state.x - 1
        # doubleton shrinks or one singleton dies; nothing else
        assert seen == {(3,), (1, 1)}

    def test_unit_chosen_uniformly(self):
        # from (2,1): the doubleton holds 2 of 4 units
        rng = np.random.default_rng(11)
        reps = 4000
        hits = sum(
            step_block_process(BlockState((2, 1)), 1.7, rng)[1].spectrum == (3,)
            for _ in range(reps)
        )
        assert abs(hits - reps / 2) < 5 * math.sqrt(reps * 0.25)

    def test_holding_time_rate(self):
        theta = 2.5
        rng = np.random.default_rng(13)
        rate = 4 * (4 + theta - 1) / 2.0
        times = [step_block_process(BlockState((2, 1)), theta, rng)[0] for _ in range(4000)]
        assert abs(np.mean(times) - 1 / rate) < 5 / (rate * math.sqrt(4000))


class TestSimulateBlockProcess:
    def test_matches_step_driven_reference(self):
        for seed in range(25):
            summary = simulate_block_process_by_event(SMALL, 1.7, 0.5, [41, seed])
            assert (summary.d_total, summary.d_singleton) == reference_trajectory(
                SMALL, 1.7, 0.5, [41, seed]
            )

    def test_zero_horizon_returns_initial_state(self):
        summary = simulate_block_process(SMALL, 1.7, 0.0, 3)
        assert summary.d_total == 4
        assert summary.d_singleton == 2

    def test_zero_draw_at_infinite_scale_is_no_death(self, monkeypatch):
        # at x = 1 with theta = 5e-324 the holding-time scale overflows to
        # inf, and a draw of exactly 0 would make that holding time NaN
        class ZeroStream:
            def __init__(self, seed):
                pass

            def random(self):
                return 0.0

        monkeypatch.setattr(simulate, "random", SimpleNamespace(Random=ZeroStream))
        summary = simulate_block_process(AllelicPartition.from_dict({1: 3}), 5e-324, 50.0, 0)
        assert (summary.d_total, summary.d_singleton) == (1, 1)

    def test_long_horizon_absorbs(self):
        summary = simulate_block_process(SMALL, 1.7, 500.0, 3)
        assert summary.d_total == 0
        assert summary.d_singleton == 0

    def test_rejects_bad_arguments(self):
        # what ModelParams refuses, for one replicate and for a 300-replicate run
        for theta, t in [(0.0, 1.0), (1.0, -0.1), (math.inf, 0.5), (1.0, math.inf), (1e308, 0.5)]:
            with pytest.raises(ValueError):
                simulate_block_process(SMALL, theta, t, 1)
            with pytest.raises(ValueError):
                run_replicates(SMALL, theta, t, 300, master_seed=1, threads=2)

    def test_weight_two_closed_form_both_shapes(self):
        # the weight law ignores the block layout: chain 2 -> 1 -> 0 with
        # rates 1+theta and theta/2 gives P[x=1] in closed form
        theta, t, reps = 1.3, 0.4, 20_000
        lam2, lam1 = 1 + theta, theta / 2
        p1 = lam2 / (lam2 - lam1) * (math.exp(-lam1 * t) - math.exp(-lam2 * t))
        for shape in ({1: 2}, {2: 1}):
            part = AllelicPartition.from_dict(shape)
            hits = sum(
                simulate_block_process(part, theta, t, [61, r]).d_total == 1
                for r in range(reps)
            )
            assert abs(hits / reps - p1) < 5 * math.sqrt(p1 * (1 - p1) / reps)

    def test_weight_marginal_matches_lineage_law(self):
        theta, t, reps = 1.7, 0.5, 20_000
        law = lineage_pmf(4, ModelParams(theta=theta, t=t))
        counts = np.zeros(5, dtype=int)
        for r in range(reps):
            counts[simulate_block_process(SMALL, theta, t, [71, r]).d_total] += 1
        pvalue = pooled_chisquare(counts, [law.prob(x) for x in range(5)], reps)
        assert pvalue > 1e-3

    def test_joint_state_matches_uniform_subset_mixture(self):
        # deleting survivors uniformly one at a time leaves a uniform
        # subset, so the joint (weight, singleton) law is the class
        # intersection profile of a uniform subset, mixed over the weight
        theta, t, reps = 1.7, 0.5, 20_000
        law = lineage_pmf(4, ModelParams(theta=theta, t=t))
        classes = [("a1",), ("b1",), ("c1", "c2")]
        units = [u for cls in classes for u in cls]
        exact: dict[tuple[int, int], float] = {}
        for x in range(5):
            px = law.prob(x)
            subsets = list(combinations(units, x))
            for sub in subsets:
                kept = set(sub)
                sizes = [sum(u in kept for u in cls) for cls in classes]
                key = (x, sum(s == 1 for s in sizes))
                exact[key] = exact.get(key, 0.0) + px / len(subsets)
        keys = sorted(exact)
        index = {key: i for i, key in enumerate(keys)}
        counts = np.zeros(len(keys), dtype=int)
        for r in range(reps):
            s = simulate_block_process(SMALL, theta, t, [83, r])
            counts[index[(s.d_total, s.d_singleton)]] += 1
        pvalue = pooled_chisquare(counts, [exact[k] for k in keys], reps)
        assert pvalue > 1e-3

    @pytest.mark.parametrize("t", [0.05, 0.34])
    def test_joint_law_matches_event_by_event_oracle(self, t):
        # two-sample chi-square of the joint (d_total, d_singleton) law;
        # at t = 0.05 the series refuses, so the simulator is the fallback
        part = AllelicPartition.from_dict({1: 10, 2: 3, 3: 7, 5: 2})
        theta, reps = 9.5, 4000
        fast = run_replicates(part, theta, t, reps, master_seed=29)
        oracle = (simulate_block_process_by_event(part, theta, t, [31, r]) for r in range(reps))
        factored = Counter((s.d_total, s.d_singleton) for s in fast)
        by_event = Counter((s.d_total, s.d_singleton) for s in oracle)
        # cells with fewer than 10 draws over both samples pool into one
        keys = sorted(set(factored) | set(by_event))
        solo = [k for k in keys if factored[k] + by_event[k] >= 10]
        table = [
            [c[k] for k in solo] + [sum(c[k] for k in keys if k not in solo)]
            for c in (factored, by_event)
        ]
        if table[0][-1] + table[1][-1] == 0:
            table = [row[:-1] for row in table]
        assert len(table[0]) >= 5
        assert chi2_contingency(table).pvalue > 1e-3


class TestMarkedDeathConsistency:
    def test_forward_lineage_marginals_match_analytic_laws(self):
        # independent construction: forward coalescent with per-line
        # present-day frequencies; line count must follow the lineage law
        # and the frequency-1 count the singleton mixture
        m, theta, t, reps = 6, 1.3, 0.4, 30_000
        params = ModelParams(theta=theta, t=t)
        rng = np.random.default_rng(90210)
        count_hist = np.zeros(m + 1, dtype=int)
        single_hist = np.zeros(m + 1, dtype=int)
        for _ in range(reps):
            n_alive, n_single = marked_death_replicate(m, theta, t, rng)
            count_hist[n_alive] += 1
            single_hist[n_single] += 1
        lineage_law = lineage_pmf(m, params)
        singleton_law = singleton_lineage_pmf(m, params)
        p_count = pooled_chisquare(count_hist, [lineage_law.prob(x) for x in range(m + 1)], reps)
        p_single = pooled_chisquare(
            single_hist, [singleton_law.prob(x) for x in range(m + 1)], reps
        )
        assert p_count > 1e-3
        assert p_single > 1e-3


class TestPredictiveSimulation:
    @pytest.mark.parametrize("m, m_prime, theta, t, seed", [
        (6, 4, 1.3, 0.4, 2024), (8, 3, 3.0, 0.25, 2025),
    ])
    def test_predictive_laws_match_the_two_block_coalescent(self, m, m_prime, theta, t, seed):
        # y counts the lines with a first-block descendant (total mode) or with
        # exactly one (singleton mode); x counts every line, or those singleton
        # lines with a second-block descendant.  Given y, the law of x is the
        # posterior predictive of an m' enlargement
        reps, params = 100_000, ModelParams(theta=theta, t=t)
        first, second, n = two_block_replicates(
            m, m_prime, theta, t, reps, np.random.default_rng(seed)
        )
        alive = np.arange(m + m_prime) < n[:, None]
        single = (first == 1) & alive
        modes = [
            (predictive_lineage_pmf, ((first > 0) & alive).sum(axis=1), n),
            (predictive_singleton_pmf, single.sum(axis=1), (single & (second > 0)).sum(axis=1)),
        ]
        tested = 0
        for law_of, ys, xs in modes:
            for y in range(m + 1):
                draws = xs[ys == y]
                if len(draws) < 2000:
                    continue
                law = law_of(PredictiveQuery(m, m_prime, y, params))
                assert draws.min() >= law.support_offset, y
                counts = np.bincount(draws - law.support_offset, minlength=len(law.probs))
                assert len(counts) == len(law.probs), y
                if np.count_nonzero(law.probs) == 1:
                    assert counts[np.flatnonzero(law.probs)[0]] == len(draws), y
                    continue
                pvalue = pooled_chisquare(counts, law.probs, len(draws))
                assert pvalue > 1e-3, (law_of.__name__, y)
                tested += 1
        assert tested >= 8


class TestSimulateDeathProcess:
    def test_boundaries(self):
        assert simulate_death_process(10, 1.0, 0.0, 1) == 10
        assert simulate_death_process(0, 1.0, 5.0, 1) == 0

    def test_marginal_matches_lineage_law(self):
        m, theta, t, reps = 10, 2.0, 0.3, 50_000
        law = lineage_pmf(m, ModelParams(theta=theta, t=t))
        counts = np.zeros(m + 1, dtype=int)
        for r in range(reps):
            counts[simulate_death_process(m, theta, t, [101, r])] += 1
        pvalue = pooled_chisquare(counts, [law.prob(x) for x in range(m + 1)], reps)
        assert pvalue > 1e-3

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            simulate_death_process(-1, 1.0, 1.0, 1)
        with pytest.raises(ValueError):
            simulate_death_process(5, -2.0, 1.0, 1)
        with pytest.raises(ValueError):
            simulate_death_process(5, 1.0, -1.0, 1)


class TestRunReplicates:
    def test_reproducible_and_indexed(self):
        a = run_replicates(SMALL, 1.7, 0.5, 40, master_seed=11, threads=1)
        b = run_replicates(SMALL, 1.7, 0.5, 40, master_seed=11, threads=1)
        assert a == b
        assert [r.seed for r in a] == [(11, i) for i in range(40)]
        # each replicate is the plain single run under its stream key
        direct = simulate_block_process(SMALL, 1.7, 0.5, [11, 7])
        assert (a[7].d_total, a[7].d_singleton) == (direct.d_total, direct.d_singleton)

    def test_thread_count_does_not_change_results(self):
        serial = run_replicates(SMALL, 1.7, 0.5, 300, master_seed=5, threads=1)
        for threads in (2, 3):
            parallel = run_replicates(SMALL, 1.7, 0.5, 300, master_seed=5, threads=threads)
            assert parallel == serial

    @pytest.mark.parametrize("cores", [2, 1000])
    def test_never_starts_a_pool(self, monkeypatch, cores):
        # whatever the thread count and core count, replicates run in this
        # process; a pool stand-in fails the test if anything builds one
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("run_replicates started a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        serial = run_replicates(SMALL, 1.7, 0.5, 300, master_seed=5, threads=1)
        assert run_replicates(SMALL, 1.7, 0.5, 300, master_seed=5, threads=100_000) == serial

    def test_summary_has_no_instance_dict(self):
        # slots: criterion 3 holds 1e5 summaries at once
        summary = run_replicates(SMALL, 1.7, 0.5, 1, master_seed=0)[0]
        assert not hasattr(summary, "__dict__")

    def test_loads_neither_numpy_random_nor_a_pool(self):
        # numpy.random alone costs about 5 MB of resident memory
        modules = ("numpy.random", "multiprocessing", "concurrent.futures.process")
        probe = (
            "import sys\n"
            "from coalineage import AllelicPartition, run_replicates\n"
            "start = AllelicPartition.from_dict({1: 10, 3: 2})\n"
            "run_replicates(start, 9.5, 0.34, 300, 0, threads=4)\n"
            f"print(*[m for m in {modules!r} if m in sys.modules])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []

    @pytest.mark.parametrize("theta", [1e-300, 5e-324])
    def test_tiny_theta_ends_on_one_line(self, theta):
        # the last line's exit rate theta/2 is tiny or rounds to 0, so by
        # t = 50 every replicate has coalesced down to it and keeps it
        part = AllelicPartition.from_dict({1: 10, 2: 3, 3: 7, 5: 2})
        out = run_replicates(part, theta, 50.0, 40, master_seed=3, threads=1)
        assert [(r.d_total, r.d_singleton) for r in out] == [(1, 1)] * 40

    def test_rejects_zero_replicates(self):
        with pytest.raises(ValueError):
            run_replicates(SMALL, 1.7, 0.5, 0, master_seed=1)

    def test_case_study_scale_runs_quickly(self):
        part = AllelicPartition.from_dict({1: 10, 2: 3, 3: 7, 5: 2, 6: 2, 8: 1, 11: 1, 68: 1})
        out = run_replicates(part, 9.5, 0.34, 2000, master_seed=77, threads=1)
        mean_total = np.mean([r.d_total for r in out])
        # loose 5-sigma band around the exact mean 2.30219 (sd ~ 1.22)
        assert abs(mean_total - 2.30219) < 5 * 1.25 / math.sqrt(2000)


class TestDefaultThreads:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("COALESCENT_THREADS", "3")
        assert default_threads() == 3

    def test_env_rejects_nonpositive(self, monkeypatch):
        monkeypatch.setenv("COALESCENT_THREADS", "0")
        with pytest.raises(ValueError):
            default_threads()

    def test_default_is_machine_width(self, monkeypatch):
        monkeypatch.delenv("COALESCENT_THREADS", raising=False)
        assert default_threads() >= 1
