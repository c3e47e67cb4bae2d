"""The four benchmark workloads: seeded inputs, one op per call, checks.

Each workload is a closed loop driven by one client: the next op is
issued only when the previous one has returned.  The program sees only
the generated inputs; the seed stays here.  Ops call the library through
attributes of the ``coalineage`` package looked up at call time, so a
tracer that patches those attributes sees every call.

worker.py uses a workload in this order: ``load`` (imports, part of
set-up time), ``setup`` (data and untimed prep, also set-up time),
``ops`` (an endless op stream), ``run`` (one op; raises on failure) and
``check`` (checks that need a reference computed after the timed
phase).  ``extras`` adds per-layer figures in the untraced fixed-count
run that the traced run is compared against.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from checks import (
    CheckFailed,
    check_cli_report,
    check_dual_route,
    check_pmf,
    check_probability,
    check_replicate_mean,
    check_theta_hat,
)
from tracing import package_modules

DATASET = "singh1976"


@dataclass(frozen=True)
class Op:
    label: str
    params: tuple = ()


@dataclass
class State:
    seed: int
    in_process: bool = False
    data: dict = field(default_factory=dict)


def clear_caches() -> None:
    """Empty every lru_cache in the package, so the next call starts cold."""
    seen = set()
    for module in package_modules():
        for value in vars(module).values():
            # a traced function hides the cached one behind __wrapped__
            while value is not None and not hasattr(value, "cache_clear"):
                value = getattr(value, "__wrapped__", None)
            if value is not None and id(value) not in seen:
                seen.add(id(value))
                value.cache_clear()


def _log_uniform_stratum(rng: random.Random, bounds: tuple, k: int, strata: int) -> float:
    """Log-uniform draw from stratum k of strata equal slices of log(bounds)."""
    lo, hi = math.log(bounds[0]), math.log(bounds[1])
    width = (hi - lo) / strata
    return math.exp(lo + width * (k + rng.random()))


class Workload:
    name = ""
    # ops per deadline check: a run ends only on a whole cycle
    cycle = 1
    # op times are divided by the run's slowdown (see worker.calibrate)
    scaled = True
    # op count of the traced run and of the untraced run it is compared with
    trace_ops = 1

    def load(self):
        import coalineage

        self.lib = coalineage

    def setup(self, seed: int, in_process: bool = False) -> State:
        """Load singh1976 and fit theta, as a user session starts."""
        ds = self.lib.load_dataset(DATASET)
        theta_hat = self.lib.theta_mle(ds.partition)
        check_theta_hat(theta_hat)
        return State(seed, in_process, {"dataset": ds, "theta": theta_hat})

    def ops(self, state: State) -> Iterator[Op]:
        raise NotImplementedError

    def run(self, state: State, op: Op):
        raise NotImplementedError

    def check(self, state: State, done: list[tuple[Op, Any]]) -> list[tuple[int, str]]:
        return []

    def extras(self, state: State, done: list[tuple[Op, Any]], phase: dict) -> dict:
        """Per-layer figures from the untraced fixed-count run.

        ``phase`` holds the op ``latencies`` (s) and the ``children_cpu_s``
        spent by child processes during the ops.
        """
        return {}


# README example arguments; predict covers both modes at m' = 1 and 50
CLI_COMMANDS = {
    "fit-theta": ["fit-theta", DATASET],
    "lineages": ["lineages", "--m", "146", "--theta", "9.5", "--t", "0.34", "--r", "5"],
    "predict-total-1": ["predict", "--m", "146", "--m-prime", "1", "--y", "2",
                        "--theta", "9.48", "--t", "0.34"],
    "predict-total-50": ["predict", "--m", "146", "--m-prime", "50", "--y", "2",
                         "--theta", "9.48", "--t", "0.34"],
    "predict-singleton-1": ["predict", "--m", "146", "--m-prime", "1", "--y", "2",
                            "--theta", "9.48", "--t", "0.34", "--mode", "singleton"],
    "predict-singleton-50": ["predict", "--m", "146", "--m-prime", "50", "--y", "2",
                             "--theta", "9.48", "--t", "0.34", "--mode", "singleton"],
    "discover-total": ["discover", "--m", "146", "--y", "2", "--theta", "9.5",
                       "--t", "0.34", "--mode", "total"],
    "discover-singleton": ["discover", "--m", "146", "--y", "2", "--theta", "9.5",
                           "--t", "0.34", "--mode", "singleton"],
}


def _cli_in_process(cli, argv: list[str]) -> dict:
    clear_caches()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise CheckFailed(f"in-process cli {argv[0]} exited {code}")
    return json.loads(out.getvalue())


class CliWorkload(Workload):
    """Each op is one fresh ``python -m coalineage.cli`` process.

    Start-up and import dominate, so this is where import work shows and
    compute-layer changes should not.  In the fixed-count runs that the
    tracer compares, ops call ``cli.main`` in-process with caches cleared
    instead, so the layers under each command become visible.
    """

    name = "cli"
    trace_ops = 2 * len(CLI_COMMANDS)
    # interpreter start-up and import slow down less than the calibration
    # kernel on a busy host: scaling overcorrected, and widened the
    # run-to-run spread of op_p90_ms
    scaled = False

    def load(self):
        import coalineage.cli

        self.lib = coalineage
        self.cli = coalineage.cli

    def setup(self, seed, in_process=False):
        return State(seed, in_process)

    def ops(self, state):
        rng = random.Random(state.seed)
        while True:
            labels = list(CLI_COMMANDS)
            rng.shuffle(labels)
            for label in labels:
                yield Op(label)

    def run(self, state, op):
        argv = CLI_COMMANDS[op.label]
        if state.in_process:
            return _cli_in_process(self.cli, argv)
        proc = subprocess.run(
            [sys.executable, "-m", "coalineage.cli", *argv],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise CheckFailed(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return json.loads(proc.stdout)

    def check(self, state, done):
        expected = {}
        failures = []
        for i, (op, report) in enumerate(done):
            if report is None:
                continue
            try:
                if op.label not in expected:
                    expected[op.label] = _cli_in_process(self.cli, CLI_COMMANDS[op.label])
                    if op.label == "fit-theta":
                        check_theta_hat(expected[op.label]["results"]["theta_hat"])
                check_cli_report(report, expected[op.label], op.label)
            except Exception as exc:  # any failure counts against this op
                failures.append((i, f"{op.label}: {exc!r}"))
        return failures

    def extras(self, state, done, phase):
        """Median in-process time of each command, cold caches."""
        times = {}
        for (op, _), seconds in zip(done, phase["latencies"]):
            times.setdefault(op.label, []).append(1000.0 * seconds)
        return {f"cli.{label}.ms": statistics.median(ms) for label, ms in times.items()}


SWEEP_M = (20, 146, 500, 1000)
SWEEP_THETA = (0.5, 20.0)
# below t ~ 0.12 the series start refusing at m >= 146
SWEEP_T = (0.15, 2.0)
SWEEP_STRATA = 4
CLOSED_ROUTE_M = 20


class SweepWorkload(Workload):
    """Each op is one law at a fresh (theta, t, m): every cache misses.

    Points come in shuffled blocks that hold each m SWEEP_STRATA times,
    with log theta and log t in a Latin square of that many strata.  A
    run ends on a whole block, so every run sees nearly the same mix of
    costs.
    """

    name = "sweep"
    cycle = len(SWEEP_M) * SWEEP_STRATA
    trace_ops = 2 * cycle

    def ops(self, state):
        rng = random.Random(state.seed)
        strata = SWEEP_STRATA
        while True:
            block = []
            for m in SWEEP_M:
                theta_strata = rng.sample(range(strata), strata)
                for k in range(strata):
                    theta = _log_uniform_stratum(rng, SWEEP_THETA, theta_strata[k], strata)
                    t = _log_uniform_stratum(rng, SWEEP_T, k, strata)
                    block.append(Op(f"m{m}", (m, theta, t)))
            rng.shuffle(block)
            yield from block

    def run(self, state, op):
        lib = self.lib
        m, theta, t = op.params
        params = lib.ModelParams(theta=theta, t=t)
        check_pmf(lib.lineage_pmf(m, params), "lineage_pmf")
        check_pmf(lib.ancestral_pmf(None, params), "ancestral_pmf")
        mixture = lib.singleton_lineage_pmf(m, params)
        check_pmf(mixture, "singleton_lineage_pmf mixture")
        if m == CLOSED_ROUTE_M:
            closed = lib.singleton_lineage_pmf(m, params, method="closed")
            check_pmf(closed, "singleton_lineage_pmf closed")
            check_dual_route(mixture, closed, "singleton_lineage_pmf")


CURVE_T = (0.15, 0.34, 1.0)
CURVE_T_JITTER = 0.02
CURVE_M_PRIME = 200
CURVE_MIN_PROB = 1e-3


class CurveWorkload(Workload):
    """Predictive and discovery curves for singh1976 at theta-hat.

    Set-up takes every y with probability >= 1e-3 under the sample's
    total law and under its singleton law at each nominal horizon.  Each
    such y gives the matching predictive law at m' = 1..200 and the
    matching discovery probability, queried at the horizon raised by a
    seeded 0-2 %; the ops are shuffled.  Choosing y at the nominal
    horizon keeps the op mix, and so the cost of a run, the same for
    every seed.  The urn tables are shared across queries, so the
    caches run warm while the posterior is rebuilt on every query.
    """

    name = "curve"
    trace_ops = 1500

    def setup(self, seed, in_process=False):
        lib = self.lib
        state = super().setup(seed, in_process)
        ds, theta_hat = state.data["dataset"], state.data["theta"]
        rng = random.Random(seed)
        ops = []
        for t0 in CURVE_T:
            nominal = lib.ModelParams(theta=theta_hat, t=t0)
            params = lib.ModelParams(theta=theta_hat, t=t0 * (1.0 + rng.uniform(0.0, CURVE_T_JITTER)))
            for mode, law in (
                ("total", lib.lineage_pmf(ds.m, nominal)),
                ("singleton", lib.singleton_lineage_pmf(ds.m, nominal)),
            ):
                for y, p in law.items():
                    if p < CURVE_MIN_PROB:
                        continue
                    ops.extend(
                        Op(mode, (ds.m, m_prime, y, params))
                        for m_prime in range(1, CURVE_M_PRIME + 1)
                    )
                    ops.append(Op(f"gt-{mode}", (ds.m, 1, y, params)))
        rng.shuffle(ops)
        state.data["ops"] = ops
        return state

    def ops(self, state):
        return itertools.cycle(state.data["ops"])

    def run(self, state, op):
        lib = self.lib
        m, m_prime, y, params = op.params
        if op.label == "total":
            check_pmf(lib.predictive_lineage_pmf(lib.PredictiveQuery(m, m_prime, y, params)), op.label)
        elif op.label == "singleton":
            check_pmf(lib.predictive_singleton_pmf(lib.PredictiveQuery(m, m_prime, y, params)), op.label)
        elif op.label == "gt-total":
            check_probability(lib.gt_new_lineage_prob(m, y, params), op.label)
        else:
            check_probability(lib.gt_singleton_prob(m, y, params), op.label)


SIM_T = 0.34
SIM_REPLICATES = 1000
SIM_STARTS = (DATASET, "singletons")


class SimulateWorkload(Workload):
    """Each op calls ``run_replicates`` once per start, at the library's worker count.

    The starts are singh1976 and 146 singleton classes.  A replicate from
    the first costs about twice one from the second at this commit; one
    call of each per op keeps op latency unimodal whatever that ratio
    becomes, so its median stays in one mode.  The analytic law used by
    the check is computed after the timed phase.
    """

    name = "simulate"
    trace_ops = 4

    def setup(self, seed, in_process=False):
        state = super().setup(seed, in_process)
        ds = state.data["dataset"]
        state.data["starts"] = {
            DATASET: ds.partition,
            "singletons": self.lib.AllelicPartition.from_dict({1: ds.m}),
        }
        return state

    def ops(self, state):
        for i in itertools.count():
            # replicate streams are keyed (master seed, index): distinct per call and seed
            base = (state.seed << 24) + len(SIM_STARTS) * i
            yield Op("pair", tuple(base + k for k in range(len(SIM_STARTS))))

    def _replicate(self, state, start, master_seed, threads=None):
        reps = self.lib.run_replicates(
            state.data["starts"][start], state.data["theta"], SIM_T,
            SIM_REPLICATES, master_seed, threads=threads,
        )
        totals = np.array([r.d_total for r in reps])
        singles = np.array([r.d_singleton for r in reps])
        if len(totals) != SIM_REPLICATES:
            raise CheckFailed(f"{start}: {len(totals)} replicates returned, {SIM_REPLICATES} asked")
        if start == "singletons" and not np.array_equal(totals, singles):
            raise CheckFailed("an all-singleton start gave d_singleton != d_total")
        return totals, singles

    def run(self, state, op, threads=None):
        return [
            self._replicate(state, start, master_seed, threads)
            for start, master_seed in zip(SIM_STARTS, op.params)
        ]

    def check(self, state, done):
        m = state.data["dataset"].m
        law = self.lib.lineage_pmf(m, self.lib.ModelParams(state.data["theta"], SIM_T))
        check_pmf(law, "lineage_pmf")
        exact_mean = float(np.dot(np.arange(law.support_offset, law.support_offset + len(law.probs)), law.probs))
        failures = []
        for i, (op, record) in enumerate(done):
            if record is None:
                continue
            try:
                for start, (totals, _) in zip(SIM_STARTS, record):
                    check_replicate_mean(totals, exact_mean, start)
            except CheckFailed as exc:
                failures.append((i, str(exc)))
        return failures

    def extras(self, state, done, phase):
        """Child CPU of the ops, and serial cost and pool speed-up on the first op."""
        (op, pooled_record), pooled_s = done[0], phase["latencies"][0]
        start = time.perf_counter()
        serial_record = self.run(state, op, threads=1)
        serial_s = time.perf_counter() - start
        for name, pooled, serial in zip(SIM_STARTS, pooled_record, serial_record):
            if not all(np.array_equal(a, b) for a, b in zip(pooled, serial)):
                raise CheckFailed(f"{name}: replicates depend on the worker count")
        return {
            "simulate.children_cpu_s": phase["children_cpu_s"],
            "simulate.serial_us_per_replicate": 1e6 * serial_s / (len(SIM_STARTS) * SIM_REPLICATES),
            "simulate.pool_speedup": serial_s / pooled_s,
        }


WORKLOADS = {w.name: w for w in (CliWorkload, SweepWorkload, CurveWorkload, SimulateWorkload)}
