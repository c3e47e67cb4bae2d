"""One benchmark run of one workload, in a fresh interpreter.

run.py starts this script once per measurement so that every lru_cache
starts cold.  The script imports the package and sets the workload up,
prints ``READY`` (run.py times set-up up to that line), runs ops in a
closed loop and prints one JSON line with what it measured:

* time-bounded (``--seconds``): the end-to-end run;
* fixed-count (``--fixed``): the workload's ``trace_ops`` ops, traced
  with ``--trace 1`` or untraced for the comparison; counters of two
  traced runs with one seed repeat exactly.

The host's speed drifts, so time-bounded and set-up-only runs also time
a fixed calibration kernel after set-up, and a time-bounded run of a
``scaled`` workload times it again between ops, at most every
CALIBRATION_EVERY_S.  Calibration time is not part of any op or of the
timed phase.

Usage: python3 perfbench/worker.py --workload W --seed N
       (--seconds S | --fixed | --setup-only) [--trace 1 [--spans-out FILE]]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import numpy as np

import tracing
from workloads import WORKLOADS

CALIBRATION_EVERY_S = 0.25
CALIBRATION_SAMPLES = 5


def calibrate() -> float:
    """Seconds a fixed kernel of interpreted loops and small numpy calls takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i % 7
    grid = np.linspace(0.1, 5.0, 256)
    for _ in range(300):
        total += float(np.exp(-grid).sum())
    return time.perf_counter() - start


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _versions() -> dict:
    out = {}
    for name in ("numpy", "scipy", "coalineage"):
        module = sys.modules.get(name)
        out[name] = getattr(module, "__version__", None) if module else None
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--fixed", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    workload.load()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        span = tracer.begin("setup")
    state = workload.setup(args.seed, in_process=args.fixed)
    if tracer:
        tracer.end(span)
    print("READY", flush=True)
    setup_calibration = [] if args.fixed else [calibrate() for _ in range(CALIBRATION_SAMPLES)]
    if args.setup_only:
        print(json.dumps({"setup_calibration_s": setup_calibration}))
        return 0

    count = workload.trace_ops if args.fixed else None
    done, latencies, failures, calibration = [], [], {}, []
    cpu0 = _children_cpu_s()
    start = last_calibration = time.perf_counter()
    deadline = start + args.seconds if args.seconds is not None else None
    for i, op in enumerate(workload.ops(state)):
        if (deadline is not None and workload.scaled
                and time.perf_counter() - last_calibration >= CALIBRATION_EVERY_S):
            calibration.append(calibrate())
            last_calibration = time.perf_counter()
        span = tracer.begin(f"op.{workload.name}") if tracer else None
        t0 = time.perf_counter()
        record = None
        try:
            record = workload.run(state, op)
        except Exception as exc:  # a failed or refused op is counted; the run goes on
            failures[i] = f"{op.label}: {exc!r}"
        latencies.append(time.perf_counter() - t0)
        if tracer:
            tracer.end(span)
        done.append((op, record))
        if count is not None:
            if len(done) >= count:
                break
        elif len(done) % workload.cycle == 0 and time.perf_counter() >= deadline:
            break
    elapsed = time.perf_counter() - start - sum(calibration)
    children_cpu_s = _children_cpu_s() - cpu0

    # summarise before the checks, whose reference calls are not part of the ops
    layers = tracer.summary() if tracer else {}
    for i, message in workload.check(state, done):
        failures.setdefault(i, message)
    extras = {}
    if args.fixed and not args.trace:
        try:
            extras = workload.extras(
                state, done, {"latencies": latencies, "children_cpu_s": children_cpu_s}
            )
        except Exception as exc:  # reported as a failed check of the run
            failures["extras"] = f"extras: {exc!r}"
    if tracer and args.spans_out:
        tracer.dump(args.spans_out)

    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    print(json.dumps({
        "attempted": len(done),
        "failed": len(failures),
        "failures": list(failures.values())[:5],
        "elapsed_s": elapsed,
        "latencies_s": latencies,
        "setup_calibration_s": setup_calibration,
        "calibration_s": setup_calibration + calibration if workload.scaled else [],
        "peak_rss_kb": rss_kb,
        "layers": layers,
        "absent": tracer.absent if tracer else [],
        "extras": extras,
        "versions": _versions(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
