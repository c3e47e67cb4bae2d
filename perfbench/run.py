"""coalineage benchmark: one workload per call, or all of them.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --out results.json

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the last stdout line holds every end-to-end
metric of BENCHMARK.json, with ``--trace 1`` every per-layer metric.
Lines before it describe the run (machine, versions, seed, failures).
See perfbench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli", "sweep", "curve", "simulate")
# set-up is timed in this many fresh interpreters per run; the median is reported
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150
SPANS_DIR = HERE / "out"
# median time of worker.calibrate() on the baseline machine (2-vCPU VM,
# Python 3.11, numpy 2.4); end-to-end times are scaled to that speed
REFERENCE_CALIBRATION_S = 0.005


class BenchError(Exception):
    """The benchmark could not measure (no source tree, a worker crashed)."""


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _start(cmd: list[str]) -> tuple[subprocess.Popen, threading.Timer]:
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    return proc, watchdog


def _finish(proc: subprocess.Popen, watchdog: threading.Timer) -> str:
    try:
        out = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"{proc.args[1:4]} exited with code {proc.returncode}")
    return out


def run_worker(workload: str, seed: int, *mode: str) -> tuple[float, dict | None]:
    """Start a fresh worker; return (seconds until it was set up, its result line)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), *mode]
    t0 = time.perf_counter()
    proc, watchdog = _start(cmd)
    try:
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        if line.strip() != "READY":
            raise BenchError(f"{workload} worker did not get ready: {line.strip()[:200]!r}")
    except BaseException:
        proc.kill()
        _finish(proc, watchdog)
        raise
    out = _finish(proc, watchdog).strip()
    return ready_s, (json.loads(out.splitlines()[-1]) if out else None)


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import time of numpy, scipy and coalineage, from -X importtime.

    A library's time is the cumulative time of its outermost modules, those
    not imported from inside the same library.
    """
    entries = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        field = parts[2][1:]
        depth = (len(field) - len(field.lstrip(" "))) // 2
        entries.append((depth, field.strip().split(".")[0], int(parts[1])))
    totals = {"numpy": 0, "scipy": 0, "coalineage": 0}
    # importtime prints children before their parent; walk parents first
    stack: list[tuple[int, str]] = []
    for depth, root, cumulative_us in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if root in totals and all(r != root for _, r in stack):
            totals[root] += cumulative_us
        stack.append((depth, root))
    return {f"import.{lib}_ms": us / 1000.0 for lib, us in totals.items()}


def import_times(workload: str) -> dict[str, float]:
    module = "coalineage.cli" if workload == "cli" else "coalineage"
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", f"import {module}"],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"import {module} failed: {proc.stderr.strip()[-300:]}")
    return parse_importtime(proc.stderr)


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def slowdown(calibration: list[float]) -> float:
    """How much slower than the reference the host ran the calibration kernel."""
    return statistics.median(calibration) / REFERENCE_CALIBRATION_S


def end_to_end(result: dict, setups: list[tuple[float, float]], factor: float = 1.0) -> dict[str, float]:
    """End-to-end figures; op times divided by factor, each set-up by its own."""
    latencies = result["latencies_s"]
    ok = result["attempted"] - result["failed"]
    return {
        "setup_s": statistics.median(ready_s / s for ready_s, s in setups),
        "ops_per_s": factor * ok / result["elapsed_s"],
        "op_p50_ms": 1000.0 * statistics.median(latencies) / factor,
        "op_p90_ms": 1000.0 * _p90(latencies) / factor,
        "correct_frac": ok / result["attempted"],
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: end-to-end figures, or per-layer ones when traced."""
    if not trace:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            ready_s, probe = run_worker(workload, seed, "--setup-only")
            setups.append((ready_s, slowdown(probe["setup_calibration_s"])))
        ready_s, result = run_worker(workload, seed, "--seconds", str(seconds))
        setups.append((ready_s, slowdown(result["setup_calibration_s"])))
        factor = slowdown(result["calibration_s"]) if result["calibration_s"] else 1.0
        return {
            "attempted": result["attempted"],
            "failed": result["failed"],
            "failures": result["failures"],
            "samples": len(result["latencies_s"]),
            "slowdown": factor,
            "wall": end_to_end(result, [(r, 1.0) for r, _ in setups]),
            "versions": result["versions"],
            "values": end_to_end(result, setups, factor),
            "absent": [],
        }
    SPANS_DIR.mkdir(exist_ok=True)
    spans = SPANS_DIR / f"spans-{workload}-seed{seed}.json"
    layers = import_times(workload)
    _, traced = run_worker(workload, seed, "--fixed", "--trace", "1", "--spans-out", str(spans))
    _, plain = run_worker(workload, seed, "--fixed")
    layers.update(traced["layers"])
    layers.update(plain["extras"])
    layers["trace.overhead_frac"] = traced["elapsed_s"] / plain["elapsed_s"] - 1.0
    return {
        "attempted": traced["attempted"] + plain["attempted"],
        "failed": traced["failed"] + plain["failed"],
        "failures": traced["failures"] + plain["failures"],
        "samples": traced["attempted"],
        "versions": traced["versions"],
        "values": layers,
        "absent": traced["absent"],
        "spans_file": str(spans.relative_to(ROOT)),
    }


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def machine() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _commit(),
    }


def metric_block(spec: list[dict], values: dict) -> tuple[dict, list[str]]:
    """Every metric named in spec with its unit; those with no value read 0."""
    block, missing = {}, []
    for m in spec:
        if m["name"] not in values:
            missing.append(m["name"])
        block[m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}
    return block, missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="coalineage benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed phase per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write a results file here")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "coalineage" / "__init__.py").is_file():
        print(f"error: no coalineage source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    why = {w["name"]: w["why"] for w in bench["workloads"]}

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (False, True) if args.workload == "all" else (bool(args.trace),)
    meta = {**machine(), "seed": args.seed, "run_seconds": seconds}
    results, runs = {}, []
    try:
        for name in names:
            results[name] = {"why": why.get(name)}
            for trace in traces:
                run = measure(name, args.seed, seconds, trace)
                spec = bench["per_layer" if trace else "end_to_end"]
                run["metrics"], missing = metric_block(spec, run.pop("values"))
                run["absent"] = sorted(set(run["absent"]) | set(missing))
                # versions of numpy, scipy and coalineage as the worker imported them
                meta.update(run.pop("versions"))
                kind = "trace" if trace else "timed"
                results[name][kind] = run
                runs.append((name, kind, run))
                print(json.dumps({"workload": name, "trace": int(trace), **{
                    k: run[k] for k in ("attempted", "failed", "failures", "samples", "absent",
                                        "slowdown", "wall") if k in run}}))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(json.dumps({"meta": meta, "why": {n: why.get(n) for n in names}}))
    if args.out:
        Path(args.out).write_text(json.dumps({"meta": meta, "workloads": results}, indent=1) + "\n")
    if len(runs) == 1:
        metrics = runs[0][2]["metrics"]
    else:
        metrics = {f"{name}.{kind}.{m}": v for name, kind, run in runs for m, v in run["metrics"].items()}
        for name, kind, run in runs:
            if kind == "timed":
                for m, v in run["metrics"].items():
                    print(f"{name:9s} {m:14s} {v['value']:14.6g} {v['unit']}")
    attempted = sum(run["attempted"] for _, _, run in runs)
    failed = sum(run["failed"] for _, _, run in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
