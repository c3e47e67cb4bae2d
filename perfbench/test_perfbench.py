"""Self-tests of the benchmark.

Run from the repository root:  python3 -m pytest perfbench -q
They take about two minutes: several start fresh worker interpreters.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import re
import shutil
import statistics
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
COUNTERS = (".calls", ".terms", ".cache_hits", ".cache_misses", ".refusals")
SEEDS = (0, 1)  # the default seed and one spare


def _workload(name: str, seed: int):
    workload = workloads.WORKLOADS[name]()
    workload.load()
    return workload, workload.setup(seed, in_process=True)


def _worker(name: str, seed: int, *mode: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(seed), *mode],
        cwd=ROOT, env=run._env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generation_is_deterministic_per_seed(name):
    def first(seed):
        workload, state = _workload(name, seed)
        return list(itertools.islice(workload.ops(state), 40))

    assert first(0) == first(0)
    assert first(0) != first(1)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_fixed_run_refuses_nothing(name, seed):
    result = _worker(name, seed, "--fixed")
    assert result["attempted"] == workloads.WORKLOADS[name].trace_ops
    assert result["failed"] == 0, result["failures"]


def test_sweep_box_corners_refuse_nothing():
    workload, state = _workload("sweep", 0)
    for m, theta, t in itertools.product(workloads.SWEEP_M, workloads.SWEEP_THETA, workloads.SWEEP_T):
        workload.run(state, workloads.Op(f"m{m}", (m, theta, t)))


@pytest.mark.parametrize("seed", SEEDS)
def test_every_curve_end_refuses_nothing(seed):
    # every (t, y) pair of the seed, at both ends of the m' range
    workload, state = _workload("curve", seed)
    ends = [op for op in state.data["ops"] if op.params[1] in (1, workloads.CURVE_M_PRIME)]
    assert len({(op.params[2], op.params[3]) for op in ends}) >= 10
    for op in ends:
        workload.run(state, op)


def test_metric_names_are_well_formed_and_unique():
    names = [w["name"] for w in BENCH["workloads"]]
    names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(set(names)) == len(names)


def test_benchmark_file_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    fake = {"latencies_s": [0.1, 0.2], "attempted": 2, "failed": 0, "elapsed_s": 0.3, "peak_rss_kb": 1}
    assert sorted(run.end_to_end(fake, [(1.0, 1.0)])) == sorted(m["name"] for m in BENCH["end_to_end"])


def test_times_are_scaled_by_the_slowdown():
    fake = {"latencies_s": [0.1, 0.2, 0.4], "attempted": 3, "failed": 0, "elapsed_s": 0.8, "peak_rss_kb": 1}
    wall = run.end_to_end(fake, [(1.0, 1.0), (3.0, 1.0)])
    scaled = run.end_to_end(fake, [(1.0, 2.0), (3.0, 1.5)], factor=2.0)
    assert scaled["op_p50_ms"] == wall["op_p50_ms"] / 2 and scaled["op_p90_ms"] == wall["op_p90_ms"] / 2
    assert scaled["ops_per_s"] == 2 * wall["ops_per_s"]
    assert scaled["setup_s"] == statistics.median([0.5, 2.0])


def test_baseline_measures_every_per_layer_metric_somewhere():
    baseline = json.loads((HERE / "baseline.json").read_text())
    measured = set()
    for result in baseline["workloads"].values():
        measured |= set(result["trace"]["metrics"]) - set(result["trace"]["absent"])
    assert {m["name"] for m in BENCH["per_layer"]} <= measured


def _law():
    import coalineage

    return coalineage.lineage_pmf(20, coalineage.ModelParams(theta=2.0, t=0.5))


def test_checker_accepts_a_law():
    checks.check_pmf(_law())


@pytest.mark.parametrize("perturb", [lambda p: p + 1e-3, lambda p: -p])
def test_checker_rejects_a_pmf_with_one_perturbed_entry(perturb):
    law = _law()
    probs = np.array(law.probs, dtype=float)
    i = int(np.argmax(probs))
    probs[i] = perturb(probs[i])
    bad = types.SimpleNamespace(support_offset=law.support_offset, probs=probs, mass_defect=law.mass_defect)
    with pytest.raises(checks.CheckFailed):
        checks.check_pmf(bad)


def test_checker_rejects_a_cli_report_with_one_altered_float():
    import coalineage.cli

    report = workloads._cli_in_process(coalineage.cli, workloads.CLI_COMMANDS["lineages"])
    checks.check_cli_report(copy.deepcopy(report), report, "lineages")
    for section, path in (("pmf", (3, 1)), ("results", ("mean",))):
        altered = copy.deepcopy(report)
        holder = altered[section]
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = math.nextafter(holder[path[-1]], 1.0)
        with pytest.raises(checks.CheckFailed):
            checks.check_cli_report(altered, report, "lineages")


@pytest.mark.parametrize("name", ["sweep", "curve", "cli"])
def test_traced_counters_repeat_exactly(name):
    first, second = (_worker(name, 0, "--fixed", "--trace", "1")["layers"] for _ in range(2))
    counters = {k: v for k, v in first.items() if k.endswith(COUNTERS)}
    assert counters and counters == {k: second[k] for k in counters}


def test_import_time_counts_each_library_at_its_outermost_modules():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        50 |        150 |   numpy",
        "import time:        10 |         10 |     scipy._lib",
        "import time:        20 |         30 |   scipy",
        "import time:        40 |         40 |   scipy.special",
        "import time:         5 |        225 | coalineage",
    ])
    assert run.parse_importtime(stderr) == {
        "import.numpy_ms": 0.15, "import.scipy_ms": 0.07, "import.coalineage_ms": 0.225,
    }


def test_run_refuses_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
