"""End-to-end tests of the command-line surface.

Commands run in-process through main() so the suite exercises argument
parsing, exit codes, and the emitted bytes without subprocess overhead;
TestProcess runs the process entry, `python -m coalineage.cli`, against it.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import coalineage
from coalineage import posterior
from coalineage.ancestral import ModelParams, lineage_pmf, singleton_lineage_pmf, tmrca_cdf
from coalineage.cli import build_parser, main, narrowest_interval95

SINGH_SPECTRUM = {1: 10, 2: 3, 3: 7, 5: 2, 6: 2, 8: 1, 11: 1, 68: 1}


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *args):
    code, out, err = run_cli(capsys, *args)
    assert code == 0, err
    return json.loads(out)


def parse_rows(text, delimiter):
    lines = text.splitlines()
    assert lines[0].split(delimiter) == ["section", "key", "value"]
    return [line.split(delimiter) for line in lines[1:]]


class TestNarrowestInterval:
    def test_single_point(self):
        assert narrowest_interval95({7: 50}) == (7, 7)

    def test_width_one_wins(self):
        # 96 of 100 at one value clears the 95% gate alone
        assert narrowest_interval95({0: 2, 1: 96, 2: 2}) == (1, 1)

    def test_exact_boundary_counts(self):
        # 19 of 20 is exactly 95%; the gate admits it
        assert narrowest_interval95({0: 19, 1: 1}) == (0, 0)

    def test_tie_prefers_smaller_left_endpoint(self):
        # no single value reaches 95%, both width-2 windows hold 97
        assert narrowest_interval95({0: 3, 1: 94, 2: 3}) == (0, 1)

    def test_skewed_mass(self):
        # [0,3] holds 96 of 100; no width-3 window reaches 95
        counts = {0: 60, 1: 20, 2: 10, 3: 6, 4: 3, 5: 1}
        assert narrowest_interval95(counts) == (0, 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            narrowest_interval95({})


class TestFitTheta:
    def test_bundled_case_study(self, capsys):
        report = run_json(capsys, "fit-theta", "singh1976")
        res = report["results"]
        assert 9.4 < res["theta_hat"] < 9.6
        assert res["m"] == 146
        assert res["k"] == 27
        assert res["log_likelihood"] < 0.0
        assert "Singh" in report["params"]["dataset"]

    def test_counts_and_spectrum_forms_agree_exactly(self, capsys, tmp_path):
        counts = []
        for size, count in SINGH_SPECTRUM.items():
            counts.extend([size] * count)
        f_counts = tmp_path / "counts.json"
        f_counts.write_text(json.dumps({"counts": counts}))
        f_spectrum = tmp_path / "spectrum.json"
        f_spectrum.write_text(
            json.dumps({"spectrum": {str(k): v for k, v in SINGH_SPECTRUM.items()}})
        )
        a = run_json(capsys, "fit-theta", str(f_counts))
        b = run_json(capsys, "fit-theta", str(f_spectrum))
        assert a["results"]["theta_hat"] == b["results"]["theta_hat"]
        assert a["results"]["log_likelihood"] == b["results"]["log_likelihood"]

    def test_all_distinct_diverges(self, capsys, tmp_path):
        f = tmp_path / "one.json"
        f.write_text(json.dumps({"counts": [1]}))
        code, out, err = run_cli(capsys, "fit-theta", str(f))
        assert code == 3
        assert "diverges" in err

    def test_malformed_file_exit_4(self, capsys, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("not json at all")
        code, out, err = run_cli(capsys, "fit-theta", str(f))
        assert code == 4
        assert "bad.json" in err

    def test_unknown_bundled_name_exit_4(self, capsys):
        code, out, err = run_cli(capsys, "fit-theta", "no_such_dataset")
        assert code == 4
        assert "singh1976" in err  # error lists what is available


class TestLineages:
    def test_time_zero_point_mass(self, capsys):
        report = run_json(capsys, "lineages", "--m", "6", "--theta", "1.5", "--t", "0")
        pairs = dict(map(tuple, report["pmf"]))
        assert pairs[6] == 1.0
        assert math.isclose(sum(pairs.values()), 1.0, abs_tol=1e-12)
        assert report["results"]["mean"] == 6.0

    def test_emitted_pmf_sums_to_one(self, capsys):
        report = run_json(
            capsys, "lineages", "--m", "30", "--theta", "2", "--t", "0.7"
        )
        total = sum(p for _, p in report["pmf"])
        assert abs(total - 1.0) < 1e-8

    def test_case_study_mean(self, capsys):
        report = run_json(
            capsys, "lineages", "--m", "146", "--theta", "9.5", "--t", "0.34"
        )
        assert 2.2 < report["results"]["mean"] < 2.4

    def test_tmrca_matches_library(self, capsys):
        report = run_json(
            capsys, "lineages", "--m", "8", "--theta", "1", "--t", "0.9", "--r", "2"
        )
        expected = tmrca_cdf(8, 2, ModelParams(theta=1.0, t=0.9))
        assert report["results"]["tmrca_cdf"] == expected
        assert report["params"]["r"] == 2

    def test_ill_conditioned_advises_monte_carlo(self, capsys):
        code, out, err = run_cli(
            capsys, "lineages", "--m", "200", "--theta", "1", "--t", "0.005"
        )
        assert code == 3
        assert "simulate" in err

    def test_csv_and_tsv_round_trip(self, capsys):
        code, out, err = run_cli(
            capsys, "lineages", "--m", "12", "--theta", "1", "--t", "0.5",
            "--format", "csv",
        )
        assert code == 0
        rows = parse_rows(out, ",")
        pmf_rows = [r for r in rows if r[0] == "pmf"]
        assert len(pmf_rows) == 13
        assert abs(sum(float(r[2]) for r in pmf_rows) - 1.0) < 1e-8
        code, out_tsv, err = run_cli(
            capsys, "lineages", "--m", "12", "--theta", "1", "--t", "0.5",
            "--format", "tsv",
        )
        assert code == 0
        assert parse_rows(out_tsv, "\t") == rows

    def test_huge_time_leaves_no_lines(self, capsys):
        # at theta = 20 the decay exponent overflows to inf, the intended
        # -inf log term; numpy must not warn about it on stderr.  pytest
        # records warnings rather than printing them, so make them errors.
        for theta in ("0.5", "20"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run_cli(
                    capsys, "lineages", "--m", "5", "--theta", theta, "--t", "1e308"
                )
            assert (code, err) == (0, "")
            report = json.loads(out)
            pairs = dict(map(tuple, report["pmf"]))
            assert pairs[0] == 1.0
            assert report["results"]["mean"] == 0.0

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("theta", "inf", "theta must be finite"),
            ("t", "inf", "t must be finite"),
            # lgamma(theta) overflows above about 2.56e305
            ("theta", "1e308", "theta must be below"),
        ],
        ids=["theta", "t", "theta-lgamma-overflow"],
    )
    def test_infinite_parameter_is_usage_error(self, capsys, field, value, message):
        argv = {"--m": "5", "--theta": "0.5", "--t": "1"}
        argv[f"--{field}"] = value
        code, out, err = run_cli(capsys, "lineages", *(a for kv in argv.items() for a in kv))
        assert code == 2
        assert message in err
        assert "Traceback" not in err
        assert out == ""

    def test_missing_required_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["lineages", "--m", "5", "--theta", "1"])
        assert exc_info.value.code == 2
        capsys.readouterr()


class TestPredict:
    def test_no_extra_draws_total(self, capsys):
        report = run_json(
            capsys, "predict", "--m", "9", "--m-prime", "0", "--y", "3",
            "--theta", "2", "--t", "0.6",
        )
        assert report["pmf"] == [[3, 1.0]]

    def test_no_extra_draws_singleton(self, capsys):
        report = run_json(
            capsys, "predict", "--m", "9", "--m-prime", "0", "--y", "3",
            "--theta", "2", "--t", "0.6", "--mode", "singleton",
        )
        assert report["pmf"] == [[0, 1.0]]

    def test_good_turing_attached_only_for_one_draw(self, capsys):
        one = run_json(
            capsys, "predict", "--m", "10", "--m-prime", "1", "--y", "2",
            "--theta", "9.5", "--t", "0.34",
        )
        assert "gt_new_lineage_prob" in one["results"]
        two = run_json(
            capsys, "predict", "--m", "10", "--m-prime", "2", "--y", "2",
            "--theta", "9.5", "--t", "0.34",
        )
        assert "gt_new_lineage_prob" not in two["results"]
        single = run_json(
            capsys, "predict", "--m", "10", "--m-prime", "1", "--y", "2",
            "--theta", "9.5", "--t", "0.34", "--mode", "singleton",
        )
        assert "gt_singleton_prob" in single["results"]

    def test_case_study_concentration(self, capsys):
        # 50 extra genes after observing 2 surviving lines: the count
        # almost surely stays at 2 or 3, so larger samples buy little
        report = run_json(
            capsys, "predict", "--m", "146", "--m-prime", "50", "--y", "2",
            "--theta", "9.48", "--t", "0.34",
        )
        pairs = dict(map(tuple, report["pmf"]))
        assert pairs[2] + pairs[3] > 0.99
        assert abs(sum(pairs.values()) - 1.0) < 1e-8

    def test_methods_agree(self, capsys):
        base = ("--m", "7", "--y", "2", "--theta", "1.5", "--t", "0.6",
                "--m-prime", "3")
        for mode in ("total", "singleton"):
            mix = run_json(capsys, "predict", *base, "--mode", mode)
            closed = run_json(
                capsys, "predict", *base, "--mode", mode, "--method", "closed"
            )
            a = dict(map(tuple, mix["pmf"]))
            b = dict(map(tuple, closed["pmf"]))
            assert set(a) == set(b)
            assert all(abs(a[x] - b[x]) < 1e-9 for x in a)

    def test_infeasible_y_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "predict", "--m", "5", "--m-prime", "2", "--y", "9",
            "--theta", "1", "--t", "0.5",
        )
        assert code == 2
        assert "y must be in" in err

    def test_negligible_conditioning_exit_3(self, capsys):
        # six lines surviving to t = 5 has mass far below the floor
        code, out, err = run_cli(
            capsys, "predict", "--m", "6", "--m-prime", "2", "--y", "6",
            "--theta", "1", "--t", "5",
        )
        assert code == 3
        assert "negligible" in err

    def test_huge_theta_exits_cleanly(self, capsys):
        # the population law's start must not allocate ceil(theta) rows
        code, out, err = run_cli(
            capsys, "predict", "--m", "146", "--m-prime", "1", "--y", "2",
            "--theta", "1e12", "--t", "0.34",
        )
        assert code in (0, 2, 3), err

    def test_closed_singleton_past_int64_binomials_exit_3(self, capsys):
        code, out, err = run_cli(
            capsys, "predict", "--m", "80", "--m-prime", "1", "--y", "70",
            "--theta", "1000", "--t", "1", "--mode", "singleton", "--method", "closed",
        )
        assert code == 3
        assert "negligible" in err

    @pytest.mark.parametrize("mode", ["total", "singleton"])
    @pytest.mark.parametrize("method", ["mixture", "closed"])
    def test_one_draw_without_observation_is_usage_error(self, capsys, mode, method):
        # the discovery probabilities need an observed sample, m >= 1
        code, out, err = run_cli(
            capsys, "predict", "--m", "0", "--m-prime", "1", "--y", "0",
            "--theta", "1", "--t", "1", "--mode", mode, "--method", method,
        )
        assert code == 2
        assert "m must be >= 1" in err

    @pytest.mark.parametrize("y", [0, 2])
    def test_closed_singleton_discovery_reuses_the_law(self, capsys, monkeypatch, y):
        calls = []
        kernel = posterior._singleton_closed_entries

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(posterior, "_singleton_closed_entries", counted)
        report = run_json(
            capsys, "predict", "--m", "10", "--m-prime", "1", "--y", str(y),
            "--theta", "9.5", "--t", "0.34", "--mode", "singleton", "--method", "closed",
        )
        assert len(calls) == 1
        expected = posterior.gt_singleton_prob(10, y, ModelParams(9.5, 0.34), method="closed")
        assert report["results"]["gt_singleton_prob"] == expected

    def test_json_schema_keys(self, capsys):
        report = run_json(
            capsys, "predict", "--m", "6", "--m-prime", "2", "--y", "1",
            "--theta", "1", "--t", "0.5",
        )
        assert report["command"] == "predict"
        assert set(report["params"]) == {
            "m", "m_prime", "y", "theta", "t", "mode", "method"
        }
        assert all(
            isinstance(x, int) and isinstance(p, float) for x, p in report["pmf"]
        )


class TestSimulate:
    def test_case_study_frozen_summary(self, capsys):
        report = run_json(
            capsys, "simulate", "singh1976", "--theta", "9.5", "--t", "0.34",
            "--replicates", "1500", "--seed", "0",
        )
        res = report["results"]
        assert (res["d_total_lo95"], res["d_total_hi95"]) == (0, 4)
        assert (res["d_singleton_lo95"], res["d_singleton_hi95"]) == (0, 3)
        assert 2.0 < res["d_total_mean"] < 2.6
        assert 1.3 < res["d_singleton_mean"] < 1.8
        assert sum(c for _, c in report["histogram_d_total"]) == 1500
        assert sum(c for _, c in report["histogram_d_singleton"]) == 1500
        assert report["params"]["theta_source"] == "flag"
        assert "threads" not in report["params"]

    def test_identical_seed_identical_bytes(self, capsys):
        args = ("simulate", "singh1976", "--theta", "9.5", "--t", "0.34",
                "--replicates", "120", "--seed", "11")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second
        _, csv_first, _ = run_cli(capsys, *args, "--format", "csv")
        _, csv_second, _ = run_cli(capsys, *args, "--format", "csv")
        assert csv_first == csv_second

    def test_thread_count_does_not_change_report(self, capsys):
        # --threads is accepted and checked, but starts no process
        args = ("simulate", "singh1976", "--theta", "9.5", "--t", "0.34",
                "--replicates", "300", "--seed", "5")
        _, serial, _ = run_cli(capsys, *args, "--threads", "1")
        _, pooled, _ = run_cli(capsys, *args, "--threads", "3")
        assert serial == pooled

    def test_different_seeds_differ(self, capsys):
        base = ("simulate", "singh1976", "--theta", "9.5", "--t", "0.34",
                "--replicates", "200")
        _, a, _ = run_cli(capsys, *base, "--seed", "1")
        _, b, _ = run_cli(capsys, *base, "--seed", "2")
        assert a != b

    def test_fitted_theta_source(self, capsys):
        report = run_json(
            capsys, "simulate", "singh1976", "--fit", "--t", "0.34",
            "--replicates", "60", "--seed", "0",
        )
        assert report["params"]["theta_source"] == "fit"
        assert 9.4 < report["params"]["theta"] < 9.6

    def test_zero_replicates_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "singh1976", "--theta", "9.5", "--t", "0.34",
            "--replicates", "0",
        )
        assert code == 2
        assert "replicates" in err

    def test_bad_thread_count_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "singh1976", "--theta", "9.5", "--t", "0.34",
            "--threads", "0",
        )
        assert code == 2

    def test_non_integer_thread_variable_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("COALESCENT_THREADS", "two")
        code, out, err = run_cli(
            capsys, "simulate", "singh1976", "--theta", "9.5", "--t", "0.34",
            "--replicates", "10",
        )
        assert code == 2
        assert "COALESCENT_THREADS" in err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("theta", "inf", "theta must be finite"),
            ("t", "inf", "t must be finite"),
            ("theta", "1e308", "theta must be below"),
        ],
        ids=["theta", "t", "theta-lgamma-overflow"],
    )
    def test_non_finite_parameter_is_usage_error(self, capsys, field, value, message):
        # the same parameter checks as lineages, predict and discover
        argv = {"--theta": "0.5", "--t": "0.5"}
        argv[f"--{field}"] = value
        code, out, err = run_cli(
            capsys, "simulate", "singh1976", *(a for kv in argv.items() for a in kv)
        )
        assert code == 2
        assert message in err
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("theta", ["1e-300", "5e-324"])
    def test_tiny_theta_coalesces_to_one_line(self, capsys, theta):
        code, out, err = run_cli(
            capsys, "simulate", "singh1976", "--theta", theta, "--t", "50",
            "--replicates", "10",
        )
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["results"]["d_total_mean"] == 1.0
        assert report["histogram_d_total"] == [[0, 0], [1, 10]]

    def test_theta_and_fit_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["simulate", "singh1976", "--theta", "9.5", "--fit", "--t", "0.34"])
        assert exc_info.value.code == 2
        capsys.readouterr()

    def test_malformed_file_exit_4(self, capsys, tmp_path):
        f = tmp_path / "junk.json"
        f.write_text(json.dumps({"counts": []}))
        code, out, err = run_cli(
            capsys, "simulate", str(f), "--theta", "9.5", "--t", "0.34"
        )
        assert code == 4


class TestDiscover:
    def test_matches_one_draw_predict(self, capsys):
        shared = ("--m", "12", "--y", "3", "--theta", "9.5", "--t", "0.34")
        disc = run_json(capsys, "discover", *shared)
        pred = run_json(capsys, "predict", *shared, "--m-prime", "1")
        g = disc["results"]["gt_new_lineage_prob"]
        assert g == pred["results"]["gt_new_lineage_prob"]
        mass_above = dict(map(tuple, pred["pmf"])).get(4, 0.0)
        assert abs(g - mass_above) < 1e-10

    def test_singleton_matches_one_draw_mean(self, capsys):
        shared = ("--m", "12", "--y", "3", "--theta", "9.5", "--t", "0.34")
        disc = run_json(capsys, "discover", *shared, "--mode", "singleton")
        pred = run_json(
            capsys, "predict", *shared, "--m-prime", "1", "--mode", "singleton"
        )
        g = disc["results"]["gt_singleton_prob"]
        assert g == pred["results"]["gt_singleton_prob"]
        assert abs(g - pred["results"]["mean"]) < 1e-8

    def test_no_singletons_nothing_to_hit(self, capsys):
        report = run_json(
            capsys, "discover", "--m", "10", "--y", "0", "--theta", "2",
            "--t", "0.5", "--mode", "singleton",
        )
        assert report["results"]["gt_singleton_prob"] == 0.0

    def test_probability_on_parameter_grid(self, capsys):
        # y values are drawn from the matching marginal so every point
        # conditions on an event with real mass
        points = 0
        for m in (2, 5, 10, 20, 50):
            for theta in (0.5, 9.5):
                for t in (0.34, 1.0):
                    params = ModelParams(theta=theta, t=t)
                    for mode, law in (
                        ("total", lineage_pmf(m, params)),
                        ("singleton", singleton_lineage_pmf(m, params)),
                    ):
                        ys = [y for y in law.support if law.prob(y) > 1e-9]
                        for y in ys[:3]:
                            report = run_json(
                                capsys, "discover", "--m", str(m), "--y", str(y),
                                "--theta", str(theta), "--t", str(t),
                                "--mode", mode,
                            )
                            (value,) = report["results"].values()
                            assert 0.0 <= value <= 1.0
                            points += 1
        assert points >= 100


SRC = Path(__file__).resolve().parents[1] / "src"


def _python(*args, cwd=None) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports the package from this checkout."""
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, timeout=120, cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )


def _loaded_after_import(module: str, modules: tuple[str, ...]) -> list[str]:
    """Which of modules a fresh interpreter holds after importing module."""
    proc = _python("-c", f"import sys, {module}; print(*[m for m in {modules!r} if m in sys.modules])")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_parser_offers_exactly_the_public_commands():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == ["fit-theta", "lineages", "predict", "simulate", "discover"]


def test_oracle_is_not_a_command(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["oracle", "--statistic", "R"])
    assert exc_info.value.code == 2
    assert "invalid choice: 'oracle'" in capsys.readouterr().err


def test_cli_import_leaves_scipy_out():
    assert _loaded_after_import("coalineage.cli", ("scipy",)) == []


def test_cli_import_leaves_process_pool_out():
    # the simulator runs every replicate in this process and imports no pool
    assert _loaded_after_import("coalineage.cli", ("multiprocessing", "concurrent.futures.process")) == []


def test_cli_import_leaves_oracle_and_row_writer_out():
    # the exact urn oracle loads on first use, and csv with a csv or tsv report
    modules = ("coalineage.enumeration", "fractions", "decimal", "csv")
    assert _loaded_after_import("coalineage.cli", modules) == []


# the modules whose functions perfbench/tracing.py wraps, found in sys.modules
# right after `import coalineage`: none of them may load lazily
TRACED_MODULES = tuple(
    f"coalineage.{name}"
    for name in ("ancestral", "posterior", "numerics", "datasets", "ewens", "simulate", "pmf", "errors")
)


def test_package_import_loads_every_traced_module():
    assert _loaded_after_import("coalineage", TRACED_MODULES) == list(TRACED_MODULES)


def test_every_public_name_resolves_lazily_loaded_or_not():
    probe = (
        "import json, sys, coalineage\n"
        "lazy = 'coalineage.enumeration' not in sys.modules\n"
        "names = {}\n"
        "exec('from coalineage import *', names)\n"
        "print(json.dumps([lazy, sorted(n for n in coalineage.__all__\n"
        "    if n not in names or names[n] is not getattr(coalineage, n))]))"
    )
    proc = _python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [True, []]
    assert coalineage.oracle_pmf_exact is coalineage.enumeration.oracle_pmf_exact
    with pytest.raises(AttributeError, match="no_such_name"):
        coalineage.no_such_name


# README commands; simulate runs fewer replicates than the README's 10000
README_COMMANDS = [
    ["fit-theta", "singh1976"],
    ["lineages", "--m", "6", "--theta", "1.0", "--t", "0.5"],
    ["lineages", "--m", "146", "--theta", "9.5", "--t", "0.34", "--r", "5"],
    ["predict", "--m", "146", "--m-prime", "50", "--y", "2", "--theta", "9.48", "--t", "0.34"],
    ["predict", "--m", "7", "--m-prime", "3", "--y", "2", "--theta", "1.5", "--t", "0.6",
     "--mode", "singleton", "--method", "closed"],
    ["simulate", "singh1976", "--theta", "9.5", "--t", "0.34", "--replicates", "200", "--seed", "0"],
    ["discover", "--m", "146", "--y", "2", "--theta", "9.5", "--t", "0.34", "--mode", "total"],
    ["discover", "--m", "146", "--y", "2", "--theta", "9.5", "--t", "0.34", "--mode", "singleton"],
]
PROCESS_COMMANDS = README_COMMANDS + [
    README_COMMANDS[1] + ["--format", "csv"],
    README_COMMANDS[4] + ["--format", "tsv"],
]
FAILING_COMMANDS = {
    "usage": (["lineages", "--m", "5", "--theta", "1"], 2),
    "refused": (["lineages", "--m", "200", "--theta", "1", "--t", "0.005"], 3),
    "malformed": (["fit-theta", "bad.json"], 4),
}


@pytest.fixture(scope="module")
def processes(tmp_path_factory):
    """(cwd, argv -> completed process) for every command TestProcess runs, each
    as `python -m coalineage.cli` in cwd, two at a time to halve the wait."""
    cwd = tmp_path_factory.mktemp("cli")
    (cwd / "bad.json").write_text("not json at all")
    argvs = PROCESS_COMMANDS + [argv for argv, _ in FAILING_COMMANDS.values()]
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = list(pool.map(lambda argv: _python("-m", "coalineage.cli", *argv, cwd=cwd), argvs))
    return cwd, dict(zip(map(tuple, argvs), runs))


class TestProcess:
    """`python -m coalineage.cli` as its own process, which exits without
    interpreter teardown: the same bytes and exit codes as main() in-process."""

    @pytest.mark.parametrize("argv", PROCESS_COMMANDS, ids=" ".join)
    def test_report_matches_in_process_main(self, capsys, processes, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        proc = processes[1][tuple(argv)]
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")

    @pytest.mark.parametrize("case", FAILING_COMMANDS)
    def test_failure_exit_code_and_message(self, capsys, monkeypatch, processes, case):
        (argv, code), (cwd, runs) = FAILING_COMMANDS[case], processes
        monkeypatch.chdir(cwd)
        try:
            got = main(argv)
        except SystemExit as exc:
            got = exc.code
        captured = capsys.readouterr()
        assert got == code and captured.err
        proc = runs[tuple(argv)]
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)

    def test_failed_flush_is_reported_as_without_the_fast_exit(self):
        # the report sits in stdout's buffer when the flush fails: the normal
        # exit path flushes again at teardown, reports the error and exits 120
        probe = (
            "import io, sys\n"
            "class Full(io.RawIOBase):\n"
            "    def writable(self): return True\n"
            "    def write(self, b): raise OSError(28, 'No space left on device')\n"
            "sys.stdout = io.TextIOWrapper(io.BufferedWriter(Full()), encoding='utf-8')\n"
            "from coalineage.cli import process_main\n"
            "sys.exit(process_main(['fit-theta', 'singh1976']))"
        )
        proc = _python("-c", probe)
        assert proc.returncode == 120
        assert "OSError: [Errno 28] No space left on device" in proc.stderr
