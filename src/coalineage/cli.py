"""Command-line surface for the ancestral-inference workflow.

Five commands cover the full pipeline: ``fit-theta`` estimates the
mutation parameter from an allele-count file, ``lineages`` tabulates the
surviving-ancestor law for a sample, ``predict`` tabulates it for an
enlarged sample given what the current one showed, ``simulate`` runs the
conditional block-counting process by Monte Carlo, and ``discover``
reports the discovery probabilities for one extra draw.

Reports go to stdout as JSON (one object) or as long-format csv/tsv
rows ``section,key,value`` ready for plotting tools; diagnostics go to
stderr.  Exit codes: 0 success, 2 usage error, 3 numerical-conditioning
failure, 4 malformed data file.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections import Counter

from .ancestral import ModelParams, lineage_pmf, tmrca_cdf
from .datasets import load_dataset
from .errors import DataFormatError, NumericalConditioningError
from .ewens import esf_log_prob, theta_mle
from .pmf import Pmf
from .posterior import (
    PredictiveQuery,
    _require_observed,
    gt_new_lineage_prob,
    gt_singleton_prob,
    predictive_lineage_pmf,
    predictive_singleton_pmf,
)
from .simulate import run_replicates

__all__ = ["build_parser", "main", "narrowest_interval95"]


def narrowest_interval95(counts: Counter) -> tuple[int, int]:
    """Shortest integer window holding at least 95% of the replicates.

    Ties go to the smaller left endpoint.  The mass gate uses integer
    cross-multiplication, so no replicate count can straddle it by float
    rounding.  Only windows inside the observed range are scanned: a
    minimal-width window cannot overhang it, because trimming an empty
    endpoint would give a shorter qualifying window.
    """
    if not counts:
        raise ValueError("no replicates to summarize")
    total = sum(counts.values())
    vmin, vmax = min(counts), max(counts)
    values = list(range(vmin, vmax + 1))
    prefix = [0]
    for v in values:
        prefix.append(prefix[-1] + counts.get(v, 0))
    for width in range(1, len(values) + 1):
        for i in range(len(values) - width + 1):
            inside = prefix[i + width] - prefix[i]
            if 20 * inside >= 19 * total:
                return values[i], values[i] + width - 1
    raise AssertionError("full observed range must qualify")


def _fmt(value) -> str:
    # repr round-trips floats exactly, so emitted pmf columns sum the
    # same after parsing as they do in memory
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _report_rows(report: dict):
    rows = [("run", "command", report["command"])]
    for section in ("params", "results"):
        for key, value in report.get(section, {}).items():
            rows.append((section, key, value))
    for key, pairs in report.items():
        if key in ("command", "params", "results"):
            continue
        for x, value in pairs:
            rows.append((key, x, value))
    return rows


def _emit(report: dict, fmt: str, out) -> None:
    if fmt == "json":
        json.dump(report, out, indent=2)
        out.write("\n")
        return
    writer = csv.writer(out, delimiter="," if fmt == "csv" else "\t", lineterminator="\n")
    writer.writerow(["section", "key", "value"])
    for section, key, value in _report_rows(report):
        writer.writerow([section, _fmt(key), _fmt(value)])


def _pmf_pairs(pmf: Pmf) -> list[list]:
    return [[x, p] for x, p in pmf.items()]


def cmd_fit_theta(args) -> dict:
    ds = load_dataset(args.data)
    config = ds.configuration
    theta_hat = theta_mle(config)
    report = {
        "command": "fit-theta",
        "params": {"data": str(args.data)},
        "results": {
            "theta_hat": theta_hat,
            "m": config.m,
            "k": config.k,
            "log_likelihood": esf_log_prob(config, theta_hat),
        },
    }
    if ds.name is not None:
        report["params"]["dataset"] = ds.name
    return report


def cmd_lineages(args) -> dict:
    params = ModelParams(theta=args.theta, t=args.t)
    try:
        pmf = lineage_pmf(args.m, params)
    except NumericalConditioningError as exc:
        # the same law is an exact projection of the block process, so
        # Monte Carlo stands in where the series loses its digits
        raise NumericalConditioningError(
            f"{exc}. Fall back to Monte Carlo: the simulate command started "
            f"from a file with {args.m} singleton classes draws from this "
            f"exact distribution.",
            min_reliable_t=exc.min_reliable_t,
            cancellation_ratio=exc.cancellation_ratio,
        ) from exc
    report = {
        "command": "lineages",
        "params": {"m": args.m, "theta": args.theta, "t": args.t},
        "results": {"mean": pmf.mean()},
        "pmf": _pmf_pairs(pmf),
    }
    if args.r is not None:
        report["params"]["r"] = args.r
        report["results"]["tmrca_cdf"] = tmrca_cdf(args.m, args.r, params)
    return report


def _discovery(mode: str, m: int, y: int, params: ModelParams):
    if mode == "total":
        return "gt_new_lineage_prob", gt_new_lineage_prob(m, y, params)
    return "gt_singleton_prob", gt_singleton_prob(m, y, params)


def cmd_predict(args) -> dict:
    params = ModelParams(theta=args.theta, t=args.t)
    query = PredictiveQuery(m=args.m, m_prime=args.m_prime, y=args.y, params=params)
    if args.mode == "total":
        pmf = predictive_lineage_pmf(query, method=args.method)
    else:
        pmf = predictive_singleton_pmf(query, method=args.method)
    report = {
        "command": "predict",
        "params": {
            "m": args.m,
            "m_prime": args.m_prime,
            "y": args.y,
            "theta": args.theta,
            "t": args.t,
            "mode": args.mode,
            "method": args.method,
        },
        "results": {"mean": pmf.mean()},
        "pmf": _pmf_pairs(pmf),
    }
    if args.m_prime == 1:
        # the one-extra-draw discovery probabilities live on this pmf;
        # surface them next to it (the discover command returns the same)
        if args.mode == "singleton" and args.method == "closed":
            # gt_singleton_prob(method="closed") is this law's mean
            _require_observed(args.m, args.y)
            key, value = "gt_singleton_prob", pmf.mean()
        else:
            key, value = _discovery(args.mode, args.m, args.y, params)
        report["results"][key] = value
    return report


def cmd_simulate(args) -> dict:
    ds = load_dataset(args.data)
    if args.replicates < 1:
        raise ValueError(f"--replicates must be >= 1, got {args.replicates}")
    if args.threads is not None and args.threads < 1:
        raise ValueError(f"--threads must be >= 1, got {args.threads}")
    if args.fit:
        theta = theta_mle(ds.configuration)
        theta_source = "fit"
    else:
        theta = args.theta
        theta_source = "flag"
    reps = run_replicates(
        ds.partition, theta, args.t, args.replicates, args.seed, threads=args.threads
    )
    totals = Counter(r.d_total for r in reps)
    singles = Counter(r.d_singleton for r in reps)
    lo_t, hi_t = narrowest_interval95(totals)
    lo_s, hi_s = narrowest_interval95(singles)
    n = len(reps)
    report = {
        "command": "simulate",
        # thread count deliberately absent: the report is a function of
        # (data, theta, t, replicates, seed) only
        "params": {
            "data": str(args.data),
            "m": ds.m,
            "k": ds.k,
            "theta": theta,
            "theta_source": theta_source,
            "t": args.t,
            "replicates": args.replicates,
            "seed": args.seed,
        },
        "results": {
            "d_total_mean": sum(r.d_total for r in reps) / n,
            "d_total_lo95": lo_t,
            "d_total_hi95": hi_t,
            "d_singleton_mean": sum(r.d_singleton for r in reps) / n,
            "d_singleton_lo95": lo_s,
            "d_singleton_hi95": hi_s,
        },
        "histogram_d_total": [[x, totals.get(x, 0)] for x in range(max(totals) + 1)],
        "histogram_d_singleton": [
            [x, singles.get(x, 0)] for x in range(max(singles) + 1)
        ],
    }
    if ds.name is not None:
        report["params"]["dataset"] = ds.name
    return report


def cmd_discover(args) -> dict:
    params = ModelParams(theta=args.theta, t=args.t)
    key, value = _discovery(args.mode, args.m, args.y, params)
    return {
        "command": "discover",
        "params": {
            "m": args.m,
            "y": args.y,
            "theta": args.theta,
            "t": args.t,
            "mode": args.mode,
        },
        "results": {key: value},
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coalineage",
        description="Ancestral lineage inference under the coalescent with mutation.",
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--format",
        choices=("json", "csv", "tsv"),
        default="json",
        help="output format: one JSON object, or section/key/value rows",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "fit-theta",
        parents=[shared],
        help="maximum-likelihood mutation parameter from an allele-count file",
    )
    p.add_argument("data", help="data file path or bundled dataset name")
    p.set_defaults(func=cmd_fit_theta)

    p = sub.add_parser(
        "lineages",
        parents=[shared],
        help="distribution of surviving ancestral lines of an m-sample at time t",
    )
    p.add_argument("--m", type=int, required=True, help="sample size")
    p.add_argument("--theta", type=float, required=True, help="mutation parameter")
    p.add_argument("--t", type=float, required=True, help="time horizon (2N_e units)")
    p.add_argument(
        "--r",
        type=int,
        default=None,
        help="also report P[sample coalesces to r or fewer non-mutant lines by t]",
    )
    p.set_defaults(func=cmd_lineages)

    p = sub.add_parser(
        "predict",
        parents=[shared],
        help="posterior predictive lineage distribution for an enlarged sample",
    )
    p.add_argument("--m", type=int, required=True, help="current sample size")
    p.add_argument(
        "--m-prime", type=int, required=True, dest="m_prime", help="additional draws"
    )
    p.add_argument("--y", type=int, required=True, help="observed count in the m-sample")
    p.add_argument("--theta", type=float, required=True, help="mutation parameter")
    p.add_argument("--t", type=float, required=True, help="time horizon (2N_e units)")
    p.add_argument(
        "--mode",
        choices=("total", "singleton"),
        default="total",
        help="which lineage count y reports and the pmf describes",
    )
    p.add_argument(
        "--method",
        choices=("mixture", "closed"),
        default="mixture",
        help="evaluation route (the two agree; closed is a cross-check)",
    )
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser(
        "simulate",
        parents=[shared],
        help="Monte Carlo replicates of the conditional block-counting process",
    )
    p.add_argument("data", help="data file path or bundled dataset name")
    theta_source = p.add_mutually_exclusive_group(required=True)
    theta_source.add_argument("--theta", type=float, help="mutation parameter")
    theta_source.add_argument(
        "--fit", action="store_true", help="fit the mutation parameter from the data"
    )
    p.add_argument("--t", type=float, required=True, help="time horizon (2N_e units)")
    p.add_argument("--replicates", type=int, default=10000, help="replicate count")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument(
        "--threads",
        type=int,
        default=None,
        help="accepted for compatibility (default: COALESCENT_THREADS or all cores); "
        "replicates run in this process, so it does not affect the report",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "discover",
        parents=[shared],
        help="discovery probabilities for one additional draw",
    )
    p.add_argument("--m", type=int, required=True, help="current sample size")
    p.add_argument("--y", type=int, required=True, help="observed count in the m-sample")
    p.add_argument("--theta", type=float, required=True, help="mutation parameter")
    p.add_argument("--t", type=float, required=True, help="time horizon (2N_e units)")
    p.add_argument(
        "--mode",
        choices=("total", "singleton"),
        default="total",
        help="total: the draw reveals a new surviving line; "
        "singleton: it lands on a single-descendant line",
    )
    p.set_defaults(func=cmd_discover)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.func(args)
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except NumericalConditioningError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(report, args.format, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
