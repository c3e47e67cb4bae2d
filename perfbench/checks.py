"""Correctness checks applied to every benchmark op.

The checks read only public attributes of what the program returns
(``Pmf.support_offset``, ``Pmf.probs``, ``Pmf.mass_defect``, the CLI's
JSON report), so they keep working when the program's internals change.
Each check raises CheckFailed; the op that triggered it counts as failed.
"""

from __future__ import annotations

import math

import numpy as np

MASS_BUDGET = 1e-6
DUAL_ROUTE_TV = 1e-8
THETA_HAT_SINGH1976 = 9.481630475931075
THETA_RTOL = 1e-9
MC_STANDARD_ERRORS = 4.0


class CheckFailed(Exception):
    """An op returned a result that violates the benchmark's contract."""


def check_pmf(pmf, what: str = "pmf") -> None:
    """A law within the mass budget with no negative or non-finite entry.

    The mass is recomputed from the entries rather than trusted from
    ``mass_defect``, so a single corrupted entry is caught.
    """
    probs = np.asarray(pmf.probs, dtype=float)
    if probs.size == 0 or not np.all(np.isfinite(probs)):
        raise CheckFailed(f"{what}: empty or non-finite entries")
    if float(probs.min()) < 0.0:
        raise CheckFailed(f"{what}: negative entry {float(probs.min()):.3e}")
    if not pmf.mass_defect <= MASS_BUDGET:
        raise CheckFailed(f"{what}: mass_defect {pmf.mass_defect:.3e} > {MASS_BUDGET:.0e}")
    defect = abs(1.0 - math.fsum(probs.tolist()))
    if defect > MASS_BUDGET:
        raise CheckFailed(f"{what}: entries sum to 1 - {defect:.3e}")


def check_probability(value: float, what: str) -> None:
    if not 0.0 <= float(value) <= 1.0:
        raise CheckFailed(f"{what}: {value!r} is not a probability")


def tv_distance(a, b) -> float:
    """Total variation distance between two Pmf-like laws."""
    lo = min(a.support_offset, b.support_offset)
    hi = max(a.support_offset + len(a.probs), b.support_offset + len(b.probs))
    pa = np.zeros(hi - lo)
    pb = np.zeros(hi - lo)
    pa[a.support_offset - lo : a.support_offset - lo + len(a.probs)] = a.probs
    pb[b.support_offset - lo : b.support_offset - lo + len(b.probs)] = b.probs
    return 0.5 * float(np.abs(pa - pb).sum())


def check_dual_route(mixture, closed, what: str) -> None:
    tv = tv_distance(mixture, closed)
    if not tv <= DUAL_ROUTE_TV:
        raise CheckFailed(f"{what}: mixture and closed routes differ by TV {tv:.3e}")


def check_theta_hat(theta_hat: float) -> None:
    if not math.isclose(theta_hat, THETA_HAT_SINGH1976, rel_tol=THETA_RTOL, abs_tol=0.0):
        raise CheckFailed(
            f"theta_mle(singh1976) = {theta_hat!r}, expected {THETA_HAT_SINGH1976!r}"
        )


def check_cli_report(got: dict, expected: dict, what: str) -> None:
    """The subprocess report equals the in-process one, exactly.

    Floats are written with repr, so parsing both reports gives
    bit-identical values whenever the computations agree.
    """
    for key in ("results", "pmf"):
        if got.get(key) != expected.get(key):
            raise CheckFailed(f"{what}: report section {key!r} differs from the in-process call")


def check_replicate_mean(totals: np.ndarray, exact_mean: float, what: str) -> None:
    """The Monte Carlo mean lies within 4 standard errors of the exact mean."""
    n = len(totals)
    se = float(np.std(totals, ddof=1)) / math.sqrt(n) if n > 1 else math.inf
    gap = abs(float(np.mean(totals)) - exact_mean)
    if not gap <= MC_STANDARD_ERRORS * se:
        raise CheckFailed(
            f"{what}: replicate mean is {gap:.4f} from the exact mean {exact_mean:.4f} "
            f"(4 standard errors = {MC_STANDARD_ERRORS * se:.4f})"
        )
