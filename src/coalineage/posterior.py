"""Conditional laws for enlarging a sample with known ancestral statistics.

Given that an m-sample shows y surviving ancestral lines (or y lines with
a single descendant), these functions give the law of the corresponding
statistic once m' further individuals are drawn, the posterior over the
population's own line count, and the one-extra-draw discovery
probabilities.  The enlarged type count is the prior urn law shifted by y:
the m' extra draws meet the n - y unseen lines like a fresh urn with
innovation mass theta + m + y.  Each predictive law has two routes: a
mixture over the line-count posterior of one table of sums of positive
terms (Pmf.from_mixture; the production path), and the closed form, kept
as a cross-check.  The closed total route reweights the enlarged sample's
line-count law by one running product; the closed singleton route sums
escape moments by inclusion-exclusion and conditions on its own marginal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .ancestral import (
    ModelParams,
    _ancestral_values,
    _freq_rows,
    _reobserved_rows,
    _require_method,
    _singleton_closed_entries,
    lineage_pmf,
    r_pmf,
)
from .errors import NumericalConditioningError
from .numerics import (
    _parts_ratios,
    _require_theta,
    _running_sums,
    blocks,
    moment_count_sums,
    reliable_values,
)
from .pmf import Pmf

__all__ = [
    "MARGINAL_FLOOR",
    "PredictiveQuery",
    "cond_r_pmf",
    "cond_r_freq_pmf",
    "n_posterior",
    "predictive_lineage_pmf",
    "predictive_singleton_pmf",
    "gt_new_lineage_prob",
    "gt_singleton_prob",
]

# conditioning events with less marginal mass than this are refused:
# renormalizing them would promote numerical noise to a law
MARGINAL_FLOOR = 1e-12


def _conditioning_mass(p: float, event: str) -> float:
    """p, the marginal mass of the conditioning event, refused below MARGINAL_FLOOR."""
    if p < MARGINAL_FLOOR:
        raise NumericalConditioningError(
            f"conditioning event has negligible mass: {event} ~ {p:.2e}"
        )
    return p


def _line_count_mass(m: int, y: int, params: ModelParams) -> float:
    """P[line count = y] of an m-sample, refused below MARGINAL_FLOOR."""
    return _conditioning_mass(lineage_pmf(m, params).prob(y), f"P[line count = {y}]")


def _require_observed(m: int, y: int) -> None:
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 0 <= y <= m:
        raise ValueError(f"y must be in [0, {m}], got {y}")


def _require_count(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class PredictiveQuery:
    """An observed statistic of an m-sample plus the planned enlargement.

    y is the observed value: the surviving line count for the total-count
    functions, the single-descendant line count for the singleton ones.
    m = 0 with y = 0 describes a fresh sample with nothing observed yet.
    """

    m: int
    m_prime: int
    y: int
    params: ModelParams

    def __post_init__(self):
        m = _require_count(self.m, "m")
        m_prime = _require_count(self.m_prime, "m_prime")
        y = _require_count(self.y, "y")
        if m < 0:
            raise ValueError(f"m must be >= 0, got {m}")
        if m_prime < 0:
            raise ValueError(f"m_prime must be >= 0, got {m_prime}")
        if not 0 <= y <= m:
            raise ValueError(f"y must be in [0, m] = [0, {m}], got {y}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "m_prime", m_prime)
        object.__setattr__(self, "y", y)


def _validate_conditional_args(n, m, m_prime, y, theta, *, y_cap):
    if n < 0 or m < 0 or m_prime < 0:
        raise ValueError("n, m, and m_prime must be nonnegative")
    _require_theta(theta)
    if not 0 <= y <= y_cap:
        raise ValueError(f"y = {y} is outside the feasible range [0, {y_cap}]")


def cond_r_pmf(n: int, m: int, m_prime: int, y: int, theta: float) -> Pmf:
    """Law of the re-observed type count after m' extra draws, given y now.

    n old types seeded the urn and y of them appeared among the first m
    draws.  The m' extra draws meet the n - y unseen ones like a fresh urn
    with innovation mass theta + m + y, so the law is r_pmf(n - y, m',
    theta + m + y) shifted up by y, with support y..min(n, y + m').
    """
    _validate_conditional_args(n, m, m_prime, y, theta, y_cap=min(n, m))
    return replace(r_pmf(n - y, m_prime, theta + m + y), support_offset=y)


def _log_escape(totals: np.ndarray, m_prime: int, y: int, weight: int) -> np.ndarray:
    """log (b - k weight)_m' / (b)_m', k = 0..y, one row per urn total b in totals:
    the chance that k given lines, each of urn weight `weight` in a total b, escape
    m' draws, taken as the running sum of math.log(u / (u + m')) over
    u = b - 1 down to b - k weight, in runs of rows cut by numerics.blocks."""
    steps = np.arange(1, y * weight + 1)
    log_escape = np.zeros((len(totals), y + 1))
    for run in blocks(np.full(len(totals), len(steps))):
        u = np.subtract.outer(totals[run], steps)
        ratios = (u / (u + m_prime)).ravel()
        log_ratios = np.fromiter(map(math.log, ratios.tolist()), float, ratios.size)
        running = np.cumsum(log_ratios.reshape(u.shape), axis=1)
        log_escape[run, 1:] = running[:, weight - 1 :: weight]
    return log_escape


def _hit_terms(l: int, totals: np.ndarray, m_prime: int, y: int) -> np.ndarray:
    """P[m' draws hit exactly x of y lines of urn weight w = 1 + l in a total b],
    x = 0..min(y, m'), one row per b in totals, before the mass check.

    A hit line's count has generating function (1-z)^-w - 1 = z sum_(i=1..w) (1-z)^-i,
    so with beta = b - w y, P[x] = C(y,x) m'!/((m'-x)! (b)_m') sum_K p(x, K)
    (beta + w x - K)_(m'-x), p of _parts_ratios (size w).  The running sums start
    at (beta)_(wy)/(beta+m')_(wy) and step along x, then K, in runs of rows cut by
    blocks, and a wider row in runs along x.
    """
    w, xs = 1 + l, min(y, m_prime) + 1
    x, steps = np.arange(xs)[:, None], np.arange(l * (xs - 1))
    parts = _parts_ratios(w, xs - 1, len(steps))
    table = np.empty((len(totals), xs))
    for run in blocks(np.full(len(totals), w * y + xs * (len(steps) + 1))):
        beta, a = totals[run, None] - w * y, x[:-1, 0]
        ratio = (y - a) / (a + 1) * (m_prime - a)
        for i in range(w):
            ratio = ratio * (beta + l * a + m_prime + i if i < l else 1.0) / (beta + w * a + i)
        k = np.arange(w * y)
        head = np.log((beta + k) / (beta + k + m_prime)).sum(axis=1)
        # a row wider than a block is cut along x, each run starting where the last ended
        for cut in blocks(np.full(xs, len(beta) * (len(steps) + 1))):
            # K clipped to l x - 1, past which p is 0, keeps every factor positive
            gap = w * x[cut] - np.minimum(steps, l * x[cut] - 1) - 1
            u = beta[:, :, None] + gap
            inner = parts[cut] * u / (u + m_prime - x[cut])
            log_terms = _running_sums(head, ratio[:, cut.start : cut.stop - 1], inner)
            if cut.stop < xs:
                head = log_terms[:, -1, 0] + np.log(ratio[:, cut.stop - 1])
            table[run, cut] = np.exp(log_terms, out=log_terms).sum(axis=2)
    return table


def cond_r_freq_pmf(l: int, n: int, m: int, m_prime: int, y: int, theta: float) -> Pmf:
    """Law of how many frequency-l types gain a copy among m' extra draws.

    y of the n old types sit at frequency l after m draws, each with urn
    weight 1 + l out of theta + n + m; x counts the ones that at least one
    extra draw lands on, so the support runs 0..min(y, m'): a row of _hit_terms.
    """
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    _validate_conditional_args(n, m, m_prime, y, theta, y_cap=min(n, m // l))
    (terms,) = _hit_terms(l, np.array([theta + n + m]), m_prime, y)
    return Pmf.from_row(terms, 0, "hit type count")


@lru_cache(maxsize=128)
def n_posterior(m: int, y: int, params: ModelParams, mode: str = "total") -> Pmf:
    """Posterior over the population's surviving line count n.

    Reweights the population line-count law by the likelihood of the
    observed statistic under each n: the re-observed type count for mode
    "total", the frequency-1 type count for mode "singleton".  Memoized, as
    every predictive law and discovery probability of one observation
    conditions on it; package callers pass mode by keyword, so they share entries.
    """
    if mode not in ("total", "singleton"):
        raise ValueError(f"mode must be 'total' or 'singleton', got {mode!r}")
    _require_observed(m, y)
    values = _ancestral_values(params, None)
    levels = np.flatnonzero(values)
    # one code path for both modes: column y of the level table, zero past its width
    rows = _reobserved_rows if mode == "total" else partial(_freq_rows, 1)
    table = rows(levels, m, params.theta)
    likelihood = table[:, y] if y < table.shape[1] else 0.0
    weights = np.zeros(len(values))
    weights[levels] = values[levels] * likelihood
    event = f"the observed statistic {y} at t = {params.t:g} has probability"
    marginal = _conditioning_mass(math.fsum(weights[levels]), event)
    return Pmf.from_floats(weights / marginal, support_offset=0, context="line count posterior")


def _point_mass(at: int) -> Pmf:
    return Pmf.from_floats(np.array([1.0]), support_offset=at)


def predictive_lineage_pmf(query: PredictiveQuery, method: str = "mixture") -> Pmf:
    """Law of the enlarged sample's surviving line count given y now.

    The mixture route averages the enlarged type count laws of every
    weighted level, as one table, over the line-count posterior.  The
    closed route weights the enlarged sample's law P[x] by P[y | x] / P[y],
    with P[y | x] one running product of positive ratios.  Both agree to
    rounding; the mixture is the default because its weights are positive.
    """
    _require_method(method)
    m, m_prime, y, params = query.m, query.m_prime, query.y, query.params
    if m == 0:
        return lineage_pmf(m_prime, params)
    if m_prime == 0:
        return _point_mass(y)
    if params.t == 0.0:
        # every line is still alive at time zero
        _line_count_mass(m, y, params)
        return _point_mass(m + m_prime)
    if method == "mixture":
        # level n's row is cond_r_pmf(n, m, m_prime, y, theta), whose support starts at y
        weights = n_posterior(m, y, params, mode="total").probs
        levels = np.flatnonzero(weights)
        table = _reobserved_rows(levels - y, m_prime, params.theta + m + y)
        return Pmf.from_mixture(weights[levels], table, y, m_prime + 1, "enlarged line count")
    base_prob = _line_count_mass(m, y, params)
    enlarged = lineage_pmf(m + m_prime, params).probs[y : y + m_prime + 1]
    theta, j, x = float(params.theta), np.arange(y), np.arange(y, y + m_prime)
    # P[y lines among the first m | x among all m + m'], x = y..y + m', as one running
    # product: y steps reach x = y, then one step per x -> x + 1 (k = x - y new lines)
    steps = np.concatenate((
        (m - j) * (theta + m + m_prime + j) / ((m + m_prime - j) * (theta + m + j)),
        (m_prime - (x - y)) * (x + 1) * (theta + x)
        / ((x - y + 1) * (m + m_prime - x) * (theta + m + x)),
    ))
    log_factor = np.concatenate(([0.0], np.cumsum(np.log(steps))))[y:] - math.log(base_prob)
    return Pmf.from_floats(np.exp(log_factor) * enlarged, y, context="enlarged line count")


def predictive_singleton_pmf(query: PredictiveQuery, method: str = "mixture") -> Pmf:
    """Law of how many single-descendant lines gain copies from m' extra draws.

    Given y such lines in the m-sample, x counts the ones that stop being
    singletons because a new draw lands on them; support 0..min(y, m').  The
    mixture route mixes the cond_r_freq_pmf(1, n, ...) rows of every weighted
    posterior level n.  The closed route sums each escape moment's direct
    alternating series to m + m': the extra-draw factor keeps the last m'
    difference orders alive past the marginal's cutoff at m.
    """
    _require_method(method)
    m, m_prime, y, params = query.m, query.m_prime, query.y, query.params
    if m == 0 or m_prime == 0:
        # nothing observed, or nothing further drawn: no singleton is hit
        return _point_mass(0)
    theta = params.theta
    if method == "mixture":
        weights = n_posterior(m, y, params, mode="singleton").probs
        levels = np.flatnonzero(weights)
        table = Pmf.from_rows(_hit_terms(1, theta + levels + m, m_prime, y), "hit type count")[0]
        return Pmf.from_mixture(weights[levels], table, 0, table.shape[1], "hit singleton count")
    # row k, column n >= y: the chance that k given singleton lines escape all m' draws
    escape = _log_escape(theta + np.arange(y, m + m_prime + 1) + m, m_prime, y, 2)
    sums, log_peaks = _singleton_closed_entries(
        m, y, params, m + m_prime, np.pad(escape.T, ((0, 0), (y, 0)))
    )
    # column 0 holds entry y; row 0 escapes nothing, so it is the marginal
    event = f"P[singleton count = {y}]"
    (marginal,) = reliable_values(
        sums[:1, 0], log_peaks[:1, 0], lambda r: event, "use the mixture route"
    )
    # moment k: C(y,k) (from the exact integer: past y = 67 some exceed int64) times the
    # chance that k given lines escape, gated after the division
    log_peaks = log_peaks[:, 0] + [math.log(math.comb(y, k)) for k in range(y + 1)]
    log_peaks -= math.log(_conditioning_mass(float(marginal), event))
    sums, log_peaks = moment_count_sums(sums[:, 0], log_peaks, y - min(y, m_prime))
    return Pmf.from_signed_sums(sums[::-1], log_peaks[::-1], 0, context="hit singleton count")


def gt_new_lineage_prob(m: int, y: int, params: ModelParams) -> float:
    """Probability that one extra draw starts a previously unseen line.

    A ratio of neighbouring line-count laws; equals the mass the m' = 1
    predictive law puts on y + 1.
    """
    _require_observed(m, y)
    p_y = _line_count_mass(m, y, params)
    p_up = lineage_pmf(m + 1, params).prob(y + 1)
    theta = params.theta
    return (y + 1) * (theta + y) * p_up / ((m + 1) * (theta + m) * p_y)


def gt_singleton_prob(m: int, y: int, params: ModelParams, method: str = "mixture") -> float:
    """Probability that one extra draw lands on a single-descendant line.

    Equals the mean of the m' = 1 singleton predictive law.  The mixture
    route averages the one-draw hit chance 2y/(theta + n + m) over the
    line-count posterior; the closed route is the mean of the closed
    m' = 1 predictive law.
    """
    _require_method(method)
    _require_observed(m, y)
    if y == 0:
        return 0.0
    if method == "mixture":
        posterior = n_posterior(m, y, params, mode="singleton")
        return math.fsum(w * 2 * y / (params.theta + n + m) for n, w in posterior.items())
    return predictive_singleton_pmf(PredictiveQuery(m, 1, y, params), method="closed").mean()
