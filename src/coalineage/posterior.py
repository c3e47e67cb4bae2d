"""Conditional laws for enlarging a sample with known ancestral statistics.

Given that an m-sample shows y surviving ancestral lines (or y lines with
a single descendant), these functions give the law of the corresponding
statistic once m' further individuals are drawn, the posterior over the
population's own line count, and the one-extra-draw discovery
probabilities.  The enlarged type count is the prior urn law shifted by y:
the m' extra draws meet the n - y unseen lines like a fresh urn with
innovation mass theta + m + y.  Each predictive law has two routes: a
mixture over the line-count posterior, whose weights are all positive
(the production path), and the direct closed form, kept as a cross-check
because its alternating sums cancel harder.  Both hit-count routes are
escape moments, then one inclusion-exclusion (numerics.exact_count_sums).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .ancestral import (
    ModelParams,
    _ancestral_values,
    _require_method,
    _singleton_closed_entries,
    lineage_pmf,
    r_freq_pmf,
    r_pmf,
    singleton_lineage_pmf,
)
from .errors import NumericalConditioningError
from .numerics import (
    _require_theta,
    exact_count_sums,
    log_binomial,
    log_rising_factorial,
    reliable_values,
)
from .pmf import Pmf

# uncached, so that a curve's rows do not evict n_posterior's likelihoods
_r_pmf_uncached = r_pmf.__wrapped__

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
    return replace(_r_pmf_uncached(n - y, m_prime, theta + m + y), support_offset=y)


def _log_escape(b: float, m_prime: int, y: int, weight: int) -> np.ndarray:
    """log (b - k weight)_m' / (b)_m', k = 0..y: the chance that k given lines,
    each of urn weight `weight` in a total b, escape m' draws, taken as the
    product of u / (u + m') over u = b - k weight .. b - 1."""
    log_escape = np.zeros(y + 1)
    total = 0.0
    for w in range(1, y * weight + 1):
        total += math.log((b - w) / (b - w + m_prime))
        if w % weight == 0:
            log_escape[w // weight] = total
    return log_escape


def _hit_count_pmf(log_escape: np.ndarray, m_prime: int, context: str) -> Pmf:
    """Law of how many of y given lines m' draws hit: y minus exactly the number that
    escape, whose binomial moments are C(y,k) exp(log_escape[k]), k = 0..y."""
    y = len(log_escape) - 1
    log_moments = np.array([math.log(math.comb(y, k)) for k in range(y + 1)]) + log_escape
    sums, log_peaks = exact_count_sums(log_moments, y - min(y, m_prime))
    return Pmf.from_signed_sums(sums[::-1], log_peaks[::-1], 0, context=context)


def cond_r_freq_pmf(l: int, n: int, m: int, m_prime: int, y: int, theta: float) -> Pmf:
    """Law of how many frequency-l types gain a copy among m' extra draws.

    y of the n old types sit at frequency l after m draws, each with urn
    weight 1 + l out of theta + n + m; x counts the ones that at least one
    extra draw lands on, so the support runs 0..min(y, m').
    """
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    _validate_conditional_args(n, m, m_prime, y, theta, y_cap=min(n, m // l))
    return _hit_count_pmf(_log_escape(theta + n + m, m_prime, y, 1 + l), m_prime, "hit type count")


def n_posterior(m: int, y: int, params: ModelParams, mode: str = "total") -> Pmf:
    """Posterior over the population's surviving line count n.

    Reweights the population line-count law by the likelihood of the
    observed statistic under each n: the re-observed type count for mode
    "total", the frequency-1 type count for mode "singleton".
    """
    if mode not in ("total", "singleton"):
        raise ValueError(f"mode must be 'total' or 'singleton', got {mode!r}")
    _require_observed(m, y)
    likelihood = r_pmf if mode == "total" else partial(r_freq_pmf, 1)
    values = _ancestral_values(params, None)
    weights = np.zeros(len(values))
    for n in np.flatnonzero(values).tolist():
        weights[n] = values[n] * likelihood(n, m, params.theta).prob(y)
    marginal = _conditioning_mass(
        float(weights.sum()), f"the observed statistic {y} at t = {params.t:g} has probability"
    )
    return Pmf.from_floats(
        weights / marginal, support_offset=0, context="line count posterior"
    )


def _point_mass(at: int) -> Pmf:
    return Pmf.from_floats(np.array([1.0]), support_offset=at)


def predictive_lineage_pmf(query: PredictiveQuery, method: str = "mixture") -> Pmf:
    """Law of the enlarged sample's surviving line count given y now.

    The mixture route averages the enlarged type count law over the
    line-count posterior; the closed route rewrites the conditional as a
    ratio of the two unconditional line-count laws.  Both agree to
    rounding; the mixture is the default because its weights are
    positive.
    """
    _require_method(method)
    m, m_prime, y, params = query.m, query.m_prime, query.y, query.params
    if m == 0:
        return lineage_pmf(m_prime, params)
    if m_prime == 0:
        return _point_mass(y)
    if params.t == 0.0:
        # every line is still alive at time zero
        _conditioning_mass(lineage_pmf(m, params).prob(y), f"P[line count = {y}]")
        return _point_mass(m + m_prime)
    if method == "mixture":
        return Pmf.from_mixture(
            n_posterior(m, y, params, mode="total").probs,
            lambda n: cond_r_pmf(n, m, m_prime, y, params.theta),
            y,
            m_prime + 1,
            context="enlarged line count",
        )
    base_prob = _conditioning_mass(lineage_pmf(m, params).prob(y), f"P[line count = {y}]")
    enlarged = lineage_pmf(m + m_prime, params)
    theta = params.theta
    log_common = (
        log_binomial(m, y)
        + log_rising_factorial(m + m_prime + theta, y)
        - log_rising_factorial(theta + m, y)
        - math.log(base_prob)
    )
    probs = np.empty(m_prime + 1)
    for x in range(y, y + m_prime + 1):
        log_ratio = (
            log_common
            + log_binomial(m_prime, x - y)
            + log_rising_factorial(theta + y, x - y)
            - log_binomial(m + m_prime, x)
            - log_rising_factorial(theta + m + y, x - y)
        )
        probs[x - y] = math.exp(log_ratio) * enlarged.prob(x)
    return Pmf.from_floats(probs, support_offset=y, context="enlarged line count")


def _closed_singleton_values(
    m: int, y: int, params: ModelParams, i_hi: int, extra_log: np.ndarray
) -> np.ndarray:
    """Gated entries x = y of the closed singleton kernel (see ancestral),
    one per row of the extra_log stack."""
    sums, log_peaks = _singleton_closed_entries(m, [y], params, i_hi, extra_log)
    return reliable_values(
        sums[0], log_peaks[0], lambda r: "closed singleton series", "use the mixture route"
    )


def predictive_singleton_pmf(query: PredictiveQuery, method: str = "mixture") -> Pmf:
    """Law of how many single-descendant lines gain copies from m' extra draws.

    Given y such lines in the m-sample, x counts the ones that stop being
    singletons because a new draw lands on them; support 0..min(y, m').
    The closed route evaluates the direct alternating representation of
    each escape moment, whose series runs to m + m': the extra-draw factor
    keeps the last m' difference orders alive past the marginal's cutoff at m.
    """
    _require_method(method)
    m, m_prime, y, params = query.m, query.m_prime, query.y, query.params
    if m == 0 or m_prime == 0:
        # nothing observed, or nothing further drawn: no singleton is hit
        return _point_mass(0)
    theta = params.theta
    if method == "mixture":
        return Pmf.from_mixture(
            n_posterior(m, y, params, mode="singleton").probs,
            lambda n: cond_r_freq_pmf(1, n, m, m_prime, y, theta),
            0,
            min(y, m_prime) + 1,
            context="hit singleton count",
        )
    marginal = _conditioning_mass(
        singleton_lineage_pmf(m, params).prob(y), f"P[singleton count = {y}]"
    )
    i_hi = m + m_prime
    # row k, column n >= y: the chance that k given singleton lines escape all m' draws
    escape = np.transpose([_log_escape(theta + n + m, m_prime, y, 2) for n in range(y, i_hi + 1)])
    inner = _closed_singleton_values(m, y, params, i_hi, np.pad(escape, ((0, 0), (y, 0))))
    log_escape = np.log(inner / marginal, out=np.full(y + 1, -math.inf), where=inner > 0)
    return _hit_count_pmf(log_escape, m_prime, "hit singleton count")


def gt_new_lineage_prob(m: int, y: int, params: ModelParams) -> float:
    """Probability that one extra draw starts a previously unseen line.

    A ratio of neighbouring line-count laws; equals the mass the m' = 1
    predictive law puts on y + 1.
    """
    _require_observed(m, y)
    p_y = _conditioning_mass(lineage_pmf(m, params).prob(y), f"P[line count = {y}]")
    p_up = lineage_pmf(m + 1, params).prob(y + 1)
    theta = params.theta
    return (y + 1) * (theta + y) * p_up / ((m + 1) * (theta + m) * p_y)


def gt_singleton_prob(m: int, y: int, params: ModelParams, method: str = "mixture") -> float:
    """Probability that one extra draw lands on a single-descendant line.

    Equals the mean of the m' = 1 singleton predictive law.  The mixture
    route averages the one-draw hit chance 2y/(theta + n + m) over the
    line-count posterior; the closed route evaluates the direct
    alternating representation, whose line-count series runs to m + 1.
    """
    _require_method(method)
    _require_observed(m, y)
    if y == 0:
        return 0.0
    theta = params.theta
    if method == "mixture":
        posterior = n_posterior(m, y, params, mode="singleton")
        return math.fsum(w * 2 * y / (theta + n + m) for n, w in posterior.items())
    marginal = _conditioning_mass(
        singleton_lineage_pmf(m, params).prob(y), f"P[singleton count = {y}]"
    )
    extra_log = -np.log(theta + np.arange(m + 2) + m)
    total = _closed_singleton_values(m, y, params, m + 1, extra_log[None, :])[0]
    return 2.0 * y * total / marginal
