"""Reference implementations that only the tests use.

Exact combinatorial counts, falling factorials and factorial moments give
independent checks on the analytic laws.  The entry-by-entry enlarged
type count is the reference for the shifted prior urn law.  The
level-by-level mixture, one law per population level added in increasing
n, is the reference for Pmf.from_mixture's running sum over a level
table: of enlarged type count laws for the total predictive, of hit laws
for the singleton predictive, and of frequency-1 laws for the singleton
law.  The level-by-level frequency-1 laws are also the reference for the
singleton posterior's one-pass table, and the moment-by-moment closed
singleton kernel for its stacked moments.  The frequency-l urn law and
the hit law have two references each: their inclusion-exclusion
definitions in exact rationals, and their positive forms step by step in
the arithmetic of theta, exact in rationals and, for the hit law, to 50
digits in mpmath.
The one-row signed sum, the per-entry gate and the row-by-row line-count
series are the references for the production block kernels and array
gates.  The block-process step, the event-by-event block process and the
death-process sampler are the oracles the factored production simulator
is compared against.  The forward urn samplers draw from the law that
the exact enumeration tabulates, so the two check each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from coalineage import posterior
from coalineage.ancestral import (
    ModelParams,
    _ancestral_values,
    _last_index,
    _log_abs_rho,
    r_freq_pmf,
)
from coalineage.errors import NumericalConditioningError
from coalineage.ewens import AllelicPartition
from coalineage.numerics import (
    CLIP_FLOOR,
    ENTRY_NOISE_BUDGET,
    LOG_NOISE_SHIFT,
    SignedLogValue,
    log_factorials,
    log_gamma_table,
    log_rising_factorial,
    moment_count_sums,
    signed_log_sums,
)
from coalineage.pmf import Pmf
from coalineage.posterior import _validate_conditional_args
from coalineage.simulate import ReplicateSummary


MAX_STIRLING_N = 30


def log_binomial(n: int, k: int) -> float:
    """log C(n, k), 0 <= k <= n, from the exact integer."""
    return math.log(math.comb(n, k))


@lru_cache(maxsize=None)
def _stirling2_rows(n_max: int) -> tuple[tuple[int, ...], ...]:
    rows = [(1,)]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        row = [0] * (n + 1)
        for k in range(1, n + 1):
            above = prev[k] if k < n else 0
            row[k] = k * above + prev[k - 1]
        rows.append(tuple(row))
    return tuple(rows)


@lru_cache(maxsize=None)
def _stirling1_rows(n_max: int) -> tuple[tuple[int, ...], ...]:
    rows = [(1,)]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        row = [0] * (n + 1)
        for k in range(1, n + 1):
            above = prev[k] if k < n else 0
            row[k] = (n - 1) * above + prev[k - 1]
        rows.append(tuple(row))
    return tuple(rows)


def _check_stirling_args(n: int, k: int) -> None:
    if not (0 <= n <= MAX_STIRLING_N):
        raise ValueError(f"n must be in [0, {MAX_STIRLING_N}], got {n}")
    if not (0 <= k <= n):
        raise ValueError(f"k must be in [0, n], got k={k}, n={n}")


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind: partitions of n items into k blocks."""
    _check_stirling_args(n, k)
    return _stirling2_rows(MAX_STIRLING_N)[n][k]


def signless_stirling1(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind: permutations of n items with k cycles."""
    _check_stirling_args(n, k)
    return _stirling1_rows(MAX_STIRLING_N)[n][k]


def log_falling_factorial(x: float, n: int) -> SignedLogValue:
    """Signed log of the falling factorial (x)_[n] = x (x-1) ... (x-n+1).

    Falling factorials vanish at integer x < n and change sign below that,
    so the result carries an explicit sign.  n stays small (bounded by
    sample sizes), so the direct product of log factors is both exact
    enough and simpler than a reflection through gamma functions.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return SignedLogValue(1, 0.0)
    sign = 1
    logs = []
    for k in range(n):
        factor = x - k
        if factor == 0.0:
            return SignedLogValue(0, -math.inf)
        if factor < 0:
            sign = -sign
        logs.append(math.log(abs(factor)))
    return SignedLogValue(sign, math.fsum(logs))


def signed_log_sum(log_terms, signs) -> tuple[SignedLogValue, float, float]:
    """One signed sum of sign * exp(log_term): (total, cancellation_ratio, log_peak).

    The one-row form of numerics.signed_log_sums: the terms are shifted
    by the peak term and combined with math.fsum; the ratio is |total|
    over the peak term, and an empty or all -inf row is an exact zero.
    """
    log_terms = np.asarray(log_terms, dtype=float)
    peak = float(np.max(log_terms, initial=-math.inf))
    if peak == -math.inf:
        return SignedLogValue(0, -math.inf), 1.0, -math.inf
    total = math.fsum((np.asarray(signs, dtype=float) * np.exp(log_terms - peak)).tolist())
    if total == 0.0:
        return SignedLogValue(0, -math.inf), 0.0, peak
    return SignedLogValue(1 if total > 0 else -1, math.log(abs(total)) + peak), abs(total), peak


def reliable_value(entry: tuple[SignedLogValue, float, float], what: str, remedy: str) -> float:
    """The per-entry form of numerics.reliable_values: one signed_log_sum result, gated."""
    total, ratio, log_peak = entry
    noise = 0.0 if log_peak == -math.inf else math.exp(min(log_peak - LOG_NOISE_SHIFT, 700.0))
    if noise > ENTRY_NOISE_BUDGET:
        raise NumericalConditioningError(
            f"{what} lost all significant digits (cancellation ratio "
            f"{ratio:.2e}, noise scale {noise:.2e}); {remedy}",
            cancellation_ratio=ratio,
        )
    value = total.value
    if value < -max(CLIP_FLOOR, noise):
        raise NumericalConditioningError(
            f"{what} is negative beyond the clipping floor ({value:.3e})",
            cancellation_ratio=ratio,
        )
    return max(value, 0.0)


def values_by_entry(entries, what, remedy: str) -> np.ndarray:
    """reliable_value of each entry in index order; what(i) labels entry i."""
    return np.array([reliable_value(entry, what(i), remedy) for i, entry in enumerate(entries)])


def pmf_by_entry(entries, context: str) -> Pmf:
    """Pmf.from_signed_sums with the per-entry gate."""
    values = values_by_entry(
        entries,
        lambda i: f"{context}: entry at {i}",
        "use the simulation path for this parameter regime",
    )
    return Pmf.from_floats(values, 0, context=context)


def line_count_entries_by_row(log_w: np.ndarray, rows: range, params: ModelParams) -> list:
    """signed_log_sum results of the line-count series, one row x at a time.

    The same series as ancestral._line_count_entries: entry x is 1{x=0}
    plus the sum over i = max(x,1)..I of (-1)^(i+x) (2i-1+theta)
    e^(-t i(i-1+theta)/2) C(i,x) (x+theta)_(i-1) w_i; rows past I are
    exact zeros.
    """
    theta, t = params.theta, params.t
    top = len(log_w) - 1
    log_fact = log_gamma_table(1.0, top + 1)
    log_gamma = log_gamma_table(theta, 2 * top + 1)
    i = np.arange(1, top + 1, dtype=float)
    base = np.full(top + 1, -math.inf)
    base[1:] = (
        np.log(2 * i - 1 + theta) - t * i * (i - 1 + theta) / 2.0 + log_w[1:] + log_fact[1:]
    )
    alternating = np.where(np.arange(2 * top + 1) % 2 == 0, 1.0, -1.0)
    entries = []
    for x in rows:
        if x > top:
            entries.append((SignedLogValue(0, -math.inf), 1.0, -math.inf))
            continue
        lo = max(x, 1)
        log_terms = (
            base[lo:]
            - log_fact[lo - x : top - x + 1]
            + log_gamma[x + lo - 1 : x + top]
            - (log_fact[x] + log_gamma[x])
        )
        signs = alternating[lo + x : top + x + 1]
        if x == 0:
            log_terms = np.concatenate(([0.0], log_terms))
            signs = np.concatenate(([1.0], signs))
        entries.append(signed_log_sum(log_terms, signs))
    return entries


def lineage_entries_by_row(m: int, params: ModelParams) -> list:
    """line_count_entries_by_row for the sample law, from full log-gamma tables."""
    top = min(m, _last_index(params))
    log_fact = log_gamma_table(1.0, m + 1)
    log_gamma = log_gamma_table(params.theta, m + top + 1)
    i = np.arange(top + 1)
    log_w = log_fact[m] - log_fact[i] - log_fact[m - i] - (log_gamma[m + i] - log_gamma[m])
    return line_count_entries_by_row(log_w, range(m + 1), params)


def ancestral_values_by_row(params: ModelParams, rows: range) -> np.ndarray:
    """Gated population line-count entries d_n, n in rows, one row at a time."""
    log_w = -log_gamma_table(1.0, _last_index(params) + 1)
    return values_by_entry(
        line_count_entries_by_row(log_w, rows, params),
        lambda i: f"ancestral entry d_{rows[i]}",
        "t is too small for the series",
    )


def cond_r_pmf_by_entry(n: int, m: int, m_prime: int, y: int, theta: float) -> Pmf:
    """Enlarged type count, one product of positive factors per entry x.

    Entry x = y + d is d! C(n-y,d) C(m',d) (theta+m+x)_(m'-d) / (theta+n+m)_m',
    written out in the original urn's terms rather than as posterior.cond_r_pmf's
    shifted r_pmf.
    """
    _validate_conditional_args(n, m, m_prime, y, theta, y_cap=min(n, m))
    hi = min(n, y + m_prime)
    log_denom = log_rising_factorial(theta + n + m, m_prime)
    probs = np.empty(hi - y + 1)
    for x in range(y, hi + 1):
        d = x - y
        probs[d] = math.exp(
            math.lgamma(d + 1)
            + log_binomial(n - y, d)
            + log_binomial(m_prime, d)
            + log_rising_factorial(theta + m + x, m_prime - d)
            - log_denom
        )
    return Pmf.from_floats(probs, support_offset=y, context="enlarged type count")


def factorial_moment_r(r: int, n: int, m: int, m_prime: int, y: int, theta: float) -> float:
    """Falling-factorial moment E[(X)_[r]] of the enlarged type count."""
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    _validate_conditional_args(n, m, m_prime, y, theta, y_cap=min(n, m))
    if r == 0:
        return 1.0
    if r > n:
        # the count is bounded by the n seed types
        return 0.0
    log_denom = log_rising_factorial(theta + n + m, m_prime)
    log_terms = []
    signs = []
    for s in range(min(r, n - y) + 1):
        signs.append(1.0 if s % 2 == 0 else -1.0)
        log_terms.append(
            math.lgamma(r + 1)
            + log_binomial(n - s, r - s)
            + log_binomial(n - y, s)
            + log_rising_factorial(theta + n + m - s, m_prime)
            - log_denom
        )
    total, _, _ = signed_log_sum(log_terms, signs)
    return total.value


def factorial_moment_r_freq(
    r: int, l: int, n: int, m: int, m_prime: int, y: int, theta: float
) -> float:
    """Falling-factorial moment E[(X)_[r]] of the hit frequency-l type count."""
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    _validate_conditional_args(n, m, m_prime, y, theta, y_cap=min(n, m // l))
    if r == 0:
        return 1.0
    if r > y:
        return 0.0
    log_denom = log_rising_factorial(theta + n + m, m_prime)
    log_terms = []
    signs = []
    for s in range(r + 1):
        signs.append(1.0 if s % 2 == 0 else -1.0)
        log_terms.append(
            log_binomial(r, s)
            + math.lgamma(s + 1)
            + log_binomial(y, s)
            + math.lgamma(y - s + 1)
            - math.lgamma(y - r + 1)
            + log_rising_factorial(theta + n + m - s * (1 + l), m_prime)
            - log_denom
        )
    total, _, _ = signed_log_sum(log_terms, signs)
    return total.value


def rising(x, n: int):
    """The rising factorial (x)_n, a product in the arithmetic of x."""
    out = x**0
    for i in range(n):
        out = out * (x + i)
    return out


def parts_counts(size: int, count: int, top: int) -> list[list[int]]:
    """p(k, r) for k = 0..count and r = 0..top: the ways to write r as k ordered
    parts in 0..size-1, each row the direct convolution of the one before."""
    rows = [[1] + [0] * top]
    for _ in range(count):
        prev = rows[-1]
        rows.append([sum(prev[r - a] for a in range(min(size, r + 1))) for r in range(top + 1)])
    return rows


def freq_law_definition(l: int, n: int, m: int, theta: Fraction) -> list[Fraction]:
    """P[exactly y of n seed types are drawn l times in m draws], y = 0..min(n, m // l),
    by inclusion-exclusion over the binomial moments S_i = C(n,i) m!
    (theta+n-i)_(m-il) / ((m-il)! (theta+n)_m), in exact rationals.  With
    theta = p/q every S_i is an integer over the one denominator q^m (theta+n)_m,
    so the alternating sums run over integers."""
    p, q, top = theta.numerator, theta.denominator, min(n, m // l)
    denominator = math.prod(range(p + q * n, p + q * (n + m), q))
    numerators = [
        math.comb(n, i) * math.perm(m, i * l) * q ** (i * l)
        * math.prod(range(p + q * (n - i), p + q * (n - i + m - i * l), q))
        for i in range(top + 1)
    ]
    return [
        Fraction(
            sum((-1) ** (i - y) * math.comb(i, y) * numerators[i] for i in range(y, top + 1)),
            denominator,
        )
        for y in range(top + 1)
    ]


def freq_law_by_steps(l: int, n: int, m: int, theta) -> list:
    """The positive form of ancestral._freq_terms for one level n, every step ratio
    taken in the arithmetic of theta: exact for a Fraction, to the working
    precision for an mpmath.mpf.  From (theta)_n/(theta+m)_n at y = j = r = 0,
    along y, then along j (types drawn more than l times), then along r (draws
    on the types drawn fewer than l times), as in the production kernel."""
    parts = parts_counts(l, n, min((l - 1) * n, m))
    base = theta**0
    for k in range(n):
        base = base * (theta + k) / (theta + k + m)
    law = []
    for y in range(min(n, m // l) + 1):
        if y:
            base = base * (n - y + 1) / y
            for i in range(l):
                rest = m - l * (y - 1) - i
                base = base * rest / (theta + rest - 1)
        total, term = 0 * base, base
        for j in range(n - y + 1):
            big = m - l * y - (l + 1) * j
            if big < 0:
                break
            if j:
                before = big + l + 1
                term = term * (n - y - j + 1) / j / (theta + j - 1)
                for i in range(l + 1):
                    term = term * (before - i)
                for i in range(l):
                    term = term / (theta + j - 1 + before - l + i)
            part, row = term, parts[n - y - j]
            for r in range(min(big, (l - 1) * (n - y - j)) + 1):
                if r:
                    part = part * row[r] / row[r - 1] * (big - r + 1) / (theta + j + big - r)
                total += part
        law.append(total)
    return law


def hit_law_definition(l: int, b: Fraction, m_prime: int, y: int) -> list[Fraction]:
    """P[m' draws hit exactly x of y given lines], x = 0..min(y, m'), each line of
    urn weight 1 + l in a total b, by inclusion-exclusion over how many escape:
    S_k = C(y,k) (b - k(1+l))_m' / (b)_m', in exact rationals."""
    moments = [
        math.comb(y, k) * rising(b - k * (1 + l), m_prime) / rising(b, m_prime)
        for k in range(y + 1)
    ]
    escape = [
        sum((-1) ** (k - e) * math.comb(k, e) * moments[k] for k in range(e, y + 1))
        for e in range(y + 1)
    ]
    return [escape[y - x] for x in range(min(y, m_prime) + 1)]


def hit_law_by_steps(l: int, b, m_prime: int, y: int) -> list:
    """The positive form of posterior._hit_terms for one urn total b, every step
    ratio taken in the arithmetic of b, as freq_law_by_steps does: from
    (beta)_(wy)/(beta+m')_(wy), beta = b - w y and w = 1 + l, at x = K = 0,
    along x, then along K."""
    w, top = 1 + l, min(y, m_prime)
    beta, parts = b - w * y, parts_counts(w, top, l * top)
    base = b**0
    for k in range(w * y):
        base = base * (beta + k) / (beta + k + m_prime)
    law = []
    for x in range(top + 1):
        if x:
            base = base * (y - x + 1) / x * (m_prime - x + 1)
            for i in range(l):
                base = base * (beta + l * (x - 1) + m_prime + i)
            for i in range(w):
                base = base / (beta + w * (x - 1) + i)
        total, term = 0 * base, base
        for k in range(l * x + 1):
            if k:
                u = beta + w * x - k
                term = term * parts[x][k] / parts[x][k - 1] * u / (u + m_prime - x)
            total += term
        law.append(total)
    return law


def mixture_by_level(weights, component, support_offset: int, size: int, context: str) -> Pmf:
    """pmf.Pmf.from_mixture level by level: sum_n weights[n] component(n), with size
    entries from support_offset.  Levels of zero weight are skipped; the rest are added
    in increasing n, each into the slice where its own support lies, and the total is
    checked by from_floats."""
    probs = np.zeros(size)
    for n in np.flatnonzero(weights).tolist():
        law = component(n)
        lo = law.support_offset - support_offset
        probs[lo : lo + len(law.probs)] += weights[n] * law.probs
    return Pmf.from_floats(probs, support_offset, context=context)


def singleton_lineage_by_level(m: int, params: ModelParams) -> Pmf:
    """The mixture ancestral.singleton_lineage_pmf with each level's frequency-1
    law built on its own by the one-level r_freq_pmf, added in increasing n."""
    return mixture_by_level(
        _ancestral_values(params, None),
        lambda n: r_freq_pmf(1, n, m, params.theta),
        0,
        m + 1,
        "singleton ancestor count",
    )


def singleton_posterior_by_level(m: int, y: int, params: ModelParams) -> Pmf:
    """posterior.n_posterior(m, y, params, mode="singleton") with each level's
    likelihood read from its own one-level r_freq_pmf, in increasing n."""
    posterior._require_observed(m, y)
    values = _ancestral_values(params, None)
    weights = np.zeros(len(values))
    for n in np.flatnonzero(values).tolist():
        weights[n] = values[n] * r_freq_pmf(1, n, m, params.theta).prob(y)
    marginal = posterior._conditioning_mass(
        math.fsum(weights), f"the observed statistic {y} at t = {params.t:g} has probability"
    )
    return Pmf.from_floats(weights / marginal, 0, context="line count posterior")


def singleton_closed_entries_by_moment(
    m: int, lo: int, params: ModelParams, i_hi: int, extra_log: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """ancestral._singleton_closed_entries with one signed_log_sums call per
    binomial moment j, each building its own (i, n) triangle and log |rho(i)|."""
    log_fact = log_factorials(i_hi + 1)
    log_gamma = log_gamma_table(params.theta, 2 * i_hi + 1)
    j_lo = max(lo, 1)
    tri_i, tri_n = np.tril_indices(i_hi - j_lo + 1)
    sums, log_peaks = np.ones((len(extra_log), m + 1)), np.array(extra_log[:, : m + 1])
    for j in range(j_lo, m + 1):
        # (i, n) pairs with j <= n <= i <= i_hi lead the triangle in row order
        size = (i_hi - j + 1) * (i_hi - j + 2) // 2
        i, n = tri_i[:size] + j, tri_n[:size] + j
        log_terms = (
            _log_abs_rho(i, params)
            - log_fact[n - j] - log_fact[i - n]
            + log_gamma[n + m - 2 * j] - log_gamma[n - j]
            + log_gamma[n + i - 1] - log_gamma[n + m]
            + log_fact[m] - log_fact[j] - log_fact[m - j]
        )
        sums[:, j], log_peaks[:, j] = signed_log_sums(
            log_terms + extra_log[:, n], np.where((i + n) % 2 == 0, 1.0, -1.0)
        )
    return moment_count_sums(sums, log_peaks, lo)


def log_escape_by_step(b: float, m_prime: int, y: int, weight: int) -> np.ndarray:
    """posterior._log_escape for one urn total b, one step of the running sum at a time."""
    log_escape = np.zeros(y + 1)
    total = 0.0
    for w in range(1, y * weight + 1):
        total += math.log((b - w) / (b - w + m_prime))
        if w % weight == 0:
            log_escape[w // weight] = total
    return log_escape


def cond_r_freq_pmf_by_level(l: int, n: int, m: int, m_prime: int, y: int, theta: float) -> Pmf:
    """posterior.cond_r_freq_pmf read off a stack: level n's row of one
    posterior._hit_terms table over the levels n..n+4, as Pmf.from_row takes it."""
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    _validate_conditional_args(n, m, m_prime, y, theta, y_cap=min(n, m // l))
    table = posterior._hit_terms(l, theta + n + m + np.arange(5.0), m_prime, y)
    return Pmf.from_row(table[0], 0, "hit type count")


def predictive_singleton_by_level(query) -> Pmf:
    """The mixture posterior.predictive_singleton_pmf at m, m' >= 1, with each
    level's hit law built on its own by posterior.cond_r_freq_pmf, in increasing n."""
    m, m_prime, y, params = query.m, query.m_prime, query.y, query.params
    return mixture_by_level(
        posterior.n_posterior(m, y, params, mode="singleton").probs,
        lambda n: posterior.cond_r_freq_pmf(1, n, m, m_prime, y, params.theta),
        0,
        min(y, m_prime) + 1,
        context="hit singleton count",
    )


def predictive_lineage_by_level(query) -> Pmf:
    """The mixture posterior.predictive_lineage_pmf at m, m' >= 1 and t > 0, with
    each level's enlarged type count law built on its own by posterior.cond_r_pmf,
    in increasing n."""
    m, m_prime, y, params = query.m, query.m_prime, query.y, query.params
    return mixture_by_level(
        posterior.n_posterior(m, y, params, mode="total").probs,
        lambda n: posterior.cond_r_pmf(n, m, m_prime, y, params.theta),
        y,
        m_prime + 1,
        context="enlarged line count",
    )


@dataclass(frozen=True)
class BlockState:
    """Spectrum of surviving blocks: spectrum[l-1] blocks carry l units."""

    spectrum: tuple[int, ...]

    def __post_init__(self):
        spectrum = tuple(int(c) for c in self.spectrum)
        if any(c < 0 for c in spectrum):
            raise ValueError("spectrum entries must be nonnegative")
        # canonical form; the absorbed state is the empty tuple
        while spectrum and spectrum[-1] == 0:
            spectrum = spectrum[:-1]
        object.__setattr__(self, "spectrum", spectrum)

    @classmethod
    def from_partition(cls, partition: AllelicPartition) -> "BlockState":
        return cls(partition.spectrum)

    @property
    def x(self) -> int:
        """Surviving ancestral weight: total units over all blocks."""
        return sum((l + 1) * c for l, c in enumerate(self.spectrum))

    @property
    def block_count(self) -> int:
        return sum(self.spectrum)

    @property
    def singletons(self) -> int:
        return self.spectrum[0] if self.spectrum else 0


def step_block_process(
    state: BlockState, theta: float, rng: np.random.Generator
) -> tuple[float, BlockState]:
    """One deletion event: waiting time and the state after it.

    Draws the exponential holding time at rate x(x+theta-1)/2, then
    removes one unit chosen uniformly among the x survivors (a block of
    size l loses a unit with probability l * spectrum[l-1] / x).
    """
    x = state.x
    if x == 0:
        raise ValueError("the process is absorbed; no further steps")
    rate = x * (x + theta - 1) / 2.0
    holding = rng.exponential(1.0 / rate)
    u = rng.random() * x
    spectrum = list(state.spectrum)
    for l0, c in enumerate(spectrum):
        u -= (l0 + 1) * c
        if u < 0:
            spectrum[l0] -= 1
            if l0 > 0:
                spectrum[l0 - 1] += 1
            return holding, BlockState(tuple(spectrum))
    # float rounding put u at the total; charge the largest occupied block
    l0 = max(i for i, c in enumerate(spectrum) if c > 0)
    spectrum[l0] -= 1
    if l0 > 0:
        spectrum[l0 - 1] += 1
    return holding, BlockState(tuple(spectrum))


def simulate_block_process_by_event(
    initial: AllelicPartition, theta: float, t_horizon: float, seed
) -> ReplicateSummary:
    """Event-by-event run of the deletion process to a horizon.

    Each event draws the exponential holding time at rate x(x+theta-1)/2,
    then removes one unit chosen uniformly among the x survivors (a block
    of size l loses a unit with probability l * spectrum[l-1] / x).  The
    summary reports the surviving weight and the size-1 block count at
    the horizon; both are 0 once the process absorbs.  The oracle for the
    factored simulator in coalineage.simulate, which draws the same end
    state in one pass.
    """
    ModelParams(theta, t_horizon)
    rng = np.random.default_rng(seed)
    spectrum = list(initial.spectrum)
    x = sum((l + 1) * c for l, c in enumerate(spectrum))
    clock = 0.0
    while x > 0:
        # death_rate's operand order: at x = 1, x + theta - 1 rounds to 0 for tiny theta
        clock += rng.exponential(2.0 / (x * (x - 1 + theta)))
        if clock > t_horizon:
            break
        u = rng.random() * x
        hit = -1
        for l0 in range(len(spectrum)):
            u -= (l0 + 1) * spectrum[l0]
            if u < 0:
                hit = l0
                break
        if hit < 0:
            hit = max(i for i, c in enumerate(spectrum) if c > 0)
        spectrum[hit] -= 1
        if hit > 0:
            spectrum[hit - 1] += 1
        x -= 1
    key = tuple(seed) if isinstance(seed, (list, tuple)) else seed
    return ReplicateSummary(d_total=x, d_singleton=spectrum[0] if spectrum else 0, seed=key)


def simulate_death_process(start_n: int, theta: float, t_horizon: float, seed) -> int:
    """Level of the pure death process (rates n(n-1+theta)/2) at the horizon."""
    if start_n < 0:
        raise ValueError(f"start_n must be nonnegative, got {start_n}")
    if not (theta > 0):
        raise ValueError(f"theta must be positive, got {theta}")
    if not (t_horizon >= 0):
        raise ValueError(f"t_horizon must be nonnegative, got {t_horizon}")
    if start_n == 0:
        return 0
    rng = np.random.default_rng(seed)
    levels = np.arange(start_n, 0, -1, dtype=float)
    rates = levels * (levels - 1 + theta) / 2.0
    waits = rng.exponential(1.0, size=start_n) / rates
    passed = int(np.searchsorted(np.cumsum(waits), t_horizon, side="right"))
    return start_n - passed


def urn_forward_sample(
    n_atoms: int, m_draws: int, theta, seed
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Sample one urn trajectory; returns (atom multiplicities, class sizes).

    Class sizes come back in order of first appearance.  Matches the law
    enumerated by enumerate_sequences (not capped in size).
    """
    th = float(Fraction(theta))
    rng = np.random.default_rng(seed)
    counts = [0] * n_atoms
    class_sizes: list[int] = []
    for i in range(m_draws):
        u = rng.random() * (th + n_atoms + i)
        for j in range(n_atoms):
            u -= 1 + counts[j]
            if u < 0:
                counts[j] += 1
                break
        else:
            for c in range(len(class_sizes)):
                u -= class_sizes[c]
                if u < 0:
                    class_sizes[c] += 1
                    break
            else:
                class_sizes.append(1)
    return tuple(counts), tuple(class_sizes)


def urn_forward_atom_counts(
    n_atoms: int, m_draws: int, theta, n_samples: int, seed
) -> np.ndarray:
    """Vectorized sampler for the atom-count marginal of the urn.

    The atom counts are Markov on their own (anonymous classes only
    matter through their total weight theta + draws on them), so large
    Monte Carlo checks of the atom-side laws can skip class bookkeeping.
    Returns an (n_samples, n_atoms) int array of final multiplicities.
    """
    th = float(Fraction(theta))
    rng = np.random.default_rng(seed)
    counts = np.zeros((n_samples, n_atoms), dtype=np.int64)
    for i in range(m_draws):
        pick = rng.random(n_samples) * (th + n_atoms + i)
        thresholds = np.cumsum(1 + counts, axis=1)
        j = (pick[:, None] >= thresholds).sum(axis=1)
        hit = j < n_atoms
        np.add.at(counts, (np.nonzero(hit)[0], j[hit]), 1)
    return counts
