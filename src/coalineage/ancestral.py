"""Ancestral line counting under the coalescent with mutation.

The number of ancestral lines of a large population, run back for time t
with coalescence and killing by mutation, is a pure death process whose
level-n exit rate is n(n-1+theta)/2.  Starting from infinity it reaches
a proper law (d_n below); a sample of m individuals sees the binomial
projection of that law.  Both are the same alternating line-of-descent
series with different weights on the index i (Griffiths 1980; Tavare
1984): C(m,i)/(theta+m)_i for the sample, its m -> infinity limit 1/i!
for the population.  One kernel sums both, and entries are refused when
cancellation eats the result.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericalConditioningError
from .numerics import (
    SignedLogValue,
    _require_theta,
    exact_count_sums,
    log_gamma_table,
    reliable_values,
    signed_log_sums,
)
from .pmf import Pmf

__all__ = [
    "ModelParams",
    "death_rate",
    "rho",
    "ancestral_pmf",
    "lineage_pmf",
    "lineage_mean",
    "tmrca_cdf",
    "r_pmf",
    "r_freq_pmf",
    "singleton_lineage_pmf",
]

TAIL_MASS = 1e-10
TAIL_ENTRY = 1e-14
MAX_ANCESTRAL_N = 5000
# line-count series terms past _last_index lie below exp(-TAIL_LOG)
TAIL_LOG = 80.0
# floats per (x, i) block of the line-count series; longer series are
# summed in row chunks, so transient memory stays bounded
BLOCK_TERMS = 1 << 14


@dataclass(frozen=True)
class ModelParams:
    """Mutation rate theta and backward time t (coalescent units)."""

    theta: float
    t: float

    def __post_init__(self):
        _require_theta(self.theta)
        if not (self.t >= 0.0):
            raise ValueError(f"t must be nonnegative, got {self.t}")
        if math.isinf(self.t):
            raise ValueError(f"t must be finite, got {self.t}")


def _require_method(method: str) -> None:
    if method not in ("mixture", "closed"):
        raise ValueError(f"method must be 'mixture' or 'closed', got {method!r}")


def death_rate(n: int, theta: float) -> float:
    """Exit rate n(n-1+theta)/2 of the ancestral death process at level n."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return n * (n - 1 + theta) / 2.0


def rho(i: int, params: ModelParams) -> SignedLogValue:
    """Signed coefficient (-1)^i (2i-1+theta) exp(-t i(i-1+theta)/2), i >= 1."""
    if i < 1:
        raise ValueError(f"rho is defined for i >= 1, got {i}")
    log_mag = float(_log_abs_rho(i, params))
    if log_mag == -math.inf:  # the decay underflowed: an exact zero
        return SignedLogValue(0, log_mag)
    return SignedLogValue(-1 if i % 2 else 1, log_mag)


def _log_abs_rho(i: np.ndarray, params: ModelParams) -> np.ndarray:
    """log |rho(i)| = log(2i-1+theta) - t i(i-1+theta)/2 over indices i >= 1.

    A decay that overflows (t near the largest float) is the intended -inf.
    """
    theta, t = params.theta, params.t
    with np.errstate(over="ignore"):
        return np.log(2 * i - 1 + theta) - t * i * (i - 1 + theta) / 2.0


def _last_index(params: ModelParams) -> int:
    """Series index past which every line-count term is below exp(-TAIL_LOG).

    With 2i-1+theta <= (1+theta) 2^i, C(i,x) <= 2^i, x <= i and
    (x+theta)_(i-1)/i! <= 2^(x+i+theta), a term of either law is at most
    (1+theta) 2^(4i+theta) exp(-t i(i-1+theta)/2): the sample weight
    C(m,i)/(theta+m)_i never exceeds the population's 1/i!.  Past the
    larger root of that bound's log = -TAIL_LOG the bound falls
    geometrically, so the omitted tail is of order exp(-TAIL_LOG).  The
    quadratic is divided through by t, so no product with t can
    overflow, and each branch of the root avoids cancellation.  A root
    that still overflows (t near the smallest float) asks for more terms
    than any caller can sum.
    """
    theta, t = params.theta, params.t
    b = 4.0 * math.log(2.0) / t - (theta - 1.0) / 2.0
    c = 2.0 * (TAIL_LOG + math.log1p(theta) + theta * math.log(2.0)) / t
    h = math.hypot(b, math.sqrt(c))
    root = b + h if b >= 0.0 else c / (h - b)
    return math.ceil(root) if root < sys.maxsize else sys.maxsize


def _line_count_entries(
    log_w: np.ndarray, rows: range, params: ModelParams
) -> tuple[np.ndarray, np.ndarray]:
    """signed_log_sums (sums, log_peaks) of the line-count series over x in rows.

    Entry x is 1{x=0} plus the sum over i = max(x,1)..I of
    (-1)^(i+x) (2i-1+theta) e^(-t i(i-1+theta)/2) C(i,x) (x+theta)_(i-1) w_i,
    where log_w[i] = log w_i for i = 0..I.  Rows x <= I form one (x, i)
    block padded with -inf below i = x, summed in chunks of at most
    BLOCK_TERMS floats; column i = 0 holds the 1{x=0} term.  Rows past I
    hold only terms below the tail bound of _last_index: no terms are
    built for them and they come back as exact zeros.
    """
    theta = params.theta
    top = len(log_w) - 1
    log_fact = log_gamma_table(1.0, top + 1)
    log_gamma = log_gamma_table(theta, 2 * top + 1)
    i = np.arange(top + 1)
    # the row-independent factors, with the i! of C(i,x) folded in
    base = np.full(top + 1, -math.inf)
    base[1:] = _log_abs_rho(i[1:], params) + log_w[1:] + log_fact[1:]
    sums = np.zeros(len(rows))
    log_peaks = np.full(len(rows), -math.inf)
    xs = np.arange(rows.start, min(rows.stop, top + 1))
    chunk = max(1, BLOCK_TERMS // (top + 1))
    for lo in range(0, len(xs), chunk):
        x = xs[lo : lo + chunk, None]
        gap = i - x
        log_terms = np.where(
            gap >= 0,
            base - log_fact[np.abs(gap)] + log_gamma[x + i - 1] - (log_fact[x] + log_gamma[x]),
            -math.inf,
        )
        log_terms[:, 0] = np.where(x[:, 0] == 0, 0.0, -math.inf)
        signs = np.where((i + x) % 2 == 0, 1.0, -1.0)
        sums[lo : lo + len(x)], log_peaks[lo : lo + len(x)] = signed_log_sums(log_terms, signs)
    return sums, log_peaks


def _default_n_start(theta: float) -> int:
    return math.ceil(theta + 2) + 10


def _tail_closed(values: list[float]) -> bool:
    """True when the entries past the mode bound the remaining mass.

    The decay factor e^{-n(n-1+theta)t/2} makes entry ratios shrink with
    n, so once entries are falling, the last ratio bounds the true tail
    by a geometric series.  Judging the tail this way, rather than by
    1 - fsum(values), keeps per-entry rounding noise out of the picture:
    that noise is a mass defect, and the pmf constructor budgets it.
    """
    last, prev = values[-1], values[-2]
    if last == 0.0:
        return True
    if last >= TAIL_ENTRY or last >= prev:
        return False
    ratio = last / prev
    return last * ratio / (1.0 - ratio) < TAIL_MASS


@lru_cache(maxsize=128)
def _ancestral_values(params: ModelParams, n_max: int | None) -> np.ndarray:
    """Vector d_0..d_N.  n_max=None grows N adaptively."""
    if params.t == 0.0:
        raise ValueError("the ancestral line count starts at infinity; t must be > 0")
    top = _last_index(params)
    if top > MAX_ANCESTRAL_N:
        raise NumericalConditioningError(
            f"the ancestral series needs {top} terms, more than {MAX_ANCESTRAL_N}; "
            "t is too small for the series representation"
        )
    log_w = -log_gamma_table(1.0, top + 1)

    def entries(lo: int, hi: int) -> list[float]:
        return reliable_values(
            *_line_count_entries(log_w, range(lo, hi), params),
            lambda r: f"ancestral entry d_{lo + r}",
            "t is too small for the series",
        ).tolist()

    if n_max is None:
        values = entries(0, _default_n_start(params.theta) + 1)
        # rows past top are exact zeros, so this closes by n = top + 1
        while not _tail_closed(values):
            values.extend(entries(len(values), math.ceil(len(values) * 1.5)))
    else:
        if n_max < 0:
            raise ValueError(f"n_max must be nonnegative, got {n_max}")
        values = entries(0, n_max + 1)
    return np.array(values)


def ancestral_pmf(n_max: int | None, params: ModelParams) -> Pmf:
    """Law of the number of surviving ancestral lines of the whole population.

    Args:
        n_max: truncation level.  None grows the support until the
            entries decay past 1e-14 with a geometric tail bound below
            1e-10; an explicit value must cover all but 1e-6 of the mass
            or the call fails.
        params: theta and t, with t > 0 (at t=0 the count is infinite).

    Returns:
        Pmf over n = 0..n_max with the discarded tail recorded as
        mass_defect (not renormalized away).
    """
    return Pmf.from_floats(
        _ancestral_values(params, n_max), 0, renormalize=False, context="ancestral line count"
    )


def _lineage_entries(m: int, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """signed_log_sums results for P[sample ancestral count = x], x = 0..m."""
    top = min(m, _last_index(params))
    i = np.arange(top + 1)
    # lgamma only where it is read: k! at k <= top and k >= m - top, and
    # Gamma(theta + k) at m <= k <= m + top
    log_fact = log_gamma_table(1.0, m + 1, np.concatenate((i, m - i)))
    log_gamma = log_gamma_table(params.theta, m + top + 1, m + i)
    # C(m,i) / (theta+m)_i
    log_w = log_fact[m] - log_fact[i] - log_fact[m - i] - (log_gamma[m + i] - log_gamma[m])
    return _line_count_entries(log_w, range(m + 1), params)


def _min_reliable_t(m: int, params: ModelParams) -> float | None:
    t = params.t
    for _ in range(60):
        t *= 2.0
        try:
            probe = ModelParams(params.theta, t)
            Pmf.from_signed_sums(*_lineage_entries(m, probe), 0, context="probe")
            return t
        except NumericalConditioningError:
            continue
    return None


@lru_cache(maxsize=128)
def lineage_pmf(m: int, params: ModelParams) -> Pmf:
    """Law of the number of ancestral lines of an m-sample at time t.

    Args:
        m: sample size, >= 0.
        params: theta and t.  t=0 returns the point mass at m.

    Returns:
        Pmf over x = 0..m.

    Raises:
        NumericalConditioningError: when the alternating sum cancels
            below the reliability threshold (small t, large m); the error
            carries the smallest t, to factor-of-two resolution, at which
            this m becomes computable, and the simulation path remains
            available below that.
    """
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    if params.t == 0.0:
        probs = np.zeros(m + 1)
        probs[m] = 1.0
        return Pmf(0, probs, 0.0)
    try:
        return Pmf.from_signed_sums(
            *_lineage_entries(m, params), 0, context="sample line count"
        )
    except NumericalConditioningError as err:
        raise NumericalConditioningError(
            f"sample line count law for m={m}, t={params.t:g} is numerically "
            "unreliable; " + str(err),
            min_reliable_t=_min_reliable_t(m, params),
            cancellation_ratio=err.cancellation_ratio,
        ) from err


def lineage_mean(m: int, params: ModelParams) -> float:
    """Expected number of ancestral lines of an m-sample at time t."""
    return lineage_pmf(m, params).mean()


def tmrca_cdf(m: int, r: int, params: ModelParams) -> float:
    """P[the m-sample has at most r ancestral lines by time t].

    As a function of t this is the distribution function of the time at
    which the sample's line count first drops to r.
    """
    if r < 0:
        raise ValueError(f"r must be nonnegative, got {r}")
    if r >= m:
        return 1.0
    pmf = lineage_pmf(m, params)
    return float(pmf.probs[: r + 1].sum())


@lru_cache(maxsize=256)
def r_pmf(n: int, m: int, theta: float) -> Pmf:
    """Distinct old types re-observed: n seed types, m draws.

    P[x of the n types appear in the sample] with each old type carrying
    unit weight against innovation mass theta.  Closed form is a product
    of positive factors, so no cancellation control is needed.
    """
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    _require_theta(theta)
    hi = min(n, m)
    # lgamma only where it is read: k!, (n-k)!, (m-k)! and Gamma(theta+k), k = 0..hi
    log_fact = log_gamma_table(1.0, hi + 1)
    log_fact_n = log_gamma_table(n - hi + 1.0, hi + 1)[::-1]
    log_fact_m = log_gamma_table(m - hi + 1.0, hi + 1)[::-1]
    log_gamma = log_gamma_table(theta, hi + 1)
    # x! C(n,x) C(m,x) (theta+x)_(m-x) / (theta+n)_m
    log_probs = (
        math.lgamma(n + 1.0) - log_fact_n
        + math.lgamma(m + 1.0) - log_fact - log_fact_m
        + math.lgamma(theta + m) - log_gamma
        - (math.lgamma(theta + (n + m)) - math.lgamma(theta + n))
    )
    return Pmf.from_floats(
        np.exp(log_probs), 0, renormalize=True, context="re-observed type count"
    )


def _freq_row_pmf(
    l: int, n: int, m: int, log_fact: np.ndarray, log_gamma: np.ndarray
) -> Pmf:
    """r_freq_pmf(l, n, m, theta) from tables log_fact[k] = log k! and
    log_gamma[k] = lgamma(theta + k), as _freq_tables(l, n_hi, m, theta)
    builds them for any n_hi >= n; it reads only entries they evaluate.

    Entry x is the chance that exactly x of the n seed types are drawn l
    times: exact_count_sums over the binomial moments, C(n,i) times the
    chance that i given types are, for i = 0..min(n, m // l).
    """
    hi = min(n, m // l)
    i = np.arange(hi + 1)
    # m! C(n,i) (theta+n-i)_(m-il) / ((m-il)! (theta+n)_m)
    log_moments = (
        log_fact[m]
        + log_fact[n] - log_fact[i] - log_fact[n - i]
        + log_gamma[n - i + m - i * l] - log_gamma[n - i]
        - log_fact[m - i * l]
        - (log_gamma[n + m] - log_gamma[n])
    )
    return Pmf.from_signed_sums(
        *exact_count_sums(log_moments, 0), 0, context="frequency-level type count"
    )


def _freq_tables(l: int, n_hi: int, m: int, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """The log_fact and log_gamma tables of _freq_row_pmf for every row n <= n_hi.

    Row n reads log k! at k <= n and k = m - il, and lgamma(theta + k) at
    k <= n and k = n + m - i(1+l), for i <= min(n, m // l).  Each table
    evaluates two index ranges that cover them: k <= n_hi, and k from
    m - l min(n_hi, m // l) up to m (log k!) or n_hi + m (lgamma).
    """
    far = m - l * min(n_hi, m // l)
    return (
        log_gamma_table(1.0, max(n_hi, m) + 1, np.r_[: n_hi + 1, far : m + 1]),
        log_gamma_table(theta, n_hi + m + 1, np.r_[: n_hi + 1, far : n_hi + m + 1]),
    )


@lru_cache(maxsize=256)
def r_freq_pmf(l: int, n: int, m: int, theta: float) -> Pmf:
    """Old types observed exactly l times: n seed types, m draws.

    Alternating sum over how many of the n types are forced to frequency
    l; all entries run through one signed_log_sums call and the usual
    gates.
    """
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    _require_theta(theta)
    return _freq_row_pmf(l, n, m, *_freq_tables(l, n, m, theta))


def _singleton_closed_entries(
    m: int, xs, params: ModelParams, i_hi: int, extra_log: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """signed_log_sums (sums, log_peaks) of the direct singleton representation.

    extra_log is a stack of rows, each indexed by n = 0..i_hi, and both
    results are (len(xs), rows) arrays: one sum per x and row.  Entry x of row r
    sums, over j = max(x,1)..m, i = j..i_hi and n = j..i,
    (-1)^(j-x+i+n) C(j,x) C(m,j) (2i-1+theta) e^(-t i(i-1+theta)/2)
    (theta+n-j)_(m-j) Gamma(theta+n+i-1) / ((n-j)! (i-n)! Gamma(theta+n+m))
    times e^extra_log[r, n], plus e^extra_log[r, 0] at x = 0 (the
    j = i = n = 0 corner).  It comes from expanding the line-count series
    inside the singleton mixture and swapping the order of summation.
    With extra_log = 0 and i_hi = m it is the singleton law, exact there
    because higher coefficients are mth-order differences of
    lower-degree polynomials; a route whose extra factor keeps more
    difference orders alive passes a larger i_hi.  extra_log must be
    finite at every n >= min(xs).  Valid for every theta > 0.  The (i, n)
    block of each j is built once and shared by every x and every row.
    """
    theta = params.theta
    log_fact = log_gamma_table(1.0, i_hi + 1)
    log_gamma = log_gamma_table(theta, 2 * i_hi + 1)
    j_lo = max(min(xs), 1)
    tri_i, tri_n = np.tril_indices(i_hi - j_lo + 1)
    blocks = {}
    for j in range(j_lo, m + 1):
        # (i, n) pairs with j <= n <= i <= i_hi lead the triangle in row order
        size = (i_hi - j + 1) * (i_hi - j + 2) // 2
        i = tri_i[:size] + j
        n = tri_n[:size] + j
        log_terms = (
            _log_abs_rho(i, params)
            - log_fact[n - j] - log_fact[i - n]
            + log_gamma[n + m - 2 * j] - log_gamma[n - j]
            + log_gamma[n + i - 1] - log_gamma[n + m]
            + log_fact[m] - log_fact[j] - log_fact[m - j]
        )
        blocks[j] = (log_terms, n, np.where((i + n + j) % 2 == 0, 1.0, -1.0))
    sums = np.empty((len(xs), len(extra_log)))
    log_peaks = np.empty_like(sums)
    for r, x in enumerate(xs):
        js = range(max(x, 1), m + 1)
        flip = 1.0 if x % 2 == 0 else -1.0
        log_terms = [blocks[j][0] + (log_fact[j] - log_fact[x] - log_fact[j - x]) for j in js]
        ns = [blocks[j][1] for j in js]
        signs = [flip * blocks[j][2] for j in js]
        if x == 0:
            log_terms.append([0.0])
            ns.append([0])
            signs.append([1.0])
        ns = np.concatenate(ns)
        sums[r], log_peaks[r] = signed_log_sums(
            np.concatenate(log_terms) + extra_log[:, ns], np.concatenate(signs)
        )
    return sums, log_peaks


@lru_cache(maxsize=64)
def singleton_lineage_pmf(m: int, params: ModelParams, method: str = "mixture") -> Pmf:
    """Law of the number of ancestral lines with exactly one sample descendant.

    The default mixes the frequency-level law over the population's
    surviving line count: conditional on n lines surviving, the m sample
    units fall into the urn with n seed types, and a line is a singleton
    ancestor when its type is drawn exactly once.  method="closed"
    evaluates the direct alternating representation instead, an
    independent cross-check route.
    """
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    _require_method(method)
    if params.t == 0.0:
        raise ValueError("the ancestral line count starts at infinity; t must be > 0")
    if method == "closed":
        sums, log_peaks = _singleton_closed_entries(
            m, range(m + 1), params, m, np.zeros((1, m + 1))
        )
        return Pmf.from_signed_sums(
            sums[:, 0], log_peaks[:, 0], 0, context="singleton ancestor count"
        )
    weights = _ancestral_values(params, None)
    # one table pair serves every row n
    tables = _freq_tables(1, len(weights) - 1, m, params.theta)
    return Pmf.from_mixture(
        weights, lambda n: _freq_row_pmf(1, n, m, *tables), 0, m + 1, "singleton ancestor count"
    )
