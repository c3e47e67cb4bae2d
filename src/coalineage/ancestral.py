"""Ancestral line counting under the coalescent with mutation.

The number of ancestral lines of a large population, run back for time t
with coalescence and killing by mutation, is a pure death process whose
level-n exit rate is n(n-1+theta)/2.  Starting from infinity it reaches
a proper law (d_n below); a sample of m individuals sees the binomial
projection of that law.  Both are the same alternating line-of-descent
series with different weights on the index i (Griffiths 1980; Tavare
1984): C(m,i)/(theta+m)_i for the sample, its m -> infinity limit 1/i!
for the population.  One kernel sums both, and entries are refused when
cancellation eats the result.  The singleton law mixes one table of
frequency-1 urn laws, sums of positive terms; its closed route sums the
series of every binomial moment, then takes inclusion-exclusion.
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
    _parts_ratios,
    _require_theta,
    _running_sums,
    blocks,
    log_factorials,
    log_gamma_table,
    moment_count_sums,
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
MAX_TRUNCATION = 10**7  # largest explicit n_max of ancestral_pmf
# line-count series terms past _last_index lie below exp(-TAIL_LOG)
TAIL_LOG = 80.0


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
    block padded with -inf below i = x, cut into runs of rows by
    numerics.blocks; column i = 0 holds the 1{x=0} term.  Rows past I
    hold only terms below the tail bound of _last_index: no terms are
    built for them and they come back as exact zeros.
    """
    theta = params.theta
    top = len(log_w) - 1
    log_fact = log_factorials(top + 1)
    log_gamma = log_gamma_table(theta, 2 * top + 1)
    i = np.arange(top + 1)
    # the row-independent factors, with the i! of C(i,x) folded in
    base = np.full(top + 1, -math.inf)
    base[1:] = _log_abs_rho(i[1:], params) + log_w[1:] + log_fact[1:]
    sums, log_peaks = np.zeros(len(rows)), np.full(len(rows), -math.inf)
    xs = np.arange(rows.start, min(rows.stop, top + 1))
    for run in blocks(np.full(len(xs), top + 1)):
        x = xs[run, None]
        gap = i - x
        log_terms = np.where(
            gap >= 0,
            base - log_fact[np.abs(gap)] + log_gamma[x + i - 1] - (log_fact[x] + log_gamma[x]),
            -math.inf,
        )
        log_terms[:, 0] = np.where(x[:, 0] == 0, 0.0, -math.inf)
        signs = np.where((i + x) % 2 == 0, 1.0, -1.0)
        sums[run], log_peaks[run] = signed_log_sums(log_terms, signs)
    return sums, log_peaks


def _tail_closed(values: np.ndarray) -> bool:
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
    """Vector d_0..d_N: one kernel call and one gate over n = 0..min(n_max, top), with
    exact zeros past the series' last index top.  n_max=None starts N + 1 at
    min(ceil(theta + 2) + 10, top) + 1 and grows it by half until the tail closes."""
    if params.t == 0.0:
        raise ValueError("the ancestral line count starts at infinity; t must be > 0")
    top = _last_index(params)
    if top > MAX_ANCESTRAL_N:
        raise NumericalConditioningError(
            f"the ancestral series needs {top} terms, more than {MAX_ANCESTRAL_N}; "
            "t is too small for the series representation"
        )
    if n_max is not None and not 0 <= n_max <= MAX_TRUNCATION:
        raise ValueError(f"n_max must be in [0, {MAX_TRUNCATION}], got {n_max}")
    rows = range(top + 1 if n_max is None else min(n_max, top) + 1)
    entries = reliable_values(
        *_line_count_entries(-log_factorials(top + 1), rows, params),
        lambda r: f"ancestral entry d_{r}",
        "t is too small for the series",
    )
    if n_max is None:
        size = min(math.ceil(params.theta + 2) + 10, top) + 1
        while size <= top + 1 and not _tail_closed(entries[:size]):
            size = math.ceil(size * 1.5)
    else:
        size = n_max + 1
    values = np.zeros(size)
    values[: len(rows)] = entries[:size]
    values.flags.writeable = False  # the cached array is shared by every caller
    return values


def ancestral_pmf(n_max: int | None, params: ModelParams) -> Pmf:
    """Law of the number of surviving ancestral lines of the whole population.

    Args:
        n_max: truncation level.  None grows the support until the
            entries decay past 1e-14 with a geometric tail bound below
            1e-10; an explicit value must cover all but 1e-6 of the mass
            or the call fails, and may be at most MAX_TRUNCATION (10**7
            entries, 80 MB): past the series' last index, at most
            MAX_ANCESTRAL_N, every entry is an exact zero.
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
    log_fact = log_factorials(m + 1)
    # lgamma only where it is read: Gamma(theta + k) at m <= k <= m + top
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
        probs.flags.writeable = False
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
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    if r < 0:
        raise ValueError(f"r must be nonnegative, got {r}")
    if r >= m:
        return 1.0
    pmf = lineage_pmf(m, params)
    return float(pmf.probs[: r + 1].sum())


def r_pmf(n: int, m: int, theta: float) -> Pmf:
    """Distinct old types re-observed: n seed types, m draws.

    P[x of the n types appear in the sample] with each old type carrying
    unit weight against innovation mass theta.  Closed form is a product
    of positive factors, so no cancellation control is needed.
    """
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    _require_theta(theta)
    x = np.arange(min(n, m) + 1)
    log_fact = log_factorials(max(n, m) + 1)
    log_gamma = log_gamma_table(theta, len(x))
    # x! C(n,x) C(m,x) (theta+x)_(m-x) / (theta+n)_m
    log_probs = (
        log_fact[n] - log_fact[n - x]
        + log_fact[m] - log_fact[x] - log_fact[m - x]
        + math.lgamma(theta + m) - log_gamma
        - (math.lgamma(theta + (n + m)) - math.lgamma(theta + n))
    )
    return Pmf.from_floats(
        np.exp(log_probs), 0, renormalize=True, context="re-observed type count"
    )


def _reobserved_rows(levels: np.ndarray, m: int, theta: float) -> np.ndarray:
    """The probs of r_pmf(n, m, theta) for every n of the increasing array
    levels, as one read-only table, each row padded with zeros past its law."""
    table = np.zeros((len(levels), min(int(levels[-1]), m) + 1))
    for row, n in zip(table, levels.tolist()):
        row[: min(n, m) + 1] = r_pmf(n, m, theta).probs
    table.flags.writeable = False
    return table


@np.errstate(divide="ignore")  # a zero step along r is log 0
def _freq_terms(l: int, levels: np.ndarray, m: int, theta: float) -> np.ndarray:
    """P[exactly y of n seed types are drawn l times], y = 0..min(n, m // l), one
    zero-padded row per n of the increasing array levels, before the mass check.

    The seed counts are Dirichlet-multinomial with unit weights, so by Vandermonde,
    with R = m - l y - (l+1) j, P[y | n] = C(n,y) m!/(theta+n)_m sum_j C(n-y,j)
    sum_r p(n-y-j, r) (theta+j)_(R-r)/(R-r)!: j types are drawn more than l times,
    the other n-y-j fewer, r times in all (p of _parts_ratios, size l).  The running
    sums start at (theta)_n/(theta+m)_n and step along y, j, then r.  numerics.blocks
    cuts the levels, widest first, into runs, and a wider level into runs of rows.
    Sums run left to right, so a row has its bits alone or in any stack.  At l >= 2
    the sum over r is O(n^3) steps, over an (n, r) table of part-count ratios.
    """
    top = int(levels[-1])
    y, j = np.arange(min(top, m // l) + 1)[:, None], np.arange(min(top, m // (l + 1)) + 1)
    k = np.arange(top)
    log_start = np.concatenate(([0.0], np.cumsum(np.log((theta + k) / (theta + k + m)))))
    y_ratio, cap = 1.0 / (y[:-1, 0] + 1), m - l * y[:-1, 0]  # the step along y, level-free
    for i in range(l):
        y_ratio *= (cap - i) / (theta + cap - i - 1)
    parts, order = _parts_ratios(l, top, min((l - 1) * top, m)), levels[::-1]
    table = np.zeros((len(order), len(y)))
    for run in blocks((np.minimum(order, m // l) + 1) * (np.minimum(order, m // (l + 1)) + 1)):
        n, first = order[run, None], int(order[run.start])
        ys, js = min(first, m // l) + 1, min(first, m // (l + 1)) + 1
        y_steps = np.maximum(n - y[: ys - 1, 0], 0) * y_ratio[: ys - 1]
        head = log_start[n[:, 0]]  # the running sum at each run of rows' first row
        for rows in blocks(np.full(ys, len(n) * js)):
            a, b, R = rows.start, rows.stop, m - l * y[rows] - (l + 1) * j[:js]
            big = np.maximum(R[:, :-1], l + 1)  # the step along j is 0 past the support
            j_ratio = (big - l) / (j[: js - 1] + 1) / (theta + j[: js - 1])
            for i in range(l):
                j_ratio *= (big - i) / (theta + j[: js - 1] + big - l + i)
            j_ratio *= R[:, :-1] > l
            rest = np.maximum(n[:, :, None] - y[rows] - j[:js], 0)  # types drawn < l times
            log_terms = _running_sums(head, y_steps[:, a : b - 1], rest[:, :, :-1] * j_ratio)
            head = log_terms[:, -1, 0] + np.log(y_steps[:, b - 1]) if b < ys else None
            terms = np.exp(log_terms, out=None if l > 1 else log_terms)  # l >= 2 steps along r
            for r in range(1, min((l - 1) * (first - a), m - l * a) + 1):
                r_steps = parts[rest, r - 1] * np.maximum(R - r + 1, 0)
                r_steps /= theta + j[:js] + np.maximum(R - r, 0)
                log_terms += np.log(r_steps)
                terms += np.exp(log_terms)
            table[run, a:b] = np.cumsum(terms, axis=2, out=terms)[:, :, -1]
            del R, big, j_ratio, rest, log_terms, terms  # before the next rows' arrays
    return table[::-1]


def _freq_rows(l: int, levels: np.ndarray, m: int, theta: float) -> np.ndarray:
    """The probs of r_freq_pmf(l, n, m, theta) for every n of the increasing
    array levels, as one read-only table, each row padded with zeros past its law."""
    return Pmf.from_rows(_freq_terms(l, levels, m, theta), "frequency-level type count")[0]


def r_freq_pmf(l: int, n: int, m: int, theta: float) -> Pmf:
    """Old types observed exactly l times: n seed types, m draws (a row of _freq_rows)."""
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    _require_theta(theta)
    (terms,) = _freq_terms(l, np.array([n]), m, theta)
    return Pmf.from_row(terms, 0, "frequency-level type count")


def _singleton_closed_entries(
    m: int, lo: int, params: ModelParams, i_hi: int, extra_log: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """signed_log_sums (sums, log_peaks) of the direct singleton representation.

    extra_log is a stack of rows indexed by n = 0..i_hi, finite at n >= lo; both
    results are (rows, m + 1 - lo): entries z = lo..m of each row, by
    numerics.moment_count_sums over binomial moments j = lo..m.  Moment j >= 1 of
    row r is one signed sum over i = j..i_hi and n = j..i of (-1)^(i+n) C(m,j)
    (2i-1+theta) e^(-t i(i-1+theta)/2) (theta+n-j)_(m-j) Gamma(theta+n+i-1) /
    ((n-j)! (i-n)! Gamma(theta+n+m)) times e^extra_log[r, n]; moment 0 is the
    corner e^extra_log[r, 0].  This swaps the order of summation in the singleton
    mixture; with extra_log = 0 and i_hi = m it is the singleton law, exact as
    higher coefficients are mth-order differences of lower-degree polynomials,
    and a factor that keeps more difference orders alive passes a larger i_hi.
    The moments j >= 1 are one -inf-padded stack of (moment x (i, n)-pair)
    terms, cut into runs of whole moments by numerics.blocks, each term's
    factors added in one-moment order, so a moment's bits are its own.
    """
    log_fact = log_factorials(i_hi + 1)
    log_gamma = log_gamma_table(params.theta, 2 * i_hi + 1)
    log_rho = _log_abs_rho(np.arange(1, i_hi + 1), params)  # log |rho(i)| at i - 1
    # moment j's pairs (i, n) = (j + a, j + b), j <= n <= i <= i_hi, lead the
    # triangle of (a, b) in row order, and (-1)^(i+n) = (-1)^(a+b)
    j_lo = max(lo, 1)
    tri_a, tri_b = np.tril_indices(i_hi - j_lo + 1)
    signs = np.where((tri_a + tri_b) % 2 == 0, 1.0, -1.0)
    sizes = (i_hi + 1 - np.arange(j_lo, m + 1)) * (i_hi + 2 - np.arange(j_lo, m + 1)) // 2
    # moment j in column j; columns 1..lo-1 are never read
    sums, log_peaks = np.ones((len(extra_log), m + 1)), np.array(extra_log[:, : m + 1])
    for run in blocks(sizes * len(extra_log)):
        j = np.arange(j_lo + run.start, j_lo + run.stop)[:, None]
        a, b = tri_a[: sizes[run.start]], tri_b[: sizes[run.start]]
        # in place and in one-moment order; padded pairs read clipped indices and are dropped
        terms = np.take(log_rho, a + (j - 1), mode="clip")
        terms -= log_fact[b]
        terms -= log_fact[a - b]
        terms += np.take(log_gamma, b + (m - j), mode="clip")
        terms -= log_gamma[b]
        terms += np.take(log_gamma, a + b + (2 * j - 1), mode="clip")
        terms -= np.take(log_gamma, b + (j + m), mode="clip")
        terms += log_fact[m]
        terms -= log_fact[j]
        terms -= log_fact[m - j]
        terms[np.arange(len(a)) >= sizes[run, None]] = -math.inf
        terms = terms + np.take(extra_log, b + j, axis=1, mode="clip")
        sums[:, j[:, 0]], log_peaks[:, j[:, 0]] = signed_log_sums(terms, signs[: len(a)])
    return moment_count_sums(sums, log_peaks, lo)


def singleton_lineage_pmf(m: int, params: ModelParams, method: str = "mixture") -> Pmf:
    """Law of the number of ancestral lines with exactly one sample descendant.

    The default mixes the frequency-1 urn law over the population's line
    count: given n surviving lines, the m sample units fall into the urn with
    n seed types, and a line is a singleton ancestor when its type is drawn
    exactly once.  Those laws are one table of sums of positive terms
    (_freq_rows), mixed by Pmf.from_mixture.  method="closed" evaluates the
    direct alternating representation instead, an independent cross-check
    that reads nothing from the mixture: binomial moments, then
    inclusion-exclusion.
    """
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    _require_method(method)
    if params.t == 0.0:
        raise ValueError("the ancestral line count starts at infinity; t must be > 0")
    if method == "closed":
        sums, log_peaks = _singleton_closed_entries(m, 0, params, m, np.zeros((1, m + 1)))
        return Pmf.from_signed_sums(sums[0], log_peaks[0], 0, context="singleton ancestor count")
    weights = _ancestral_values(params, None)
    levels = np.flatnonzero(weights)
    table = _freq_rows(1, levels, m, params.theta)
    return Pmf.from_mixture(weights[levels], table, 0, m + 1, "singleton ancestor count")
