"""Exact enumeration oracle for the atom-seeded urn.

The sampling scheme behind every distribution in this package is a
weighted urn: n atoms start with weight 1 each, a draw lands on atom j
with probability (1 + times j was drawn) / (theta + n + draws so far),
on an existing anonymous class proportionally to its size, and on a
fresh anonymous class with weight theta.  Enumerating every outcome
sequence with rational arithmetic gives exact reference laws for the
closed-form distributions; sizes are capped because the tree grows like
Bell numbers.

Outcomes are encoded as ints: +j (1-based) is a draw on atom j, -c is a
draw on the c-th anonymous class in order of first appearance.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .pmf import Pmf

__all__ = [
    "DrawSequence",
    "enumerate_sequences",
    "oracle_pmf",
    "oracle_pmf_exact",
]

MAX_ENUM_SIZE = 12

ORACLE_STATISTICS = ("R", "R_l", "cond_R", "cond_R_l", "K", "V", "joint_NMKV")


@dataclass(frozen=True)
class DrawSequence:
    """One complete outcome sequence and its exact probability."""

    outcomes: tuple[int, ...]
    probability: Fraction


def _as_fraction(theta) -> Fraction:
    # floats convert by their exact binary value; 0.5 and 9.5 are dyadic
    # and therefore exact
    f = Fraction(theta)
    if f <= 0:
        raise ValueError(f"theta must be positive, got {theta!r}")
    return f


def _check_size(n_atoms: int, total_draws: int) -> None:
    if n_atoms < 0 or total_draws < 0:
        raise ValueError("n_atoms and draw counts must be nonnegative")
    if n_atoms + total_draws > MAX_ENUM_SIZE:
        raise ValueError(
            f"enumeration limited to n_atoms + draws <= {MAX_ENUM_SIZE}, "
            f"got {n_atoms} + {total_draws}"
        )


def _leaves(n_atoms: int, total_draws: int) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """Yield (outcomes, integer weight product, new-class count) per sequence.

    The weight product collects the theta-free numerator factors: 1+count
    for atom draws, class size for old-class draws; each new-class draw
    contributes one factor of theta, tracked separately as a count.
    """
    outcomes: list[int] = []
    counts = [0] * n_atoms
    class_sizes: list[int] = []

    def walk(depth: int, weight: int, new_classes: int):
        if depth == total_draws:
            yield tuple(outcomes), weight, new_classes
            return
        for j in range(n_atoms):
            outcomes.append(j + 1)
            counts[j] += 1
            yield from walk(depth + 1, weight * counts[j], new_classes)
            counts[j] -= 1
            outcomes.pop()
        for c in range(len(class_sizes)):
            outcomes.append(-(c + 1))
            class_sizes[c] += 1
            yield from walk(depth + 1, weight * (class_sizes[c] - 1), new_classes)
            class_sizes[c] -= 1
            outcomes.pop()
        outcomes.append(-(len(class_sizes) + 1))
        class_sizes.append(1)
        yield from walk(depth + 1, weight, new_classes + 1)
        class_sizes.pop()
        outcomes.pop()

    yield from walk(0, 1, 0)


def _denominator(n_atoms: int, total_draws: int, p: int, q: int) -> int:
    d = 1
    for i in range(total_draws):
        d *= p + q * (n_atoms + i)
    return d


def enumerate_sequences(n_atoms: int, m_draws: int, theta) -> list[DrawSequence]:
    """Materialize every outcome sequence with its exact probability.

    Args:
        n_atoms: number of pre-seeded unit-weight atoms.
        m_draws: number of draws.
        theta: innovation mass, any rational (Fraction, int, str, or a
            float taken at its exact binary value).

    Returns:
        All sequences; probabilities are Fractions summing to exactly 1.
        Bounded by n_atoms + m_draws <= 12 (the tree is Bell-sized).
    """
    _check_size(n_atoms, m_draws)
    th = _as_fraction(theta)
    p, q = th.numerator, th.denominator
    denom = _denominator(n_atoms, m_draws, p, q)
    out = []
    for outcomes, weight, k in _leaves(n_atoms, m_draws):
        num = weight * p**k * q ** (m_draws - k)
        out.append(DrawSequence(outcomes, Fraction(num, denom)))
    return out


def _atom_multiplicities(outcomes: tuple[int, ...], n_atoms: int) -> list[int]:
    counts = [0] * n_atoms
    for o in outcomes:
        if o > 0:
            counts[o - 1] += 1
    return counts


def oracle_pmf_exact(
    statistic: str,
    *,
    n_atoms: int = 0,
    m: int = 0,
    m_prime: int = 0,
    y: int | None = None,
    l: int | None = None,
    theta=1,
    sequences: list[DrawSequence] | None = None,
) -> dict:
    """Exact law of a sample statistic under the urn, as Fractions.

    Statistics:
        R        number of distinct atoms drawn in m draws
        R_l      number of atoms drawn exactly l times in m draws
        cond_R   law of R after m+m_prime draws given R == y after m
        cond_R_l law of the count of exactly-l atoms (at m) that are
                 drawn again within the m_prime extension, given y of
                 them at m
        K        number of anonymous classes after m draws
        V        number of anonymous draws after m draws
        joint_NMKV  full configuration law: keys (atom multiplicities,
                 sorted class sizes), from which K and V derive

    Conditional statistics enumerate m + m_prime draws and condition
    exactly; a zero-probability conditioning event raises.  Passing
    ``sequences`` reuses a previous enumeration of the same urn.
    """
    if statistic not in ORACLE_STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}; expected one of {ORACLE_STATISTICS}")
    conditional = statistic in ("cond_R", "cond_R_l")
    total_draws = m + m_prime if conditional else m
    if conditional and y is None:
        raise ValueError(f"{statistic} needs the conditioning value y")
    if statistic in ("R_l", "cond_R_l"):
        if l is None or l < 1:
            raise ValueError(f"{statistic} needs a frequency l >= 1")
    if sequences is None:
        sequences = enumerate_sequences(n_atoms, total_draws, theta)
    else:
        _check_size(n_atoms, total_draws)
        if sequences and len(sequences[0].outcomes) != total_draws:
            raise ValueError("provided sequences have the wrong number of draws")

    acc: dict = {}
    cond_mass = Fraction(0)
    for seq in sequences:
        o = seq.outcomes
        if statistic == "R":
            key = len({x for x in o if x > 0})
        elif statistic == "R_l":
            key = sum(1 for c in _atom_multiplicities(o, n_atoms) if c == l)
        elif statistic == "K":
            key = len({x for x in o if x < 0})
        elif statistic == "V":
            key = sum(1 for x in o if x < 0)
        elif statistic == "joint_NMKV":
            sizes = Counter(x for x in o if x < 0)
            key = (
                tuple(_atom_multiplicities(o, n_atoms)),
                tuple(sorted(sizes.values(), reverse=True)),
            )
        elif statistic == "cond_R":
            seen_at_m = len({x for x in o[:m] if x > 0})
            if seen_at_m != y:
                continue
            cond_mass += seq.probability
            key = len({x for x in o if x > 0})
        else:  # cond_R_l
            prefix_counts = _atom_multiplicities(o[:m], n_atoms)
            level_atoms = [j for j, c in enumerate(prefix_counts) if c == l]
            if len(level_atoms) != y:
                continue
            cond_mass += seq.probability
            extension_hits = {x - 1 for x in o[m:] if x > 0}
            key = sum(1 for j in level_atoms if j in extension_hits)
        acc[key] = acc.get(key, Fraction(0)) + seq.probability

    if conditional:
        if cond_mass == 0:
            raise ValueError(
                f"conditioning event {statistic} y={y} has probability zero"
            )
        acc = {k: v / cond_mass for k, v in acc.items()}
    return acc


def oracle_pmf(
    statistic: str,
    *,
    n_atoms: int = 0,
    m: int = 0,
    m_prime: int = 0,
    y: int | None = None,
    l: int | None = None,
    theta=1,
    sequences: list[DrawSequence] | None = None,
) -> Pmf:
    """Float view of oracle_pmf_exact on a contiguous integer support.

    joint_NMKV has composite keys and only exists in exact form; ask
    oracle_pmf_exact for it.
    """
    if statistic == "joint_NMKV":
        raise ValueError("joint_NMKV has composite keys; use oracle_pmf_exact")
    exact = oracle_pmf_exact(
        statistic,
        n_atoms=n_atoms,
        m=m,
        m_prime=m_prime,
        y=y,
        l=l,
        theta=theta,
        sequences=sequences,
    )
    hi = max(exact)
    probs = [float(exact.get(x, Fraction(0))) for x in range(hi + 1)]
    return Pmf.from_floats(probs, 0, renormalize=False, context=f"oracle {statistic}")
