"""The refused region as a tested number.

refusal_ledger.json holds one bit per law and grid point: whether the law
returns there or raises NumericalConditioningError.  The test recomputes
it, so a point that flips either way fails until the ledger is rewritten
in the same change, and every move of the region shows in its diff.
Rewrite it with

    PYTHONPATH=src python tests/test_refusal_ledger.py
"""

import itertools
import json
from pathlib import Path

from coalineage.ancestral import ModelParams, ancestral_pmf, lineage_pmf, singleton_lineage_pmf
from coalineage.errors import NumericalConditioningError
from coalineage.posterior import (
    PredictiveQuery,
    predictive_lineage_pmf,
    predictive_singleton_pmf,
)

LEDGER = Path(__file__).with_name("refusal_ledger.json")
THETAS = (0.5, 1, 3, 9.5, 20)
TS = (0.01, 0.02, 0.05, 0.08, 0.1, 0.15, 0.34, 1)
MS = (5, 20, 146, 1000)
# predictives observe y = 2 and draw m' = 10 more
Y, M_PRIME = 2, 10

# each law over (m, params); the population law has no m, and the closed
# singleton law runs at m <= 146
LAWS = {
    "ancestral_pmf": (lambda m, params: ancestral_pmf(None, params), (None,)),
    "lineage_pmf": (lineage_pmf, MS),
    "singleton, mixture": (singleton_lineage_pmf, MS),
    "singleton, closed": (
        lambda m, params: singleton_lineage_pmf(m, params, method="closed"),
        [m for m in MS if m <= 146],
    ),
    "total predictive, mixture": (
        lambda m, params: predictive_lineage_pmf(PredictiveQuery(m, M_PRIME, Y, params)),
        MS,
    ),
    "singleton predictive, mixture": (
        lambda m, params: predictive_singleton_pmf(PredictiveQuery(m, M_PRIME, Y, params)),
        MS,
    ),
}


def point(theta, t, m) -> str:
    return f"theta={theta} t={t}" + ("" if m is None else f" m={m}")


def ledger() -> dict:
    """law -> point -> "returned" or "refused", over the whole grid."""
    out = {}
    for law, (compute, ms) in LAWS.items():
        out[law] = {}
        for theta, t, m in itertools.product(THETAS, TS, ms):
            try:
                compute(m, ModelParams(theta, t))
                outcome = "returned"
            except NumericalConditioningError:
                outcome = "refused"
            out[law][point(theta, t, m)] = outcome
    return out


def test_refused_region_matches_the_ledger():
    want = json.loads(LEDGER.read_text())
    got = ledger()
    flipped = [
        f"{law}, {p}: {want.get(law, {}).get(p)} -> {outcome}"
        for law, points in got.items()
        for p, outcome in points.items()
        if want.get(law, {}).get(p) != outcome
    ]
    assert got == want, flipped


if __name__ == "__main__":
    LEDGER.write_text(json.dumps(ledger(), indent=1) + "\n")
