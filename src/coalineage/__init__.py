"""Ancestral lineage inference under the coalescent with mutation.

The package answers three families of questions about a sample of m
sequences drawn from a neutral infinite-alleles population:

* how many ancestral lineages survive to time t in the past, for the
  sample (``lineage_pmf``), for the whole population (``ancestral_pmf``),
  and for the single-copy classes only (``singleton_lineage_pmf``);
* how those counts grow if the sample is enlarged by m' sequences
  (``predictive_lineage_pmf``, ``predictive_singleton_pmf``) and the
  discovery probabilities that follow (``gt_new_lineage_prob``,
  ``gt_singleton_prob``);
* what mutation rate the observed allelic partition supports
  (``theta_mle``, ``esf_log_prob``).

Everything analytic is cross-checked two ways: a Monte Carlo block death
process (``run_replicates``) and an exact rational urn enumeration
(``oracle_pmf_exact``) that small cases must match to the last digit.
The oracle pulls in ``fractions`` and ``decimal``, so its module loads on
first use of one of its names.  The ``coalineage`` console script exposes
the common workflows.
"""

from .ancestral import (
    ModelParams,
    ancestral_pmf,
    death_rate,
    lineage_mean,
    lineage_pmf,
    r_freq_pmf,
    r_pmf,
    rho,
    singleton_lineage_pmf,
    tmrca_cdf,
)
from .datasets import Dataset, bundled_names, load_dataset, parse_dataset
from .errors import CoalineageError, DataFormatError, NumericalConditioningError
from .ewens import (
    AlleleConfiguration,
    AllelicPartition,
    esf_log_prob,
    expected_k,
    hoppe_sample,
    theta_mle,
)
from .pmf import Pmf
from .posterior import (
    PredictiveQuery,
    cond_r_freq_pmf,
    cond_r_pmf,
    gt_new_lineage_prob,
    gt_singleton_prob,
    n_posterior,
    predictive_lineage_pmf,
    predictive_singleton_pmf,
)
from .simulate import ReplicateSummary, default_threads, run_replicates

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ModelParams",
    "ancestral_pmf",
    "death_rate",
    "lineage_mean",
    "lineage_pmf",
    "r_freq_pmf",
    "r_pmf",
    "rho",
    "singleton_lineage_pmf",
    "tmrca_cdf",
    "Dataset",
    "bundled_names",
    "load_dataset",
    "parse_dataset",
    "CoalineageError",
    "DataFormatError",
    "NumericalConditioningError",
    "AlleleConfiguration",
    "AllelicPartition",
    "esf_log_prob",
    "expected_k",
    "hoppe_sample",
    "theta_mle",
    "enumerate_sequences",
    "oracle_pmf",
    "oracle_pmf_exact",
    "Pmf",
    "PredictiveQuery",
    "cond_r_freq_pmf",
    "cond_r_pmf",
    "gt_new_lineage_prob",
    "gt_singleton_prob",
    "n_posterior",
    "predictive_lineage_pmf",
    "predictive_singleton_pmf",
    "ReplicateSummary",
    "default_threads",
    "run_replicates",
]


def __getattr__(name):
    # only the oracle loads on first use: tracers look every other module's
    # functions up in sys.modules right after `import coalineage`
    if name in ("enumerate_sequences", "oracle_pmf", "oracle_pmf_exact"):
        from . import enumeration

        return getattr(enumeration, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
