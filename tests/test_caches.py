"""The package's memoized results, kept to the two that callers share, and
its module-level tables, kept to the two it needs."""

import collections
import importlib
import pkgutil

import numpy as np

import coalineage


def test_only_the_population_law_and_the_posterior_are_memoized():
    # every lru_cache in the package, found as the benchmark's clear_caches
    # finds them: module attributes that have a cache_info
    cached = set()
    for info in pkgutil.iter_modules(coalineage.__path__):
        module = importlib.import_module(f"coalineage.{info.name}")
        for value in vars(module).values():
            if hasattr(value, "cache_info"):
                cached.add(f"{value.__module__}.{value.__qualname__}")
    assert cached == {"coalineage.ancestral._ancestral_values", "coalineage.posterior.n_posterior"}


def test_only_the_known_tables_are_kept_at_module_level():
    # every mutable container a module holds, found by the same walk, so a
    # hand-rolled memo list or dict fails here as a new lru_cache fails
    # above; dunder names such as __all__ and __builtins__ are not tables
    mutable = (list, dict, set, bytearray, collections.deque, np.ndarray)
    kept = set()
    for info in pkgutil.iter_modules(coalineage.__path__):
        module = importlib.import_module(f"coalineage.{info.name}")
        for name, value in vars(module).items():
            if isinstance(value, mutable) and not name.startswith("__"):
                kept.add(f"{module.__name__}.{name}")
    assert kept == {
        "coalineage.datasets._ALLOWED_KEYS",
        "coalineage.numerics._LOG_FACTORIALS",
    }
