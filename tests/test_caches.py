"""The package's memoized results, kept to the two that callers share."""

import importlib
import pkgutil

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
