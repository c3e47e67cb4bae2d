"""Spans and counters around the public functions of each coalineage module.

The tracer wraps each traced function at every module attribute that
refers to it, because callers look functions up through their own module
(``posterior`` imports ``lineage_pmf`` by name, ``ancestral`` imports
``signed_log_sum`` by name).  A span records its name, start, end and
parent; spans stay in memory and are summarised, and optionally written
out, when the run ends.  A span's self time is its duration minus the
durations of its children, which nest inside it on one thread.  Spans in
forked pool workers never reach this process.

A function that the program no longer has is recorded as absent rather
than failing the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# (module, function): wrapped with a span each
SPANNED = (
    ("numerics", "compensated_signed_sum"),
    ("numerics", "signed_log_sum"),
    ("ancestral", "lineage_pmf"),
    ("ancestral", "ancestral_pmf"),
    ("ancestral", "singleton_lineage_pmf"),
    ("ancestral", "r_pmf"),
    ("ancestral", "r_freq_pmf"),
    ("posterior", "n_posterior"),
    ("posterior", "cond_r_pmf"),
    ("posterior", "cond_r_freq_pmf"),
    ("posterior", "predictive_lineage_pmf"),
    ("posterior", "predictive_singleton_pmf"),
    ("posterior", "gt_new_lineage_prob"),
    ("posterior", "gt_singleton_prob"),
    ("datasets", "load_dataset"),
    ("ewens", "theta_mle"),
    ("simulate", "run_replicates"),
)
# (module, function): called too often for spans; counted only
COUNTED = (
    ("numerics", "log_binomial"),
    ("numerics", "log_rising_factorial"),
)
# classmethods of pmf.Pmf, wrapped with a span each
PMF_CONSTRUCTORS = ("from_signed_sums", "from_floats")
# lru_cache'd functions whose hit and miss counts are read from cache_info()
CACHED = (
    "ancestral.r_pmf",
    "ancestral.r_freq_pmf",
    "ancestral.lineage_pmf",
    "ancestral.singleton_lineage_pmf",
)


def _singleton_route(args, kwargs) -> str:
    return kwargs.get("method", args[2] if len(args) > 2 else "mixture")


def _series_terms(args, kwargs, result) -> int:
    return result.terms_used


def _batch_terms(args, kwargs, result) -> int:
    return len(args[0] if args else kwargs["log_terms"])


# span name -> (route of one call, every route); each route gets its own figures
ROUTES = {"ancestral.singleton_lineage_pmf": (_singleton_route, ("mixture", "closed"))}
TERMS = {
    "numerics.compensated_signed_sum": _series_terms,
    "numerics.signed_log_sum": _batch_terms,
}


def package_modules() -> list:
    """The coalineage package and its submodules loaded in this process."""
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "coalineage" or name.startswith("coalineage."))
    ]


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self.traced: list[str] = []
        self.absent: list[str] = []
        self.cached: list[str] = []
        self._stack = [-1]

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name, fn, refused):
        route = ROUTES.get(name, (None,))[0]
        terms = TERMS.get(name)
        cache_info = getattr(fn, "cache_info", None) if name in CACHED else None
        if cache_info is not None:
            self.cached.append(name)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if cache_info is not None:
                before = cache_info()
            idx = self.begin(name if route is None else f"{name}.{route(args, kwargs)}")
            try:
                result = fn(*args, **kwargs)
            except refused:
                counts[f"{name}.refusals"] += 1
                raise
            finally:
                self.end(idx)
                if cache_info is not None:
                    # per-call deltas stay right when callers clear the caches
                    after = cache_info()
                    counts[f"{name}.cache_hits"] += after.hits - before.hits
                    counts[f"{name}.cache_misses"] += after.misses - before.misses
            if terms is not None:
                counts[f"{name}.terms"] += terms(args, kwargs, result)
            return result

        return traced

    def _count(self, name, fn):
        counts = self.counts
        key = f"{name}.calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Patch every package module attribute that refers to a traced function."""
        modules = package_modules()
        refused = sys.modules["coalineage.errors"].NumericalConditioningError
        for (mod, fn), make in [(t, "span") for t in SPANNED] + [(t, "count") for t in COUNTED]:
            name = f"{mod}.{fn}"
            home = sys.modules.get(f"coalineage.{mod}")
            original = getattr(home, fn, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, refused) if make == "span" else self._count(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
            self.traced.append(name)
        pmf_cls = getattr(sys.modules.get("coalineage.pmf"), "Pmf", None)
        for meth in PMF_CONSTRUCTORS:
            raw = vars(pmf_cls).get(meth) if pmf_cls is not None else None
            if not isinstance(raw, classmethod):
                self.absent.append(f"pmf.{meth}")
                continue
            setattr(pmf_cls, meth, classmethod(self._wrap(f"pmf.{meth}", raw.__func__, refused)))
            self.traced.append(f"pmf.{meth}")
        self.absent.extend(f"{name}.cache" for name in CACHED if name not in self.cached)

    def summary(self) -> dict[str, float]:
        """Flat per-layer figures: calls, ms and self_ms per span name, plus counters."""
        child_ns = [0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += self.ends[i] - self.starts[i]
        calls, total_ns, self_ns = Counter(), Counter(), Counter()
        for i, name in enumerate(self.names):
            duration = self.ends[i] - self.starts[i]
            names = [name]
            # a routed span also counts toward its function's totals
            base = name.rsplit(".", 1)[0]
            if base in ROUTES:
                names.append(base)
            for n in names:
                calls[n] += 1
                total_ns[n] += duration
                self_ns[n] += duration - child_ns[i]
        out: dict[str, float] = {f"{name}.calls": 0 for name in self.traced}
        counted = {f"{mod}.{fn}" for mod, fn in COUNTED}
        spanned = [name for name in self.traced if name not in counted]
        spanned += [f"{n}.{r}" for n, (_, routes) in ROUTES.items() if n in self.traced for r in routes]
        for name in spanned:
            out[f"{name}.calls"] = 0
            out[f"{name}.ms"] = 0.0
            out[f"{name}.self_ms"] = 0.0
        for name in TERMS:
            if name in self.traced:
                out[f"{name}.terms"] = 0
        for name in self.cached:
            out[f"{name}.cache_hits"] = 0
            out[f"{name}.cache_misses"] = 0
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.ms"] = total_ns[name] / 1e6
            out[f"{name}.self_ms"] = self_ns[name] / 1e6
        out.update(self.counts)
        if "pmf.from_signed_sums" in self.traced or "pmf.from_floats" in self.traced:
            out["pmf.refusals"] = sum(self.counts[f"pmf.{m}.refusals"] for m in PMF_CONSTRUCTORS)
        return out

    def dump(self, path) -> None:
        """Write the spans as [name, start_us, end_us, parent] rows, start-relative."""
        t0 = self.starts[0] if self.starts else 0
        rows = [
            [name, (start - t0) / 1e3, (end - t0) / 1e3, parent]
            for name, start, end, parent in zip(self.names, self.starts, self.ends, self.parents)
        ]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start_us", "end_us", "parent"], "spans": rows}, fh)
