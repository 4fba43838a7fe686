"""Spans around adicshift's public functions, and the arithmetic on them.

``Tracer.install`` replaces each public function of the layer modules by a
wrapper, in every module of the package that binds it, so calls between
modules are seen too.  While ``Tracer.active`` is set, each call records a
span (name, parent span, start, end); counters are read off arguments and
results.  ``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("words", "recognize", "phase", "constructions", "diagrams",
          "symbols", "cli")


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default):
    rank q * (n - 1) in the sorted values, 0 <= q <= 1."""
    if not values:
        raise ValueError("no values")
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def self_times(spans) -> dict[str, float]:
    """Self time per span name: each span's duration minus the durations of
    its direct children.  ``spans`` are (name, parent index or -1, start,
    end) in any order of completion."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for (name, _, start, end), inner in zip(spans, child_time):
        out[name] = out.get(name, 0.0) + (end - start) - inner
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.active = False
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            span = [name, tracer.stack[-1] if tracer.stack else -1, 0.0, 0.0]
            tracer.spans.append(span)
            tracer.stack.append(index)
            before = observe.before(fn) if observe else None
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                tracer.stack.pop()
            tracer.counts[name + ".calls"] += 1
            if observe:
                observe.after(tracer.counts, fn, args, kwargs, result, before)
            return result

        return traced

    def install(self, package: str = "adicshift"):
        """Wrap the public functions of every layer module wherever the
        package binds them."""
        modules = [m for n, m in sys.modules.items()
                   if n == package or n.startswith(package + ".")]
        originals = {}
        for layer in LAYERS:
            module = sys.modules.get(f"{package}.{layer}")
            if module is None:
                continue
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not callable(obj):
                    continue
                if inspect.isclass(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                originals[id(obj)] = self.wrap(name, obj, OBSERVERS.get(name))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, obj in reversed(self._patches):
            setattr(module, attr, obj)
        self._patches.clear()

    # -- output -----------------------------------------------------------

    def write(self, path: str):
        """One line per span: name, parent index, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, parent, start, end in self.spans:
                fh.write(f"{name}\t{parent}\t{start:.9f}\t{end:.9f}\n")


# ---------------------------------------------------------------------------
# counters read at the layer boundaries


class _Observer:
    def __init__(self, after, before=None):
        self.after = after
        self.before = before or (lambda fn: None)


def _cache_misses(fn):
    info = getattr(fn, "cache_info", None)
    return info().misses if info else None


def _language(counts, fn, args, kwargs, result, misses):
    cap = kwargs.get("cap", args[1] if len(args) > 1 else 0)
    counts["words.factor_language.max_cap"] = max(
        counts["words.factor_language.max_cap"], cap)
    after = _cache_misses(fn)
    if misses is None or after != misses:
        counts["words.factor_language.built"] += 1
        counts["words.factor_language.factors"] += len(result.factors)


def _verdict(counts, fn, args, kwargs, result, before):
    kind = type(result).__name__
    if kind == "ParseChain":
        counts["recognize.parse_chains"] += 1
    elif kind == "AmbiguityReport":
        counts["recognize.ambiguity_reports"] += 1


def _add(key, measure):
    def after(counts, fn, args, kwargs, result, before):
        counts[key] += measure(result)
    return _Observer(after)


OBSERVERS = {
    "words.factor_language": _Observer(_language, _cache_misses),
    "recognize.one_word_tilings": _add(
        "recognize.one_word_tilings.tilings", len),
    "recognize.recognize_window": _Observer(_verdict),
    "constructions.return_words": _add(
        "constructions.return_words.vocabulary",
        lambda rs: len(rs.vocabulary)),
    "diagrams.vershik_orbit_coding": _add(
        "diagrams.vershik_orbit_coding.steps", len),
    "symbols.expansiveness_witness_search": _add(
        "symbols.witness.examined", lambda verdict: verdict.examined),
}
