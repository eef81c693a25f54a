"""Per-layer spans and counters, recorded from outside the library.

`Tracer.install` rebinds each public function named in `SPANS` in every
loaded `lorentzgh` module namespace that holds it (for example
`build_space` is bound in core, geometry, causet, serialize and limits), so
nested calls between modules are caught and no library source changes. A
span's self time is its duration minus the time covered by its child spans.
Spans stay in memory; the run writes them out when it ends.

Only module attributes are rebound: a name bound by `from lorentzgh import
...` before `install` still points at the unwrapped function, so callers
must reach the layers through module attributes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

# layer (module) -> public functions timed as spans
SPANS = {
    "core": ("build_space", "validate_matrix", "causality_class",
             "quotient_tau_indistinguishable"),
    "geometry": ("sample_spacetime",),
    "nets": ("greedy_net", "default_candidates", "verify_net", "doubling_constant",
             "exact_min_cover"),
    "corr": ("min_distortion", "distortion", "lgh_certificate"),
    "curvature": ("curvature_bound_scan", "four_point_check", "comparison_config"),
    "measured": ("induce_net_measure",),
    "limits": ("diagonal_limit", "tangent_experiment"),
    "causet": ("sprinkle", "chain_ell", "build_causet", "hauptvermutung_trial"),
    "serialize": ("space_from_dict", "space_to_dict", "dumps"),
    "cli": ("main",),
}

# min_distortion is one function whose two modes are separate layers
MODE_SPLIT = {"corr.min_distortion": ("exact", "heuristic")}


def span_names() -> list[str]:
    names = []
    for module, funcs in SPANS.items():
        for func in funcs:
            base = f"{module}.{func}"
            modes = MODE_SPLIT.get(base)
            names.extend([f"{base}.{m}" for m in modes] if modes else [base])
    return names


class SpanStats:
    __slots__ = ("calls", "self_s", "total_s", "errors")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.errors = 0


class Tracer:
    """Span and counter store; off until `enabled` is set."""

    def __init__(self):
        self.enabled = False
        self.stats: dict[str, SpanStats] = defaultdict(SpanStats)
        self.counters: dict[str, float] = defaultdict(float)
        self.top_level_s = 0.0  # time inside spans that have no parent span
        self._child_time: list[float] = []

    def reset(self) -> None:
        self.stats.clear()
        self.counters.clear()
        self.top_level_s = 0.0

    @contextlib.contextmanager
    def paused(self):
        """Run benchmark-side checks through the wrappers without recording them."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def install(self) -> None:
        for module, funcs in SPANS.items():
            mod = importlib.import_module(f"lorentzgh.{module}")
            for func in funcs:
                original = getattr(mod, func)
                wrapper = self._wrap(f"{module}.{func}", original)
                for name, loaded in list(sys.modules.items()):
                    if name != "lorentzgh" and not name.startswith("lorentzgh."):
                        continue
                    for attr, value in list(vars(loaded).items()):
                        if value is original:
                            setattr(loaded, attr, wrapper)

    def _wrap(self, base: str, fn):
        sig = inspect.signature(fn)
        split = MODE_SPLIT.get(base)
        hook = _HOOKS.get(base)
        stack = self._child_time

        def span_name(args, kwargs):
            if split is None:
                return base
            return f"{base}.{sig.bind(*args, **kwargs).arguments.get('mode', 'heuristic')}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            name = span_name(args, kwargs)
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.stats[name].errors += 1
                raise
            finally:
                duration = perf_counter() - start
                child = stack.pop()
                s = self.stats[name]
                s.calls += 1
                s.total_s += duration
                s.self_s += duration - child
                if stack:
                    stack[-1] += duration
                else:
                    self.top_level_s += duration
            if hook is not None:
                hook(self.counters, sig.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper


def _greedy_net_counts(counters, arguments, net):
    candidates = arguments.get("candidates")
    if candidates is not None:  # otherwise default_candidates counts them
        counters["nets.candidates"] += len(set(candidates))
    counters["nets.chosen"] += len(net.pairs) - len(arguments.get("seed_pairs", ()))


def _default_candidates_counts(counters, arguments, candidates):
    counters["nets.candidates"] += len(candidates)


def _scan_counts(counters, arguments, result):
    counters["curvature.tested"] += result["tested"]


_HOOKS = {
    "nets.greedy_net": _greedy_net_counts,
    "nets.default_candidates": _default_candidates_counts,
    "curvature.curvature_bound_scan": _scan_counts,
}
