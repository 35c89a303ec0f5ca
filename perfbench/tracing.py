"""Per-layer spans recorded from outside the package.

``Recorder.install`` replaces each traced public function at every module
attribute that is bound to it (``pfrobenius.frobenius.count_capped``,
``pfrobenius.gluing.fp_general``, ``pfrobenius.oracle.oracle_fp`` as ``cli``
reaches it ...), so calls made inside the package are recorded too.  A
name the package no longer defines is skipped, and the metrics derived
from it are absent rather than zero.

Spans live in memory with a parent link; self time is computed from the
nesting once the pass is over.
"""
from __future__ import annotations

import functools
import inspect
import math
import sys
import time

# (module, function, span name).  The gluing layer is traced as one span
# name over its public functions.
TRACED = (
    ("groebner", "toric_ideal_generators", "groebner.toric_ideal_generators"),
    ("groebner", "reduced_basis", "groebner.reduced_basis"),
    ("cone", "is_fp_finite", "cone.is_fp_finite"),
    ("frobenius", "lambda_bounds", "frobenius.lambda_bounds"),
    ("frobenius", "candidate_degrees", "frobenius.candidate_degrees"),
    ("frobenius", "fp_general", "frobenius.fp_general"),
    ("frobenius", "f0_numerical", "frobenius.f0_numerical"),
    ("factorization", "count_capped", "factorization.count_capped"),
    ("factorization", "contains", "factorization.contains"),
    ("factorization", "factorizations", "factorization.factorizations"),
    ("gluing", "glue", "gluing"),
    ("gluing", "validate_gluing", "gluing"),
    ("gluing", "fp_glued_bound", "gluing"),
    ("gluing", "gluing_equality", "gluing"),
    ("oracle", "oracle_fp", "oracle.oracle_fp"),
    ("core", "minimalize_generators", "core.minimalize_generators"),
    ("cli", "parse_and_dispatch", "cli.parse_and_dispatch"),
)

NAME, PARENT, START, END, INFO, RAISED = range(6)


def _len_result(args, kwargs, result):
    return len(result)


def _capped(args, kwargs, result):
    cap = args[2] if len(args) > 2 else kwargs["cap"]
    return result >= cap


def _box_tuples(args, kwargs, result):
    lam = args[1] if len(args) > 1 else kwargs["lam"]
    p = args[2] if len(args) > 2 else kwargs["p"]
    return math.prod(p * b + 1 for b in lam.bounds), len(result)


_INFO = {
    "groebner.toric_ideal_generators": _len_result,
    "groebner.reduced_basis": _len_result,
    "frobenius.candidate_degrees": _box_tuples,
    "factorization.count_capped": _capped,
}


class Recorder:
    def __init__(self, package) -> None:
        self.package = package
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.traced: set[str] = set()
        self.fp_keys: set = set()
        self.fp_repeats = 0

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == self.package.__name__ or n.startswith(self.package.__name__ + ".")]
        for module_name, attr, span_name in TRACED:
            module = getattr(self.package, module_name, None)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(fn, span_name)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapper)
            self.traced.add(span_name)

    def _wrap(self, fn, name):
        info = _INFO.get(name)
        if name == "frobenius.fp_general":
            signature = inspect.signature(fn)

            def info(args, kwargs, result):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                key = tuple(bound.arguments[k] for k in ("S", "p", "order"))
                if key in self.fp_keys:
                    self.fp_repeats += 1
                self.fp_keys.add(key)

        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, kwargs, result)
            return result

        return wrapper

    def metrics(self) -> dict[str, float]:
        """Per-layer totals over every span recorded so far."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]
        busy: dict[str, float] = {}
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        errors: dict[str, int] = {}
        for i, s in enumerate(spans):
            name = s[NAME]
            duration = s[END] - s[START]
            self_s[name] = self_s.get(name, 0.0) + duration - child_time[i]
            errors[name] = errors.get(name, 0) + s[RAISED]
            # busy time and calls count entries into a name from outside it
            parent = s[PARENT]
            while parent >= 0 and spans[parent][NAME] != name:
                parent = spans[parent][PARENT]
            if parent < 0:
                busy[name] = busy.get(name, 0.0) + duration
                calls[name] = calls.get(name, 0) + 1

        def info_sum(name, pick=lambda v: v):
            return sum(pick(s[INFO]) for s in spans if s[NAME] == name and s[INFO] is not None)

        out: dict[str, float] = {}

        def put(name, suffix, value):
            if name in self.traced:
                out[f"{name}.{suffix}"] = value

        for name in self.traced:
            put(name, "busy_s", busy.get(name, 0.0))
            put(name, "self_s", self_s.get(name, 0.0))
            put(name, "calls", calls.get(name, 0))
        put("groebner.toric_ideal_generators", "binomials",
            info_sum("groebner.toric_ideal_generators"))
        put("groebner.reduced_basis", "size", info_sum("groebner.reduced_basis"))
        put("frobenius.candidate_degrees", "tuples",
            info_sum("frobenius.candidate_degrees", lambda v: v[0]))
        candidates = info_sum("frobenius.candidate_degrees", lambda v: v[1])
        put("frobenius.candidate_degrees", "candidates", candidates)
        n_capped = calls.get("factorization.count_capped", 0)
        put("factorization.count_capped", "capped_frac",
            info_sum("factorization.count_capped") / n_capped if n_capped else 0.0)
        n_fp = calls.get("frobenius.fp_general", 0)
        put("frobenius.fp_general", "repeat_frac", self.fp_repeats / n_fp if n_fp else 0.0)
        if {"frobenius.fp_general", "factorization.count_capped"} <= self.traced:
            visited = sum(1 for s in spans if s[NAME] == "factorization.count_capped"
                          and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "frobenius.fp_general")
            out["frobenius.scan.visited"] = visited
            out["frobenius.scan.visited_frac"] = visited / candidates if candidates else 0.0
        if "cli.parse_and_dispatch" in self.traced:
            out["cli.commands"] = calls.get("cli.parse_and_dispatch", 0)
        for module in {name.split(".")[0] for name in self.traced}:
            out[f"{module}.errors"] = sum(
                n for name, n in errors.items() if name.split(".")[0] == module)
        return out
