"""Spans and counts at the public boundaries of each conekit module.

The tracer replaces a function or method with a wrapper that records a span
(name, start, end, parent) in memory, plus counts where the boundary knows
them. Each name is patched where it is looked up: on the class for methods,
and in every loaded `conekit` module namespace that bound the function by
name (for example `certify` imports `hall_polynomial` from `hallalg`).
Nothing in `src/` is edited; the patches live only in a traced child.

Hot leaves stay unwrapped, because a wrapper there would cost more than the
work it times: `linalg.dot` and `linalg.primitive` (inner loops of double
description), `hallalg._rank_mod` (about 1.25 M calls in the Hall tests) and
the recursion inside `_enumerate_fillings`. Their time shows up as self time
of the boundary above them.
"""

from __future__ import annotations

import functools
import sys
import time

from conekit import conelab, hallalg, polycone, rootsys, tropflag
from conekit.polycone import RationalCone
from conekit.quiverrep import RepContext

# (owner, attribute, span name) for every boundary that records spans.
SPANS = (
    (RepContext, "__init__", "quiverrep.repcontext"),
    (RepContext, "middle_terms", "quiverrep.middle_terms"),
    (RepContext, "hom_leq_strict", "quiverrep.hom_leq_strict"),
    (RepContext, "ktheory_cones", "quiverrep.ktheory"),
    (polycone, "dd_vrep", "polycone.dd"),
    (RationalCone, "contains", "polycone.contains"),
    (conelab, "check_conjecture", "conelab.check_conjecture"),
    (conelab, "degree_cone", "conelab.degree_cone"),
    (conelab, "negative_tight_cone", "conelab.negative_cone"),
    (hallalg, "count_submodules", "hallalg.count_submodules"),
    (hallalg, "hall_polynomial", "hallalg.hall_polynomial"),
    (hallalg, "hall_product", "hallalg.hall_product"),
    (hallalg, "q_commutator", "hallalg.q_commutator"),
    (tropflag, "pluecker_relations", "tropflag.relations"),
    (tropflag, "trop_membership", "tropflag.membership"),
    (rootsys, "enumerate_reduced_words", "rootsys.reduced_words"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def count(self, name: str, k: int = 1):
        self.counts[name] = self.counts.get(name, 0) + k

    def wrap(self, name: str, fn, observe=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def counter(self, fn, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            observe(args, result)
            return result

        return wrapper

    def install(self):
        """Patch every boundary; call before the program's code runs."""
        self._count_submodules = hallalg.count_submodules  # keeps cache_info()
        observers = {
            "polycone.dd": self._observe_dd,
            "tropflag.relations": lambda args, rels: self.count("tropflag.relations_count", len(rels)),
        }
        for owner, attr, name in SPANS:
            _replace(owner, attr, self.wrap(name, getattr(owner, attr), observers.get(name)))
        _replace(RepContext, "degenerates_properly", self.counter(
            RepContext.degenerates_properly, self._observe_candidate))
        _replace(rootsys, "beta_sequence", self.counter(
            rootsys.beta_sequence, lambda args, result: self.count("rootsys.beta_sequence_calls")))

    def _observe_dd(self, args, result):
        self.count("polycone.dd_forms_in", len(args[1]))
        self.count("polycone.dd_rays_out", len(result[0]))

    def _observe_candidate(self, args, kept):
        self.count("quiverrep.candidates")
        if kept:
            self.count("quiverrep.terms_kept")

    # -- metrics -----------------------------------------------------------

    def metrics(self, seconds) -> dict:
        """Per-layer totals: `_s` is inclusive time, `_self_s` excludes children.

        `seconds(start, end)` turns a span's stamps into its duration.
        """
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        self_time: dict[str, float] = {}
        durations = [seconds(start, end) for _, start, end, _ in self.spans]
        child_time = [0.0] * len(self.spans)
        for (_, _, _, parent), duration in zip(self.spans, durations):
            if parent >= 0:
                child_time[parent] += duration
        for (name, _, _, _), duration, inner in zip(self.spans, durations, child_time):
            total[name] = total.get(name, 0.0) + duration
            self_time[name] = self_time.get(name, 0.0) + duration - inner
            calls[name] = calls.get(name, 0) + 1
        c = self.counts
        cache = self._count_submodules.cache_info()
        sub_calls = calls.get("hallalg.count_submodules", 0)
        return {
            "quiverrep.repcontext_s": total.get("quiverrep.repcontext", 0.0),
            "quiverrep.repcontext_calls": calls.get("quiverrep.repcontext", 0),
            "quiverrep.middle_terms_s": total.get("quiverrep.middle_terms", 0.0),
            "quiverrep.middle_terms_calls": calls.get("quiverrep.middle_terms", 0),
            "quiverrep.candidates": c.get("quiverrep.candidates", 0),
            "quiverrep.terms_kept": c.get("quiverrep.terms_kept", 0),
            "quiverrep.kept_ratio": _ratio(c.get("quiverrep.terms_kept", 0), c.get("quiverrep.candidates", 0)),
            "quiverrep.degeneration_s": total.get("quiverrep.hom_leq_strict", 0.0),
            "quiverrep.hom_leq_strict_calls": calls.get("quiverrep.hom_leq_strict", 0),
            "quiverrep.ktheory_s": total.get("quiverrep.ktheory", 0.0),
            "polycone.dd_s": total.get("polycone.dd", 0.0),
            "polycone.dd_calls": calls.get("polycone.dd", 0),
            "polycone.dd_forms_in": c.get("polycone.dd_forms_in", 0),
            "polycone.dd_rays_out": c.get("polycone.dd_rays_out", 0),
            "polycone.dd_yield": _ratio(c.get("polycone.dd_rays_out", 0), c.get("polycone.dd_forms_in", 0)),
            "polycone.contains_s": self_time.get("polycone.contains", 0.0),
            "polycone.contains_calls": calls.get("polycone.contains", 0),
            "conelab.check_conjecture_s": total.get("conelab.check_conjecture", 0.0),
            "conelab.degree_cone_self_s": self_time.get("conelab.degree_cone", 0.0),
            "conelab.negative_cone_s": total.get("conelab.negative_cone", 0.0),
            "hallalg.count_submodules_calls": sub_calls,
            "hallalg.count_submodules_misses": cache.misses,
            "hallalg.count_submodules_hit_ratio": _ratio(cache.hits, sub_calls),
            "hallalg.count_submodules_s": total.get("hallalg.count_submodules", 0.0),
            "hallalg.hall_polynomial_s": total.get("hallalg.hall_polynomial", 0.0),
            "hallalg.interp_self_s": self_time.get("hallalg.hall_polynomial", 0.0),
            "hallalg.hall_product_s": total.get("hallalg.hall_product", 0.0),
            "hallalg.q_commutator_s": total.get("hallalg.q_commutator", 0.0),
            "tropflag.relations_s": total.get("tropflag.relations", 0.0),
            "tropflag.relations_count": c.get("tropflag.relations_count", 0),
            "tropflag.membership_s": total.get("tropflag.membership", 0.0),
            "rootsys.beta_sequence_calls": c.get("rootsys.beta_sequence_calls", 0),
            "rootsys.reduced_words_s": total.get("rootsys.reduced_words", 0.0),
        }


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def _replace(owner, attr: str, wrapper):
    """Rebind `attr` on a class, or in every conekit module that bound it."""
    original = getattr(owner, attr)
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return
    for name, module in list(sys.modules.items()):
        if name == "conekit" or name.startswith("conekit."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    setattr(owner, attr, wrapper)
