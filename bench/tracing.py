"""Spans around the package's public functions, recorded from outside it.

`Tracer.install` replaces every public function of every `looptorsion`
module with a wrapper that records a span (name, parent span, start,
end).  A function is replaced wherever it is bound, so names imported
with `from ... import` (for example `cli.torsion_primes_up_to`) are
traced too.  Spans stay in memory until `dump` writes them.

A span's self time is its duration minus the durations of its child
spans.  Calls are strictly nested in this single-threaded program, so
the children of a span never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import time
from collections import defaultdict

PACKAGE = "looptorsion"

#: Functions whose results are kept so that sizes can be counted after
#: the job; counting inside the wrapper would add to the parent spans.
KEEP_RESULTS = {
    "numtheory.sieve_primes",
    "quotient.ideal_spanning_matrix",
    "snf.smith_normal_form",
    "presentation.relation_set_E",
    "presentation.relation_set_AX",
}

#: Functions that turn results into text, counted in the cli layer.
RENDERERS = {"numtheory.census_table", "series.format_series", "series.series_json"}


def package_modules() -> list:
    package = importlib.import_module(PACKAGE)
    return [package] + [
        importlib.import_module(f"{PACKAGE}.{info.name}") for info in pkgutil.iter_modules(package.__path__)
    ]


def _is_traced(module, name: str, obj) -> bool:
    """Public functions defined in the module itself (classes are left alone)."""
    defined_here = getattr(obj, "__module__", None) == module.__name__
    return defined_here and callable(obj) and not isinstance(obj, type) and not name.startswith("_")


class Tracer:
    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.results: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        kept = self.results[name] if name in KEEP_RESULTS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
            if kept is not None:
                kept.append(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of the package at every binding."""
        modules = package_modules()
        wrappers = {}
        for module in modules[1:]:
            short = module.__name__.rsplit(".", 1)[-1]
            for name, obj in vars(module).items():
                if _is_traced(module, name, obj):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{name}", obj))
        for module in modules:
            for name, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, name, hit[1])
                    self._undo.append((module, name, obj))

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._undo):
            setattr(module, name, obj)
        self._undo.clear()

    def self_times(self) -> list[float]:
        selfs = [end - start for _, _, start, end in self.spans]
        for _, parent, start, end in self.spans:
            if parent >= 0:
                selfs[parent] -= end - start
        return selfs

    def dump(self, path: str) -> None:
        spans = [
            {"id": i, "parent": parent if parent >= 0 else None, "name": name, "start": start, "end": end}
            for i, (name, parent, start, end) in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"trace": self.trace_id, "spans": spans}, fh)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times and counts, summable across the commands of a workload."""
        self_by_name: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (name, *_), own in zip(self.spans, self.self_times()):
            self_by_name[name] += own
            calls[name] += 1

        def module_self(module: str) -> float:
            return sum((v for k, v in self_by_name.items() if k.split(".", 1)[0] == module and k not in RENDERERS), 0.0)

        matrices = list({id(m): m for m in self.results["quotient.ideal_spanning_matrix"]}.values())
        relation_sets = self.results["presentation.relation_set_E"] + self.results["presentation.relation_set_AX"]
        divisors = [d for invs, _ in self.results["snf.smith_normal_form"] for d in invs]
        return {
            "numtheory.power_witness_s": self_by_name["numtheory.power_witness"],
            "numtheory.power_witness_calls": calls["numtheory.power_witness"],
            "numtheory.primes": sum(len(r) for r in self.results["numtheory.sieve_primes"]),
            "numtheory.sieve_s": self_by_name["numtheory.sieve_primes"],
            "numtheory.divides_some_am_s": self_by_name["numtheory.divides_some_am"],
            "numtheory.divides_some_am_calls": calls["numtheory.divides_some_am"],
            "numtheory.classify_s": self_by_name["numtheory.classify_prime_theorem1"]
            + self_by_name["numtheory.classify_prime_general"],
            "numtheory.factorize_s": self_by_name["numtheory.factorize"],
            "numtheory.factorize_calls": calls["numtheory.factorize"],
            "snf.smith_s": self_by_name["snf.smith_normal_form"],
            "snf.smith_calls": calls["snf.smith_normal_form"],
            "snf.max_divisor_bits": max((d.bit_length() for d in divisors), default=0),
            "snf.rank_mod_p_s": self_by_name["snf.rank_mod_p"],
            "snf.rank_mod_p_calls": calls["snf.rank_mod_p"],
            "quotient.build_s": self_by_name["quotient.ideal_spanning_matrix"],
            "quotient.build_calls": calls["quotient.ideal_spanning_matrix"],
            "quotient.build_misses": len(matrices),
            "quotient.rows": sum(len(m.rows) for m in matrices),
            "quotient.cols": sum(m.ncols for m in matrices),
            "quotient.nnz": sum(len(r) for m in matrices for r in m.rows),
            "presentation.relations_s": module_self("presentation"),
            "presentation.relations": sum(len(rs.relations) for rs in relation_sets),
            "presentation.terms": sum(len(rel.element.terms) for rs in relation_sets for rel in rs.relations),
            "series.self_s": module_self("series"),
            "action.semi_tensor_self_s": self_by_name["action.semi_tensor_dimension_check"],
            "cli.render_s": module_self("cli") + sum(self_by_name[k] for k in RENDERERS),
            "trace.spans": len(self.spans),
            "trace.self_sum_s": sum(self_by_name.values()),
        }
