"""In-memory span tracing of the polysec layers, installed from outside.

The tracer wraps the public functions of every ``polysec`` module (plus the
few private ones a layer metric needs) and rebinds each wrapped name in every
``polysec.*`` namespace that binds it, so calls between modules and calls
inside one module are both seen.  Nothing in ``src/`` is changed.

Each span is kept in memory as ``(name_id, parent_index, start_ns, end_ns,
instance)``; a layer's self time is its span duration minus the durations of
its direct child spans.  The projective kernel (``exactgeom``) is called far
too often for spans, so its functions are only counted.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

# private functions that a layer metric needs, beside the public ones
EXTRA = ("slack._coefficients_over",)
COUNT_ONLY_MODULES = ("exactgeom",)
JSON_READ = ("jsonio.loads", "jsonio.polygon_from_obj", "jsonio.sectioned_from_obj")


def _vertex_pairs(counts, args, kwargs, result):
    v = len(args[0] if args else kwargs["vertices"])
    counts["sections.compute_section.pairs"] += v * (v - 1) // 2


def _extreme_kept(counts, args, kwargs, result):
    counts["sections.extreme_points.in"] += len(args[0] if args else kwargs["vertices"])
    counts["sections.extreme_points.kept"] += len(result)


def _bytes_read(counts, args, kwargs, result):
    counts["jsonio.bytes_read"] += len((args[0] if args else kwargs["text"]).encode())


# statistics taken from a call's arguments and result, after it returns
HOOKS = {
    "sections.compute_section": _vertex_pairs,
    "sections.extreme_points": _extreme_kept,
    "jsonio.loads": _bytes_read,
}


def _targets() -> dict[int, tuple[str, object]]:
    """id(function) -> (short name, function) for every function to wrap."""
    out = {}
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("polysec.") or module is None:
            continue
        short = modname.split(".", 1)[1]
        for name, obj in vars(module).items():
            if not inspect.isfunction(obj) or obj.__module__ != modname:
                continue
            qual = f"{short}.{name}"
            if not name.startswith("_") or qual in EXTRA:
                out[id(obj)] = (qual, obj)
    return out


class Tracer:
    """Spans and counters of the polysec layers; install() ... remove()."""

    def __init__(self):
        self.names: list[str] = []  # spanned functions, by name_id
        self.wrapped: list[str] = []
        self.spans: list = []
        self.kernel_calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.instance = -1
        self._stack = [-1]
        self._wrappers = None  # id(original) -> wrapper, built on first install
        self._patches: list = []

    def _wrap(self, qual: str, fn):
        self.wrapped.append(qual)
        if qual.split(".", 1)[0] in COUNT_ONLY_MODULES:
            kernel_calls = self.kernel_calls

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                kernel_calls[qual] += 1
                return fn(*args, **kwargs)

            return counted

        name_id = len(self.names)
        self.names.append(qual)
        spans, stack, counts = self.spans, self._stack, self.counts
        hook, clock = HOOKS.get(qual), time.perf_counter_ns

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, parent, start, end, self.instance)
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return spanned

    def install(self) -> None:
        if self._wrappers is None:
            self._wrappers = {key: self._wrap(qual, fn) for key, (qual, fn) in _targets().items()}
        for modname, module in list(sys.modules.items()):
            if modname != "polysec" and not modname.startswith("polysec."):
                continue
            namespace = vars(module)
            for name, obj in list(namespace.items()):
                wrapper = self._wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((namespace, name, obj))
                    namespace[name] = wrapper

    def remove(self) -> None:
        for namespace, name, original in reversed(self._patches):
            namespace[name] = original
        self._patches.clear()

    def layer_metrics(self, instances: int) -> dict:
        """Per-layer metrics, name -> (value, unit).

        Every wrapped function gets ``<module>.<function>.calls``; spanned
        ones also ``.self_s``.  A ratio whose base is zero reads 0.
        """
        names, spans = self.names, self.spans
        child_ns = [0] * len(spans)
        for _, parent, start, end, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = Counter(self.kernel_calls)
        incl_ns, self_ns, io_ns = Counter(), Counter(), Counter()
        under_c_half = hexagon_decisions = 0
        for index, (name_id, parent, start, end, _) in enumerate(spans):
            qual = names[name_id]
            parent_qual = names[spans[parent][0]] if parent >= 0 else ""
            calls[qual] += 1
            incl_ns[qual] += end - start
            self_ns[qual] += end - start - child_ns[index]
            if qual == "linalg.solve_linear" and parent_qual == "slack._coefficients_over":
                under_c_half += 1
            if qual == "hexagon.hexagon_ic" and parent_qual != "hexagon.hexagon_extension5":
                hexagon_decisions += 1
            if qual.startswith("jsonio.") and not parent_qual.startswith("jsonio."):
                io_ns["read" if qual in JSON_READ else "write"] += end - start

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for qual in self.wrapped:
            out[qual + ".calls"] = (calls[qual], "count")
            if qual in names:
                out[qual + ".self_s"] = (self_ns[qual] / 1e9, "s")
        c = self.counts
        out.update({
            "slack.c_half_s": (incl_ns["slack._coefficients_over"] / 1e9, "s"),
            "slack.c_useful_ratio": (ratio(calls["slack._coefficients_over"], under_c_half),
                                     "ratio"),
            "sections.compute_section.pairs": (c["sections.compute_section.pairs"], "count"),
            "sections.extreme_points.kept_ratio": (
                ratio(c["sections.extreme_points.kept"], c["sections.extreme_points.in"]),
                "ratio"),
            "sections.shear_share": (ratio(calls["sections.shear_fixing_flat"],
                                           calls["sections.bounded_pullback"]), "ratio"),
            "polygon.validate.per_instance": (ratio(calls["polygon.validate"], instances),
                                              "count"),
            "heptagon.k_attempts_per_extension": (
                ratio(calls["heptagon.build_standard_extension"],
                      calls["heptagon.heptagon_extension"]), "count"),
            # hexagon_extension5 runs only on the hexagons decided to need 5 vertices
            "hexagon.ic5_share": (ratio(calls["hexagon.hexagon_extension5"], hexagon_decisions),
                                  "ratio"),
            "jsonio.read_s": (io_ns["read"] / 1e9, "s"),
            "jsonio.write_s": (io_ns["write"] / 1e9, "s"),
            "jsonio.bytes_read": (c["jsonio.bytes_read"], "bytes"),
        })
        return out
