"""Per-layer tracing by wrapping equicut's public functions from outside.

``Tracer.install()`` replaces each function named in ``LAYERS`` with a
wrapper in every loaded ``equicut`` module (and methods on their classes),
so internal calls between modules are seen as well.  Each wrapper times its
call and keeps a stack, so a layer's self time is its span minus the spans
of the wrapped calls made inside it.  ``uninstall()`` puts the originals
back; untraced code runs with no wrapper at all.

Kernel and predicate calls run millions of times, so they only add to their
layer's count and self time.  Calls of the other layers are also kept as
spans (layer, start, end, parent span, answer) in memory, and
``write_spans`` writes them out once the run is over.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import NamedTuple


class Layer(NamedTuple):
    module: str
    attrs: list
    keep_spans: bool  # keep each call as a span (the layers above the kernel)
    report_calls: bool  # report a call count beside the self time


LAYERS = {
    "exact.sign": Layer("equicut.exact", ["TowerReal.sign"], False, True),
    "exact.arith": Layer(
        "equicut.exact",
        [f"TowerReal.{m}" for m in (
            "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
            "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__eq__",
        )],
        False, True,
    ),
    "exact.embed": Layer("equicut.exact", ["FieldBuilder.embed"], False, True),
    "intervals.enclosure": Layer("equicut.intervals", ["NumericReal.enclosure"], False, True),
    "literals.parse": Layer("equicut.literals", ["parse_number"], True, True),
    "literals.format": Layer("equicut.literals", ["format_number"], True, True),
    "geom.predicate": Layer(
        "equicut.geom",
        ["orientation", "point_on_segment", "point_in_triangle", "point_in_polygon"],
        False, True,
    ),
    "geom.disjoint": Layer("equicut.geom", ["triangles_interior_disjoint"], False, True),
    "geom.congruent": Layer("equicut.geom", ["congruent"], True, False),
    "geom.angle_compare": Layer("equicut.geom", ["AngleVec.compare"], False, True),
    "dissect.verify": Layer("equicut.dissect", ["verify_dissection"], True, True),
    "dissect.parse": Layer("equicut.dissect", ["dissection_from_json"], True, False),
    "search": Layer("equicut.search", ["search_dissections"], True, False),
    "relations": Layer(
        "equicut.relations",
        ["find_angle_relation", "find_side_relation", "find_integer_relation"],
        True, True,
    ),
    "trispace.angles": Layer("equicut.trispace", ["angles_from_sides"], True, False),
    "cli": Layer("equicut.cli", ["main"], True, False),
}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.nodes = 0
        self.pairs_tested = 0
        self.combinations = 0
        self.spans = []  # [layer, start, end, parent, answer]
        self.answer = -1
        self._stack = []  # [layer, child seconds, span index]
        self._saved = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "equicut"]
        for layer, (module, attrs, keep, _) in LAYERS.items():
            home = sys.modules[module]
            for attr in attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    self._swap(cls, meth, original, self._wrap(layer, keep, original))
                    continue
                original = getattr(home, attr)
                wrapper = self._wrap(layer, keep, original)
                for mod in modules:
                    if getattr(mod, attr, None) is original:
                        self._swap(mod, attr, original, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def _swap(self, owner, name, original, wrapper) -> None:
        self._saved.append((owner, name, original))
        setattr(owner, name, wrapper)

    def _wrap(self, layer: str, keep: bool, fn):
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            span = None
            start = clock()
            if keep:
                parent = next((f[2] for f in reversed(stack) if f[2] is not None), None)
                span = len(tracer.spans)
                tracer.spans.append([layer, start, None, parent, tracer.answer])
            frame = [layer, 0.0, span]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                tracer.calls[layer] += 1
                tracer.self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if span is not None:
                    tracer.spans[span][2] = end
            tracer._count(layer, fn, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, layer, fn, args, kwargs, result) -> None:
        """Work counters read from the results and arguments of a call."""
        if layer == "search":
            self.nodes += result.nodes
        elif layer == "dissect.verify":
            self.pairs_tested += result.pairs_tested
        elif fn.__name__ == "find_integer_relation":
            values = args[0] if args else kwargs["values"]
            height = args[1] if len(args) > 1 else kwargs["height"]
            self.combinations += (2 * height + 1) ** len(values)

    # -- output -----------------------------------------------------------

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for layer, start, end, parent, answer in self.spans:
                fh.write(json.dumps({"layer": layer, "start": start, "end": end,
                                     "parent": parent, "answer": answer}) + "\n")
