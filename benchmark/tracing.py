"""Spans and call counts around the public layer functions of eggbox.

The wrappers live here, outside the package.  Every eggbox module imports
the functions it uses by name, so a wrapper only takes effect once each
module's own reference is replaced; :meth:`Tracer.install` does that by
identity over every loaded ``eggbox`` module, and :meth:`Tracer.remove`
puts the originals back.

A span's self time is its duration minus the durations of its direct
child spans.  Spans stay in memory and are written out once, at the end
of the run.
"""

from __future__ import annotations

import sys
import time

# (metric prefix, module, attribute).  The prefix names the layer the way
# the per-layer metrics do; the attribute is what gets wrapped.
LAYER_FUNCTIONS = (
    ("core.generate_monoid", "eggbox.core", "generate_monoid"),
    ("core.MonoidHom", "eggbox.core", "MonoidHom.__init__"),
    ("core.is_isomorphic", "eggbox.core", "is_isomorphic"),
    ("core.FiniteGroup.from_monoid", "eggbox.core", "FiniteGroup.from_monoid"),
    ("green.green_structure", "eggbox.green", "green_structure"),
    ("green.minimal_ideal", "eggbox.green", "minimal_ideal"),
    ("green.maximal_subgroup", "eggbox.green", "maximal_subgroup"),
    ("green.rees_coordinates", "eggbox.green", "rees_coordinates"),
    ("green.is_simple", "eggbox.green", "is_simple"),
    ("green.idempotent_generated", "eggbox.green", "idempotent_generated"),
    ("green.check_min_ideal_image", "eggbox.green", "check_min_ideal_image"),
    ("wreath.schutz_rep", "eggbox.wreath", "schutz_rep"),
    ("wreath.rlm", "eggbox.wreath", "rlm"),
    ("wreath.is_faithful_on_min_ideal", "eggbox.wreath", "is_faithful_on_min_ideal"),
    ("constructions.build_idempotent_cover", "eggbox.constructions", "build_idempotent_cover"),
    ("constructions.verify_cover", "eggbox.constructions", "verify_cover"),
    ("constructions.prepare_base", "eggbox.constructions", "prepare_base"),
    ("constructions.solve_embedding", "eggbox.constructions", "solve_embedding"),
    ("constructions.assemble_embedding", "eggbox.constructions", "assemble_embedding"),
    ("constructions.verify_embedding", "eggbox.constructions", "verify_embedding"),
    ("srank.r_s", "eggbox.srank", "r_s"),
    ("srank.normal_subgroups", "eggbox.srank", "normal_subgroups"),
    ("srank.quotient_group", "eggbox.srank", "quotient_group"),
    ("groups.builtin_group", "eggbox.groups", "builtin_group"),
    ("groups.identify", "eggbox.groups", "identify"),
    ("defs.load_definitions", "eggbox.defs", "load_definitions"),
)

# the one layer function whose spans also count something: the elements
# of each monoid it enumerates, reported as core.generate_monoid.elements
COUNTED = "core.generate_monoid"


class Tracer:
    """Records spans while installed: request, name, start, end, parent span,
    self seconds and the number of elements enumerated (0 but for
    ``generate_monoid``).

    ``request`` names the benchmark operation in progress, so every span of
    one operation carries the same identifier.
    """

    def __init__(self):
        self.spans = []
        self.request = "setup"
        self._stack = []         # [span index, child seconds]
        self._patched = []       # (owner, attribute, original, replacement)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        counted = name == COUNTED
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            # request, name, start, end, parent, self seconds, elements
            spans.append([self.request, name, 0.0, 0.0, parent, 0.0, 0])
            frame = [index, 0.0]  # own span index, seconds spent in children
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = spans[index]
                span[2] = start
                span[3] = end
                span[5] = end - start - frame[1]
                if stack:
                    stack[-1][1] += end - start
            if counted:
                spans[index][6] = len(result.elements)
            return result

        return traced

    def install(self):
        """Replace every eggbox reference to a layer function by a wrapper."""
        for prefix, modname, attr in LAYER_FUNCTIONS:
            module = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(prefix, raw.__func__))
                else:
                    wrapped = self._wrap(prefix, raw)
                setattr(cls, meth, wrapped)
                self._patched.append((cls, meth, raw, wrapped))
                continue
            original = getattr(module, attr)
            replacement = self._wrap(prefix, original)
            for name, mod in list(sys.modules.items()):
                if name != "eggbox" and not name.startswith("eggbox."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, replacement)
                        self._patched.append((mod, key, original, replacement))

    def remove(self):
        """Put every original back."""
        for owner, key, original, _ in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def totals(self):
        """Self seconds and calls per layer function over every recorded
        span, and the elements ``generate_monoid`` enumerated, keyed by
        metric name."""
        out = {}
        for prefix, _, _ in LAYER_FUNCTIONS:
            out[f"{prefix}.self_s"] = 0.0
            out[f"{prefix}.calls"] = 0
        out[f"{COUNTED}.elements"] = 0
        for _, name, _, _, _, own, elements in self.spans:
            out[f"{name}.self_s"] += own
            out[f"{name}.calls"] += 1
            out[f"{COUNTED}.elements"] += elements
        return out
