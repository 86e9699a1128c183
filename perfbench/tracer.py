"""Span tracing of plconvex's public functions, from outside the package.

``Tracer.install`` replaces each traced function at the module-global
name its caller looks up (``verifier.build_fan``, ``fan.interior_point``,
``formats.validate_poset``, ...), so no program source changes and the
untraced runs execute the original code.  Every call records one span:
layer id, parent span, start and end.  ``Eliminator.add`` is only
counted.  Spans stay in memory in flat arrays; self times are derived
afterwards and the spans are written out when the run ends.  A name
that no longer exists is reported absent.
"""

from __future__ import annotations

import functools
import gzip
import json
from array import array
from collections import Counter
from time import perf_counter

import plconvex.exactgeom as exactgeom
import plconvex.fan as fan
import plconvex.formats as formats
import plconvex.surface as surface
import plconvex.verifier as verifier

# The benchmark's top-level calls: parse_pls is reported inclusive, and
# every other layer's self time is summed over the spans below verify.
PARSE = "formats.parse_pls"
VERIFY = "verifier.verify"

# (layer, owner, attribute): one entry per global name a caller looks up
TRACE_POINTS = (
    (PARSE, formats, "parse_pls"),
    ("poset.validate_poset", formats, "validate_poset"),
    (VERIFY, verifier, "verify"),
    ("verifier.preflight", verifier, "preflight"),
    ("poset.validate_poset", verifier, "validate_poset"),
    ("poset.check_closed", verifier, "check_closed"),
    ("poset.check_connected", verifier, "check_connected"),
    ("surface.check_realization", verifier, "check_realization"),
    ("poset.link_cycle", verifier, "link_cycle"),
    ("surface.direction_space", verifier, "direction_space"),
    ("exactgeom.complementary_projection", verifier, "complementary_projection"),
    ("exactgeom.nullspace", surface, "nullspace"),
    ("exactgeom.nullspace", exactgeom, "nullspace"),
    ("fan.build_fan", verifier, "build_fan"),
    ("surface.interior_point", fan, "interior_point"),
    ("fan.fan_is_convex", verifier, "fan_is_convex"),
)

# (counter, owner, attribute): counted but not timed, so that their time
# stays in the caller's self time and the most frequent call adds no span
COUNT_POINTS = (("exactgeom.Eliminator.add", getattr(exactgeom, "Eliminator", None), "add"),)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TRACE_POINTS))
NAMES = LAYERS + tuple(name for name, _, _ in COUNT_POINTS)

# reason codes the fan classifier returns at the commit the benchmark was defined
FAN_REASONS = (
    "OK_POINTED",
    "OK_FLAT",
    "NO_SUPPORT",
    "BAD_ROTATION_INDEX",
    "WRONG_TURN_SIGN",
    "ZERO_ANGLE_CONE",
    "DEGENERATE_RANK",
)


class Tracer:
    def __init__(self):
        self.layer_id = {layer: i for i, layer in enumerate(LAYERS)}
        self.span_layer = array("b")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts = Counter()
        self.ip_faces: set = set()  # (top-level span, face) pairs seen by interior_point
        self.patched: list = []
        self.present: set[str] = set()

    def _wrap(self, layer: str, orig, before=None, after=None):
        lid = self.layer_id[layer]
        layers, parents, starts, ends = self.span_layer, self.span_parent, self.span_start, self.span_end
        stack = self.stack

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            sid = len(layers)
            layers.append(lid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            if before is not None:
                before(args)
            t0 = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count(self, name: str, orig):
        counts = self.counts

        @functools.wraps(orig)
        def counted(*args, **kwargs):
            counts[name] += 1
            return orig(*args, **kwargs)

        return counted

    def _fan_result(self, args, result):
        self.counts[f"fan.reason.{result.reason}"] += 1
        self.counts["fan.entries"] += len(args[0].entries)

    def _interior_call(self, args):
        self.ip_faces.add((self.stack[1], args[1]))

    def _verify_result(self, args, result):
        self.counts["verifier.entries_checked"] += result.entries_checked

    def install(self) -> None:
        hooks = {
            "fan.fan_is_convex": (None, self._fan_result),
            "surface.interior_point": (self._interior_call, None),
            VERIFY: (None, self._verify_result),
        }
        points = [(layer, owner, attr, False) for layer, owner, attr in TRACE_POINTS]
        points += [(name, owner, attr, True) for name, owner, attr in COUNT_POINTS]
        for name, owner, attr, count_only in points:
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                continue
            if count_only:
                wrapper = self._count(name, orig)
            else:
                wrapper = self._wrap(name, orig, *hooks.get(name, (None, None)))
            setattr(owner, attr, wrapper)
            self.patched.append((owner, attr, orig))
            self.present.add(name)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self.patched):
            setattr(owner, attr, orig)
        self.patched.clear()

    @property
    def absent(self) -> list[str]:
        return [name for name in NAMES if name not in self.present]

    def layer_totals(self) -> tuple[dict, dict]:
        """Per-layer time and call totals over all recorded spans.

        ``formats.parse_pls`` gets its inclusive time; every other layer
        gets the self time of its spans below a verify call, so the
        layers' times plus verify's own self time add up to the traced
        verify time.
        """
        n = len(self.span_layer)
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0.0] * n
        root = [0] * n
        for i, p in enumerate(self.span_parent):
            if p >= 0:
                child[p] += dur[i]
                root[i] = root[p]
            else:
                root[i] = i
        parse_id, verify_id = self.layer_id[PARSE], self.layer_id[VERIFY]
        times = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        verify_total = 0.0
        for i, lid in enumerate(self.span_layer):
            layer = LAYERS[lid]
            calls[layer] += 1
            if lid == parse_id:
                times[layer] += dur[i]
            elif self.span_layer[root[i]] == verify_id:
                times[layer] += dur[i] - child[i]
                if lid == verify_id:
                    verify_total += dur[i]
        times["verify_inclusive"] = verify_total
        return times, calls

    def write_spans(self, path, meta: dict) -> None:
        """Gzipped CSV of every span, after one JSON line of metadata."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({**meta, "layers": list(LAYERS), "absent": self.absent}) + "\n")
            fh.write("span,parent,layer,start_s,end_s\n")
            fh.writelines(
                f"{i},{p},{LAYERS[lid]},{s!r},{e!r}\n"
                for i, (lid, p, s, e) in enumerate(
                    zip(self.span_layer, self.span_parent, self.span_start, self.span_end)
                )
            )
