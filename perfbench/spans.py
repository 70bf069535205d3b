"""In-memory span recorder for the traced benchmark run.

`Tracer.patched()` replaces each public library function listed in TARGETS
with a wrapper that records one span per call: name, start, end, parent span
and item id.  Every module attribute bound to the same function object is
replaced, so calls made through imported names (``polytope.affine_dimension``
inside ``check_inequality``) are recorded too.  Wrappers add the call's exact
counts (nodes, points, rows) to their span.  Nothing is written until the run
ends; `summary()` turns one pass's spans into per-layer self times and counts.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager


def _rows_in(args, kwargs, result):
    return {"rows_in": len(args[0])}


def _points(args, kwargs, result):
    return {"points": result.count}


def _facet(args, kwargs, result):
    return {"tight_points": result.tight_point_count, "facets": int(result.is_facet)}


def _bnb(args, kwargs, result):
    return {"bnb_nodes": result.nodes_explored}


def _enum(args, kwargs, result):
    return {"enum_assignments": result.nodes_explored}


def _derived(args, kwargs, result):
    return {"derived_vars": result.derived.n, "derived_rows": len(result.derived.constraints)}


def _lp_bytes(args, kwargs, result):
    return {"parse_lp_bytes": len(args[0].encode())}


# (span name, module, attribute or "Class.method", count function or None)
TARGETS = [
    ("lop.build", "diamopt.lop", "build", None),
    ("lop.base_points", "diamopt.lop", "perm_to_incidence", None),
    ("tsp.build", "diamopt.tsp", "build", None),
    ("tsp.base_points", "diamopt.tsp", "tour_to_incidence", None),
    ("diameter.build", "diamopt.diameter", "build", _derived),
    ("diameter.solve_diameter", "diamopt.diameter", "solve_diameter", None),
    ("bpcore.solve_bnb", "diamopt.bpcore", "solve_bnb", _bnb),
    ("bpcore.solve_enumerate", "diamopt.bpcore", "solve_enumerate", _enum),
    ("polytope.enumerate_points", "diamopt.polytope", "enumerate_points", _points),
    ("polytope.hull_dimension", "diamopt.polytope", "PointSet.hull_dimension", None),
    ("polytope.check_inequality", "diamopt.polytope", "check_inequality", _facet),
    ("polytope.verify_minimal_system", "diamopt.polytope", "verify_minimal_system", None),
    ("polytope.check_disjoint_pair_condition", "diamopt.polytope", "check_disjoint_pair_condition", None),
    ("ratlinalg.affine_dimension", "diamopt.ratlinalg", "affine_dimension", _rows_in),
    ("ratlinalg.ratmatrix_rank", "diamopt.ratlinalg", "RatMatrix.rank", None),
    ("modelio.parse_lp", "diamopt.modelio", "parse_lp", _lp_bytes),
]

MODULES = ("lop", "tsp", "diameter", "bpcore", "polytope", "ratlinalg", "modelio")


class Tracer:
    """Spans of the traced passes; each span is [name, start, end, parent, item, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item = None

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            span = [name, time.perf_counter(), None, parent, self.item, None]
            self.spans.append(span)
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block, then restore."""
        undo = []
        scan = [m for k, m in sys.modules.items() if k.startswith("diamopt")]
        for name, modname, attr, count in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, orig, count))
                undo.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig, count)
            for mod in scan:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, orig))
        try:
            yield self
        finally:
            for obj, key, orig in reversed(undo):
                setattr(obj, key, orig)

    def summary(self, first: int, last: int, wall: float) -> dict[str, float]:
        """Per-layer figures for spans[first:last], one traced pass of `wall` seconds."""
        spans = self.spans[first:last]
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= first:
                child[s[3] - first] += s[2] - s[1]
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        calls: dict[str, int] = {}
        counts: dict[str, int] = {}
        top = 0.0
        for k, s in enumerate(spans):
            dur = s[2] - s[1]
            total[s[0]] = total.get(s[0], 0.0) + dur
            self_time[s[0]] = self_time.get(s[0], 0.0) + dur - child[k]
            calls[s[0]] = calls.get(s[0], 0) + 1
            if s[3] < first:
                top += dur
            for key, v in (s[5] or {}).items():
                counts[key] = counts.get(key, 0) + v

        def per_s(n, t):
            return n / t if t > 0 else 0.0

        out = {
            "ratlinalg.affine_dimension_s": total.get("ratlinalg.affine_dimension", 0.0),
            "ratlinalg.affine_dimension_calls": calls.get("ratlinalg.affine_dimension", 0),
            "ratlinalg.rows_in": counts.get("rows_in", 0),
            "ratlinalg.ratmatrix_rank_s": total.get("ratlinalg.ratmatrix_rank", 0.0),
            "ratlinalg.ratmatrix_rank_calls": calls.get("ratlinalg.ratmatrix_rank", 0),
            "polytope.enumerate_points_s": total.get("polytope.enumerate_points", 0.0),
            "polytope.enumerate_points_calls": calls.get("polytope.enumerate_points", 0),
            "polytope.points": counts.get("points", 0),
            "polytope.hull_dimension_self_s": self_time.get("polytope.hull_dimension", 0.0),
            "polytope.check_inequality_self_s": self_time.get("polytope.check_inequality", 0.0),
            "polytope.check_inequality_calls": calls.get("polytope.check_inequality", 0),
            "polytope.tight_points": counts.get("tight_points", 0),
            "polytope.verify_minimal_system_self_s": self_time.get("polytope.verify_minimal_system", 0.0),
            "polytope.disjoint_pair_s": total.get("polytope.check_disjoint_pair_condition", 0.0),
            "bpcore.bnb_s": total.get("bpcore.solve_bnb", 0.0),
            "bpcore.bnb_calls": calls.get("bpcore.solve_bnb", 0),
            "bpcore.bnb_nodes": counts.get("bnb_nodes", 0),
            "bpcore.enum_s": total.get("bpcore.solve_enumerate", 0.0),
            "bpcore.enum_calls": calls.get("bpcore.solve_enumerate", 0),
            "bpcore.enum_assignments": counts.get("enum_assignments", 0),
            "diameter.build_s": total.get("diameter.build", 0.0),
            "diameter.solve_self_s": self_time.get("diameter.solve_diameter", 0.0),
            "diameter.derived_vars": counts.get("derived_vars", 0),
            "diameter.derived_rows": counts.get("derived_rows", 0),
            "lop.build_s": total.get("lop.build", 0.0),
            "tsp.build_s": total.get("tsp.build", 0.0),
            "lop.base_points_s": total.get("lop.base_points", 0.0),
            "tsp.base_points_s": total.get("tsp.base_points", 0.0),
            "modelio.parse_lp_s": total.get("modelio.parse_lp", 0.0),
            "modelio.parse_lp_bytes": counts.get("parse_lp_bytes", 0),
            "trace.spans": len(spans),
            "trace.wall_s": wall,
        }
        out["ratlinalg.rows_per_s"] = per_s(out["ratlinalg.rows_in"], out["ratlinalg.affine_dimension_s"])
        out["polytope.points_per_s"] = per_s(out["polytope.points"], out["polytope.enumerate_points_s"])
        checked = out["polytope.check_inequality_calls"]
        out["polytope.facet_ratio"] = counts.get("facets", 0) / checked if checked else 0.0
        out["bpcore.bnb_nodes_per_s"] = per_s(out["bpcore.bnb_nodes"], out["bpcore.bnb_s"])
        out["bpcore.enum_assignments_per_s"] = per_s(
            out["bpcore.enum_assignments"], out["bpcore.enum_s"]
        )
        for mod in MODULES:
            mod_self = sum(t for n, t in self_time.items() if n.split(".")[0] == mod)
            out[f"share.{mod}"] = mod_self / wall if wall > 0 else 0.0
        out["share.untraced"] = (wall - top) / wall if wall > 0 else 0.0
        return out

    def write(self, path, passes) -> None:
        """Write every recorded span, one JSON object per line, tagged with
        its pass number; `passes` holds each pass's (first, last) span range."""
        keys = ("name", "start", "end", "parent", "item", "counts")
        with open(path, "w") as fh:
            for k, (first, last) in enumerate(passes):
                for s in self.spans[first:last]:
                    fh.write(json.dumps(dict(zip(keys, s), **{"pass": k}), sort_keys=True) + "\n")


# counts that must repeat bit-for-bit between passes and between runs
EXACT = (
    "ratlinalg.affine_dimension_calls",
    "ratlinalg.rows_in",
    "ratlinalg.ratmatrix_rank_calls",
    "polytope.enumerate_points_calls",
    "polytope.points",
    "polytope.check_inequality_calls",
    "polytope.tight_points",
    "polytope.facet_ratio",
    "bpcore.bnb_calls",
    "bpcore.bnb_nodes",
    "bpcore.enum_calls",
    "bpcore.enum_assignments",
    "diameter.derived_vars",
    "diameter.derived_rows",
    "modelio.parse_lp_bytes",
    "trace.spans",
)
