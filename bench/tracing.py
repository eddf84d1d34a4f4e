"""Span recording around walkmat's public functions, from outside the package.

`Tracer.installed()` replaces each traced function on every module binding
that refers to it (``walkmat.rank``, ``walkmat.spectral.rank``,
``walkmat.canonical.rank`` ...) and on ``ExactMatrix.__mul__``, and puts the
originals back when the block ends.  Spans stay in memory until `write`.

A layer's self time is its span's duration minus the durations of its direct
child spans; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

# layer name -> (module, attribute) pairs; a name missing from the module is
# skipped, so the layer then reports zero calls
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "graphs.parse": (("walkmat.graphs", "parse_graph6"),
                     ("walkmat.graphs", "parse_edge_list_text"),
                     ("walkmat.graphs", "parse_adjacency_text")),
    "walk.walk_matrix": (("walkmat.walk", "walk_matrix"),),
    "walk.io": (("walkmat.walk", "from_json"), ("walkmat.walk", "from_text"),
                ("walkmat.walk", "to_json"), ("walkmat.walk", "to_text")),
    "exact.rank": (("walkmat.exact", "rank"),),
    "exact.solve": (("walkmat.exact", "solve"),
                    ("walkmat.exact", "solve_matrix")),
    "exact.inverse": (("walkmat.exact", "inverse"),),
    "exact.kernel_basis": (("walkmat.exact", "kernel_basis"),),
    "spectral.summary_from_walk": (("walkmat.spectral", "summary_from_walk"),),
    "spectral.realize": (("walkmat.spectral", "realize_from_walk"),),
    "reconstruct.rank_n": (("walkmat.reconstruct", "rank_n"),),
    "reconstruct.rank_n1": (("walkmat.reconstruct", "rank_n1"),),
    "reconstruct.rank_n2": (("walkmat.reconstruct", "rank_n2"),),
    "reconstruct.verify": (("walkmat.reconstruct", "verify_candidate"),),
    "canonical.lex_form": (("walkmat.canonical", "lex_form"),),
    "canonical.certify": (("walkmat.canonical", "certify_isomorphism"),),
    "cli.main": (("walkmat.cli", "main"),),
}
MATMUL = "exact.matmul"  # ExactMatrix.__mul__, patched on the class


class Tracer:
    """Collects spans: (op, id, parent id, layer, start ns, end ns, raised,
    returned True)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, layer: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            raised, result = True, None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (self.op, sid, parent, layer, start, end,
                              raised, result is True)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every binding of every traced function for the block."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "walkmat"
                                         or name.startswith("walkmat."))]
        saved = []
        try:
            for layer, targets in LAYERS.items():
                for mod_name, attr in targets:
                    fn = getattr(sys.modules.get(mod_name), attr, None)
                    if fn is None:
                        continue
                    wrapped = self.wrap(layer, fn)
                    for mod in modules:
                        for key, val in list(vars(mod).items()):
                            if val is fn:
                                saved.append((mod, key, fn))
                                setattr(mod, key, wrapped)
            matrix = getattr(sys.modules.get("walkmat.exact"), "ExactMatrix",
                             None)
            mul = vars(matrix).get("__mul__") if matrix else None
            if mul is not None:
                saved.append((matrix, "__mul__", mul))
                matrix.__mul__ = self.wrap(MATMUL, mul)
            yield self
        finally:
            for owner, key, fn in reversed(saved):
                setattr(owner, key, fn)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, self seconds, calls that raised (failures) and
        calls that returned True."""
        child_ns = [0] * len(self.spans)
        for _, _, parent, _, start, end, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for layer in (*LAYERS, MATMUL):
            out[layer] = {"calls": 0, "self_s": 0.0, "failures": 0, "true": 0}
        for _, sid, _, layer, start, end, raised, true in self.spans:
            t = out[layer]
            t["calls"] += 1
            t["self_s"] += (end - start - child_ns[sid]) / 1e9
            t["failures"] += raised
            t["true"] += true
        return out

    def write(self, path) -> None:
        """One JSON object per span, in call order."""
        keys = ("op", "id", "parent", "layer", "start_ns", "end_ns",
                "raised", "returned_true")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
