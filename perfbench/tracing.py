"""Span tracing of the library's layers, installed from outside the library.

`Tracer.install()` replaces each traced public function with a wrapper at
every name it is bound to inside the `gdecomp` package (callers look names up
in their own module, e.g. `gdecomp.extremity.check_Um_bruteforce`), and
`uninstall()` puts the originals back.  A span is (id, parent id, item, name,
start, end); spans stay in memory until `write()`.  Counts are computed from
each call's arguments and result at the same boundary.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import defaultdict

# metric prefix -> (module, functions).  `matrices` is not traced: its helpers
# are counted inside their callers' self time.
LAYERS = {
    "cli.main": ("cli", ("main",)),
    "formats.parse": ("formats", ("parse_matrix", "parse_square_matrix")),
    "formats.serialize": (
        "formats",
        ("format_rational", "serialize_square_matrix", "serialize_matrix"),
    ),
    "membership.principal_sums": ("membership", ("principal_sums_by_mask",)),
    "membership.bruteforce": ("membership", ("check_Um_bruteforce",)),
    "membership.mincut": ("membership", ("check_Um_mincut",)),
    "flow.build": ("flow", ("build_flow_network",)),
    "flow.max_flow": ("flow", ("max_flow",)),
    "saturation.enumerate": ("saturation", ("enumerate_saturated",)),
    "saturation.neighborhood": (
        "saturation",
        ("min_sat_neighborhood", "max_sat_neighborhood"),
    ),
    "extremity.criterion": ("extremity", ("is_extreme_criterion",)),
    "extremity.split": ("extremity", ("split_nonextreme",)),
    "extremity.peel": ("extremity", ("krein_milman_decompose",)),
    "extremity.scan": ("extremity", ("conjecture_scan",)),
    "extremity.enumerate": ("extremity", ("enumerate_extreme",)),
    "decomposition.g_decompose": ("decomposition", ("g_decompose",)),
    "decomposition.inductive": ("decomposition", ("g_decompose_extreme_inductive",)),
    "decomposition.verify": ("decomposition", ("verify_decomposition",)),
}


def _count_subsets(tracer, args, result):
    tracer.counts["membership.subsets_enumerated"] += (1 << len(args[0])) - 1


def _count_flow(tracer, args, result):
    net = args[0]
    nodes = len(net.pairs) + net.m + 2
    tracer.counts["flow.nodes"] += nodes
    tracer.counts["flow.table_cells"] += nodes * nodes


def _count_sets(tracer, args, result):
    tracer.counts["saturation.sets_found"] += len(result)


def _count_criterion(tracer, args, result):
    tracer.criterion_inputs.add((args[0], result.ambient))


def _count_vertices(tracer, args, result):
    tracer.counts["extremity.vertices_emitted"] += len(result.terms)


COUNTERS = {
    "principal_sums_by_mask": _count_subsets,
    "max_flow": _count_flow,
    "enumerate_saturated": _count_sets,
    "is_extreme_criterion": _count_criterion,
    "krein_milman_decompose": _count_vertices,
}

# (metric, unit, better) in report order; "<prefix>_s", "_self_s" and
# "_calls" are span metrics of the LAYERS prefix.
PER_LAYER = [
    ("cli.main_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("formats.parse_s", "s", "lower"),
    ("formats.parse_calls", "count", "lower"),
    ("formats.serialize_s", "s", "lower"),
    ("membership.principal_sums_s", "s", "lower"),
    ("membership.principal_sums_calls", "count", "lower"),
    ("membership.subsets_enumerated", "count", "lower"),
    ("membership.bruteforce_s", "s", "lower"),
    ("membership.bruteforce_calls", "count", "lower"),
    ("membership.mincut_s", "s", "lower"),
    ("membership.mincut_calls", "count", "lower"),
    ("flow.build_s", "s", "lower"),
    ("flow.max_flow_s", "s", "lower"),
    ("flow.max_flow_calls", "count", "lower"),
    ("flow.nodes", "count", "lower"),
    ("flow.table_cells", "count", "lower"),
    ("saturation.enumerate_s", "s", "lower"),
    ("saturation.enumerate_calls", "count", "lower"),
    ("saturation.sets_found", "count", "lower"),
    ("saturation.neighborhood_s", "s", "lower"),
    ("extremity.criterion_s", "s", "lower"),
    ("extremity.criterion_calls", "count", "lower"),
    ("extremity.criterion_distinct_ratio", "ratio", "higher"),
    ("extremity.split_s", "s", "lower"),
    ("extremity.split_calls", "count", "lower"),
    ("extremity.peel_s", "s", "lower"),
    ("extremity.peel_self_s", "s", "lower"),
    ("extremity.vertices_emitted", "count", "lower"),
    ("extremity.scan_s", "s", "lower"),
    ("extremity.scan_self_s", "s", "lower"),
    ("extremity.enumerate_s", "s", "lower"),
    ("decomposition.g_decompose_s", "s", "lower"),
    ("decomposition.g_decompose_calls", "count", "lower"),
    ("decomposition.inductive_s", "s", "lower"),
    ("decomposition.verify_s", "s", "lower"),
    ("decomposition.verify_calls", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.ids = itertools.count(1)
        self.stack = [0]
        self.item = -1
        self.counts = defaultdict(int)
        self.criterion_inputs = set()
        self.patched = []  # (module, attribute, original)

    def _wrap(self, layer, fn):
        spans, stack, ids = self.spans, self.stack, self.ids
        counter = COUNTERS.get(fn.__name__)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, self.item, layer, start, end))
            if counter:
                counter(self, args, result)
            return result

        return wrapper

    def install(self):
        modules = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "gdecomp"]
        for layer, (module, names) in LAYERS.items():
            home = sys.modules["gdecomp." + module]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(layer, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self.patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self.patched):
            setattr(mod, attr, original)
        self.patched.clear()

    def metrics(self) -> dict:
        """Per-layer busy time, self time and call counts, plus computed counts.

        A layer's busy time sums its outermost spans (a span nested in a span
        of the same layer is not counted twice); self time subtracts the spans
        directly below it.
        """
        layer_of = {sid: layer for sid, _, _, layer, _, _ in self.spans}
        parent_of = {sid: parent for sid, parent, _, _, _, _ in self.spans}
        child_time = defaultdict(float)
        for sid, parent, _, _, start, end in self.spans:
            child_time[parent] += end - start
        busy = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        for sid, parent, _, layer, start, end in self.spans:
            own[layer] += end - start - child_time[sid]
            up = parent
            while up and layer_of[up] != layer:
                up = parent_of[up]
            if not up:
                busy[layer] += end - start
                calls[layer] += 1
        out = {}
        for layer in LAYERS:
            out[layer + "_s"] = busy[layer]
            out[layer + "_self_s"] = own[layer]
            out[layer + "_calls"] = calls[layer]
        out["cli.self_s"] = own["cli.main"]
        out.update(self.counts)
        n = out["extremity.criterion_calls"]
        out["extremity.criterion_distinct_ratio"] = len(self.criterion_inputs) / n if n else 0.0
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tparent\titem\tname\tstart\tend\n")
            for span in self.spans:
                handle.write("%d\t%d\t%d\t%s\t%.9f\t%.9f\n" % span)
