"""Per-layer spans recorded from outside the program.

`Tracer.install` replaces qdesign's public functions by timing wrappers in
every qdesign module that binds them, including names re-bound with
`from .linear import ...` and functions held in registry dicts such as
`suites.SUITES`; `uninstall` puts the originals back, so untraced passes
run the unmodified program.  Spans are kept in memory: name, parent,
start, end and a few work counters.  Only the main thread records spans;
worker threads (the threaded weight distribution) only add to the
codeword counter.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import threading
import time

# span name -> (module, functions recorded under that name)
LAYERS = {
    "fields.field_make": ("fields", ["field_make"]),
    "fields.quadratic_extension": ("fields", ["quadratic_extension"]),
    "linear.dual": ("linear", ["dual"]),
    "linear.covering_radius": ("linear", ["covering_radius"]),
    "linear.codewords_of_weight": ("linear", ["codewords_of_weight"]),
    "linear.weight_distribution": ("linear", ["weight_distribution"]),
    "linear.code_profile": ("linear", ["code_profile"]),
    "designs.qary_design_index": ("designs", ["qary_design_index"]),
    "designs.classical_design_index": ("designs", ["classical_design_index"]),
    "designs.fixed_support_index": ("designs", ["fixed_support_index"]),
    "designs.support_multiplicity": ("designs", ["support_multiplicity"]),
    "designs.family_from_code": ("designs", ["family_from_code"]),
    "counting.block_sets": ("counting", ["esp_zero_blocks", "shifted_esp_zero_blocks",
                                         "block_sets"]),
    "zoo.trace_family": ("zoo", ["trace_min_weight_family", "trace_next_weight_family"]),
    "zoo.build": ("zoo", ["zoo_build", "simplex_code", "hamming_code", "reed_solomon_code",
                          "doubly_extended_rs_code", "ternary_golay_code",
                          "golay_dual_code", "pless_symmetry_code", "hyperoval_code",
                          "ovoid_code", "trace_exponent_code"]),
    "criteria": ("criteria", ["parameter_gap_criterion", "puncture_shorten_criterion",
                              "dual_profile", "assmus_mattson_criterion", "mds_check",
                              "perfect_check", "extremal_ternary_strength",
                              "extremal_quaternary_strength", "criteria_bundle"]),
    "suites": ("suites", ["suite_golay", "suite_two_weight", "suite_tables",
                          "suite_pless", "suite_drs", "suite_trace", "run_suite"]),
    "cli": ("cli", ["main", "cmd_zoo", "cmd_profile", "cmd_design", "cmd_criteria",
                    "cmd_reproduce"]),
}
COUNTED_GENERATOR = ("linear", "iter_codeword_blocks")


def _qary_work(a, result, visited):
    """B * C(n, t): blocks times t-subsets scanned by the per-subset kernel."""
    fam = a["fam"]
    return {"work": len(fam) * math.comb(fam.n, a["t"])}


def _classical_work(a, result, visited):
    """D * C(w, t), D distinct supports; the check reports D*C(w,t)/C(n,t)."""
    if result.expected is None:
        return {"work": 0}
    return {"work": int(result.expected * math.comb(a["fam"].n, a["t"]))}


def _weight_class_yield(a, result, visited):
    """Rows kept, and candidates visited: codewords enumerated when the call
    enumerated, else every (support, nonzero pattern) of the scan."""
    C, w = a["C"], a["w"]
    if not visited:
        visited = math.comb(C.n, w) * (C.field.q - 1) ** w
    return {"kept": len(result), "visited": visited}


def _threads(a, result, visited):
    return {"threads": int(a["threads"] or 1)}


MEASURES = {
    "designs.qary_design_index": _qary_work,
    "designs.classical_design_index": _classical_work,
    "linear.codewords_of_weight": _weight_class_yield,
    "linear.weight_distribution": _threads,
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "attrs")

    def __init__(self, name, parent):
        self.name, self.parent = name, parent
        self.start = self.end = 0.0
        self.attrs = {}

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.codewords = 0
        self._stack: list[int] = []
        self._lock = threading.Lock()
        self._swaps: list[tuple[dict, str, object]] = []

    def reset(self):
        self.spans, self._stack, self.codewords = [], [], 0

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, fn):
        sig = inspect.signature(fn)
        measure = MEASURES.get(name)
        main = threading.main_thread()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.current_thread() is not main:
                return fn(*args, **kwargs)
            span = Span(name, self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            before = self.codewords
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if measure is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs = measure(bound.arguments, result, self.codewords - before)
            return result
        return traced

    def _count(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for first, block in fn(*args, **kwargs):
                with self._lock:
                    self.codewords += len(block)
                yield first, block
        return counted

    def install(self):
        """Swap every recorded function, wherever a qdesign module binds it."""
        if self._swaps:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module(f"qdesign.{m}")
                for m, _ in [*LAYERS.values(), COUNTED_GENERATOR]}
        targets = [(mods[m], f, self._wrap(span, getattr(mods[m], f)))
                   for span, (m, names) in LAYERS.items() for f in names]
        m, f = COUNTED_GENERATOR
        targets.append((mods[m], f, self._count(getattr(mods[m], f))))
        holders = [vars(mod) for name, mod in sys.modules.items()
                   if name == "qdesign" or name.startswith("qdesign.")]
        holders += [v for h in list(holders) for v in h.values() if isinstance(v, dict)]
        for mod, fname, wrapper in targets:
            orig = getattr(mod, fname)
            for holder in holders:
                for key, val in list(holder.items()):
                    if val is orig:
                        holder[key] = wrapper
                        self._swaps.append((holder, key, orig))

    def uninstall(self):
        for holder, key, orig in reversed(self._swaps):
            holder[key] = orig
        self._swaps = []


# ---------------------------------------------------------------------------
# aggregation

def summarize(spans: list[Span]) -> dict:
    """Per span name: inclusive seconds (outermost spans of the name only),
    self seconds (minus direct children), calls, and summed attrs."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.seconds
    out: dict[str, dict] = {}
    for i, s in enumerate(spans):
        agg = out.setdefault(s.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        agg["calls"] += 1
        agg["self_s"] += s.seconds - child[i]
        p = s.parent
        while p is not None and spans[p].name != s.name:
            p = spans[p].parent
        if p is None:
            agg["s"] += s.seconds
        for key, val in s.attrs.items():
            agg[key] = agg.get(key, 0) + val
    return out


def root_leftover(spans: list[Span], t0: float, t1: float) -> float:
    """Pass wall time not covered by root spans.

    Raises AssertionError unless the root spans lie inside [t0, t1] and do
    not overlap, which is what makes roots plus leftover equal the wall.
    """
    roots = sorted((s for s in spans if s.parent is None), key=lambda s: s.start)
    edge = t0
    for s in roots:
        if s.start < edge or s.end > t1 or s.end < s.start:
            raise AssertionError(f"root span {s.name} outside the pass or overlapping")
        edge = s.end
    leftover = (t1 - t0) - sum(s.seconds for s in roots)
    if leftover < 0:
        raise AssertionError("root spans exceed the pass wall time")
    return leftover


def layer_metrics(spans: list[Span], codewords: int, wall: float) -> dict:
    """One traced pass as the per-layer metrics named in BENCHMARK.json.

    A layer the workload never calls reads 0 (so do its rates and ratios).
    """
    agg = summarize(spans)

    def get(name, key="s"):
        return agg.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    qs, cs = get("designs.qary_design_index"), get("designs.classical_design_index")
    qwork = get("designs.qary_design_index", "work")
    cwork = get("designs.classical_design_index", "work")
    wd = [s for s in spans if s.name == "linear.weight_distribution"]
    wd1 = sum(s.seconds for s in wd if s.attrs.get("threads") == 1)
    wd2 = sum(s.seconds for s in wd if s.attrs.get("threads", 0) >= 2)
    return {
        "designs.qary_design_index.s": qs,
        "designs.qary_design_index.calls": get("designs.qary_design_index", "calls"),
        "designs.qary_design_index.work": qwork,
        "designs.qary_design_index.rate": ratio(qwork, qs),
        "designs.classical_design_index.s": cs,
        "designs.classical_design_index.work": cwork,
        "designs.classical_design_index.rate": ratio(cwork, cs),
        "designs.fixed_support_index.s": get("designs.fixed_support_index"),
        "designs.support_multiplicity.s": get("designs.support_multiplicity"),
        "designs.family_from_code.self_s": get("designs.family_from_code", "self_s"),
        "zoo.trace_family.s": get("zoo.trace_family"),
        "zoo.build.s": get("zoo.build"),
        "counting.block_sets.s": get("counting.block_sets"),
        "linear.covering_radius.s": get("linear.covering_radius"),
        "linear.codewords_of_weight.s": get("linear.codewords_of_weight"),
        "linear.codewords_of_weight.yield": ratio(
            get("linear.codewords_of_weight", "kept"),
            get("linear.codewords_of_weight", "visited")),
        "linear.dual.s": get("linear.dual"),
        "linear.code_profile.self_s": get("linear.code_profile", "self_s"),
        "criteria.s": get("criteria"),
        "linear.weight_distribution.s": get("linear.weight_distribution"),
        "linear.codewords": codewords,
        "linear.weight_distribution.speedup_2w": ratio(wd1, wd2),
        "fields.field_make.s": get("fields.field_make"),
        "fields.quadratic_extension.s": get("fields.quadratic_extension"),
        "suites.self_s": get("suites", "self_s"),
        "cli.self_s": get("cli", "self_s"),
        "trace.wall_s": wall,
    }
