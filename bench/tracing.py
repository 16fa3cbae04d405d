"""Spans and counters for the traced run, recorded from outside the package.

The tracer replaces the module attributes the package calls through (for
example ``grouplang.regular.product``, which ``from .semiring import
product`` bound at import time) with wrappers that open a span, and it
counts group operations by wrapping the backend classes' methods.  Spans
(name, start, end, parent, instance) stay in compact arrays in memory and
are written out once, when the run ends.  Self time is a span's duration
minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

import grouplang.cli
import grouplang.linear
import grouplang.regular
from grouplang.groups import Cyclic, FiniteCayley, FreeAbelian, FreeGroup

# (module, attribute, span name).  Several attributes may share a span name:
# the CLI binds its own references to the two checks.
SPANS = [
    (grouplang.regular, "useful_states", "regular.useful_states"),
    (grouplang.regular, "build_initial_matrix", "regular.build"),
    (grouplang.regular, "closure", "regular.closure"),
    (grouplang.regular, "shortest_word_path", "regular.witness"),
    (grouplang.regular, "first_failing_word", "regular.witness"),
    (grouplang.regular, "extract_witness", "regular.witness"),
    (grouplang.regular, "_failing_conjugate_witnesses", "regular.witness"),
    (grouplang.regular, "_best_exit_witness", "regular.witness"),
    (grouplang.regular, "check_regular_inclusion", "regular.tests"),
    (grouplang.cli, "check_regular_inclusion", "regular.tests"),
    (grouplang.regular, "product", "semiring.product"),
    (grouplang.regular, "union", "semiring.union"),
    (grouplang.regular, "star", "semiring.star"),
    (grouplang.linear, "useful_nonterminals", "linear.useful"),
    (grouplang.linear, "build_grammar_matrix", "linear.build"),
    (grouplang.linear, "closure_pairs", "linear.closure"),
    (grouplang.linear, "check_linear_inclusion", "linear.tests"),
    (grouplang.cli, "check_linear_inclusion", "linear.tests"),
    (grouplang.linear, "diamond", "semiring.diamond"),
    (grouplang.linear, "union", "semiring.union"),
    (grouplang.linear, "triple_paired", "semiring.triple"),
    (grouplang.cli, "load_group", "cli.load"),
    (grouplang.cli, "_load_language", "cli.load"),
]

GROUP_CLASSES = (FreeGroup, FreeAbelian, Cyclic, FiniteCayley)
GROUP_METHODS = ("multiply", "invert", "canonicalize")

# Semiring operations whose output is built from |x| * |y| combinations.
COMBINING = {"semiring.product", "semiring.diamond", "semiring.star", "semiring.triple"}

# The package's own OpCounters field for each counted semiring span.
OPCOUNTER_FIELDS = {
    "semiring.product": "products",
    "semiring.union": "unions",
    "semiring.star": "stars",
    "semiring.diamond": "diamonds",
    "semiring.triple": "triples",
}


def _witness_letters(result) -> int:
    total = 0
    for wit in result.elements.values():
        if wit and isinstance(wit[0], tuple):
            total += len(wit[0]) + len(wit[1])
        else:
            total += len(wit)
    return total


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_instance = array("i")
        self._stack: list[list] = []  # [span index or -1, start, seconds covered by children]
        self.recording = True  # keep spans; self times and counts are kept regardless
        self.instance = -1
        self.self_s: dict[str, float] = defaultdict(float)
        self.completed: Counter = Counter()  # calls that returned normally
        self.raised: Counter = Counter()  # (span name, exception class name)
        self.counts: Counter = Counter()
        self.max_cell: dict[str, int] = defaultdict(int)
        self.counting_groups = False
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = -1
        if self.recording:
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(self._stack[-1][0] if self._stack else -1)
            self.span_instance.append(self.instance)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        start = time.perf_counter()
        if idx >= 0:
            self.span_start[idx] = start
        self._stack.append([idx, start, 0.0])
        return idx

    def _close(self, idx: int, name: str) -> None:
        end = time.perf_counter()
        _idx, start, children = self._stack.pop()
        if idx >= 0:
            self.span_end[idx] = end
        duration = end - start
        self.self_s[name] += duration - children
        if self._stack:
            self._stack[-1][2] += duration

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx, name)

    def add_child_time(self, name: str, seconds: float) -> None:
        """Time spent in a callee too fine-grained for one span per call."""
        self.self_s[name] += seconds
        if self._stack:
            self._stack[-1][2] += seconds

    # -- installation --------------------------------------------------
    def install(self) -> None:
        for module, attr, name in SPANS:
            self._wrap_function(module, attr, name)
        for cls in GROUP_CLASSES:
            for meth in GROUP_METHODS:
                self._wrap_group_method(cls, meth)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap_function(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr)
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                tracer._close(idx, name)
                tracer.raised[name, type(exc).__name__] += 1
                tracer._after(name, args, None)
                raise
            tracer._close(idx, name)
            tracer.completed[name] += 1
            tracer._after(name, args, result)
            return result

        setattr(module, attr, wrapper)
        self._undo.append((module, attr, original))

    def _wrap_group_method(self, cls, meth: str) -> None:
        original = cls.__dict__[meth]
        key = f"groups.{meth}_calls"
        tracer = self

        if meth == "canonicalize":
            def wrapper(backend, word):
                if tracer.counting_groups:
                    tracer.counts[key] += 1
                    tracer.counts["groups.canonicalize_letters"] += len(word)
                return original(backend, word)
        else:
            def wrapper(backend, *args):
                if tracer.counting_groups:
                    tracer.counts[key] += 1
                return original(backend, *args)

        setattr(cls, meth, wrapper)
        self._undo.append((cls, meth, original))

    def _after(self, name: str, args, result) -> None:
        """Bookkeeping outside the span: sizes, pivots, witness letters."""
        if name in COMBINING and result is not None:
            combos = len(args[0]) * len(args[1])
            self.counts["semiring.combos"] += combos
            self.counts["semiring.kept"] += len(result)
            self.counts["semiring.witness_letters"] += _witness_letters(result)
        elif name in ("regular.closure", "linear.closure"):
            mat = args[0]
            layer = name.split(".")[0]
            self.counts[f"{layer}.pivots_done"] += min(mat.level, len(mat.useful))
            biggest = max((len(c) for c in mat.cells.values()), default=0)
            self.max_cell[layer] = max(self.max_cell[layer], biggest)

    def opcounter_view(self) -> dict[str, int]:
        return {field: self.completed[name] for name, field in OPCOUNTER_FIELDS.items()}

    def compare_opcounters(self, before: dict[str, int], expected: dict[str, int]) -> None:
        """Count an instance whose traced semiring calls differ from its OpCounters."""
        after = self.opcounter_view()
        traced = {field: after[field] - before[field] for field in after}
        if any(traced[field] != expected.get(field, 0) for field in traced):
            self.counts["trace.counter_mismatches"] += 1

    def note_outcome(self, inst, outcome: str) -> None:
        if inst.kind == "grammar" and outcome in ("cap", "timeout"):
            key = "linear.cap_hits" if outcome == "cap" else "linear.timeouts"
            self.counts[key] += 1

    def depth(self) -> int:
        return len(self._stack)

    def abandon(self, depth: int) -> None:
        """Close spans an interrupted call left open, without charging self time."""
        now = time.perf_counter()
        while len(self._stack) > depth:
            idx, _start, _children = self._stack.pop()
            if idx >= 0:
                self.span_end[idx] = now

    # -- output --------------------------------------------------------
    def write(self, path) -> None:
        """Gzipped text: a JSON header line, then one span per line.

        Each span line is ``name start_us end_us parent instance``, where
        ``name`` indexes the header's names and ``parent`` is the index of
        the parent span (span lines counted from 0), or -1.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "fields": ["name", "start_us", "end_us", "parent", "instance"]}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps(header) + "\n")
            chunk = []
            for i in range(len(self.span_name)):
                chunk.append(
                    f"{self.span_name[i]} {self.span_start[i] * 1e6:.1f} {self.span_end[i] * 1e6:.1f} "
                    f"{self.span_parent[i]} {self.span_instance[i]}\n"
                )
                if len(chunk) == 10000:
                    fh.write("".join(chunk))
                    chunk = []
            fh.write("".join(chunk))
