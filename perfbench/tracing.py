"""In-memory span tracer that wraps the program's public functions from
outside, so that the program itself is not changed.

Each wrapped call records a span [name, start, end, parent, op]; op -1
marks set-up work. Some functions also add counts computed from the
call's arguments. DenseGraph.walk_count is called millions of times by
the oracles and mostly reads a cached matrix power, so its calls are only
counted; the span `graphs.walk_count` times the walk_matrix calls that
build new powers. A function is wrapped once and the wrapper is stored at
every module attribute that holds it, because callers resolve names such
as `diagonal.hamming_walks` in their own module. Methods and properties
are wrapped on their class.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import time
import weakref
from collections import Counter
from math import comb

LAYERS = ("field", "graphs", "neps", "gp", "diagonal", "divisibility",
          "verify", "cli")

# (span name, module, attribute): module-level functions
FUNCTIONS = [
    ("field.find_modulus", "field", "find_modulus"),
    ("field.build_field", "field", "build_field"),
    ("field.residues", "field", "kth_power_residues"),
    ("neps.hamming_walks", "neps", "hamming_walks"),
    ("neps.neps_walks", "neps", "neps_walks"),
    ("neps.neps_construct", "neps", "neps_construct"),
    ("gp.gp_graph", "gp", "gp_graph"),
    ("gp.verify_isomorphism", "gp", "verify_isomorphism"),
    ("diagonal.brute_force", "diagonal", "brute_force_distribution"),
    ("diagonal.convolution", "diagonal", "convolution_distribution"),
    ("diagonal.walk_bridge", "diagonal", "walk_solution_count"),
    ("divisibility.k_is_integer", "divisibility", "k_is_integer"),
    ("verify.triple_agreement", "verify", "check_triple_agreement"),
    ("verify.walk_bridge", "verify", "check_walk_bridge"),
    ("verify.isomorphism", "verify", "check_isomorphisms"),
    ("verify.partition", "verify", "check_partition"),
    ("verify.neps_oracle", "verify", "check_neps_oracle"),
    ("verify.examples", "verify", "check_example_closed_forms"),
    ("cli.main", "cli", "main"),
]

# (span name, module, class, attribute): methods and properties
METHODS = [
    ("field.subfield_map", "field", "SubfieldMap", "__init__"),
    ("field.add_table", "field", "FiniteField", "add_table"),
    ("field.pattern", "gp", "HammingView", "pattern_idx"),
    ("gp.hamming_view", "gp", "HammingView", "__init__"),
    ("diagonal.system_init", "diagonal", "DiagonalSystem", "__init__"),
    ("diagonal.count_nonzero", "diagonal", "DiagonalSystem", "count_nonzero"),
    ("diagonal.count_all", "diagonal", "DiagonalSystem", "count_all"),
]

# every timed span name: those above, the power-building walk_matrix calls
# and the import that precedes install()
TIMED = [name for name, *_ in FUNCTIONS + METHODS] + ["graphs.walk_count",
                                                      "cli.import"]

WORD = 8  # bytes per Python list slot, for the computed table sizes


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = 0
        self._stack = []
        self._seen = {}  # what -> set of call keys seen
        self._objects = {}  # kind -> {id: (weakref, state)}

    def record(self, name, start, end):
        """Add a span timed by the caller, outside any wrapped call."""
        self.spans.append([name, start, end, -1, self.op])

    def span(self, name, fn, counter=None):
        """Wrap fn; counter, if given, is called as
        counter(tracer, result, *args, **kwargs) after a call returns."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if counter:
                counter(self, result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, key, fn):
        """Wrap fn to count its calls in counts[key], with no span."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def new_powers(self, fn):
        """Wrap DenseGraph.walk_matrix: a call that builds new powers is a
        `graphs.walk_count` span and adds n^3 matmul_ops per new power; a
        call that reads a cached power records nothing. The two are told
        apart by the length of the graph's power cache, `_powers`."""
        timed, counts = self.span("graphs.walk_count", fn), self.counts

        def wrapper(graph, r):
            new = r + 1 - len(graph._powers)
            if new <= 0:
                return fn(graph, r)
            counts["graphs.matmul_ops"] += graph.n**3 * new
            return timed(graph, r)

        wrapper.__wrapped__ = fn
        return wrapper

    def first_time(self, what, key):
        seen = self._seen.setdefault(what, set())
        if key in seen:
            return False
        seen.add(key)
        return True

    def state_of(self, kind, obj):
        """Mutable state kept per live object; a new object reusing a dead
        one's id starts empty."""
        table = self._objects.setdefault(kind, {})
        entry = table.get(id(obj))
        if entry is None or entry[0]() is not obj:
            entry = (weakref.ref(obj), {})
            table[id(obj)] = entry
        return entry[1]

    def install(self):
        """Wrap every traced function of the imported diagwalks package."""
        import diagwalks
        import diagwalks.cli  # noqa: F401  (not imported by the package)

        modules = {
            info.name: importlib.import_module(f"diagwalks.{info.name}")
            for info in pkgutil.iter_modules(diagwalks.__path__)
        }
        namespaces = [diagwalks, *modules.values()]
        for name, mod, attr in FUNCTIONS:
            original = getattr(modules[mod], attr)
            wrapper = self.span(name, original, COUNTERS.get(name))
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
        for name, mod, cls_name, attr in METHODS:
            cls = getattr(modules[mod], cls_name)
            original = cls.__dict__[attr]
            counter = COUNTERS.get(name)
            if isinstance(original, property):
                wrapped = property(self.span(name, original.fget, counter))
            else:
                wrapped = self.span(name, original, counter)
            setattr(cls, attr, wrapped)
        graph = modules["graphs"].DenseGraph
        graph.walk_count = self.counted("graphs.walk_count_calls",
                                        graph.walk_count)
        graph.walk_matrix = self.new_powers(graph.walk_matrix)

    def times(self):
        """{name: [set-up total, op total, set-up self, op self]} in seconds.
        Self time is the span's duration minus that of its direct children."""
        child = Counter()
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, op) in enumerate(self.spans):
            row = out.setdefault(name, [0.0, 0.0, 0.0, 0.0])
            phase = 0 if op < 0 else 1
            row[phase] += end - start
            row[2 + phase] += end - start - child[i]
        return out

    def write(self, path, process):
        """Append the spans, tagged with their process number, to path."""
        with open(path, "a") as f:
            for span in self.spans:
                f.write(json.dumps([*span, process]) + "\n")


# --- counts derived from call arguments (computed, not measured); each
# counter takes the wrapped function's own parameters ---

def _count_build_field(tracer, field, p, m, *args, **kwargs):
    q = field.q
    tracer.counts["field.table_bytes"] += WORD * ((q - 1) + q + q * m)


def _count_add_table(tracer, table, self):
    state = tracer.state_of("field", self)
    if not state:
        state["add_table"] = True
        tracer.counts["field.table_bytes"] += table.nbytes


def _count_pattern(tracer, result, self, x_idx):
    tracer.counts["field.pattern_calls"] += 1


def _count_hamming(tracer, result, b, q, r, zeros):
    tracer.counts["neps.hamming_walks_calls"] += 1
    tracer.counts["neps.hamming_terms"] += comb(r + b - 1, b - 1)
    key = (b, q, r, sum(bool(z) for z in zeros))
    tracer.counts["neps.hamming_unique"] += tracer.first_time("hamming", key)


def _count_brute_force(tracer, result, field, k, r, restrict_nonzero=True,
                       cap=None):
    tracer.counts["diagonal.bf_calls"] += 1
    if tracer.first_time("brute_force", (field.key, k, r, restrict_nonzero)):
        base = field.q - 1 if restrict_nonzero else field.q
        tracer.counts["diagonal.brute_tuples"] += base**r
    else:
        tracer.counts["diagonal.bf_hits"] += 1


def _count_walk_bridge(tracer, result, field, k, x, y, s):
    tracer.counts["diagonal.gp_calls"] += 1
    if not tracer.first_time("gp_graph", (field.key, k)):
        tracer.counts["diagonal.gp_hits"] += 1


def _count_nonzero(tracer, result, self, alpha, r):
    tracer.counts["diagonal.count_nonzero_calls"] += 1


COUNTERS = {
    "field.build_field": _count_build_field,
    "field.add_table": _count_add_table,
    "field.pattern": _count_pattern,
    "neps.hamming_walks": _count_hamming,
    "diagonal.brute_force": _count_brute_force,
    "diagonal.walk_bridge": _count_walk_bridge,
    "diagonal.count_nonzero": _count_nonzero,
}
