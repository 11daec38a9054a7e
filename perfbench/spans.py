"""Span tracing for the traced benchmark run.

`Tracer.install()` wraps the public functions of each faultline layer, from
outside the package: every reference to a wrapped function in any
`faultline.*` module (including names bound by `from .x import f`) and the
wrapped methods on their classes are replaced.  Each call records a span
(name, start, end, parent index).  Spans are kept in memory for one CLI
operation; `end_op()` folds them into per-name call counts, inclusive time
and self time, and clears them.

Layer counters (letters produced, tiles placed, ...) are read off the
wrapped calls' arguments and return values at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (span name, module, attribute; "Class.method" for methods)
TARGETS = (
    ("cli.main", "faultline.cli", "main"),
    ("cli.dump_report", "faultline.cli", "dump_report"),
    ("documents.load_document", "faultline.documents", "load_document"),
    ("dpv.validate_dpv", "faultline.dpv", "validate_dpv"),
    ("dpv.essential_vertices", "faultline.dpv", "essential_vertices"),
    ("dpv.cochain_limits", "faultline.dpv", "cochain_limits"),
    ("dpv.compute_mu_nu", "faultline.dpv", "compute_mu"),
    ("dpv.compute_mu_nu", "faultline.dpv", "compute_nu"),
    ("fault.boundary_trace", "faultline.fault", "boundary_trace"),
    ("fault.classify_boundary", "faultline.fault", "classify_boundary"),
    ("substitution.apply", "faultline.substitution", "Substitution.apply"),
    ("substitution.legal_words", "faultline.substitution", "Substitution.legal_words"),
    ("substitution.is_primitive", "faultline.substitution", "is_primitive"),
    ("substitution.spectral_classify", "faultline.substitution", "spectral_classify"),
    ("substitution.tile_lengths", "faultline.substitution", "tile_lengths"),
    ("ap_complex.collar", "faultline.ap_complex", "collar"),
    ("ap_complex.graph_h1", "faultline.ap_complex", "graph_h1"),
    ("ap_complex.border_forcing", "faultline.ap_complex", "border_forcing"),
    ("abelian.smith_normal_form", "faultline.abelian", "smith_normal_form"),
    ("abelian.direct_limit", "faultline.abelian", "direct_limit"),
    ("abelian.charpoly", "faultline.abelian", "charpoly"),
    ("abelian.recognize", "faultline.abelian", "recognize"),
    ("algebra.sign", "faultline.algebra", "AlgebraicNumber.sign"),
    ("algebra.interval", "faultline.algebra", "AlgebraicNumber.interval"),
    ("algebra.refined", "faultline.algebra", "NumberField.refined"),
    ("algebra.mod_reduce", "faultline.algebra", "mod_reduce"),
    ("algebra.sympy", "faultline.algebra", "irreducible_factors"),
    ("algebra.sympy", "faultline.algebra", "isolate_real_roots"),
    ("algebra.sympy", "faultline.algebra", "isolate_complex_roots"),
    ("render.generate_patch", "faultline.render", "generate_patch"),
    ("render.emit_svg", "faultline.render", "emit_svg"),
    ("render.overlay_boundaries", "faultline.render", "overlay_boundaries"),
)


# per-op counters read off the wrapped calls
COUNTERS = (
    "substitution.apply.letters_out",
    "fault.letters_scanned",
    "fault.distinct_discrepancies",
    "ap_complex.edges",
    "render.tiles",
    "render.svg_bytes",
    "dpv.boundaries_per_op",
)


def _letters_scanned(trace):
    return sum(len(st.top) + len(st.bottom) for st in trace.steps)


def _max_dim(matrix):
    shape = getattr(matrix, "shape", None)
    return max(shape) if shape else len(matrix)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent] of the current op
        self._stack = []
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.max_dim = 0
        self.n_spans = 0
        self._counters = {
            "substitution.apply": self._on_apply,
            "fault.boundary_trace": self._on_trace,
            "ap_complex.collar": self._on_collar,
            "abelian.smith_normal_form": self._on_matrix,
            "abelian.direct_limit": self._on_matrix,
            "render.generate_patch": self._on_patch,
            "render.emit_svg": self._on_svg,
            "dpv.essential_vertices": self._on_essential,
        }

    # -- counters read at the layer boundaries ---------------------------------

    def _on_apply(self, args, result):
        self.counts["substitution.apply.letters_out"] += len(result)

    def _on_trace(self, args, result):
        self.counts["fault.letters_scanned"] += _letters_scanned(result)
        self.counts["fault.distinct_discrepancies"] += len(result.steps[-1].discrepancy_values)

    def _on_collar(self, args, result):
        self.counts["ap_complex.edges"] += result[1].n_edges

    def _on_matrix(self, args, result):
        self.max_dim = max(self.max_dim, _max_dim(args[0]))

    def _on_patch(self, args, result):
        self.counts["render.tiles"] += len(result)

    def _on_svg(self, args, result):
        self.counts["render.svg_bytes"] += len(result)

    def _on_essential(self, args, result):
        self.counts["dpv.boundaries_per_op"] += len(result.vertices)

    # -- wrapping ----------------------------------------------------------------

    def wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        counter = self._counters.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counter(args, result)
            return result

        return traced

    def install(self):
        """Wrap every target; returns the number of references replaced."""
        replaced = 0
        for name, modname, attr in TARGETS:
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(name, cls.__dict__[meth]))
                replaced += 1
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("faultline"):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
                            replaced += 1
        return replaced

    # -- folding spans -------------------------------------------------------------

    def end_op(self):
        """Fold the current op's spans into the totals and clear them."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            self.calls[name] += 1
            self.self_time[name] += dur - child[i]
            # inclusive time counts only the outermost span of a name
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                self.incl[name] += dur
        self.n_spans += len(spans)
        spans.clear()
        self._stack.clear()


def span_cost(samples=20000):
    """Seconds one traced call adds, measured on a trivial function."""
    tracer = Tracer()

    def f(x):
        return x

    g = tracer.wrap("calibration", f)
    best = None
    for _ in range(3):
        t0 = time.perf_counter()
        for i in range(samples):
            f(i)
        t1 = time.perf_counter()
        for i in range(samples):
            g(i)
        tracer.end_op()
        t2 = time.perf_counter()
        cost = ((t2 - t1) - (t1 - t0)) / samples
        best = cost if best is None else min(best, cost)
    return best
