"""Outside-in layer tracing: a span recorder and the wrappers that feed it.

The tracer wraps robyclif's public entry points at every name a caller looks
up (a from-import binds a second name to the same function, so each binding
is patched), records one span per call, and keeps counts computed at the
boundary from argument sizes, so the counts repeat exactly from run to run.

A span has an id, a name, a start, an end and the id of the span that was
open when it started.  Its self time is its duration minus the time its
child spans cover.  A stage span (cli, pipeline, roby, freealg, seeds,
linegeom, specfile, report) also has a stage self time: its duration minus
its child stage spans only, which is the per-stage table the ROADMAP quotes.
The time spent computing counts is charged to no span.
Spans of the hot leaf boundaries (``kernel.*``, ``scalars.*``, a few
hundred thousand calls per pass) are aggregated as they close rather than
kept one by one; every other span is kept in memory and written out at the
end.
"""

from __future__ import annotations

import gc
import sys
import time
from collections import Counter, defaultdict
from itertools import count as counter


# Spans of these layers are stages; the others (matrix, kernel, scalars) are
# the arithmetic the stages run on.
STAGE_LAYERS = ("job", "cli", "pipeline", "roby", "freealg", "seeds", "linegeom", "specfile", "report")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # open spans: [id, start, child time, child stage time, hidden time]
        self.stack = []
        self.ids = counter(1)
        # name -> [calls, total, self, stage self]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
        self.spans = []  # (id, name, start, end, parent)
        self.counts = Counter()
        self.gc_start = None

    def hide(self, dt: float) -> None:
        """Charge dt (the benchmark's own counting) to no span."""
        if self.stack:
            self.stack[-1][2] += dt
            self.stack[-1][4] += dt

    def wrap(self, name: str, fn, *, keep=True, before=None, after=None):
        """fn wrapped in a span.

        Self time is the duration minus every child span.  Stage self time
        is the duration minus child stage spans only, so the matrix and
        kernel work a stage runs counts toward that stage.
        """
        clock, stack, stats, spans, ids = self.clock, self.stack, self.stats, self.spans, self.ids
        counts, hide = self.counts, self.hide
        stage = name.split(".")[0] in STAGE_LAYERS

        def traced(*args, **kwargs):
            if before is not None:
                t = clock()
                before(counts, *args)
                hide(clock() - t)
            frame = [next(ids), clock(), 0.0, 0.0, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                st = stats[name]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[2]
                st[3] += dur - frame[3] - frame[4]
                if parent is not None:
                    parent[2] += dur
                    if stage:
                        parent[3] += dur
                    else:
                        parent[4] += frame[4]
                if keep:
                    spans.append((frame[0], name, frame[1], end, parent[0] if parent else 0))
            if after is not None:
                t = clock()
                after(counts, result)
                hide(clock() - t)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, fn):
        """Run fn() inside a kept span (used for the benchmark's own jobs)."""
        return self.wrap(name, fn)()

    def gc_callback(self, phase, info):
        if phase == "start":
            self.gc_start = self.clock()
        elif self.gc_start is not None:
            self.counts["gc.collections"] += 1
            self.counts["gc.pause_s"] += self.clock() - self.gc_start
            self.gc_start = None


# -- counts at the boundaries ------------------------------------------------------


def _mul_terms_counts(counts, a, b):
    counts["kernel.term_products"] += len(a) * len(b)


def _matmul_counts(counts, a, b, n, k, m):
    # pairs (i, s, j) with both factors nonzero, and the term products they do
    col_nnz = [0] * k
    col_len = [0] * k
    for i in range(n):
        for s, t in enumerate(a[i * k : (i + 1) * k]):
            if t:
                col_nnz[s] += 1
                col_len[s] += len(t)
    hits = products = 0
    for s in range(k):
        if col_nnz[s]:
            row = b[s * m : (s + 1) * m]
            hits += col_nnz[s] * sum(1 for t in row if t)
            products += col_len[s] * sum(len(t) for t in row)
    counts["matrix.matmul_slots"] += n * k * m
    counts["matrix.matmul_hits"] += hits
    counts["kernel.term_products"] += products


def _aligned_counts(counts, matrix, vars):
    if vars != matrix.vars:
        counts["matrix.realigned_entries"] += len(matrix.data)


def _assembly_counts(counts, result):
    counts["pipeline.assembly_dim"] += result.assembly.dim
    module = result.assembly
    for m in list(module.actions) + [module.tslot]:
        counts["pipeline.assembly_nnz"] += sum(1 for t in m.data if t)


def _charpoly_counts(counts, chi):
    counts["freealg.charpoly_terms"] += len(chi.poly.terms)


# (module, attribute, span name, keep spans, count before, count after).
# A class attribute is given as "Class.method"; aliases of the same function
# on the class (CycScalar.__rmul__ is __mul__) are wrapped with it.
TARGETS = (
    ("robyclif.cli", "main", "cli.main", True, None, None),
    ("robyclif.pipeline", "run_pipeline", "pipeline.run_pipeline", True, None, _assembly_counts),
    ("robyclif.pipeline", "deviation_monomials", "pipeline.deviation_monomials", True, None, None),
    ("robyclif.roby", "twisted_tensor", "roby.twisted_tensor", True, None, None),
    ("robyclif.roby", "verify_roby", "roby.verify_roby", True, None, None),
    ("robyclif.roby", "char_morphism", "roby.char_morphism", True, None, None),
    ("robyclif.roby", "verify_char_morphism", "roby.verify_char_morphism", True, None, None),
    ("robyclif.roby", "verify_filtered_pseudo", "roby.verify_filtered_pseudo", True, None, None),
    ("robyclif.freealg", "char_poly", "freealg.char_poly", True, None, _charpoly_counts),
    ("robyclif.freealg", "cayley_hamilton_check", "freealg.cayley_hamilton_check", True, None, None),
    ("robyclif.seeds", "cyclic_cover_seed", "seeds.cyclic_cover_seed", True, None, None),
    ("robyclif.seeds", "mf_seed", "seeds.mf_seed", True, None, None),
    ("robyclif.linegeom", "restrict_to_line", "linegeom.restrict_to_line", True, None, None),
    ("robyclif.linegeom", "splitting_type", "linegeom.splitting_type", True, None, None),
    ("robyclif.specfile", "parse_algebra", "specfile.parse", True, None, None),
    ("robyclif.specfile", "parse_roby_module", "specfile.parse", True, None, None),
    ("robyclif.specfile", "parse_line_module", "specfile.parse", True, None, None),
    ("robyclif.specfile", "parse_pipeline", "specfile.parse", True, None, None),
    ("robyclif.specfile", "render_algebra", "specfile.render", True, None, None),
    ("robyclif.specfile", "render_roby_module", "specfile.render", True, None, None),
    ("robyclif.specfile", "render_line_module", "specfile.render", True, None, None),
    ("robyclif.report", "Report.to_json", "report.render", True, None, None),
    ("robyclif.report", "Report.to_text", "report.render", True, None, None),
    ("robyclif.matrix", "PolyMatrix.__mul__", "matrix.mul", True, None, None),
    ("robyclif.matrix", "PolyMatrix.kron", "matrix.kron", True, None, None),
    ("robyclif.matrix", "PolyMatrix.pow", "matrix.pow", True, None, None),
    ("robyclif.matrix", "PolyMatrix.aligned_data", "matrix.aligned_data", True, _aligned_counts, None),
    ("robyclif.kernel", "matmul_terms", "kernel.matmul_terms", False, _matmul_counts, None),
    ("robyclif.kernel", "mul_terms", "kernel.mul_terms", False, _mul_terms_counts, None),
    ("robyclif.scalars", "CycScalar.__mul__", "scalars.cyc_mul", False, None, None),
    ("robyclif.scalars", "CycScalar.__add__", "scalars.cyc_add", False, None, None),
)


def _callers():
    """Every loaded robyclif module that can hold a binding callers look up."""
    for name, module in list(sys.modules.items()):
        if name == "robyclif" or name.startswith("robyclif."):
            if not name.startswith("robyclif.kernel._"):  # kernel internals
                yield module


class Installed:
    """Wrappers installed on robyclif; ``remove()`` restores every binding."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.patched = []  # (owner, attribute, original, wrapper)
        for module_name, attr, name, keep, before, after in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                owners = [owner]
            else:
                original = getattr(module, attr)
                owners = list(_callers())
            wrapper = tracer.wrap(name, original, keep=keep, before=before, after=after)
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self.patched.append((owner, key, original, wrapper))
        self.resume()

    def resume(self) -> None:
        for owner, key, _, wrapper in self.patched:
            setattr(owner, key, wrapper)
        gc.callbacks.append(self.tracer.gc_callback)

    def suspend(self) -> None:
        """Restore every original binding (the output check runs untraced)."""
        gc.callbacks.remove(self.tracer.gc_callback)
        for owner, key, original, _ in reversed(self.patched):
            setattr(owner, key, original)

    remove = suspend


STAGE_METRICS = {
    # per-layer metric -> stage span whose stage self time it reports
    "pipeline.run_pipeline_s": "pipeline.run_pipeline",
    "pipeline.deviation_monomials_s": "pipeline.deviation_monomials",
    "roby.twisted_tensor_s": "roby.twisted_tensor",
    "roby.verify_roby_s": "roby.verify_roby",
    "roby.char_morphism_s": "roby.char_morphism",
    "roby.verify_char_morphism_s": "roby.verify_char_morphism",
    "roby.verify_filtered_pseudo_s": "roby.verify_filtered_pseudo",
    "freealg.char_poly_s": "freealg.char_poly",
    "freealg.cayley_hamilton_check_s": "freealg.cayley_hamilton_check",
    "seeds.cyclic_cover_seed_s": "seeds.cyclic_cover_seed",
    "seeds.mf_seed_s": "seeds.mf_seed",
    "linegeom.restrict_to_line_s": "linegeom.restrict_to_line",
    "linegeom.splitting_type_s": "linegeom.splitting_type",
    "specfile.parse_s": "specfile.parse",
    "specfile.render_s": "specfile.render",
    "report.render_s": "report.render",
    "cli.main_s": "cli.main",
}
SELF_METRICS = {
    # per-layer metric -> span whose self time it reports
    "matrix.mul_s": "matrix.mul",
    "matrix.kron_s": "matrix.kron",
    "matrix.pow_s": "matrix.pow",
    "matrix.aligned_data_s": "matrix.aligned_data",
    "kernel.matmul_terms_s": "kernel.matmul_terms",
    "kernel.mul_terms_s": "kernel.mul_terms",
    "scalars.cyc_mul_s": "scalars.cyc_mul",
    "scalars.cyc_add_s": "scalars.cyc_add",
}
CALL_METRICS = {
    "matrix.mul_calls": "matrix.mul",
    "kernel.matmul_terms_calls": "kernel.matmul_terms",
    "kernel.mul_terms_calls": "kernel.mul_terms",
    "scalars.cyc_mul_calls": "scalars.cyc_mul",
    "scalars.cyc_add_calls": "scalars.cyc_add",
}
COUNT_METRICS = (
    "matrix.matmul_slots",
    "matrix.matmul_hits",
    "matrix.realigned_entries",
    "kernel.term_products",
    "pipeline.assembly_dim",
    "pipeline.assembly_nnz",
    "freealg.charpoly_terms",
)


def pass_metrics(tracer: Tracer, scale: float) -> tuple:
    """(measured, counts) of one traced pass, keyed by per-layer metric name.

    Counts are exact and repeat from pass to pass; measured values are
    times, multiplied by scale, plus the gc collection count, which shifts
    with job order.
    """
    stats = tracer.stats
    measured = {m: stats[span][3] if span in stats else 0.0 for m, span in STAGE_METRICS.items()}
    measured.update({m: stats[span][2] if span in stats else 0.0 for m, span in SELF_METRICS.items()})
    measured["gc.pause_s"] = tracer.counts["gc.pause_s"]
    measured = {m: v * scale for m, v in measured.items()}
    measured["gc.collections"] = tracer.counts["gc.collections"]
    counts = {m: stats[span][0] if span in stats else 0 for m, span in CALL_METRICS.items()}
    counts.update({m: tracer.counts[m] for m in COUNT_METRICS})
    return measured, counts


def derived_metrics(times: dict, counts: dict) -> dict:
    slots = counts["matrix.matmul_slots"]
    kernel_s = times["kernel.mul_terms_s"] + times["kernel.matmul_terms_s"]
    return {
        "matrix.matmul_hit_ratio": counts["matrix.matmul_hits"] / slots if slots else 0.0,
        "kernel.term_products_per_s": counts["kernel.term_products"] / kernel_s if kernel_s else 0.0,
    }


def span_table(tracer: Tracer) -> dict:
    return {
        name: {"calls": calls, "total_s": total, "self_s": self_s, "stage_self_s": stage_s}
        for name, (calls, total, self_s, stage_s) in sorted(tracer.stats.items())
    }
