"""Outside-in layer tracing for the benchmark's traced run.

Public functions of the program are wrapped in the module where the program
looks them up: ``from .linalg import rank_from_entries`` binds a copy in
``gridhfk.homology``, so that copy is the one replaced.  Each wrapped call
records a span (name, start, end, parent span, op id) in memory; probes read
work counts off the call's arguments and result at the same boundary.
Nothing inside ``src/`` changes.
"""

from __future__ import annotations

import gzip
import resource
import time
from statistics import median
from array import array
from collections import defaultdict

import numpy as np


def _packed_bytes(rows, cols):
    """Bytes of the dense bit-packed block linalg builds (computed from the
    shape: rows of ceil(cols / 64) 64-bit words)."""
    return rows * max((cols + 63) // 64, 1) * 8


def _children_usage():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack = []
        self.op_id = -1
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self._restore = []

    # -- spans -----------------------------------------------------------------

    def open(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def take_counts(self):
        """Counts and maxima recorded since the last call."""
        out = dict(self.counts)
        out.update({k: v for k, v in self.maxima.items()})
        self.counts.clear()
        self.maxima.clear()
        return out

    # -- wrapping --------------------------------------------------------------

    def wrap(self, module, attr, name, probe=None):
        fn = getattr(module, attr)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if probe is not None:
                probe(tracer, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        setattr(module, attr, traced)
        self._restore.append((module, attr, fn))

    def wrap_pooled(self, module, attr, name):
        """Like wrap, and for calls with workers > 1 also take the pool's
        cost from outside: RUSAGE_CHILDREN CPU and max RSS around the call.
        The executor reaps its workers before the call returns."""
        fn = getattr(module, attr)
        tracer = self

        def traced(*args, **kwargs):
            workers = kwargs.get("workers") or 0
            cpu0, _ = _children_usage()
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if workers > 1:
                cpu1, rss = _children_usage()
                wall = tracer.end[idx] - tracer.start[idx]
                tracer.counts["pool.wall_s"] += wall
                tracer.counts["pool.child_cpu_s"] += cpu1 - cpu0
                tracer.counts["pool.capacity_s"] += workers * wall
                tracer.maxima["pool.child_rss_mib"] = max(tracer.maxima["pool.child_rss_mib"], rss)
            return out

        traced.__wrapped__ = fn
        setattr(module, attr, traced)
        self._restore.append((module, attr, fn))

    def unwrap(self):
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    # -- output ----------------------------------------------------------------

    def span_table(self):
        """Per span: name id, duration, self time, op id (numpy arrays)."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return (
            np.frombuffer(self.name, dtype=np.int32),
            dur,
            dur - child,
            np.frombuffer(self.op, dtype=np.int32),
        )

    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("name,start,end,parent,op\n")
            for i in range(len(self.name)):
                f.write(
                    f"{self.names[self.name[i]]},{self.start[i]:.6f},{self.end[i]:.6f},"
                    f"{self.parent[i]},{self.op[i]}\n"
                )


# -- probes: work counts at the layer boundaries --------------------------------


def _probe_rank(tr, args, kwargs, rank):
    rows, cols, entries = args[:3]
    c = tr.counts
    if hasattr(entries, "__len__"):
        c["linalg.rank.nnz"] += len(entries)
    c["linalg.rank.rank_sum"] += rank
    c["linalg.rank.min_dim_sum"] += min(rows, cols)
    if rank:
        b = _packed_bytes(min(rows, cols), max(rows, cols))
        tr.maxima["linalg.rank.packed_bytes_max"] = max(tr.maxima["linalg.rank.packed_bytes_max"], b)


def _probe_solve(tr, args, kwargs, x):
    m = args[0]
    c = tr.counts
    c["linalg.solve.rows"] += m.rows
    c["linalg.solve.cols"] += m.cols
    c["linalg.solve.nnz"] += len(m.entries)
    b = _packed_bytes(m.rows, m.cols + 1)
    tr.maxima["linalg.solve.packed_bytes_max"] = max(tr.maxima["linalg.solve.packed_bytes_max"], b)


def _probe_fibers(tr, args, kwargs, fibers):
    tr.counts["homology.enumerate_fibers.gens"] += sum(len(codes) for codes, _ in fibers.values())


def _probe_fiber_list(tr, args, kwargs, fiber):
    tr.counts["homology.generators_with_alexander.gens"] += len(fiber)


def _probe_differential(tr, args, kwargs, terms):
    tr.counts["floer.differential.terms"] += len(terms)


def _probe_normalize(tr, args, kwargs, out):
    tr.counts["moves.normalize_corners.growth"] += out.n - args[0].n


def _probe_pipeline(tr, args, kwargs, report):
    tr.maxima["invariants.pipeline.grid_n_max"] = max(
        tr.maxima["invariants.pipeline.grid_n_max"], *report["grid_sizes"]
    )


def install(tracer, gh):
    """Wrap every public layer entry point the workloads reach."""
    hom, inv = gh.homology, gh.invariants
    w = tracer.wrap
    w(hom, "enumerate_fibers", "homology.enumerate_fibers", _probe_fibers)
    w(hom, "rank_from_entries", "linalg.rank", _probe_rank)
    w(hom, "f2_solve", "linalg.solve", _probe_solve)
    w(hom, "hat_from_tilde", "homology.hat_from_tilde")
    w(hom, "alexander_polynomial", "homology.alexander_polynomial")
    w(hom, "generators_with_alexander", "homology.generators_with_alexander", _probe_fiber_list)
    w(hom, "bigrading", "floer.bigrading")
    w(hom, "differential", "floer.differential", _probe_differential)
    w(hom, "tilde_homology", "homology.tilde_homology")
    w(hom, "class_vanishes", "homology.class_vanishes")
    tracer.wrap_pooled(inv, "tilde_homology", "homology.tilde_homology")
    w(inv, "class_vanishes", "homology.class_vanishes")
    w(inv, "bigrading", "floer.bigrading")
    w(inv, "normalize_corners", "moves.normalize_corners", _probe_normalize)
    w(inv, "connect_sum", "moves.connect_sum")
    w(inv, "classical_invariants", "front.classical_invariants")
    w(inv, "theta_status", "invariants.theta_status")
    w(inv, "kunneth_check", "invariants.kunneth_check")
    w(inv, "nonsimplicity_pipeline", "invariants.nonsimplicity_pipeline", _probe_pipeline)


# Per-layer times: (metric, span, inclusive or self time), in seconds per
# pass.  "X.s" is the inclusive time of span X, "X.self_s" its time minus
# that of its traced children.
TIME_METRICS = [
    ("homology.tilde_homology.self_s", "homology.tilde_homology", "self"),
    ("linalg.rank.s", "linalg.rank", "dur"),
    ("homology.enumerate_fibers.s", "homology.enumerate_fibers", "dur"),
    ("homology.hat_from_tilde.s", "homology.hat_from_tilde", "dur"),
    ("homology.alexander_polynomial.s", "homology.alexander_polynomial", "dur"),
    ("floer.bigrading.s", "floer.bigrading", "dur"),
    ("floer.differential.s", "floer.differential", "dur"),
    ("homology.generators_with_alexander.s", "homology.generators_with_alexander", "dur"),
    ("linalg.solve.s", "linalg.solve", "dur"),
    ("moves.normalize_corners.s", "moves.normalize_corners", "dur"),
    ("moves.connect_sum.s", "moves.connect_sum", "dur"),
    ("front.classical_invariants.s", "front.classical_invariants", "dur"),
    ("invariants.theta_status.s", "invariants.theta_status", "dur"),
]
# Span counts per pass.
CALL_METRICS = [
    ("linalg.rank.calls", "linalg.rank"),
    ("floer.bigrading.calls", "floer.bigrading"),
    ("floer.differential.calls", "floer.differential"),
    ("moves.normalize_corners.calls", "moves.normalize_corners"),
]
# Probe counts per pass.
COUNT_METRICS = [
    "linalg.rank.nnz",
    "linalg.rank.packed_bytes_max",
    "homology.enumerate_fibers.gens",
    "floer.differential.terms",
    "homology.generators_with_alexander.gens",
    "linalg.solve.rows",
    "linalg.solve.cols",
    "linalg.solve.nnz",
    "linalg.solve.packed_bytes_max",
    "moves.normalize_corners.growth",
    "invariants.pipeline.grid_n_max",
]


# Unit of every per-layer metric.
UNITS = {m: "s" for m, _, _ in TIME_METRICS}
UNITS.update({m: "count" for m, _ in CALL_METRICS})
UNITS.update({m: "count" for m in COUNT_METRICS})
UNITS.update({m: "bytes" for m in COUNT_METRICS if m.endswith("_bytes_max")})
UNITS.update(
    {
        "linalg.rank.fill": "ratio",
        "homology.fiber.useful_ratio": "ratio",
        "pool.wall_s": "s",
        "pool.child_cpu_s": "s",
        "pool.utilization": "ratio",
        "pool.child_rss_mib": "MiB",
        "trace.overhead_ratio": "ratio",
    }
)


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer, op_pass, pass_counts):
    """Per-layer metrics from the traced passes.

    ``op_pass`` maps op id -> traced pass index, ``pass_counts`` holds each
    traced pass's probe counts.  Times are the median over traced passes;
    counts come from the first traced pass, and ``deterministic`` says
    whether every traced pass repeated them exactly.
    """
    name_id, dur, self_t, op = tracer.span_table()
    passes = len(pass_counts)
    ids = {n: i for i, n in enumerate(tracer.names)}
    op_pass = np.asarray(op_pass, dtype=np.int64)
    span_pass = np.where(op >= 0, op_pass[np.maximum(op, 0)], -1)
    traced = span_pass >= 0

    def per_pass(name, values):
        nid = ids.get(name)
        if nid is None:
            return [0.0] * passes
        sel = traced & (name_id == nid)
        return list(np.bincount(span_pass[sel], weights=values[sel], minlength=passes))

    counts = []
    for p in range(passes):
        c = dict(pass_counts[p])
        for metric, span in CALL_METRICS:
            nid = ids.get(span)
            c[metric] = int(np.sum(traced & (name_id == nid) & (span_pass == p))) if nid is not None else 0
        counts.append(c)

    out = {}
    for metric, span, kind in TIME_METRICS:
        out[metric] = median(per_pass(span, self_t if kind == "self" else dur))
    first = counts[0]
    for metric, _ in CALL_METRICS:
        out[metric] = first[metric]
    for metric in COUNT_METRICS:
        out[metric] = int(first.get(metric, 0))
    out["linalg.rank.fill"] = _ratio(first.get("linalg.rank.rank_sum", 0), first.get("linalg.rank.min_dim_sum", 0))
    out["homology.fiber.useful_ratio"] = _ratio(
        first.get("linalg.solve.rows", 0) + first.get("linalg.solve.cols", 0),
        first.get("homology.generators_with_alexander.gens", 0),
    )
    out["pool.wall_s"] = median([c.get("pool.wall_s", 0.0) for c in counts])
    out["pool.child_cpu_s"] = median([c.get("pool.child_cpu_s", 0.0) for c in counts])
    out["pool.utilization"] = _ratio(
        sum(c.get("pool.child_cpu_s", 0.0) for c in counts),
        sum(c.get("pool.capacity_s", 0.0) for c in counts),
    )
    out["pool.child_rss_mib"] = max(c.get("pool.child_rss_mib", 0.0) for c in counts)

    exact = [m for m, _ in CALL_METRICS] + COUNT_METRICS
    deterministic = all(int(c.get(m, 0)) == int(first.get(m, 0)) for c in counts for m in exact)
    return out, deterministic
