"""Spans recorded from outside the program, and the per-layer metrics.

Each wrapped function is replaced where its caller looks it up (a module
attribute), so no file of the program changes.  A span holds its name,
start, end, parent span and request id; they live in flat arrays while the
run lasts and are written out when it ends.  A layer's self time is its
span's duration minus the durations of its child spans; the run is single
threaded, so children nest inside their parent and never overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
from array import array
from collections import Counter

import numpy as np

# (module, attribute, span name, span work taken from the result)
# Work is the route's own evaluation or sample count.
PATCHES = (
    ("hytet.cli", "run", "cli", None),
    ("hytet.cli", "exists", "existence.exists", None),
    ("hytet.volume", "exists", "existence.exists", None),
    ("hytet.existence", "l34_bounds", "existence.l34_bounds", None),
    ("hytet.volume", "l34_bounds", "existence.l34_bounds", None),
    ("hytet.cli", "edge_matrix_from_lengths", "core.edge_matrix", None),
    ("hytet.core", "edge_matrix_from_lengths", "core.edge_matrix", None),
    ("hytet.cli", "cofactors", "core.cofactors", None),
    ("hytet.core", "cofactors", "core.cofactors", None),
    ("hytet.volume", "det4", "core.det4", None),
    ("hytet.cli", "dihedral_angles", "angles.dihedral_angles", None),
    ("hytet.angles", "dihedral_angles", "angles.dihedral_angles", None),
    ("hytet.cli", "volume_edges", "volume.edges", "evaluations"),
    ("hytet.volume", "volume_edges", "volume.edges", "evaluations"),
    ("hytet.cli", "volume_sforza", "volume.sforza", None),
    ("hytet.cli", "schlafli_residual", "volume.schlafli", None),
    ("hytet", "volume_regular", "volume.regular", "evaluations"),
    ("hytet.cli", "embed_vertices", "oracle.embed", None),
    ("hytet.cli", "dihedral_angles_geometric", "oracle.angles_geometric", None),
    ("hytet.cli", "volume_monte_carlo", "oracle.monte_carlo", "evaluations"),
    ("hytet", "lobachevsky", "oracle.lobachevsky", None),
    ("hytet", "euclidean_volume_cm", "oracle.euclidean_cm", None),
)
QUADRATURE = "quadrature"
INTEGRAND = "quadrature.integrand"
PROBE_REQUEST = -2


class Tracer:
    """In-memory span store for one single-threaded run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.request = array("l")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.errors: Counter = Counter()
        self.current_request = -1
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.current_request)
        self.work.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, work_attr: str | None = None):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                self.close(idx)
            if work_attr is not None:
                self.work[idx] = float(getattr(result, work_attr))
            return result

        return traced

    def wrap_integrate(self, integrate):
        """Span the quadrature call and every integrand evaluation in it.

        An evaluation that returns exactly 0.0 is a node the integrand
        guarded and discarded; its span gets work 1.
        """
        qid, fid = self.name_id(QUADRATURE), self.name_id(INTEGRAND)

        @functools.wraps(integrate)
        def traced(f, *args, **kwargs):
            def integrand(*fargs):
                idx = self.open(fid)
                try:
                    value = f(*fargs)
                finally:
                    self.close(idx)
                if value == 0.0:
                    self.work[idx] = 1.0
                return value

            idx = self.open(qid)
            try:
                return integrate(integrand, *args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def install(self):
        """Patch every boundary; returns a function that undoes it."""
        saved = []
        for module_name, attr, name, work in PATCHES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, work))
        quad = importlib.import_module("hytet.quadrature")
        saved.append((quad, "integrate", quad.integrate))
        quad.integrate = self.wrap_integrate(quad.integrate)

        def restore():
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

        return restore

    def write_csv(self, path) -> None:
        """All spans as gzip-compressed CSV, times in microseconds from the first."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,name,parent,request,start_us,end_us,work\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name[i]]},{self.parent[i]},"
                         f"{self.request[i]},{(self.start[i] - t0) * 1e6:.3f},"
                         f"{(self.end[i] - t0) * 1e6:.3f},{self.work[i]:g}\n")


class SpanStats:
    """Durations and self times of a span store, indexed by span name.

    Spans recorded while the probe ran (request id PROBE_REQUEST) are kept
    apart from the loop's.
    """

    def __init__(self, tr: Tracer):
        self.tr = tr
        self.name = np.array(tr.name, dtype=np.int64)
        self.parent = np.array(tr.parent, dtype=np.int64)
        self.work = np.array(tr.work)
        self.dur = np.array(tr.end) - np.array(tr.start)
        child = np.zeros_like(self.dur)
        nested = self.parent >= 0
        np.add.at(child, self.parent[nested], self.dur[nested])
        self.self_time = self.dur - child
        self.in_probe = np.array(tr.request, dtype=np.int64) == PROBE_REQUEST

    def spans(self, name: str, probe: bool = False) -> np.ndarray:
        """Indices of the loop's (or the probe's) spans with this name."""
        nid = self.tr._ids.get(name, -1)
        return np.nonzero((self.name == nid) & (self.in_probe == probe))[0]

    def owners(self, idx: np.ndarray, name: str) -> np.ndarray:
        """Nearest ancestor named ``name`` of each span in idx, or -1."""
        nid = self.tr._ids.get(name, -1)
        p = self.parent[idx]
        while True:
            climbing = (p >= 0) & (self.name[np.maximum(p, 0)] != nid)
            if not climbing.any():
                return p
            p = np.where(climbing, self.parent[np.maximum(p, 0)], p)

    def count_under(self, child: np.ndarray, owners: np.ndarray, name: str) -> np.ndarray:
        """For each span in ``owners`` (all named ``name``), how many of the
        ``child`` spans it contains."""
        if len(owners) == 0:
            return np.zeros(0, dtype=np.int64)
        o = self.owners(child, name)
        pos = np.searchsorted(owners, o)
        hit = (pos < len(owners)) & (owners[np.minimum(pos, len(owners) - 1)] == o)
        return np.bincount(pos[hit], minlength=len(owners))


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def layer_metrics(tr: Tracer, requests: int, loop_errors: Counter):
    """Per-layer metrics of one traced run.

    Timings come from the loop's spans.  A layer the workload never
    reaches is timed on the probe instead, and its span name is returned
    in the second value, so that no timing reads a constant zero.  Counts
    per request always come from the loop.
    """
    st = SpanStats(tr)
    probed: list[str] = []

    def spans(name):
        loop = st.spans(name)
        if len(loop):
            return loop, False
        probed.append(name)
        return st.spans(name, probe=True), True

    def us(name):
        return 1e6 * _mean(st.dur[spans(name)[0]])

    def per_request(name):
        return len(st.spans(name)) / requests

    m = {}
    m["cli.self_ms"] = 1e3 * _mean(st.self_time[spans("cli")[0]])
    m["existence.exists.us"] = us("existence.exists")
    m["existence.exists.calls_per_request"] = per_request("existence.exists")
    m["existence.l34_bounds.calls_per_request"] = per_request("existence.l34_bounds")
    m["core.edge_matrix.us"] = us("core.edge_matrix")
    m["core.cofactors.us"] = us("core.cofactors")
    m["core.cofactors.calls_per_request"] = per_request("core.cofactors")
    m["angles.dihedral_angles.us"] = us("angles.dihedral_angles")

    edges, probe = spans("volume.edges")
    evals = st.count_under(st.spans(INTEGRAND, probe), edges, "volume.edges")
    m["volume.edges.us"] = 1e6 * _mean(st.dur[edges])
    m["volume.edges.evals_mean"] = _mean(evals)
    m["volume.edges.evals_max"] = float(evals.max()) if len(evals) else 0.0
    edge_calls = len(st.spans("volume.edges"))
    edge_errors = sum(c for (name, err), c in loop_errors.items()
                      if name == "volume.edges" and err != "ExistenceError")
    m["volume.edges.errors"] = edge_errors / edge_calls if edge_calls else 0.0

    quad, probe = spans(QUADRATURE)
    integrand = st.spans(INTEGRAND, probe)
    m["quadrature.calls_per_request"] = per_request(QUADRATURE)
    m["quadrature.evals"] = len(integrand) / len(quad) if len(quad) else 0.0
    m["quadrature.self_us"] = 1e6 * _mean(st.self_time[quad])
    m["quadrature.integrand_us"] = 1e6 * _mean(st.dur[integrand])
    m["quadrature.guarded_nodes"] = float(st.work[st.spans(INTEGRAND)].sum()) / requests

    sforza, probe = spans("volume.sforza")
    det4 = st.spans("core.det4", probe)
    per_call = st.count_under(det4, sforza, "volume.sforza")
    scan = np.isin(st.parent[det4], sforza).sum()
    m["volume.sforza.us"] = 1e6 * _mean(st.dur[sforza])
    m["volume.sforza.det4_calls"] = _mean(per_call)
    m["volume.sforza.scan_share"] = float(scan / per_call.sum()) if per_call.sum() else 0.0
    m["volume.schlafli.us"] = us("volume.schlafli")

    regular, probe = spans("volume.regular")
    m["volume.regular.us"] = 1e6 * _mean(st.dur[regular])
    m["volume.regular.evals"] = _mean(
        st.count_under(st.spans(INTEGRAND, probe), regular, "volume.regular"))

    mc = spans("oracle.monte_carlo")[0]
    samples = st.work[mc].sum()
    m["oracle.monte_carlo.ms_per_1e6"] = (
        float(1e9 * st.dur[mc].sum() / samples) if samples else 0.0)
    m["oracle.embed.us"] = us("oracle.embed")
    m["oracle.angles_geometric.us"] = us("oracle.angles_geometric")
    m["oracle.lobachevsky.us"] = us("oracle.lobachevsky")
    m["oracle.euclidean_cm.us"] = us("oracle.euclidean_cm")
    return m, sorted(set(probed))
