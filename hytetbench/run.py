"""The hytet benchmark: a single-caller closed loop over one workload.

Usage, from the root of the repository:

    python3 hytetbench/run.py --workload solve --seed 1 --seconds 50 --trace 0
    python3 hytetbench/run.py --seed 1          # solve, then validate

One caller drives ``hytet.cli.run`` in-process (the regular-volume table
makes the library calls of scripts/regular_volume_table.py instead) and sends
the next request only when the previous one has returned.  Inputs come
from ``--seed`` alone; every answer is checked against mpmath references
built during set-up, which no metric includes.

--trace 0 prints the end-to-end metrics.  --trace 1 splits the time
between an untraced loop and a traced one, prints the per-layer metrics,
and writes the spans to .hytetbench-out/.  The last line of stdout is a
JSON object with keys correct, attempted, failed and metrics.  See
NOTES.md for what each metric means and which layer should move it.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".hytetbench-out"

WORKLOADS = ("solve", "validate")
# cold starts: COLD_STARTS_EACH before the loop and after each of its
# LOOP_STRETCHES stretches
COLD_STARTS_EACH = 3
LOOP_STRETCHES = 4
IMPORT_SAMPLES = 5
WARMUP_SECONDS = 0.5
# the traced loop stops once it holds this many spans (a sweep alone records
# about 17 000), which keeps the span store near 30 MB
TRACE_SPAN_LIMIT = 300_000
PROBE_MC_SAMPLES = 65536

END_TO_END_UNITS = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "cli.self_ms": "ms",
    "existence.exists.us": "us",
    "existence.exists.calls_per_request": "count",
    "existence.l34_bounds.calls_per_request": "count",
    "core.edge_matrix.us": "us",
    "core.cofactors.us": "us",
    "core.cofactors.calls_per_request": "count",
    "angles.dihedral_angles.us": "us",
    "volume.edges.us": "us",
    "volume.edges.evals_mean": "count",
    "volume.edges.evals_max": "count",
    "volume.edges.errors": "1/call",
    "quadrature.calls_per_request": "count",
    "quadrature.evals": "count",
    "quadrature.self_us": "us",
    "quadrature.integrand_us": "us",
    "quadrature.guarded_nodes": "count",
    "volume.sforza.us": "us",
    "volume.sforza.det4_calls": "count",
    "volume.sforza.scan_share": "ratio",
    "volume.schlafli.us": "us",
    "volume.regular.us": "us",
    "volume.regular.evals": "count",
    "oracle.monte_carlo.ms_per_1e6": "ms",
    "oracle.embed.us": "us",
    "oracle.angles_geometric.us": "us",
    "oracle.lobachevsky.us": "us",
    "oracle.euclidean_cm.us": "us",
    "import.numpy_ms": "ms",
    "import.hytet_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "src.lines": "count",
}

IMPORT_SNIPPET = (
    "import time; t0 = time.perf_counter(); import numpy; "
    "t1 = time.perf_counter(); import hytet; t2 = time.perf_counter(); "
    "print(t1 - t0, t2 - t1)"
)


class BenchError(Exception):
    """The benchmark cannot produce a result."""


class Loop:
    """Latencies and distinct outcomes of one closed loop over a pool.

    The loop sends the pool in the same order on every pass.  The machine
    is shared: while other tenants load the host, the same request runs up
    to twice as slowly, in spells from a second to most of a minute.  The
    timing metrics therefore rest on each request's fastest repetition,
    one per request of the pool, so every request counts once and the
    spells that slow its other repetitions drop out.  ``all_throughput``
    keeps every request for comparison.
    """

    def __init__(self, pool_size: int):
        self.by_request = [array("d") for _ in range(pool_size)]
        self.outcomes: Counter = Counter()
        self.sent = 0
        self.elapsed = 0.0

    @property
    def all_throughput(self) -> float:
        return self.sent / self.elapsed

    @property
    def repeats(self) -> int:
        return min(len(a) for a in self.by_request)

    def steady(self) -> tuple[float, float, float, int]:
        """Throughput, p50 and p90 latency over each request's fastest
        repetition, and the number of requests they rest on."""
        lat = [min(a) for a in self.by_request if a]
        q = statistics.quantiles(lat, n=10)
        return len(lat) / sum(lat), q[4], q[8], len(lat)


def closed_loop(pool, seconds, hytet, cli, tracer=None, loop=None) -> Loop:
    """Send the pool's requests in order, cycling, until ``seconds`` pass.

    The loop always completes at least one pass, so every request of the
    pool is answered and checked whatever ``seconds`` is.  Passing ``loop``
    adds this stretch to the record of an earlier one.
    """
    from workloads import execute

    loop = loop or Loop(len(pool))
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        k = i % len(pool)
        if tracer is not None:
            tracer.current_request = i
        t0 = time.perf_counter()
        code, out, err = execute(pool[k], hytet, cli)
        t1 = time.perf_counter()
        loop.by_request[k].append(t1 - t0)
        loop.outcomes[(k, code, out, err)] += 1
        i += 1
        if i >= len(pool) and (t1 >= deadline or (
                tracer is not None and len(tracer.start) >= TRACE_SPAN_LIMIT)):
            break
    loop.sent += i
    loop.elapsed += t1 - start
    return loop


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def cold_start(req) -> float:
    """Seconds from spawning ``python -m hytet.cli`` to its checked answer.

    An answer that fails in a documented known-defect class still ends the
    wait; any other wrong answer stops the benchmark.
    """
    from workloads import check, known_defect

    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "hytet.cli", *req.argv],
                          env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    reason = check(req, proc.returncode, proc.stdout, proc.stderr)
    if reason is not None and not known_defect(req, reason):
        raise BenchError(f"cold-start answer to {req.kind} is wrong: {reason}")
    return elapsed


def import_times() -> tuple[float, float]:
    """Median milliseconds to import numpy, then hytet, in a fresh process."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET],
                              env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        samples.append(tuple(float(v) for v in proc.stdout.split()))
    return (1e3 * statistics.median(s[0] for s in samples),
            1e3 * statistics.median(s[1] for s in samples))


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def probe_calls(req, hytet, cli) -> None:
    """Call every wrapped layer once on the request's edges."""
    lengths = hytet.EdgeLengths(*req.edges)
    e = cli.edge_matrix_from_lengths(lengths)
    th = cli.dihedral_angles(cli.cofactors(e))
    cli.exists(lengths)
    cli.volume_edges(lengths)
    cli.volume_sforza(th)
    try:
        cli.schlafli_residual(lengths, 1e-5)
    except hytet.HytetError:
        pass  # too near the upper fold bound for the step; timed all the same
    emb = cli.embed_vertices(e)
    cli.dihedral_angles_geometric(emb)
    cli.volume_monte_carlo(emb, hytet.MonteCarloConfig(seed=42, samples=PROBE_MC_SAMPLES))
    hytet.volume_regular(1.0)  # the table's calls, on one of its edges
    hytet.euclidean_volume_cm(hytet.EdgeLengths(1.0, 1.0, 1.0, 1.0, 1.0, 1.0))
    hytet.lobachevsky(math.pi / 3.0)
    cli.run(list(req.argv), stdout=io.StringIO(), stderr=io.StringIO())


def probe_request(pool, hytet, cli):
    """The first valid mid-regime request of the pool on which every probed
    layer returns; some such inputs hit a known defect (NOTES.md, class 4)
    in a layer their own command never calls."""
    for req in pool:
        if req.argv and req.input == "valid" and req.regime == "mid":
            try:
                probe_calls(req, hytet, cli)
            except hytet.HytetError:
                continue
            return req
    raise BenchError("no request of the pool passes every probed layer")


def probe(tracer, req, hytet, cli) -> None:
    """Call every wrapped layer once, traced, on one valid input of the pool.

    Only layers the workload's own loop never reached take their timing
    from here; see tracing.layer_metrics.
    """
    from tracing import PROBE_REQUEST

    tracer.current_request = PROBE_REQUEST
    probe_calls(req, hytet, cli)


def environment() -> str:
    import numpy

    load = ",".join(f"{v:.2f}" for v in os.getloadavg())
    return (f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
            f"numpy={numpy.__version__} loadavg={load}")


def tally(pool, loops) -> Counter:
    """Failures by class, one per request of the pool that was answered wrong.

    Each request of the pool counts once, however often the loops sent it,
    so a seed always attempts the same requests and a deterministic
    program fails the same ones.  A request fails if any of its answers is
    wrong; answers that differ between repetitions are marked as such.
    """
    from workloads import check, known_defect

    reasons: dict = {}
    for loop in loops:
        for (k, code, out, err) in loop.outcomes:
            reasons.setdefault(k, set()).add(check(pool[k], code, out, err))
    failures: Counter = Counter()
    for k, seen in reasons.items():
        wrong = sorted(r for r in seen if r is not None)
        if not wrong:
            continue
        reason = wrong[0] + (" (not on every repetition)" if len(seen) > 1 else "")
        req = pool[k]
        failures[(req.kind, req.input, req.regime, reason,
                  known_defect(req, wrong[0]))] += 1
    return failures


def end_to_end(pool, seconds, hytet, cli, first):
    """The untraced run: a closed loop in stretches, with cold starts
    before, between and after them, so that set-up is sampled across the
    whole run rather than in one state of the shared machine."""
    loop = Loop(len(pool))
    setups = [cold_start(first) for _ in range(COLD_STARTS_EACH)]
    for _ in range(LOOP_STRETCHES):
        closed_loop(pool, seconds / LOOP_STRETCHES, hytet, cli, loop=loop)
        setups += [cold_start(first) for _ in range(COLD_STARTS_EACH)]
    rps, p50, p90, n = loop.steady()
    metrics = {
        "throughput_rps": rps,
        "latency_p50_ms": 1e3 * p50,
        "latency_p90_ms": 1e3 * p90,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    basis = f"fastest of {loop.repeats}+ runs of each of {n} requests"
    notes = {
        "throughput_rps": f"{basis}; over all {loop.sent} requests in "
                          f"{loop.elapsed:.2f} s: {loop.all_throughput:.6g}/s",
        "latency_p50_ms": f"{basis}, n={n}",
        "latency_p90_ms": f"{basis}, n={n}, {n - math.ceil(0.9 * n)} beyond",
        "setup_s": f"median of {len(setups)} cold starts of `{first.kind}`",
    }
    return [loop], metrics, END_TO_END_UNITS, notes


def per_layer(pool, seconds, hytet, cli, name, seed):
    """The traced run: an untraced loop, a traced one, then the probe."""
    from tracing import Tracer, layer_metrics

    probed_req = probe_request(pool, hytet, cli)
    plain = closed_loop(pool, seconds / 2.0, hytet, cli)
    tracer = Tracer()
    restore = tracer.install()
    try:
        traced = closed_loop(pool, seconds / 2.0, hytet, cli, tracer)
        loop_errors = Counter(tracer.errors)
        probe(tracer, probed_req, hytet, cli)
    finally:
        restore()
    metrics, probed = layer_metrics(tracer, traced.sent, loop_errors)
    metrics["import.numpy_ms"], metrics["import.hytet_ms"] = import_times()
    metrics["trace.overhead_ratio"] = traced.all_throughput / plain.all_throughput
    metrics["src.lines"] = float(src_lines())
    loop_based = ("calls_per_request", "guarded_nodes", "errors")
    notes = {k: "timed on the probe: the loop never reaches this layer"
             for k in metrics
             if any(k.startswith(p) for p in probed) and not k.endswith(loop_based)}
    notes["trace.overhead_ratio"] = (f"traced {traced.sent} requests vs untraced "
                                     f"{plain.sent}, all requests")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{name}-seed{seed}.csv.gz"
    tracer.write_csv(path)
    print(f"spans: {len(tracer.start)} from {traced.sent} requests, "
          f"written to {path.relative_to(ROOT)}")
    errors = ", ".join(f"{k[0]} {k[1]} x{v}" for k, v in sorted(loop_errors.items()))
    print(f"exceptions leaving wrapped layers: {errors or 'none'}")
    return [plain, traced], metrics, LAYER_UNITS, notes


def run_workload(name, seed, seconds, trace, hytet, cli) -> dict:
    import workloads

    t0 = time.perf_counter()
    pool = workloads.BUILDERS[name](random.Random(f"hytetbench/{name}/{seed}"))
    first = workloads.first_request(pool)
    refs_s = time.perf_counter() - t0
    print(f"hytetbench {name} seed={seed} seconds={seconds:g} trace={trace} "
          f"pool={len(pool)} requests")
    print(f"environment: {environment()}")
    print(f"set-up: references {refs_s:.2f} s (excluded from every metric)")

    cold_start(first)  # fills the bytecode and file caches; not counted
    closed_loop(pool, WARMUP_SECONDS, hytet, cli)
    if trace:
        loops, metrics, units, notes = per_layer(pool, seconds, hytet, cli, name, seed)
    else:
        loops, metrics, units, notes = end_to_end(pool, seconds, hytet, cli, first)

    failures = tally(pool, loops)
    failed = sum(failures.values())
    attempted = len(pool)
    sent = sum(loop.sent for loop in loops)
    print(f"{'failed_ratio':<40} {failed / attempted:>14.6g} {'ratio':<6} "
          f"{failed} of {attempted} ops_attempted (distinct requests of the "
          f"pool, each answered in every pass; {sent} requests sent)")
    for key, value in metrics.items():
        print(f"{key:<40} {value:>14.6g} {units[key]:<6} {notes.get(key, '')}")
    if failures:
        print("failures by class (kind/input/regime: reason):")
        for (kind, inp, regime, reason, known), count in failures.most_common():
            tag = "known defect" if known else "NEW"
            print(f"  {count:>7}  {kind}/{inp}/{regime}: {reason} [{tag}]")
    unknown = sum(c for k, c in failures.items() if not k[4])
    return {
        "correct": unknown == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hytet" / "__init__.py").is_file():
        print(f"hytetbench: no hytet package at {SRC / 'hytet'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hytet
    import hytet.cli

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace,
                                  hytet, hytet.cli)
            print(json.dumps(result))
    except BenchError as exc:
        print(f"hytetbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
