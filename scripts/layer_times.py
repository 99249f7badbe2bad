"""Time each layer of the package on the 100 acceptance cases.

Prints one markdown row per layer: the median over 5 passes of one pass's
``time.perf_counter`` time divided by its calls, in-process.  A pass calls
the layer once on each of the 100 acceptance cases (``sample_lengths`` of
``tests/cases.py`` drawn from the acceptance seed).  Whatever a layer takes
from an earlier layer (the edge matrix, the cofactors, the angles, the
``exists`` report, the embedding) is built before the clock starts, so each
row times that layer alone.  The volume routes add their mean integrand
evaluations.

- ``schlafli_residual`` takes validate's step, 1e-5 min(1, l34).  Its
  ``exists`` reports keep the base angles they build on the first pass, so
  later passes build only the moved lengths' angles, as in ``validate``,
  whose report holds its angles before the Schläfli step runs.
- ``volume_regular`` takes each case's l12 as its edge.
- ``lobachevsky`` takes each case's angle th12.
- Monte Carlo draws 10,000 samples per case (seed: the case's index), so
  one pass draws 10^6 samples and its row is the time of the whole pass.
  That stays below the size at which the oracle splits its blocks across
  threads.  A second Monte Carlo row draws validate's default 200,000
  samples on each of the first 10 cases and reports the time per call,
  which runs on up to one thread per usable CPU.
- The ``cli.run`` rows send one request of each of the other four
  subcommands per case through ``hytet.cli.run`` (the lengths as
  ``--edges``, output to a discarded buffer): the whole front end, argv
  to printed document.
  ``sweep`` takes its default 33 samples; ``validate`` takes its default
  200,000 Monte Carlo samples and, as the second Monte Carlo row, runs on
  the first 10 cases only.
- ``check`` is timed in the three steps ``run`` takes: the front end (argv
  parsed, the ``--edges`` document read into ``EdgeLengths`` and the
  settings checked), ``exists``, and the document text (``check``'s
  handler writing the JSON to a discarded buffer).  Each step starts from
  what the step before it built.  A line after the table sets the front
  end beside ``exists``.

The header line also gives the ``src/`` line count, the sum of
``wc -l src/hytet/*.py``.  The checkout's own ``src`` and ``tests`` are the
ones imported, so running this script from two checkouts compares them.  On a shared host timings drift over
time, so compare runs made one after the other.

Usage: python scripts/layer_times.py
"""

import io
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from cases import sample_lengths  # noqa: E402
from hytet import (  # noqa: E402
    EDGE_KEYS,
    MonteCarloConfig,
    cofactors,
    dihedral_angles,
    dihedral_angles_geometric,
    edge_matrix_from_lengths,
    embed_vertices,
    euclidean_volume_cm,
    exists,
    lobachevsky,
    schlafli_residual,
    volume_edges,
    volume_monte_carlo,
    volume_regular,
    volume_sforza,
)
from hytet import cli  # noqa: E402

ACCEPTANCE_SEED = 20240817
PASSES = 5
MC_SAMPLES = 10_000
MONTE_CARLO = "volume_monte_carlo, per 10^6 samples"
MC_VALIDATE_SAMPLES, MC_VALIDATE_CASES = 200_000, 10


def timed(fn, args) -> tuple[float, list]:
    """Median seconds per pass of fn over args, and the first pass's results."""
    times, first = [], None
    for _ in range(PASSES):
        start = time.perf_counter()
        results = [fn(*a) for a in args]
        times.append(time.perf_counter() - start)
        first = first if first is not None else results
    return statistics.median(times), first


def cli_request(argv: list[str]) -> int:
    """Exit code of one in-process CLI request; its output is discarded."""
    return cli.run(argv, stdout=io.StringIO(), stderr=io.StringIO())


def front_end(argv: list[str]) -> tuple:
    """What ``cli.run`` builds before ``exists``: the lengths and the options."""
    args = cli._parse_args(argv, None)
    doc = cli._load_document(args)
    return cli._lengths_from_document(doc), args


def check_document(report, args) -> int:
    """Exit code of ``check``'s handler; its document is discarded."""
    return cli._cmd_check(report, args, io.StringIO(), None)


def main() -> None:
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    lengths = [sample_lengths(rng) for _ in range(100)]
    matrices = [edge_matrix_from_lengths(L) for L in lengths]
    cofs = [cofactors(E) for E in matrices]
    angles = [dihedral_angles(C) for C in cofs]
    reports = [exists(L) for L in lengths]
    embeddings = [embed_vertices(E) for E in matrices]
    edges = [",".join(f"{k}={v!r}" for k, v in zip(EDGE_KEYS, L.as_tuple())) for L in lengths]
    steps = [(r, 1e-5 * min(1.0, L.l34)) for r, L in zip(reports, lengths)
             if L.l34 + 1e-5 * min(1.0, L.l34) < r.bounds.l2]
    check_argv = [["check", "--edges", e] for e in edges]
    parsed = [front_end(argv) for argv in check_argv]

    rows = (
        ("exists", exists, [(L,) for L in lengths]),
        ("edge_matrix_from_lengths", edge_matrix_from_lengths, [(L,) for L in lengths]),
        ("cofactors", cofactors, [(E,) for E in matrices]),
        ("dihedral_angles", dihedral_angles, [(C,) for C in cofs]),
        ("embed_vertices", embed_vertices, [(E,) for E in matrices]),
        ("dihedral_angles_geometric", dihedral_angles_geometric,
         [(emb,) for emb in embeddings]),
        ("euclidean_volume_cm", euclidean_volume_cm, [(L,) for L in lengths]),
        ("volume_edges", volume_edges, [(r,) for r in reports]),
        ("volume_sforza", volume_sforza, [(th,) for th in angles]),
        ("schlafli_residual", schlafli_residual, steps),
        ("volume_regular", volume_regular, [(L.l12,) for L in lengths]),
        (MONTE_CARLO, volume_monte_carlo,
         [(emb, MonteCarloConfig(seed=k, samples=MC_SAMPLES))
          for k, emb in enumerate(embeddings)]),
        (f"volume_monte_carlo, {MC_VALIDATE_SAMPLES:,} samples per call", volume_monte_carlo,
         [(emb, MonteCarloConfig(seed=k, samples=MC_VALIDATE_SAMPLES))
          for k, emb in enumerate(embeddings[:MC_VALIDATE_CASES])]),
        ("lobachevsky", lobachevsky, [(th.th12,) for th in angles]),
        ("cli.run check: front end", front_end, [(argv,) for argv in check_argv]),
        ("cli.run check: exists", exists, [(L,) for L, _ in parsed]),
        ("cli.run check: document text", check_document,
         [(exists(L), args) for L, args in parsed]),
        *((f"cli.run {command}", cli_request, [([command, "--edges", e],) for e in edges])
          for command in ("angles", "volume", "sweep")),
        ("cli.run validate", cli_request,
         [(["validate", "--edges", e],) for e in edges[:MC_VALIDATE_CASES]]),
    )

    src_lines = sum(len(path.read_bytes().splitlines())
                    for path in (ROOT / "src" / "hytet").glob("*.py"))
    print(f"python {platform.python_version()}, numpy {np.__version__}; "
          f"median of {PASSES} passes over the 100 acceptance cases; "
          f"src/ {src_lines:,} lines\n")
    print("| layer | cost per case | mean evaluations |")
    print("| --- | --- | --- |")
    per_case = {}
    for name, fn, args in rows:
        seconds, results = timed(fn, args)
        per_case[name] = seconds / len(args)
        if name == MONTE_CARLO:
            print(f"| `{name}` | {1e3 * seconds:.1f} ms | |")
            continue
        evals = ""
        if fn in (volume_edges, volume_sforza):
            evals = f"{statistics.fmean(r.evaluations for r in results):.1f}"
        label = name if len(args) == len(lengths) else f"{name} ({len(args)} cases)"
        per_call = seconds / len(args)
        cost = f"{1e3 * per_call:.2f} ms" if per_call > 1e-3 else f"{1e6 * per_call:.1f} µs"
        print(f"| `{label}` | {cost} | {evals} |")
    front, test = per_case["cli.run check: front end"], per_case["cli.run check: exists"]
    print(f"\n`cli.run check`: front end {1e6 * front:.1f} µs, `exists` {1e6 * test:.1f} µs, "
          f"front end / `exists` {front / test:.2f}")


if __name__ == "__main__":
    main()
