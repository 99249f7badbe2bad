"""Cold starts of ``python -c pass`` and of ``hytet`` processes, alternated.

Each round starts, one after the other, ``python -c pass`` and
``python -m hytet.cli COMMAND --edges <all ones>`` for COMMAND in check,
angles, volume and validate (its default 200,000 Monte Carlo samples), from
each checkout given (default: this one), with the checkout's ``src`` first
on PYTHONPATH and the checkout as working directory.  Odd rounds start the
processes in reverse order, so drift on a shared host falls on all of them
alike.  A process is timed from its spawn to its exit; one that exits
nonzero stops the script.  One round before the timed ones fills the file
cache and is not counted.

Prints the minimum and the median wall time of each process, and its
median less that of ``python -c pass``: what the process costs beyond the
interpreter's own start.

The environment is passed on as found, its bytecode setting included, and
the header line says which one the starts ran under.  With
PYTHONDONTWRITEBYTECODE set, every start compiles each ``src`` file it
imports; without it, the uncounted round writes ``__pycache__`` and the
timed starts read it.  The header also gives OPENBLAS_NUM_THREADS as found:
the CLI sets it to 1 only where it is unset, so a preset value decides how
many threads numpy's OpenBLAS starts in ``validate``.

Usage: python scripts/cold_start.py [CHECKOUT ...]
"""

import argparse
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ONES = "l12=1,l13=1,l14=1,l23=1,l24=1,l34=1"
COMMANDS = ("check", "angles", "volume", "validate")
FLOOR = "python -c pass"
ROUNDS = 16


def processes(checkouts: list[Path]) -> list[tuple]:
    """(label, argv, environment, working directory) of each process a round starts."""
    procs = [(FLOOR, [sys.executable, "-c", "pass"], dict(os.environ), ROOT)]
    for checkout in checkouts:
        path = os.pathsep.join(p for p in (str(checkout / "src"), os.environ.get("PYTHONPATH"))
                               if p)
        env = dict(os.environ, PYTHONPATH=path)
        tag = f" ({checkout})" if len(checkouts) > 1 else ""
        procs += [(f"hytet {command}{tag}",
                   [sys.executable, "-m", "hytet.cli", command, "--edges", ONES], env, checkout)
                  for command in COMMANDS]
    return procs


def timed(argv: list[str], env: dict, cwd: Path) -> float:
    """Seconds from spawning argv to its exit."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=cwd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()}")
    return elapsed


def bytecode_setting() -> str:
    if os.environ.get("PYTHONDONTWRITEBYTECODE"):
        return ("bytecode not written (PYTHONDONTWRITEBYTECODE is set): "
                "each start compiles the src files it imports")
    return "bytecode written and read (PYTHONDONTWRITEBYTECODE unset): the timed starts read it"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="*", type=Path, default=[ROOT],
                        help="repository checkouts to start hytet from (default: this one)")
    args = parser.parse_args()
    checkouts = [c.resolve() for c in args.checkouts]
    procs = processes(checkouts)

    print(f"cold starts: {ROUNDS} rounds of {len(procs)} processes, python "
          f"{platform.python_version()}; {bytecode_setting()}; OPENBLAS_NUM_THREADS "
          f"{os.environ.get('OPENBLAS_NUM_THREADS', 'unset (the CLI sets 1)')}")
    times = {label: [] for label, *_ in procs}
    for round_ in range(-1, ROUNDS):  # round -1 is not counted
        for label, argv, env, cwd in (procs if round_ % 2 == 0 else procs[::-1]):
            elapsed = timed(argv, env, cwd)
            if round_ >= 0:
                times[label].append(elapsed)

    floor = statistics.median(times[FLOOR])
    print(f"{'process':<40} {'min ms':>8} {'median ms':>10} {'median - pass ms':>17}")
    for label, samples in times.items():
        median = statistics.median(samples)
        print(f"{label:<40} {1e3 * min(samples):>8.1f} {1e3 * median:>10.1f} "
              f"{1e3 * (median - floor):>17.1f}")


if __name__ == "__main__":
    main()
