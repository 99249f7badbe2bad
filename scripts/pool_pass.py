"""One untimed pass over the benchmark's request pools: the failures per seed.

Builds hytetbench's solve and validate pools for each seed exactly as
``hytetbench/run.py`` does, sends every request of the pool once through
``hytet.cli.run`` and judges it with the benchmark's own check.  Prints one
line per workload and seed with its failed count, then one line per failed
request (kind/input/regime: reason, and its argv), then the totals by class.
Running it on two checkouts compares their failure sets without a timed
run; the checkout's own ``src`` and ``hytetbench`` are the ones imported.

Usage: python scripts/pool_pass.py [--workload solve|validate|all] SEEDS...
       where each of SEEDS is a seed or a range such as 83-119.
"""

import argparse
import random
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "hytetbench")]

import hytet  # noqa: E402
import hytet.cli  # noqa: E402
import workloads  # noqa: E402


def seeds(specs: list[str]) -> list[int]:
    out = []
    for spec in specs:
        first, _, last = spec.partition("-")
        out += range(int(first), int(last or first) + 1)
    return out


def failures(name: str, seed: int) -> tuple[int, list]:
    """Pool size and (class, argv) of each request the pass answers wrong."""
    pool = workloads.BUILDERS[name](random.Random(f"hytetbench/{name}/{seed}"))
    failed = []
    for req in pool:
        reason = workloads.check(req, *workloads.execute(req, hytet, hytet.cli))
        if reason is not None:
            known = "known defect" if workloads.known_defect(req, reason) else "NEW"
            failed.append((f"{req.kind}/{req.input}/{req.regime}: {reason} [{known}]",
                           " ".join(req.argv or ())))
    return len(pool), failed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("solve", "validate", "all"), default="all")
    parser.add_argument("seeds", nargs="+")
    args = parser.parse_args()
    names = ("solve", "validate") if args.workload == "all" else (args.workload,)
    for name in names:
        total, attempted = Counter(), 0
        for seed in seeds(args.seeds):
            size, failed = failures(name, seed)
            attempted += size
            print(f"{name} seed={seed} failed={len(failed)} of {size}")
            for cls, argv in failed:
                print(f"  {cls}  {argv}")
                total[cls] += 1
        print(f"{name} total: failed={sum(total.values())} of {attempted}")
        for cls, count in total.most_common():
            print(f"  {count:>5}  {cls}")


if __name__ == "__main__":
    main()
