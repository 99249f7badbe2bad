"""One SHA-256 over the exit code, stdout and stderr of every CLI request.

Runs each subcommand in-process through ``hytet.cli.run`` on the 100
acceptance cases (``sample_lengths`` of ``tests/cases.py`` drawn from the
acceptance seed) and on a fixed set of edge and error cases, all passed
through ``--edges``.  Two checkouts that print the same digest answer every
request byte for byte alike, so a change that must not alter the output can
be checked by running this script on both sides.  The checkout's own
``src`` and ``tests`` are the ones imported.

With ``--requests`` it also prints one line per request, ahead of its
command's digest line: the command, the edges, the exit code and the first
16 hex digits of the SHA-256 of the request's record.  ``diff`` of two checkouts' output
then names the requests whose answers differ.

Usage: python scripts/cli_digest.py [--requests]
"""

import hashlib
import io
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from cases import sample_lengths  # noqa: E402
from hytet import EDGE_KEYS  # noqa: E402
from hytet.cli import run  # noqa: E402

ACCEPTANCE_SEED = 20240817
SCALENE = (2.965137128963416, 1.3027372332455953, 3.620365722713066,
           2.7711659744596884, 3.3277033833681555, 3.444634108222735)
EXTRA_CASES = (
    "l12=1,l13=1,l14=1,l23=1,l24=1,l34=1",              # all ones
    ",".join(f"{k}={v!r}" for k, v in zip(EDGE_KEYS, SCALENE)),
    "l12=3,l13=1,l14=1,l23=1,l24=1,l34=1",              # triangle violation
    "l12=1,l13=1,l14=1,l23=1,l24=1,l34=2",              # l34 out of range
    "l12=1,l13=1,l14=1,l23=1,l24=1,l34=0",              # flat lower fold bound
    # 5e-6 below l2, so validate skips its Schlafli check (step 1e-5)
    "l12=1,l13=1,l14=1,l23=1,l24=1,l34=1.6680454579626611",
    # 1e-10 below l2, where the volume is integrated from l2
    "l12=1,l13=1,l14=1,l23=1,l24=1,l34=1.6680504578626612",
    # tri_123_diff -3.5e-12: past the boundary tolerance at the faces' scale
    "l12=1,l13=2.0000000000035,l14=1,l23=1,l24=2,l34=3",
    ",".join(f"{k}=0.001" for k in EDGE_KEYS),          # regular, a = 1e-3
    ",".join(f"{k}=0.01" for k in EDGE_KEYS),           # regular, a = 0.01
    ",".join(f"{k}=15" for k in EDGE_KEYS),             # regular, a = 15
    ",".join(f"{k}=30" for k in EDGE_KEYS),             # regular, a = 30
    "l12=x,l13=1,l14=1,l23=1,l24=1,l34=1",              # malformed
)
COMMANDS = (
    ("check",),
    ("check", "--format", "csv"),
    ("angles",),
    ("angles", "--format", "csv"),
    ("volume",),
    ("volume", "--format", "csv"),
    ("volume", "--validate", "--mc-samples", "2000"),
    ("sweep",),
    ("sweep", "--format", "json"),
    ("validate", "--mc-samples", "2000"),
)


def cases() -> list[str]:
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    acceptance = [sample_lengths(rng) for _ in range(100)]
    return [",".join(f"{k}={v!r}" for k, v in zip(EDGE_KEYS, lengths.as_tuple()))
            for lengths in acceptance] + list(EXTRA_CASES)


def record(argv: list[str]) -> tuple[str, bytes]:
    """Exit code (or the exception raised) and a length-prefixed request record."""
    out, err = io.StringIO(), io.StringIO()
    try:
        code = str(run(argv, stdout=out, stderr=err))
    except Exception as e:  # a traceback is an answer too; digest it
        code = f"raised {type(e).__name__}: {e}"
    fields = ["\0".join(argv), code, out.getvalue(), err.getvalue()]
    return code, b"".join(f"{len(f)}:{f}".encode() for f in fields)


def main() -> None:
    per_request = sys.argv[1:] == ["--requests"]
    if sys.argv[1:] and not per_request:
        sys.exit("usage: python scripts/cli_digest.py [--requests]")
    total = hashlib.sha256()
    codes: Counter = Counter()
    for command in COMMANDS:
        digest = hashlib.sha256()
        for edges in cases():
            code, rec = record([*command, "--edges", edges])
            digest.update(rec)
            total.update(rec)
            codes[code] += 1
            if per_request:
                print(" ".join(command), edges, code, hashlib.sha256(rec).hexdigest()[:16])
        print(f"{' '.join(command):<44} {digest.hexdigest()[:16]}")
    print("exit codes:", ", ".join(f"{c}: {n}" for c, n in sorted(codes.items())))
    print(f"requests: {sum(codes.values())}")
    print(f"digest: {total.hexdigest()}")


if __name__ == "__main__":
    main()
