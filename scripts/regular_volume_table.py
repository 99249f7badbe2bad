"""Tabulate the regular tetrahedron volume against its two limits.

For a range of edge lengths a, prints the volume and its rounding bound
next to the flat-space value (sqrt(2)/12) a^3, which it should approach as
a -> 0, and the ideal ceiling 3 L(pi/3), which it should approach from
below as a -> infinity.

The checkout's own ``src`` is the one imported.

Usage: python scripts/regular_volume_table.py
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hytet import EdgeLengths, euclidean_volume_cm, lobachevsky, volume_regular  # noqa: E402


def main() -> None:
    ideal = 3.0 * lobachevsky(math.pi / 3.0)
    print(f"ideal ceiling 3 L(pi/3) = {ideal:.10f}\n")
    print(f"{'a':>6} {'V(a)':>14} {'bound':>8} {'V_flat(a)':>14} {'V/V_flat':>9} "
          f"{'V/ideal':>8}")
    for a in (0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 12.0):
        res = volume_regular(a)
        v = res.value
        flat = euclidean_volume_cm(EdgeLengths(a, a, a, a, a, a))
        print(f"{a:>6.2f} {v:>14.10f} {res.error_estimate:>8.1e} {flat:>14.10f} "
              f"{v / flat:>9.5f} {v / ideal:>8.5f}")
    print("\nthe ratio to the flat value drops from 1 as curvature bites;")
    print("the ratio to the ideal ceiling climbs toward 1 for long edges")


if __name__ == "__main__":
    main()
