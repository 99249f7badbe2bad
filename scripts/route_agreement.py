"""Compare the three volume routes on random tetrahedra.

Draws interior-valid edge-length sets, computes the volume by the
edge-length integral, the one-angle logarithmic integral, and Monte Carlo
in the Klein model, and prints per-case gaps plus a worst-case summary.

The checkout's own ``src`` is the one imported, and the cases come from
``sample_lengths`` of ``tests/cases.py``.

Usage: python scripts/route_agreement.py [N_CASES] [SEED]
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from cases import sample_lengths  # noqa: E402
from hytet import (  # noqa: E402
    MonteCarloConfig,
    cofactors,
    dihedral_angles,
    edge_matrix_from_lengths,
    embed_vertices,
    volume_edges,
    volume_monte_carlo,
    volume_sforza,
)


def main() -> None:
    n_cases = int(sys.argv[1]) if len(sys.argv) > 1 else 25
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 7
    rng = np.random.default_rng(seed)

    print(f"{'case':>4} {'V_edges':>12} {'V_angles':>12} {'V_mc':>12} "
          f"{'|e-a|':>9} {'mc_z':>6}")
    worst_gap = 0.0
    worst_z = 0.0
    start = time.perf_counter()
    for k in range(n_cases):
        L = sample_lengths(rng)
        E = edge_matrix_from_lengths(L)
        ve = volume_edges(L)
        vs = volume_sforza(dihedral_angles(cofactors(E)))
        mc = volume_monte_carlo(
            embed_vertices(E), MonteCarloConfig(seed=seed + k, samples=200_000)
        )
        gap = abs(ve.value - vs.value)
        z = abs(ve.value - mc.value) / mc.error_estimate
        worst_gap = max(worst_gap, gap)
        worst_z = max(worst_z, z)
        print(f"{k:>4} {ve.value:>12.9f} {vs.value:>12.9f} {mc.value:>12.9f} "
              f"{gap:>9.2e} {z:>6.2f}")
    elapsed = time.perf_counter() - start
    print(f"\nworst |edge - angle| gap: {worst_gap:.3e}")
    print(f"worst Monte Carlo z-score: {worst_z:.2f}")
    print(f"{n_cases} cases in {elapsed:.1f}s")


if __name__ == "__main__":
    main()
