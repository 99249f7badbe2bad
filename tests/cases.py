"""Random valid tetrahedra for the tests and the scripts.

The acceptance suite, ``scripts/cli_digest.py`` and ``scripts/layer_times.py``
all draw their cases from ``sample_lengths(np.random.default_rng(20240817))``;
``tests/test_cases.py`` pins those draws.  The scripts import this module
after putting ``tests/`` on ``sys.path`` next to ``src/``.
"""

from __future__ import annotations

import numpy as np

from hytet import DomainError, EdgeLengths, l34_bounds


def sample_lengths(
    rng: np.random.Generator,
    lo: float = 0.5,
    hi: float = 1.5,
    margin: float = 0.1,
) -> EdgeLengths:
    """Draw random edge lengths of a strictly interior valid tetrahedron.

    The five hinge-adjacent lengths are sampled inside the triangle
    inequalities with a relative safety margin, then l34 is placed inside
    the admissible interval with the same relative margin, so every output
    is non-degenerate.

    A draw is accepted only when the l34 interval is wider than
    ``4 * margin * max(l2, 1)``, while its width stays below both
    ``l2 <= l13 + l14 < 2 * hi`` and ``max(l2, 1)``; arguments for which
    no draw can pass raise DomainError instead of looping forever.
    """
    if 2.0 * hi <= 4.0 * margin or margin >= 0.25:
        raise DomainError(
            f"no draw can pass the width test with hi = {hi!r} and "
            f"margin = {margin!r}: need 2 * hi > 4 * margin and margin < 0.25"
        )
    while True:
        l12 = float(rng.uniform(lo, hi))
        l13 = float(rng.uniform(lo, hi))
        l14 = float(rng.uniform(lo, hi))
        span3 = 2.0 * min(l13, l12)
        span4 = 2.0 * min(l14, l12)
        l23 = abs(l13 - l12) + float(rng.uniform(margin, 1.0 - margin)) * span3
        l24 = abs(l14 - l12) + float(rng.uniform(margin, 1.0 - margin)) * span4
        bounds = l34_bounds(l12, l13, l14, l23, l24)
        width = bounds.l2 - bounds.l1
        if width <= 4.0 * margin * max(bounds.l2, 1.0):
            continue
        l34 = bounds.l1 + width * float(rng.uniform(margin, 1.0 - margin))
        return EdgeLengths(l12=l12, l13=l13, l14=l14, l23=l23, l24=l24, l34=l34)
