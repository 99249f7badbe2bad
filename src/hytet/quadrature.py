"""Adaptive Gauss-Kronrod quadrature for an integrand with a 1/sqrt end.

``integrate(f, a, b)`` takes a as the singular end: t = a ± s^2 turns f(t) dt
into 2 s f(a ± s^2) ds over s in [0, sqrt|b - a|], where the volume
integrands' 1 / sqrt(t - a) at the flat bound they start from is smooth
(a log is continuous).  A singularity at b is outside the rule's domain.

Each s panel takes the 7-point Gauss rule and its 15-point Kronrod
extension (Piessens et al., QUADPACK, 1983); |K15 - G7| bounds the error of
the far more accurate K15.  While the summed estimate exceeds
``tol * max(1, |total|)`` the panel with the largest one is halved, up to
a cap; typical volume integrals stop at one panel of 15 evaluations.  tol
is :mod:`hytet.config`'s QUADRATURE_TOL, or TIGHT_QUADRATURE_TOL for the
Schlafli check; no caller sets another.

Integrands receive f(x, dist_a, dist_b), the node with its distances
dist_a = s^2 and dist_b = (s_max - s)(s_max + s) to the ends: near an end
x - a loses every digit, the distance none.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable

from .config import QUADRATURE_TOL

# Kronrod nodes x > 0 on [-1, 1], their weights, and the Gauss weights of x[1::2]
_X = (0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993945,
      0.5860872354676911, 0.4058451513773972, 0.20778495500789848)
_WK = (0.022935322010529224, 0.06309209262997856, 0.10479001032225019,
       0.14065325971552592, 0.1690047266392679, 0.19035057806478542, 0.20443294007529889)
_WG = (0.0, 0.1294849661688697, 0.0, 0.27970539148927664, 0.0, 0.3818300505051189, 0.0)
_NODES = ((0.0, 0.20948214108472782, 0.4179591836734694),
          *zip(_X, _WK, _WG), *zip([-x for x in _X], _WK, _WG))
_MAX_PANELS = 32  # 945 evaluations; benchmark requests were seen to need 13 panels at most


class QuadratureOutcome(namedtuple("QuadratureOutcome", "value error evaluations converged")):
    """``error`` sums the panels' |K15 - G7|; ``converged`` is false when
    the panel cap stopped the refinement short of the tolerance.
    ``_replace`` copies an outcome with fields changed."""

    __slots__ = ()


def integrate(
    f: Callable[[float, float, float], float],
    a: float,
    b: float,
    tol: float = QUADRATURE_TOL,
) -> QuadratureOutcome:
    """Integrate f from a, its singular end, to b; b < a flips the sign.

    Stops when the summed error estimate is at most
    ``tol * max(1, |value|)``, or at the panel cap.
    """
    if a == b:
        return QuadratureOutcome(0.0, 0.0, 0, True)
    sign = 1.0 if b > a else -1.0
    s_max = math.sqrt(abs(b - a))
    evaluations = 0

    def panel(lo: float, hi: float) -> list:  # [|K15 - G7|, K15, lo, hi]
        nonlocal evaluations
        centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        kronrod = gauss = 0.0
        for x, wk, wg in _NODES:
            s = centre + half * x
            da, db = s * s, (s_max - s) * (s_max + s)
            if da > 0.0 and db > 0.0:  # a node rounded onto an end is dropped
                g = s * f(a + sign * da, da, db)
                kronrod += wk * g
                gauss += wg * g
                evaluations += 1
        # half maps [-1, 1] onto the panel; the 2 is that of dt = 2 s ds
        return [2.0 * half * abs(kronrod - gauss), 2.0 * half * kronrod, lo, hi]

    panels = [panel(0.0, s_max)]
    total, error = panels[0][1], panels[0][0]
    while error > tol * max(1.0, abs(total)) and len(panels) < _MAX_PANELS:
        worst = max(panels)
        panels.remove(worst)
        mid = 0.5 * (worst[2] + worst[3])
        panels += panel(worst[2], mid), panel(mid, worst[3])
        total = math.fsum(p[1] for p in panels)
        error = sum(p[0] for p in panels)
    return QuadratureOutcome(sign * total, error, evaluations,
                             error <= tol * max(1.0, abs(total)))
