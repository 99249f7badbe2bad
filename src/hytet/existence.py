"""Existence of a compact hyperbolic tetrahedron with given edge lengths.

Construction: take the two faces meeting along edge 1-2 (triangles 1-2-3
and 1-2-4) as rigid hyperbolic triangles and fold them about the common
edge.  The triangles exist iff the two triangle inequalities hold, and as
the fold angle runs from 0 to pi, the distance between vertices 3 and 4
sweeps a closed interval [l1, l2].  Six lengths are realizable iff

    (i)   l13 + l23 >= l12 >= |l13 - l23|
    (ii)  l14 + l24 >= l12 >= |l14 - l24|
    (iii) l1 <= l34 <= l2,

where, with ch = cosh and csch = 1/sinh,

    ch l1 = C - S,  ch l2 = C + S,
    C = ch l13 ch l14
        - csch^2(l12) (ch l13 ch l12 - ch l23)(ch l14 ch l12 - ch l24)
    S = csch^2(l12)
        * sqrt((ch(l13 + l12) - ch l23)(ch l23 - ch(l13 - l12)))
        * sqrt((ch(l14 + l12) - ch l24)(ch l24 - ch(l14 - l12))).

Each square-root argument is a product of two factors that are nonnegative
exactly when the corresponding triangle inequality holds, so S is well
defined termwise under (i) and (ii).  Equality anywhere marks a flat
(zero-volume) configuration; such inputs are reported as degenerate rather
than rejected, because the volume integral needs to be evaluated right up
to these boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .config import DEFAULT_TOL
from .core import EdgeLengths
from .errors import DomainError, NotATetrahedronError, NumericalError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "L34Bounds",
    "ExistenceReport",
    "triangle_checks",
    "l34_bounds",
    "exists",
    "sample_lengths",
]


@dataclass(frozen=True)
class L34Bounds:
    """Admissible interval for the sixth edge given the other five.

    ``C`` and ``S`` are the fold-interval midpoint and half-width on the
    cosh scale; ``l1 = arccosh(C - S)`` and ``l2 = arccosh(C + S)`` bound
    the edge between vertices 3 and 4.  ``S == 0`` iff one of the two face
    triangles is flat, which pins l34 to a single value.  ``clamped_sqrt``
    records that a square-root argument was rounded up to zero from a tiny
    negative value (possible only on the triangle-inequality boundary).
    """

    C: float
    S: float
    l1: float
    l2: float
    clamped_sqrt: bool = False


@dataclass(frozen=True)
class ExistenceReport:
    """Outcome of the full existence test.

    ``slacks`` maps each inequality to its signed distance from the
    boundary (nonnegative means satisfied): keys ``tri_123_sum``,
    ``tri_123_diff``, ``tri_124_sum``, ``tri_124_diff``, ``l34_lower``,
    ``l34_upper``.  ``degenerate`` is set when any slack sits within
    tolerance of zero, i.e. the tetrahedron exists but is flat.
    ``failed`` lists the names of violated inequalities.  ``lengths`` are
    the lengths judged; the edge-route functions of :mod:`hytet.volume`
    accept the report in their place and then skip the test.
    """

    tri_123_ok: bool
    tri_124_ok: bool
    bounds: L34Bounds | None
    l34_in_range: bool
    degenerate: bool
    exists: bool
    slacks: dict[str, float]
    failed: tuple[str, ...]
    lengths: EdgeLengths


def _near_zero(slack: float, scale: float) -> bool:
    return abs(slack) <= DEFAULT_TOL.boundary * (1.0 + abs(scale))


def triangle_checks(lengths: EdgeLengths) -> tuple[bool, bool, dict[str, float]]:
    """Test the two face-triangle inequalities, with signed slacks.

    Returns (triangle 1-2-3 ok, triangle 1-2-4 ok, slacks).  A slack within
    the boundary tolerance of zero counts as satisfied (degenerate).
    """
    slacks = {
        "tri_123_sum": lengths.l13 + lengths.l23 - lengths.l12,
        "tri_123_diff": lengths.l12 - abs(lengths.l13 - lengths.l23),
        "tri_124_sum": lengths.l14 + lengths.l24 - lengths.l12,
        "tri_124_diff": lengths.l12 - abs(lengths.l14 - lengths.l24),
    }
    scale = max(lengths.as_tuple())

    def ok(*names: str) -> bool:
        return all(slacks[n] >= 0 or _near_zero(slacks[n], scale) for n in names)

    return ok("tri_123_sum", "tri_123_diff"), ok("tri_124_sum", "tri_124_diff"), slacks


def l34_bounds(
    l12: float, l13: float, l14: float, l23: float, l24: float
) -> L34Bounds:
    """Bounds of the admissible l34 interval from the other five lengths.

    Requires l12 > 0 (the fold construction hinges on edge 1-2) and both
    triangle inequalities; raises DomainError or NotATetrahedronError
    otherwise.  Square-root arguments are clamped to zero when they fall in
    [-sqrt_clamp, 0), which can only happen by rounding on the boundary;
    more negative values raise NumericalError.
    """
    if l12 <= 0:
        raise DomainError("l34 bounds need a positive hinge length l12")
    probe = EdgeLengths(l12=l12, l13=l13, l14=l14, l23=l23, l24=l24, l34=0.0)
    ok123, ok124, slacks = triangle_checks(probe)
    if not (ok123 and ok124):
        bad = [k for k, v in slacks.items() if v < 0]
        raise NotATetrahedronError(f"face triangle inequality violated: {', '.join(bad)}")

    ch = math.cosh
    csch2 = 1.0 / math.sinh(l12) ** 2
    C = ch(l13) * ch(l14) - csch2 * (ch(l13) * ch(l12) - ch(l23)) * (
        ch(l14) * ch(l12) - ch(l24)
    )

    clamped = False

    def sqrt_arg(value: float, scale: float) -> float:
        nonlocal clamped
        if value < 0:
            if value < -DEFAULT_TOL.sqrt_clamp * (1.0 + scale):
                raise NumericalError(
                    f"square-root argument {value!r} is negative beyond tolerance"
                )
            clamped = True
            return 0.0
        return value

    s1 = sqrt_arg(
        (ch(l13 + l12) - ch(l23)) * (ch(l23) - ch(l13 - l12)),
        ch(l13 + l12) ** 2,
    )
    s2 = sqrt_arg(
        (ch(l14 + l12) - ch(l24)) * (ch(l24) - ch(l14 - l12)),
        ch(l14 + l12) ** 2,
    )
    S = csch2 * math.sqrt(s1) * math.sqrt(s2)

    ch_l1 = C - S
    ch_l2 = C + S
    if ch_l1 < 1.0:
        if ch_l1 < 1.0 - DEFAULT_TOL.sqrt_clamp * (1.0 + abs(C)):
            raise NumericalError(
                f"lower bound cosh value {ch_l1!r} fell below 1 beyond tolerance"
            )
        ch_l1 = 1.0
    return L34Bounds(
        C=C,
        S=S,
        l1=math.acosh(ch_l1),
        l2=math.acosh(max(ch_l2, 1.0)),
        clamped_sqrt=clamped,
    )


def exists(lengths: EdgeLengths) -> ExistenceReport:
    """Full existence test.  Failures are report fields, never exceptions.

    A hinge length l12 within tolerance of zero makes the fold construction
    collapse (vertices 1 and 2 coincide); such inputs are reported as
    nonexistent and degenerate.
    """
    ok123, ok124, slacks = triangle_checks(lengths)
    scale = max(lengths.as_tuple())
    hinge_ok = lengths.l12 > DEFAULT_TOL.boundary
    bounds = None
    if hinge_ok and ok123 and ok124:
        bounds = l34_bounds(*lengths.as_tuple()[:5])
        slacks["l34_lower"] = lengths.l34 - bounds.l1
        slacks["l34_upper"] = bounds.l2 - lengths.l34
    failed = [k for k, v in slacks.items() if v < 0 and not _near_zero(v, scale)]
    if not hinge_ok:
        failed.append("l12_positive")
    # with bounds found, every face slack passed, so only l34 can have failed
    l34_in_range = bounds is not None and not failed
    return ExistenceReport(
        tri_123_ok=ok123,
        tri_124_ok=ok124,
        bounds=bounds,
        l34_in_range=l34_in_range,
        degenerate=not hinge_ok or any(_near_zero(v, scale) for v in slacks.values()),
        exists=l34_in_range,
        slacks=slacks,
        failed=tuple(failed),
        lengths=lengths,
    )


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
    is non-degenerate.  Used by the test harness and the validation CLI.

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
