"""Existence of a compact hyperbolic tetrahedron with given edge lengths.

Construction: take the two faces meeting along edge 1-2 (triangles 1-2-3
and 1-2-4) as rigid hyperbolic triangles and fold them about the common
edge.  The triangles exist iff the two triangle inequalities hold, and as
the fold angle runs from 0 to pi, the distance between vertices 3 and 4
sweeps a closed interval [l1, l2].  Six lengths are realizable iff

    (i)   l13 + l23 >= l12 >= |l13 - l23|
    (ii)  l14 + l24 >= l12 >= |l14 - l24|
    (iii) l1 <= l34 <= l2,

where, with alpha3 and alpha4 the angles at vertex 1 of the faces 1-2-3
and 1-2-4, the flat folds' law of cosines is a sum of nonnegative terms

    cosh l1,2 - 1 = 2 sinh^2((l13 - l14)/2)
                    + 2 sinh l13 sinh l14 sin^2((alpha3 -/+ alpha4)/2),

inverted by l = 2 asinh(sqrt((cosh l - 1)/2)).  Face 1-2-k with
half-perimeter p has, by the half-angle formula,

    alpha = 2 atan2(sqrt(sinh(p - l12) sinh(p - l1k)), sqrt(sinh p sinh(p - l2k))),

and its excesses p - x are half the slacks of (i) or (ii), so the triangle
test and the angles come from the same numbers and nothing cancels at short
or long edges.  C and S, the midpoint and half-width of [cosh l1, cosh l2],
are reported too; S = sinh l13 sinh l14 sin alpha3 sin alpha4.  Equality
anywhere marks a flat (zero-volume) configuration; such inputs are reported
as degenerate rather than rejected, because the volume integral needs to be
evaluated right up to these boundaries.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property

from . import angles, core
from .config import BOUNDARY_TOL
from .errors import DomainError, NotATetrahedronError

__all__ = ["L34Bounds", "ExistenceReport", "l34_bounds", "exists"]


class L34Bounds(namedtuple("L34Bounds", ("C", "S", "l1", "l2", "clamped_sqrt"),
                           defaults=(False,))):
    """Admissible interval for the sixth edge given the other five.

    ``l1`` and ``l2`` bound the edge between vertices 3 and 4; ``C`` and
    ``S`` are the interval's midpoint and half-width on the cosh scale.
    ``S == 0`` iff one of the two face triangles is flat, which pins l34 to
    a single value.  ``clamped_sqrt`` records that a half-perimeter excess
    was rounded up to zero from a tiny negative value (possible only on the
    triangle-inequality boundary).
    """

    __slots__ = ()


class ExistenceReport(namedtuple("ExistenceReport", "tri_123_ok tri_124_ok bounds l34_in_range "
                                 "degenerate exists slacks failed lengths")):
    """Outcome of the full existence test.

    ``slacks`` maps each inequality to its signed distance from the
    boundary (nonnegative means satisfied): keys ``tri_123_sum``,
    ``tri_123_diff``, ``tri_124_sum``, ``tri_124_diff``, ``l34_lower``,
    ``l34_upper``.  ``degenerate`` is set when any slack sits within
    tolerance of zero, i.e. the tetrahedron exists but is flat.
    ``failed`` lists the names of violated inequalities.  ``lengths`` are
    the lengths judged; the edge-route functions of :mod:`hytet.volume`
    accept the report in their place and then skip the test.  ``edge_matrix``,
    ``cofactors`` and ``angles`` are built from ``lengths`` on first use and
    kept, so a request that reads the report builds each at most once.
    ``bounds`` is None when the faces fail or l12 is zero.
    """

    # no __slots__: each cached value lives in the instance's __dict__; each
    # builder is looked up on its module, where a tracer may wrap it
    @cached_property
    def edge_matrix(self) -> core.EdgeMatrix:
        return core.edge_matrix_from_lengths(self.lengths)

    @cached_property
    def cofactors(self) -> core.CofactorSet:
        return core.cofactors(self.edge_matrix)

    @cached_property
    def angles(self) -> angles.DihedralAngles:
        return angles.dihedral_angles(self.cofactors)


def _faces(l12: float, l13: float, l14: float, l23: float,
           l24: float) -> tuple[dict[str, float], list[str], bool]:
    """Signed slacks of the four face inequalities, the names of those
    violated, and whether any sits on the boundary; each is judged at the
    scale of the five lengths the inequalities involve."""
    slacks = {
        "tri_123_sum": l13 + l23 - l12,
        "tri_123_diff": l12 - abs(l13 - l23),
        "tri_124_sum": l14 + l24 - l12,
        "tri_124_diff": l12 - abs(l14 - l24),
    }
    tol = BOUNDARY_TOL * (1.0 + max(l12, l13, l14, l23, l24))  # a slack within it is flat
    failed = [k for k, v in slacks.items() if v < -tol]
    return slacks, failed, any(abs(v) <= tol for v in slacks.values())


def _face_ok(face: str, failed: list[str]) -> bool:
    return not any(name.startswith(face) for name in failed)


def l34_bounds(
    l12: float, l13: float, l14: float, l23: float, l24: float
) -> L34Bounds:
    """Bounds of the admissible l34 interval from the other five lengths.

    Requires l12 > 0 (the fold hinges on edge 1-2) and both triangle
    inequalities; raises DomainError or NotATetrahedronError otherwise, and
    OverflowError past edges of a few hundred, where the half-angle products
    overflow.  Half-perimeter excesses within the boundary tolerance below
    zero are rounded up to it and flagged in ``clamped_sqrt``.
    """
    if l12 <= 0:
        raise DomainError("l34 bounds need a positive hinge length l12")
    # p - x for the sides x = l12, l1k, l2k of faces 1-2-3 and 1-2-4
    excess = (0.5 * (l13 + l23 - l12), 0.5 * (l12 + l23 - l13), 0.5 * (l12 + l13 - l23),
              0.5 * (l14 + l24 - l12), 0.5 * (l12 + l24 - l14), 0.5 * (l12 + l14 - l24))
    clamped = min(excess) < 0.0
    if clamped:
        bad = _faces(l12, l13, l14, l23, l24)[1]
        if bad:
            raise NotATetrahedronError(f"face triangle inequality violated: {', '.join(bad)}")
        excess = tuple(max(e, 0.0) for e in excess)

    sh = math.sinh

    def angle_at_1(e12: float, e1k: float, e2k: float) -> float:
        near, far = sh(e12) * sh(e1k), sh(e12 + e1k + e2k) * sh(e2k)
        if far == math.inf:  # it would read as alpha = 0
            raise OverflowError(f"the half-angle formula overflows at p = {e12 + e1k + e2k!r}")
        return 2.0 * math.atan2(math.sqrt(near), math.sqrt(far))

    alpha3, alpha4 = angle_at_1(*excess[:3]), angle_at_1(*excess[3:])
    sh13, sh14 = sh(l13), sh(l14)
    base = 2.0 * sh(0.5 * (l13 - l14)) ** 2
    s_lo, s_hi = math.sin(0.5 * (alpha3 - alpha4)), math.sin(0.5 * (alpha3 + alpha4))
    lo = base + 2.0 * (sh13 * s_lo) * (sh14 * s_lo)
    hi = base + 2.0 * (sh13 * s_hi) * (sh14 * s_hi)
    return L34Bounds(
        C=1.0 + 0.5 * (lo + hi),
        S=(sh13 * math.sin(alpha3)) * (sh14 * math.sin(alpha4)),
        l1=2.0 * math.asinh(math.sqrt(0.5 * lo)),
        l2=2.0 * math.asinh(math.sqrt(0.5 * hi)),
        clamped_sqrt=clamped,
    )


def exists(lengths: core.EdgeLengths) -> ExistenceReport:
    """Full existence test.  Failures are report fields, not exceptions; the
    one exception is the OverflowError of ``l34_bounds`` past edges of a few
    hundred.

    A hinge length l12 within tolerance of zero makes the fold construction
    collapse (vertices 1 and 2 coincide); such inputs are reported as
    nonexistent and degenerate.
    """
    edges = lengths.as_tuple()
    slacks, failed, degenerate = _faces(*edges[:5])
    hinge_ok = edges[0] > BOUNDARY_TOL
    bounds = None
    if hinge_ok and not failed:
        bounds = l34_bounds(*edges[:5])
        tol = BOUNDARY_TOL * (1.0 + max(edges))
        for name, slack in (("l34_lower", edges[5] - bounds.l1),
                            ("l34_upper", bounds.l2 - edges[5])):
            slacks[name] = slack
            degenerate = degenerate or abs(slack) <= tol
            if slack < -tol:
                failed.append(name)
    if not hinge_ok:
        failed.append("l12_positive")
    # with bounds found, every face slack passed, so only l34 can have failed
    l34_in_range = bounds is not None and not failed
    return ExistenceReport(
        tri_123_ok=_face_ok("tri_123", failed),
        tri_124_ok=_face_ok("tri_124", failed),
        bounds=bounds,
        l34_in_range=l34_in_range,
        degenerate=not hinge_ok or degenerate,
        exists=l34_in_range,
        slacks=slacks,
        failed=tuple(failed),
        lengths=lengths,
    )
