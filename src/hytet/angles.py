"""Dihedral angles from edge-matrix cofactors, and the face Gram matrix.

The cosine rule implemented here reads the dihedral angle along an edge off
the cofactors of the edge matrix at the *opposite* edge's vertex pair: for
the edge joining vertices k and l, with (i, j) the complementary pair,

    cos(theta_kl) = -c_ij / sqrt(c_ii * c_jj).

Geometric origin: the rows of the inverse of the vertex Gram matrix (-E)
are the outward face normals, the normal of face i being orthogonal to the
three vertices other than i; faces i and j meet along the edge joining the
two remaining vertices, which is why the cofactor index pair and the edge
pair are complementary.  The positivity of the diagonal cofactors is
exactly the condition that every vertex figure is a genuine spherical
triangle.

Note the complementary-pair map fixes the index pairs {1,4} and {2,3} as a
set but swaps them with each other, so the pairing matters for scalene
configurations; it is cross-validated against coordinate geometry by the
oracle module's independent route.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .config import COS_CLAMP
from .core import EDGE_PAIRS, CofactorSet, Matrix4, opposite_pair
from .errors import DomainError, NotATetrahedronError, NumericalError

__all__ = ["DihedralAngles", "dihedral_angles", "gram_from_angles"]

ANGLE_KEYS = ("th12", "th13", "th14", "th23", "th24", "th34")
# (key, k, l, i, j): the angle along edge k-l and the opposite pair (i, j)
_ANGLE_PAIRS = tuple((key, k, l, *opposite_pair(k, l))
                     for (k, l), key in zip(EDGE_PAIRS, ANGLE_KEYS))


class DihedralAngles(namedtuple("DihedralAngles", (*ANGLE_KEYS, "clamped"), defaults=(False,))):
    """The six dihedral angles, radians, each in [0, pi].

    Interior angles of a solid tetrahedron lie strictly in (0, pi); the
    closed endpoints occur only for flat configurations.  ``clamped`` is
    set when a cosine marginally outside [-1, 1] was clamped, which happens
    only within rounding distance of a flat configuration.
    """

    __slots__ = ()

    def as_dict(self) -> dict[str, float]:
        return dict(zip(ANGLE_KEYS, self))

    def as_tuple(self) -> tuple[float, ...]:
        return self[:6]


def dihedral_angles(C: CofactorSet) -> DihedralAngles:
    """All six dihedral angles from a cofactor set.

    Requires every diagonal cofactor to be positive; a nonpositive one
    means the edge data does not describe a compact solid tetrahedron
    (flat folds drive two diagonal cofactors to zero).  A cosine beyond
    [-1, 1] by more than ``COS_CLAMP`` raises NumericalError; within that
    window it is clamped and the result flagged.
    """
    diag = C.diagonal
    bad = [i for i in range(4) if diag[i] <= 0.0]
    if bad:
        raise NotATetrahedronError(
            "diagonal cofactor c%d%d = %r is not positive; the configuration "
            "is flat or not realizable" % (bad[0] + 1, bad[0] + 1, diag[bad[0]])
        )

    clamped = False
    values = []
    for _, k, l, i, j in _ANGLE_PAIRS:
        norm = math.sqrt(diag[i] * diag[j])
        if norm == math.inf:  # the product overflows before either factor does
            norm = math.sqrt(diag[i]) * math.sqrt(diag[j])
        cos_th = -C.c[i][j] / norm
        # not <= also catches NaN; an infinite norm means the cofactors overflowed
        if not abs(cos_th) <= 1.0 + COS_CLAMP or norm == math.inf:
            raise NumericalError(f"cosine of the angle along edge {k + 1}-{l + 1} is {cos_th!r} "
                                 f"(cofactor norm {norm!r}), inconsistent beyond tolerance")
        if abs(cos_th) > 1.0:
            cos_th = math.copysign(1.0, cos_th)
            clamped = True
        values.append(math.acos(cos_th))
    return DihedralAngles(*values, clamped)


def gram_from_angles(angles: DihedralAngles) -> Matrix4:
    """Gram matrix of the outward face normals, face i opposite vertex i.

    Unit diagonal; entry (i, j) = -cos theta_kl, (k, l) = opposite_pair(i, j),
    the edge that faces i and j share.  The 1-2 angle, for instance, sits in
    the (3, 4) slot (0-based (2, 3)).  Raises DomainError for an angle
    outside [0, pi].
    """
    g = [[1.0] * 4 for _ in range(4)]
    for key, _, _, i, j in _ANGLE_PAIRS:
        th = getattr(angles, key)
        if not 0.0 <= th <= math.pi:
            raise DomainError(f"angle {key} = {th!r} outside [0, pi]")
        g[i][j] = g[j][i] = -math.cos(th)
    return tuple(map(tuple, g))
