"""Edge-length data model, edge matrix, cofactors, and determinant identities.

A compact hyperbolic tetrahedron is determined up to isometry by its six
edge lengths l12, l13, l14, l23, l24, l34 (lij joins vertices i and j,
vertices numbered 1..4).  The computational engine of the whole package is
the symmetric 4x4 edge matrix

    E[i][j] = cosh(lij),   E[i][i] = 1,

together with its sixteen cofactors c_ij = (-1)^(i+j) * minor_ij(E) and its
determinant.  Everything downstream (existence bounds, dihedral angles, the
volume integrand) is a function of these.

Vertices are numbered 1..4 in documentation and 0..3 in matrix indices; the
field ``lij`` always has i < j.  The edge opposite lij joins the remaining
two vertices, see :func:`opposite_pair`.

Cofactors are computed from explicit 3x3 minors rather than through an
inverse, so they stay well defined when the determinant approaches zero
(flat configurations); only the ten with i <= j are distinct.  A 4x4
matrix is a tuple of four row tuples.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence

from .errors import DomainError

EDGE_KEYS = ("l12", "l13", "l14", "l23", "l24", "l34")

# 0-based vertex pairs in the same order as EDGE_KEYS
EDGE_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

Matrix4 = tuple[tuple[float, ...], ...]


def _symmetric(diagonal: float, values: Sequence[float]) -> Matrix4:
    """Symmetric 4x4 matrix: constant diagonal, the rest in EDGE_PAIRS order."""
    m = [[diagonal] * 4 for _ in range(4)]
    for (i, j), value in zip(EDGE_PAIRS, values):
        m[i][j] = m[j][i] = value
    return tuple(map(tuple, m))


def opposite_pair(i: int, j: int) -> tuple[int, int]:
    """Return the 0-based vertex pair of the edge opposite edge (i, j)."""
    k, l = (m for m in range(4) if m not in (i, j))
    return k, l


def _edge_length(name: str, value) -> float:
    """value as a float, or DomainError unless it is a finite nonnegative number."""
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        raise DomainError(f"edge length {name} must be finite, got {value!r}")
    if value < 0:
        raise DomainError(f"edge length {name} must be nonnegative, got {value!r}")
    return float(value)


class EdgeLengths(namedtuple("EdgeLengths", EDGE_KEYS)):
    """The six edge lengths of a tetrahedron, in hyperbolic length units.

    All fields must be finite and nonnegative; each is stored as a float.
    Strictly positive lengths describe a genuine tetrahedron candidate;
    zeros are admitted so that boundary-degenerate configurations
    (coinciding vertices, flat folds) can be represented and flagged by the
    existence module instead of being unrepresentable.  Immutable; compares
    and hashes as the tuple of its six values.
    """

    __slots__ = ()

    def __new__(cls, l12, l13, l14, l23, l24, l34):
        values = (l12, l13, l14, l23, l24, l34)
        if not all(type(v) is float and 0.0 <= v < math.inf for v in values):
            values = tuple(map(_edge_length, EDGE_KEYS, values))
        return tuple.__new__(cls, values)

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # _replace checks, too

    def as_dict(self) -> dict[str, float]:
        return dict(zip(EDGE_KEYS, self))

    def as_tuple(self) -> tuple[float, ...]:
        return tuple(self)

    def length_matrix(self) -> Matrix4:
        """Symmetric 4x4 matrix of pairwise lengths, zero diagonal."""
        return _symmetric(0.0, self)

    def with_l34(self, value: float) -> EdgeLengths:
        return EdgeLengths(*self[:5], value)

    def relabel(self, sigma: Sequence[int]) -> EdgeLengths:
        """Apply a vertex permutation: new vertex k is old vertex sigma[k]."""
        if sorted(sigma) != [0, 1, 2, 3]:
            raise DomainError(f"relabeling must be a permutation of 0..3, got {sigma!r}")
        m = self.length_matrix()
        return EdgeLengths(*(m[sigma[i]][sigma[j]] for i, j in EDGE_PAIRS))


class EdgeMatrix(namedtuple("EdgeMatrix", ("e", "shifted"))):
    """Symmetric 4x4 matrix of hyperbolic cosines of the edge lengths.

    ``shifted`` is E minus the all-ones matrix with entries computed as
    2 sinh^2(l/2), which is exact for short edges where cosh(l) - 1 would
    round away; the cofactor routines work in this shifted form.
    """

    __slots__ = ()


class CofactorSet(namedtuple("CofactorSet", ("c", "delta"))):
    """All sixteen cofactors of an edge matrix and its determinant.

    For a valid compact tetrahedron the diagonal cofactors are positive and
    the determinant is negative; both facts are checked downstream rather
    than here, because this container is also used for arbitrary symmetric
    matrices when testing determinant identities.
    """

    __slots__ = ()

    @property
    def diagonal(self) -> tuple[float, float, float, float]:
        return tuple(self.c[i][i] for i in range(4))


class JacobiResiduals(namedtuple("JacobiResiduals", ("residuals", "scales"))):
    """Residuals of the fourteen quadratic cofactor identities.

    For any symmetric unit-diagonal 4x4 matrix written as cosh of an edge
    configuration, products of complementary 2x2 cofactor minors equal the
    determinant times a complementary minor of the matrix itself.  The
    fourteen instances used by the volume machinery are evaluated here as
    |lhs - rhs|, in a fixed documented order; ``scales`` holds
    max(1, |lhs|) for relative comparison.

    These are algebraic identities: they hold for any symmetric matrix with
    unit diagonal, not only for matrices of actual tetrahedra.
    """

    __slots__ = ()

    @property
    def max_relative(self) -> float:
        return max(r / s for r, s in zip(self.residuals, self.scales))


def det3(m) -> float:
    """Determinant of a 3x3 matrix given as nested sequences."""
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _minor(m, i: int, j: int) -> list[list[float]]:
    """The 4x4 matrix m without row i and column j."""
    return [[row[c] for c in range(4) if c != j] for r, row in enumerate(m) if r != i]


def cofactor4(m, i: int, j: int) -> float:
    """Signed cofactor of a 4x4 matrix given as nested sequences."""
    sign = -1.0 if (i + j) % 2 else 1.0
    return sign * det3(_minor(m, i, j))


def det4(m) -> float:
    """Determinant of a 4x4 matrix by cofactor expansion along row 0."""
    return (m[0][0] * cofactor4(m, 0, 0) + m[0][1] * cofactor4(m, 0, 1)
            + m[0][2] * cofactor4(m, 0, 2) + m[0][3] * cofactor4(m, 0, 3))


def edge_matrix_from_lengths(lengths: EdgeLengths) -> EdgeMatrix:
    """Build E[i][j] = cosh(lij) with unit diagonal."""
    gaps = [2.0 * math.sinh(0.5 * value) ** 2 for value in lengths.as_tuple()]
    return EdgeMatrix(e=_symmetric(1.0, [1.0 + gap for gap in gaps]),
                      shifted=_symmetric(0.0, gaps))


def _det_and_cofactor_sum(a, b, c, d, e, f, g, h, k) -> tuple[float, float]:
    """det M and the sum of the nine cofactors of the 3x3 matrix M, by rows."""
    c00, c01, c02 = e * k - f * h, f * g - d * k, d * h - e * g
    # rows 1 and 2 of the cofactor matrix, summed, factor into differences
    return (a * c00 + b * c01 + c * c02,
            c00 + c01 + c02 + (a - b) * (k - f) + (a - c) * (e - h) + (c - b) * (d - g))


# (i, j, sign, rows, cols) of the 3x3 minor behind each cofactor c_ij, i <= j
_MINORS = tuple((i, j, (-1.0) ** (i + j), (*range(i), *range(i + 1, 4)),
                 (*range(j), *range(j + 1, 4))) for i in range(4) for j in range(i, 4))


def cofactors(E: EdgeMatrix) -> CofactorSet:
    """All cofactors and the determinant of an edge matrix.

    E = J + U with J the all-ones matrix and U = ``E.shifted``.  By the
    matrix determinant lemma det(J + M) = det M + (sum of M's cofactors), so
    the cofactor c_ij of E comes from the 3x3 minor M of U alone, and J + U
    is never formed: configurations with short edges, where every minor of
    E is a small difference of near-unit products, keep their full relative
    accuracy.  E is symmetric, so only the ten cofactors with i <= j are
    computed, each copied to (j, i).  Each of them is also +-det M, a
    cofactor of U, so det E = det U + (sum of U's cofactors) comes from the
    same ten minors.  No inverse is taken anywhere.
    """
    u = E.shifted
    c = [[0.0] * 4 for _ in range(4)]
    c_u = [[0.0] * 4 for _ in range(4)]
    for i, j, sign, (r0, r1, r2), (k0, k1, k2) in _MINORS:
        p, q, r = u[r0], u[r1], u[r2]
        det_m, sum_m = _det_and_cofactor_sum(p[k0], p[k1], p[k2], q[k0], q[k1], q[k2],
                                             r[k0], r[k1], r[k2])
        c[i][j] = c[j][i] = sign * (det_m + sum_m)
        c_u[i][j] = c_u[j][i] = sign * det_m
    det_u = sum(x * y for x, y in zip(u[0], c_u[0]))
    return CofactorSet(c=tuple(map(tuple, c)), delta=det_u + sum(map(sum, c_u)))


# (i, j, k, l, sign, r, s, p, q) of each identity jacobi_residuals evaluates,
# in its documented order; (r, s) and (p, q) complement (i, j) and (k, l)
_JACOBI = tuple(
    (i, j, k, l, (-1.0) ** (i + j + k + l) * (-1.0 if (i < j) != (k < l) else 1.0),
     *opposite_pair(i, j), *opposite_pair(k, l))
    for i, j, k, l in ((0, 1, 0, 1), (0, 2, 0, 2), (1, 2, 1, 2), (2, 3, 2, 3),
                       (1, 3, 1, 3), (0, 3, 0, 3), (0, 2, 3, 1), (0, 3, 2, 1),
                       (0, 3, 2, 3), (0, 2, 3, 0), (0, 2, 3, 2), (1, 2, 3, 1),
                       (1, 3, 2, 3), (1, 2, 3, 2)))


def jacobi_residuals(E: EdgeMatrix, C: CofactorSet) -> JacobiResiduals:
    """Evaluate the fourteen cofactor-determinant identities.

    Jacobi's complementary-minor rule ties a 2x2 minor of the cofactors to
    the complementary 2x2 minor of E = (a_ij):

        c_ik c_jl - c_il c_jk = sigma delta (a_rp a_sq - a_rq a_sp),

    where (r, s) and (p, q) are the increasing complements of (i, j) and
    (k, l), and sigma = (-1)^(i+j+k+l), negated when exactly one of i < j
    and k < l holds.  The fourteen (i, j, k, l), 0-based, in order:

        (0,1,0,1) (0,2,0,2) (1,2,1,2) (2,3,2,3) (1,3,1,3) (0,3,0,3)
        (0,2,3,1) (0,3,2,1) (0,3,2,3) (0,2,3,0) (0,2,3,2) (1,2,3,1)
        (1,3,2,3) (1,2,3,2)

    The first six read c_ii c_jj - c_ij^2 = -delta sinh^2 l_rs.
    """
    a = E.e
    c = C.c
    rows = tuple((c[i][k] * c[j][l] - c[i][l] * c[j][k],
                  sign * C.delta * (a[r][p] * a[s][q] - a[r][q] * a[s][p]))
                 for i, j, k, l, sign, r, s, p, q in _JACOBI)
    residuals = tuple(abs(lhs - rhs) for lhs, rhs in rows)
    scales = tuple(max(1.0, abs(lhs)) for lhs, _ in rows)
    return JacobiResiduals(residuals=residuals, scales=scales)


def expansion_residual(E: EdgeMatrix, C: CofactorSet) -> float:
    """Worst deviation of sum_j E[i][j] c[k][j] from delta * [i == k]."""
    return max(abs(sum(e * c for e, c in zip(E.e[i], C.c[k])) - C.delta * (i == k))
               for i in range(4) for k in range(4))
