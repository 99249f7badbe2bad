"""Reference values in mpmath and the answer checker.

The references take routes independent of the code being timed:

* angles come from the generator's own vertex coordinates, through the
  Minkowski normals of the four faces;
* fold bounds come from the roots of det E(x), a quadratic in
  x = cosh(l34) that is fitted exactly from three determinants;
* volumes come from mpmath Gauss-Legendre quadrature of the paper's
  edge-length integral, with generic cofactors and the substitution
  t = (flat root) -/+ w u^2 that removes the 1/sqrt singularity.

Tolerances are the program's own promises: the CLI asks its quadratures
for abs_tol = rel_tol = 1e-10 on the estimated error, so a volume passes
within 1e-10 absolute or 1e-9 relative of the reference, whichever is
larger.  Angles pass within 1e-9 radians, the CLI's own agreement limit
between its two angle routes.
"""

from __future__ import annotations

import math

import mpmath as mp

from gen import EDGE_PAIRS, cross4, lift, mdot

ANGLE_TOL = 1e-9
VOLUME_ABS_TOL = 1e-10
VOLUME_REL_TOL = 1e-9
BOUND_TOL = 1e-9
MC_Z = 5.0

COEF_DPS = 40
QUAD_DPS = 20
# the edge values of scripts/regular_volume_table.py
REGULAR_TABLE_EDGES = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 12.0)


def angles_from_points(points) -> tuple[float, ...]:
    """Dihedral angles (EDGE_PAIRS order) from vertex coordinates.

    The face opposite vertex k has the Minkowski normal orthogonal to the
    other three vertices, oriented away from vertex k; the interior angle
    along edge i-j is pi minus the angle between the outward normals of
    the two faces that contain it.
    """
    with mp.workdps(COEF_DPS):
        p = [lift(x) for x in points]
        normals = []
        for k in range(4):
            e = cross4(*(p[m] for m in range(4) if m != k))
            n = [-e[0], e[1], e[2], e[3]]
            if mdot(n, p[k]) > 0:
                n = [-c for c in n]
            normals.append(n)
        out = []
        for i, j in EDGE_PAIRS:
            k, l = (m for m in range(4) if m not in (i, j))
            nk, nl = normals[k], normals[l]
            c = -mdot(nk, nl) / mp.sqrt(mdot(nk, nk) * mdot(nl, nl))
            out.append(float(mp.acos(c)))
    return tuple(out)


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _cofactor(e, i, j):
    m = [[e[r][c] for c in range(4) if c != j] for r in range(4) if r != i]
    return -_det3(m) if (i + j) % 2 else _det3(m)


def _quadratic(fn):
    """Coefficients (c0, c1, c2) of a polynomial of degree <= 2 in x."""
    y0, y1, y2 = fn(mp.mpf(0)), fn(mp.mpf(1)), fn(mp.mpf(2))
    c2 = (y2 - 2 * y1 + y0) / 2
    return (y0, y1 - y0 - c2, c2)


class EdgeIntegral:
    """The paper's edge-length volume integral for five fixed lengths.

    With x = cosh(t) in the (3, 4) slot of E, every cofactor used below and
    Delta = det E are polynomials of degree <= 2 in x, fitted exactly.
    dV/dt = -(t Omega + sinh(t) B) / (2 sqrt(-Delta)) with

        Omega = c14 (a23 - a24 x) / c11 + c24 (a13 - a14 x) / c22,
        B = (l24 sh24 c14 + l23 sh23 c13) / c11
            + (l13 sh13 c23 + l14 sh14 c24) / c22 + l12 sh12,

    where c_ij = (-1)^(i+j) minor_ij(E) and vertices are numbered 1..4.
    """

    def __init__(self, edges):
        with mp.workdps(COEF_DPS):
            self.l = [mp.mpf(v) for v in edges[:5]]
            a = [mp.cosh(v) for v in self.l]

            def matrix(x):
                e = [[mp.mpf(1)] * 4 for _ in range(4)]
                for (i, j), v in zip(EDGE_PAIRS, a):
                    e[i][j] = e[j][i] = v
                e[2][3] = e[3][2] = x
                return e

            self.c = {
                name: _quadratic(lambda x, i=i, j=j: _cofactor(matrix(x), i, j))
                for name, (i, j) in (("c11", (0, 0)), ("c22", (1, 1)), ("c13", (0, 2)),
                                     ("c14", (0, 3)), ("c23", (1, 2)), ("c24", (1, 3)))
            }
            d0, d1, s = _quadratic(lambda x: mp.det(mp.matrix(matrix(x))))
            root = mp.sqrt(d1 * d1 - 4 * s * d0)
            self.s = s
            self.l1 = mp.acosh(max((-d1 - root) / (2 * s), mp.mpf(1)))
            self.l2 = mp.acosh((-d1 + root) / (2 * s))
            self.a = a
            self.k = [v * mp.sinh(v) for v in self.l]

    def derivative(self, t, t_minus_l1=None, l2_minus_t=None):
        """dV/dt, with exact distances to the flat roots where known."""
        with mp.workdps(COEF_DPS):
            t = mp.mpf(t)
            lo = t - self.l1 if t_minus_l1 is None else t_minus_l1
            hi = self.l2 - t if l2_minus_t is None else l2_minus_t
            neg_delta = (self.s * 4 * mp.sinh((t + self.l1) / 2) * mp.sinh(lo / 2)
                         * mp.sinh((self.l2 + t) / 2) * mp.sinh(hi / 2))
            x = mp.cosh(t)
            c = {n: p[0] + x * (p[1] + x * p[2]) for n, p in self.c.items()}
            a12, a13, a14, a23, a24 = self.a
            k12, k13, k14, k23, k24 = self.k
            omega = (c["c14"] * (a23 - a24 * x) / c["c11"]
                     + c["c24"] * (a13 - a14 * x) / c["c22"])
            b = ((k24 * c["c14"] + k23 * c["c13"]) / c["c11"]
                 + (k13 * c["c23"] + k14 * c["c24"]) / c["c22"] + k12)
            return -(t * omega + mp.sinh(t) * b) / (2 * mp.sqrt(neg_delta))

    def volume(self, l34) -> float:
        """V(l34), integrated from whichever flat root is nearer.

        V vanishes at both roots, so V(l34) = int_{l1}^{l34} = -int_{l34}^{l2};
        starting at the nearer root keeps the other root's singularity at
        least half the interval away.
        """
        with mp.workdps(COEF_DPS):
            l34 = mp.mpf(l34)
            lower = l34 - self.l1 <= self.l2 - l34
            w = l34 - self.l1 if lower else self.l2 - l34
        if w <= 0:
            return 0.0

        def g(u):
            d = w * u * u
            if lower:
                return self.derivative(self.l1 + d, t_minus_l1=d) * 2 * w * u
            return self.derivative(self.l2 - d, l2_minus_t=d) * 2 * w * u

        with mp.workdps(QUAD_DPS):
            v = mp.quad(g, [0, 1], method="gauss-legendre")
        return float(v if lower else -v)


def volume(edges) -> float:
    return EdgeIntegral(edges).volume(edges[5])


def regular_table() -> dict:
    """References for the regular-volume table and the ideal ceiling."""
    with mp.workdps(QUAD_DPS):
        ideal = float(3 * mp.clsin(2, 2 * mp.pi / 3) / 2)
    rows = [(a, volume((a,) * 6), math.sqrt(2.0) / 12.0 * a ** 3)
            for a in REGULAR_TABLE_EDGES]
    return {"rows": rows, "ideal": ideal}


# --- the checker --------------------------------------------------------


def volume_ok(value: float, ref: float) -> bool:
    return abs(value - ref) <= max(VOLUME_ABS_TOL, VOLUME_REL_TOL * abs(ref))


def angles_ok(values, ref) -> bool:
    return all(abs(v - r) <= ANGLE_TOL for v, r in zip(values, ref, strict=True))


def bound_ok(value: float, ref: float) -> bool:
    return abs(value - ref) <= BOUND_TOL * (1.0 + abs(ref))
