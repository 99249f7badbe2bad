"""Seeded inputs for the hytet benchmark.

Every valid input is built from four points on the hyperboloid
<v, v> = -1 (signature -+++).  Its edge lengths, its dihedral angles and
its validity therefore follow from coordinates alone, without the fold
formula the program under test uses.  Invalid inputs are valid ones with
a triangle inequality broken on purpose, which again needs no fold formula.

Only the standard library's ``random.Random`` drives the draws, so the
inputs for a seed do not change when numpy or hytet change.  hytet's own
``sample_lengths`` is deliberately not used (see NOTES.md).

A point is kept as its three spatial coordinates, which are exact binary
floats; its time coordinate is sqrt(1 + |x|^2), evaluated in mpmath
wherever a reference value is derived from it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import mpmath as mp

EDGE_KEYS = ("l12", "l13", "l14", "l23", "l24", "l34")
# 0-based vertex pairs in EDGE_KEYS order
EDGE_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

# The edge scale is log-uniform over this range.  Both ends reach the
# short- and long-edge failures listed in ROADMAP item 2 on purpose; the
# benchmark counts them instead of filtering them out.
SCALE_LO = 0.01
SCALE_HI = 15.0
# share of draws whose fourth vertex sits just off the plane of the other
# three, at a hyperbolic height of this fraction of the scale
FLAT_SHARE = 0.25
FLAT_HEIGHT_LO = 1e-5
FLAT_HEIGHT_HI = 1e-2

MP_DPS = 40

MALFORMED_KINDS = ("not_a_number", "missing_edge", "negative", "unknown_edge",
                   "no_equals")


@dataclass(frozen=True)
class Tetra:
    """A valid tetrahedron: its vertices and its float-rounded edges."""

    points: tuple[tuple[float, float, float], ...]
    edges: tuple[float, ...]
    flat: bool


def mdot(u, v):
    """Minkowski inner product, signature (-, +, +, +)."""
    return -u[0] * v[0] + u[1] * v[1] + u[2] * v[2] + u[3] * v[3]


def lift(x) -> list:
    """The hyperboloid point over spatial coordinates x, in mpmath."""
    x = [mp.mpf(c) for c in x]
    return [mp.sqrt(1 + x[0] ** 2 + x[1] ** 2 + x[2] ** 2)] + x


def cross4(a, b, c) -> list:
    """e with e . v = det[v; a; b; c] for every v (Euclidean dot)."""
    rows = (a, b, c)
    out = []
    for mu in range(4):
        m = [[r[k] for k in range(4) if k != mu] for r in rows]
        det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
               - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
               + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
        out.append(-det if mu % 2 else det)
    return out


def edge_lengths(points) -> tuple[float, ...]:
    """The six lengths 2 asinh(sqrt(<u - v, u - v>) / 2), rounded to float."""
    with mp.workdps(MP_DPS):
        p = [lift(x) for x in points]
        out = []
        for i, j in EDGE_PAIRS:
            d = [a - b for a, b in zip(p[i], p[j])]
            out.append(float(2 * mp.asinh(mp.sqrt(mdot(d, d)) / 2)))
    return tuple(out)


def is_solid(edges) -> bool:
    """Whether six lengths bound a non-degenerate tetrahedron, in mpmath.

    The matrix E[i][j] = cosh(lij) of four hyperboloid points in general
    position has a negative determinant, and each 3x3 principal minor (a
    face) is positive exactly when that face is a proper triangle.
    """
    if min(edges) <= 0.0:
        return False
    with mp.workdps(MP_DPS):
        e = [[mp.mpf(1)] * 4 for _ in range(4)]
        for (i, j), v in zip(EDGE_PAIRS, edges):
            e[i][j] = e[j][i] = mp.cosh(mp.mpf(v))
        for k in range(4):
            keep = [r for r in range(4) if r != k]
            if mp.det(mp.matrix([[e[r][c] for c in keep] for r in keep])) <= 0:
                return False
        return mp.det(mp.matrix(e)) < 0


def _random_point(rng: random.Random, radius: float) -> tuple[float, ...]:
    while True:
        d = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(c * c for c in d))
        if norm > 1e-9:
            break
    s = math.sinh(radius)
    return (math.cosh(radius),) + tuple(s * c / norm for c in d)


def _near_plane_point(rng: random.Random, p, height: float):
    """A point at hyperbolic height ``height`` over the plane of p[0..2].

    Its foot lies inside the face triangle (fold angle near 0, so l34 sits
    near its lower fold bound) or, half the time, across the hinge 1-2
    from vertex 3 (fold angle near pi, l34 near its upper bound).
    """
    w = [rng.expovariate(1.0) for _ in range(3)]
    if rng.random() < 0.5:
        w[2] = -0.5 * w[2]
    q = [sum(wi * pi[k] for wi, pi in zip(w, p)) for k in range(4)]
    qq = -mdot(q, q)
    if qq <= 0.0 or q[0] <= 0.0:
        return None
    q = [c / math.sqrt(qq) for c in q]
    e = cross4(p[0], p[1], p[2])
    n = [-e[0], e[1], e[2], e[3]]  # Minkowski-orthogonal to p[0..2]
    nn = mdot(n, n)
    if nn <= 0.0:
        return None
    n = [c / math.sqrt(nn) for c in n]
    return tuple(math.cosh(height) * a + math.sinh(height) * b for a, b in zip(q, n))


def draw_tetra(rng: random.Random, u: float, flat: bool,
               lo: float = SCALE_LO, hi: float = SCALE_HI) -> Tetra:
    """One valid tetrahedron at quantile u in [0, 1) of the scale range."""
    scale = lo * (hi / lo) ** u
    while True:
        p = [_random_point(rng, 0.5 * scale * rng.uniform(0.6, 1.0)) for _ in range(4)]
        if flat:
            height = scale * FLAT_HEIGHT_LO * (FLAT_HEIGHT_HI / FLAT_HEIGHT_LO) ** rng.random()
            p[3] = _near_plane_point(rng, p, rng.choice((-1.0, 1.0)) * height)
            if p[3] is None:
                continue
        points = tuple(tuple(v[1:]) for v in p)
        edges = edge_lengths(points)
        if is_solid(edges):
            return Tetra(points=points, edges=edges, flat=flat)


def draw_tetras(rng: random.Random, n: int) -> list[Tetra]:
    """n valid tetrahedra, stratified over the scale range and flat share.

    Stratifying keeps the share of short, long and near-flat draws the
    same for every seed, so seeds differ in detail but not in mix.
    """
    strata = list(range(n))
    rng.shuffle(strata)
    n_flat = round(n * FLAT_SHARE)
    return [draw_tetra(rng, (s + rng.random()) / n, k < n_flat)
            for k, s in enumerate(strata)]


def break_l34(rng: random.Random, edges) -> tuple[float, ...]:
    """l34 above l13 + l14: face 1-3-4 cannot close."""
    out = list(edges)
    out[5] = (edges[1] + edges[2]) * (1.0 + rng.uniform(0.05, 0.5))
    return tuple(out)


def break_face(rng: random.Random, edges) -> tuple[float, ...]:
    """l23 above l12 + l13: face 1-2-3 cannot close."""
    out = list(edges)
    out[3] = (edges[0] + edges[1]) * (1.0 + rng.uniform(0.05, 0.5))
    return tuple(out)


def edges_arg(edges) -> str:
    """The --edges form, each length at full precision."""
    return ",".join(f"{k}={v!r}" for k, v in zip(EDGE_KEYS, edges))


def malformed_arg(rng: random.Random, edges, kind: str) -> str:
    """An --edges string the CLI must reject as malformed input."""
    parts = [f"{k}={v!r}" for k, v in zip(EDGE_KEYS, edges)]
    i = rng.randrange(6)
    if kind == "not_a_number":
        parts[i] = f"{EDGE_KEYS[i]}=x{edges[i]!r}"
    elif kind == "missing_edge":
        del parts[i]
    elif kind == "negative":
        parts[i] = f"{EDGE_KEYS[i]}={-edges[i]!r}"
    elif kind == "unknown_edge":
        parts[i] = f"l{i + 5}9={edges[i]!r}"
    elif kind == "no_equals":
        parts[i] = f"{EDGE_KEYS[i]}:{edges[i]!r}"
    else:
        raise ValueError(f"unknown malformed kind {kind!r}")
    return ",".join(parts)
