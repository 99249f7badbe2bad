"""Independent geometric verification routes.

Everything in this module deliberately avoids the cofactor machinery used
by the primary computations, so agreement between the two sides is a real
check and not a tautology:

* ``embed_vertices`` realizes the edge matrix as four points on the
  hyperboloid sheet <v, v> = -1 in Minkowski space (signature -+++), by a
  Minkowski analogue of Cholesky factorization.  The vertex Gram matrix of
  the embedding equals -E by construction, and round-tripping distances
  through arccosh(-<vi, vj>) recovers the input lengths.

* ``dihedral_angles_geometric`` intersects the tetrahedron with a small
  sphere about a vertex: the face angles at that vertex are the sides of a
  spherical triangle whose angles are dihedral angles, so one application
  of the hyperbolic law of cosines (for the face angles) and one of the
  spherical law of cosines (for the triangle's angle) produce each dihedral
  angle from coordinates alone.

* ``volume_monte_carlo`` maps the vertices to the Klein ball, where
  geodesics are straight so the solid is an ordinary Euclidean tetrahedron,
  samples it uniformly, and averages the Klein volume density
  (1 - |x|^2)^(-2).  A point with barycentric weights w (sum s) has
  1 - |x|^2 = w^T M w / s^2, where M_ij = 1 - k_i . k_j =
  -<v_i, v_j> / (x0_i x0_j) = cosh(l_ij) / (x0_i x0_j) comes from the
  embedding's own inner products; every entry is positive, so the form has
  no cancellation.  Sampling is counter-based: sample i always consumes
  block i of a Philox stream keyed by the seed, and samples are summed in
  fixed 4096-sample blocks, drawn ``_CHUNK_BLOCKS`` blocks to a numpy pass,
  so the estimate depends only on (seed, samples), not on how the blocks
  split into runs across CPUs or into passes.

* ``euclidean_volume_cm`` and ``lobachevsky`` (half the Clausen function
  Cl2(2x), :func:`hytet.volume.clausen`) supply the flat-limit and
  ideal-limit reference values used to sandwich the hyperbolic volume.

The embedding is a tuple of four row tuples, like core's matrices, and both
Euclidean volumes come from core's 3x3 determinant.  numpy is imported only
by the Monte Carlo estimator, which draws the samples.
"""

from __future__ import annotations

import math
import operator
import os
import threading
from collections import namedtuple

from .angles import DihedralAngles
from .config import MC_SAMPLES_MAX, PIVOT_TOL, SQRT_CLAMP
from .core import EDGE_PAIRS, EdgeLengths, EdgeMatrix, det3, opposite_pair
from .errors import DegenerateError, DomainError, NotATetrahedronError, shown
from .volume import VolumeResult, clausen

__all__ = [
    "VertexEmbedding",
    "MonteCarloConfig",
    "embed_vertices",
    "dihedral_angles_geometric",
    "volume_monte_carlo",
    "euclidean_volume_cm",
    "lobachevsky",
]

# samples are drawn and summed in fixed blocks of this many, so the sums
# associate identically for given (seed, samples); each (block, 4) is 128 KB
_REDUCE_BLOCK = 4096
# a run of blocks gets at least this many, or its thread costs more than it saves
_MIN_RUN_BLOCKS = 8
# each numpy call works on this many whole blocks at once: 80 bytes of buffers
# per sample, 1.3 MB per run
_CHUNK_BLOCKS = 4


def _mdot(u, v) -> float:
    return -u[0] * v[0] + u[1] * v[1] + u[2] * v[2] + u[3] * v[3]


class VertexEmbedding(namedtuple("VertexEmbedding", ("vertices", "gram_resid"))):
    """Four hyperboloid points realizing an edge matrix.

    ``vertices`` holds one Minkowski 4-vector per row tuple, first coordinate
    positive, <vi, vi> = -1 and <vi, vj> = -cosh(lij).  ``gram_resid`` is
    the largest deviation of those inner products from their targets.
    """

    __slots__ = ()


class MonteCarloConfig(namedtuple("MonteCarloConfig", ("seed", "samples"))):
    """Sampling parameters for the Klein-model volume estimator.

    Identical (seed, samples) give bit-identical results.  The seed is an
    integer in [0, 2**64) (not a bool).  Samples are an integer from 2 (one
    sample has no spread: its standard error of 0 would pass any check) to
    ``MC_SAMPLES_MAX``, which bounds the run time.
    """

    __slots__ = ()

    def __new__(cls, seed, samples):
        if (isinstance(seed, bool) or not hasattr(seed, "__index__")
                or not 0 <= operator.index(seed) < 2 ** 64):
            raise DomainError(f"seed must be an integer in [0, 2**64), got {shown(seed)}")
        if not hasattr(samples, "__index__") or not 2 <= operator.index(samples) <= MC_SAMPLES_MAX:
            raise DomainError(
                f"samples must be an integer in [2, {MC_SAMPLES_MAX}], got {shown(samples)}")
        return tuple.__new__(cls, (seed, samples))

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # _replace checks, too


def embed_vertices(E: EdgeMatrix) -> VertexEmbedding:
    """Realize an edge matrix as vertices on the hyperboloid.

    Vertex 1 is pinned at (1, 0, 0, 0) and each later vertex is solved from
    its inner products with the previous ones, consuming one new spatial
    coordinate per vertex.  A pivot below the rank tolerance means the
    configuration is flat (or has coinciding vertices) and the embedding
    refuses with the achieved rank; a negative pivot beyond tolerance means
    the matrix is not realizable on the hyperboloid at all.
    """
    a = E.e
    scale = max(map(max, a))

    def pivot(value: float, rank: int) -> float:
        if value <= PIVOT_TOL * scale * scale:
            if value < -SQRT_CLAMP * scale * scale:
                raise NotATetrahedronError(
                    "edge matrix is not realizable: a hyperboloid pivot is "
                    f"negative ({value!r})"
                )
            raise DegenerateError(f"flat configuration: embedding rank {rank} of 4")
        return math.sqrt(value)

    sh12 = pivot(a[0][1] ** 2 - 1.0, 1)

    p = a[0][2]
    q = (a[0][1] * p - a[1][2]) / sh12
    r = pivot(p * p - q * q - 1.0, 2)

    s = a[0][3]
    u = (a[0][1] * s - a[1][3]) / sh12
    w = (p * s - q * u - a[2][3]) / r
    z = pivot(s * s - u * u - w * w - 1.0, 3)
    v = ((1.0, 0.0, 0.0, 0.0), (a[0][1], sh12, 0.0, 0.0), (p, q, r, 0.0), (s, u, w, z))

    # the largest gap of <v_i, v_j> from its target -E_ij (E's diagonal is 1)
    resid = max(abs(_mdot(v[i], v[j]) + a[i][j]) for i in range(4) for j in range(i, 4))
    return VertexEmbedding(vertices=v, gram_resid=resid)


def dihedral_angles_geometric(emb: VertexEmbedding) -> DihedralAngles:
    """Dihedral angles from coordinates via the vertex-sphere construction.

    For the edge joining vertices i and j, work at vertex j: the face
    angles between the edges leaving j come from the hyperbolic law of
    cosines on the faces, and the spherical law of cosines on the vertex
    figure turns them into the dihedral angle along the edge toward i.
    cosh l_ij is -<v_i, v_j> and a face angle stays a clamped cosine, so
    acos is taken only for the six dihedral angles.  Never consults
    cofactors: a genuinely independent check of the algebraic angle route.
    """
    ch = [[max(1.0, -_mdot(p, q)) for q in emb.vertices] for p in emb.vertices]
    sh = [[math.sqrt((c - 1.0) * (c + 1.0)) for c in row] for row in ch]

    def face_angle(x: int, v: int, y: int) -> tuple[float, float]:
        denom = sh[v][x] * sh[v][y]
        if denom <= PIVOT_TOL:
            raise DegenerateError("coinciding vertices in the embedding")
        c = min(1.0, max(-1.0, (ch[v][x] * ch[v][y] - ch[x][y]) / denom))
        return c, math.sqrt(1.0 - c * c)

    values = {}
    for (i, j) in EDGE_PAIRS:
        k, l = opposite_pair(i, j)
        cos_kl = face_angle(k, j, l)[0]
        cos_ki, sin_ki = face_angle(k, j, i)
        cos_li, sin_li = face_angle(l, j, i)
        denom = sin_ki * sin_li
        if denom <= PIVOT_TOL:
            raise DegenerateError("flat vertex figure in the embedding")
        c = (cos_kl - cos_ki * cos_li) / denom
        values[f"th{i + 1}{j + 1}"] = math.acos(min(1.0, max(-1.0, c)))
    return DihedralAngles(**values)


def volume_monte_carlo(emb: VertexEmbedding, cfg: MonteCarloConfig) -> VolumeResult:
    """Monte Carlo volume in the Klein model.

    Uniform points in the Euclidean image tetrahedron are drawn as four
    exponential weights w per sample (one Philox block of four uniforms),
    normalized by s = sum(w).  With Klein vertices k_i = X_i / x0_i the
    point's density is (1 - |x|^2)^(-2) = (s^2 / w^T M w)^2, where
    M_ij = 1 - k_i . k_j = -<v_i, v_j> / (x0_i x0_j) is built once from the
    embedding's Minkowski inner products.  M is entrywise positive, so
    w^T M w sums positive terms and loses no digits near the ideal
    boundary, where 1 - |x|^2 formed from |x|^2 would.  The hyperbolic
    volume is the Euclidean volume times the mean density; the returned
    ``error_estimate`` is one standard error.  The blocks split into runs of
    8 or more, one per usable CPU, each on its own thread, Philox counter and
    buffers, which it fills ``_CHUNK_BLOCKS`` blocks to a numpy call.
    Block sums, and squares about the block means, merge as in Chan, Golub and
    LeVeque (Amer. Statist. 37, 1983), bit for bit as one run of one block a call.
    """
    import numpy as np

    k = [[x / row[0] for x in row[1:]] for row in emb.vertices]
    vol_eucl = abs(det3([[x - x1 for x, x1 in zip(row, k[0])] for row in k[1:]])) / 6.0
    v = np.array(emb.vertices)
    # Minkowski products in signature (-, +, +, +)
    m = -(v @ np.diag([-1.0, 1.0, 1.0, 1.0]) @ v.T) / np.outer(v[:, 0], v[:, 0])

    n = operator.index(cfg.samples)
    blocks = -(-n // _REDUCE_BLOCK)  # block 0 too: in one run per usable CPU
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    runs = max(1, min(cpus or 1, blocks // _MIN_RUN_BLOCKS))
    bounds = [blocks * r // runs for r in range(runs + 1)]
    parts: list = [None] * runs

    def run(r: int) -> None:
        try:
            parts[r] = _block_stats(cfg.seed, m, n, bounds[r], bounds[r + 1])
        except BaseException as exc:  # raised again below, never dropped
            parts[r] = exc

    threads = [threading.Thread(target=run, args=(r,)) for r in range(1, runs)]
    try:
        for t in threads:
            t.start()
        run(0)
    finally:
        for t in threads:  # every started thread is joined: none outlives the call
            if t.ident is not None:
                t.join()
    stats = []
    for part in parts:
        if isinstance(part, BaseException):
            raise part
        stats += part
    mean = float(np.sum(np.asarray([total for total, *_ in stats]))) / n
    # per block, sum (x - mean)^2 = sumsq + d (count d + 2 resid), d = total / count - mean
    m2 = math.fsum(sumsq + (total / count - mean) * ((total / count - mean) * count + 2.0 * resid)
                   for total, count, resid, sumsq in stats)
    return VolumeResult(vol_eucl * mean, vol_eucl * math.sqrt(m2 / n / n), n, "monte_carlo",
                        {"euclidean_volume": vol_eucl, "seed": cfg.seed})


def _block_stats(seed, m, n, first, stop):
    """(sum, count, and the sum and sum of squares of the deviations from
    sum / count) per block in [first, stop), on a generator and buffers of its own.
    Each numpy call takes up to ``_CHUNK_BLOCKS`` whole blocks as the rows of one
    array, and so hands the GIL to another run less often; a partial block runs alone."""
    import numpy as np

    gen = np.random.Generator(np.random.Philox(key=seed, counter=[first * _REDUCE_BLOCK, 0, 0, 0]))
    size = min(_CHUNK_BLOCKS, stop - first) * _REDUCE_BLOCK
    w_buf, wm_buf = np.empty((2, size, 4))  # reused across passes
    s_buf, q_buf = np.empty((2, size))
    ones = np.ones(4)
    stats = []
    while first < stop:
        k = min(_CHUNK_BLOCKS, stop - first, n // _REDUCE_BLOCK - first) or 1  # partial: alone
        count = min(k * _REDUCE_BLOCK, n - first * _REDUCE_BLOCK)
        w, wm, s, q = w_buf[:count], wm_buf[:count], s_buf[:count], q_buf[:count]
        # w = log1p(-u) is minus the exponential weights; the sign cancels below
        np.log1p(np.negative(gen.random(out=w), out=w), out=w)
        np.matmul(w, ones, out=s)
        np.matmul(np.multiply(np.matmul(w, m, out=wm), w, out=wm), ones, out=q)  # w^T M w
        density = np.square(np.divide(np.square(s, out=s), q, out=s), out=s)  # (s^2/q)^2
        rows = density.reshape(k, -1)  # one row per block
        totals = rows.sum(axis=1)
        rows -= (totals / rows.shape[1])[:, None]
        stats += zip(totals.tolist(), [rows.shape[1]] * k, rows.sum(axis=1).tolist(),
                     np.matmul(rows[:, None], rows[:, :, None]).ravel().tolist())  # row @ row
        first += k
    return stats


def euclidean_volume_cm(lengths: EdgeLengths) -> float:
    """Euclidean tetrahedron volume from the squared distances.

    The edge vectors leaving vertex 1 have the Gram matrix
    G_ij = (d_1i^2 + d_1j^2 - d_ij^2) / 2, and the Cayley-Menger determinant
    is 288 V^2 = 8 det G = det 2G, so V = sqrt(det G) / 6.  A negative
    determinant (beyond rounding) means the lengths are not
    Euclidean-realizable.
    """
    lm = lengths.length_matrix()
    d2 = [[x * x for x in row] for row in lm]
    cm = det3([[d2[0][i] + d2[0][j] - d2[i][j] for j in range(1, 4)] for i in range(1, 4)])
    scale = max(map(max, lm)) ** 6 + 1.0
    if cm < 0.0:
        if cm < -SQRT_CLAMP * scale:
            raise DomainError(
                f"lengths are not Euclidean-realizable (determinant {cm!r})"
            )
        cm = 0.0
    return math.sqrt(cm / 288.0)


def lobachevsky(x: float) -> float:
    """The log-sine integral L(x) = -integral 0..x of log|2 sin u| du.

    Evaluated as Cl2(2x) / 2.  The absolute error is at most 1.7e-15 on
    [-10, 10] against mpmath; beyond that, reducing by the rounded 2 pi
    adds 1.2e-16 |log|2 sin x|| per period (1.4e-11 at x = 1e6).
    """
    return 0.5 * clausen(2.0 * x)
