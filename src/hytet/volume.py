"""Volume of a compact hyperbolic tetrahedron.

Three routes are implemented.

Edge-length integral (the primary route).  Fix five lengths and let the
sixth, t = l34, run from its flat lower bound l1 upward.  The derivative of
the volume with respect to t follows from the variational identity
dV = -(1/2) sum lij d(theta_ij) once every angle derivative is expressed
through cofactors of the edge matrix, giving

    dV/dt = -(1/2) (t * Omega + sinh(t) * B) / sqrt(-Delta),

    Omega = c14 (a23 - a24 x) / c11 + c24 (a13 - a14 x) / c22,
    B     = (l24 sh24 c14 + l23 sh23 c13) / c11
          + (l13 sh13 c23 + l14 sh14 c24) / c22 + l12 sh12,

where x = cosh t, a_ij = cosh l_ij, sh_ij = sinh l_ij, c_ij are the
cofactors of the edge matrix at l34 = t and Delta its determinant.  The
volume is the integral of this from l1 to the actual l34.  Omega is the
stable form of the raw cofactor combination
c14 (c11 c23 - c12 c13) / c11 + c24 (c13 c22 - c12 c23) / c22 divided by
Delta: both parenthesized combinations are determinant multiples,

    c11 c23 - c12 c13 = -Delta (a23 - a24 x),
    c13 c22 - c12 c23 = -Delta (a13 - a14 x),

and dividing them out symbolically removes a catastrophic cancellation
near the flat endpoints where Delta -> 0.

Delta itself is evaluated in factored form.  As a function of x it is the
upward parabola Delta(x) = s (x - x_lo)(x - x_hi) with s = sinh^2(l12),
whose roots are the flat configurations:

    cosh(l1) = x_lo = (-sqrt(c33 c44) - q0) / s,
    cosh(l2) = x_hi = (+sqrt(c33 c44) - q0) / s,

where c33, c44 are the (t-independent) diagonal cofactors at vertices 3, 4
and q0 is the constant term of the linear function c34(x) = s x + q0.  The
factored form keeps the integrable 1/sqrt singularity of the integrand
located exactly at the integration endpoint, which is what the
double-exponential quadrature needs; near the endpoints the factors
cosh(t) - x_lo and x_hi - cosh(t) are further rewritten as products of
sinh of half-sums and half-differences to avoid subtractive cancellation.

Angle integral (cross-check route).  With five dihedral angles fixed and
the angle along edge 3-4 as the variable t, the volume satisfies
dV/d(theta_34) = -l34 / 2, and the closed antiderivative is

    V = (1/4) integral from t0 down to theta_34 of
        log[ (c(t) - sqrt(-det F(t)) sin t) / (c(t) + sqrt(-det F(t)) sin t) ] dt

where F(t) is the Gram matrix of the outward face normals (entry (i, j) is
-cos of the angle along the edge shared by faces i and j, so the variable
angle sits in the (1, 2) slot), c(t) is its (3, 4) cofactor, and t0 is the
flat root of det F(t) = 0 lying above theta_34: hyperbolic dihedral angles
are smaller than their flat counterparts, so opening the hinge toward t0
deflates the tetrahedron to zero volume.  With y = cos t, det F and c(t)
are quadratics in y (the variable entry fills the (1, 2) and (2, 1) slots,
and the (3, 4) minor keeps both), so t0 has a closed form and each
quadrature node costs two Horner evaluations.

Regular closed form.  Six lengths a give six angles theta with
cos(theta) = 1 / (2 + sech a), and the Murakami-Yano formula (Murakami &
Yano, Comm. Anal. Geom. 13, 2005) is V = (1/4) [S(phi1) - S(phi2)],

    S(phi) = Cl2(phi) + 3 Cl2(4 theta + phi) - 4 Cl2(3 theta + pi + phi),

at the arguments phi1 < phi2 of the roots of (1 - z)(1 - w z)^3 = (1 - v z)^4,
w = exp(4 i theta), v = -exp(3 i theta): a quadratic once its z^0 and z^4
terms cancel and z is divided out.  S is stationary at the roots, so their
rounding moves V only to second order.  The README's regular form of the
paper's edge integral is checked against this value by the tests.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .angles import DihedralAngles, gram_from_angles
from .config import DEFAULT_TOL
from .core import EDGE_PAIRS, EdgeLengths, cofactor4, det4
from .errors import (
    DomainError,
    ExistenceError,
    InconsistentAnglesError,
    NotATetrahedronError,
    NumericalError,
)
# l34_bounds is unused here, but hytetbench's tracer patches it
from .existence import ExistenceReport, exists, l34_bounds  # noqa: F401
from . import quadrature

__all__ = [
    "QuadratureConfig",
    "VolumeResult",
    "clausen",
    "volume_derivative",
    "volume_edges",
    "volume_profile",
    "volume_regular",
    "volume_sforza",
    "schlafli_residual",
]


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and depth limit for the volume quadratures."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_levels: int = 12

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise DomainError("quadrature tolerances must be positive")
        if self.max_levels < 3:
            raise DomainError("max_levels must be at least 3")


DEFAULT_QUADRATURE = QuadratureConfig()

# used where the result feeds a finite-difference or cross-route comparison
TIGHT_QUADRATURE = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-13, max_levels=14)


@dataclass(frozen=True)
class VolumeResult:
    """A volume value with its provenance and health indicators.

    ``route`` is one of ``edge_integral``, ``sforza``, ``regular``,
    ``monte_carlo``.  ``error_estimate`` is the quadrature's last-refinement
    difference, one Monte Carlo standard error, or the regular rounding
    bound.  Tiny negative quadrature results (within abs_tol of zero) are
    clamped to zero and flagged in ``diagnostics["clamped_negative"]``.
    """

    value: float
    error_estimate: float
    evaluations: int
    route: str
    diagnostics: dict = field(default_factory=dict)


def _cl2_coefficients(terms: int) -> tuple[float, ...]:
    """|B_2k| / (2k (2k+1)!) for k = terms, ..., 1 (Horner order), from the
    integer tangent numbers T_k = 1, 2, 16, 272, ... and the exact identity
    |B_2k| = 2k T_k / (4^k (4^k - 1)) (Brent & Harvey, 2011)."""
    t = [0] + [math.factorial(k - 1) for k in range(1, terms + 1)]
    for k in range(2, terms + 1):
        for j in range(k, terms + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return tuple(t[k] / (4**k * (4**k - 1) * math.factorial(2 * k + 1))
                 for k in range(terms, 0, -1))


_CL2_COEFFS = _cl2_coefficients(20)


def clausen(t: float) -> float:
    """Clausen function Cl2(t) = t - t log|t| + sum_k |B_2k| t^(2k+1) /
    (2k (2k+1)!) on [-pi, pi] (Lewin, Polylogarithms and Associated
    Functions, 1981, ch. 4); the tail after 20 terms is at most 1.1e-15,
    the error on [-pi, 10.5] at most 2.1e-15 against mpmath."""
    if not math.isfinite(t):
        raise DomainError(f"argument must be finite, got {t!r}")
    t = math.remainder(t, 2.0 * math.pi)
    if t == 0.0:
        return 0.0
    s, acc = t * t, 0.0
    for c in _CL2_COEFFS:
        acc = acc * s + c
    return t - t * math.log(abs(t)) + t * s * acc


class _EdgeIntegrand:
    """Precomputed data for the edge-length volume integrand.

    Everything that does not depend on the integration variable is fixed at
    construction: hyperbolic functions of the five fixed lengths, the
    t-independent cofactors c33 and c44, the linear coefficients of c34(x),
    and the factored roots x_lo, x_hi of Delta(x).
    """

    def __init__(self, lengths: EdgeLengths):
        ch = math.cosh
        self.l12, self.l13, self.l14 = lengths.l12, lengths.l13, lengths.l14
        self.l23, self.l24 = lengths.l23, lengths.l24
        a12 = self.a12 = ch(self.l12)
        a13 = self.a13 = ch(self.l13)
        a14 = self.a14 = ch(self.l14)
        a23 = self.a23 = ch(self.l23)
        a24 = self.a24 = ch(self.l24)
        self.sh12 = math.sinh(self.l12)
        self.sh13 = math.sinh(self.l13)
        self.sh14 = math.sinh(self.l14)
        self.sh23 = math.sinh(self.l23)
        self.sh24 = math.sinh(self.l24)

        # diagonal cofactors at vertices 3 and 4; positive iff the face
        # triangles 1-2-4 and 1-2-3 are solid
        self.c33 = 1.0 + 2.0 * a12 * a14 * a24 - a12 * a12 - a14 * a14 - a24 * a24
        self.c44 = 1.0 + 2.0 * a12 * a13 * a23 - a12 * a12 - a13 * a13 - a23 * a23
        if self.c33 < 0.0 or self.c44 < 0.0:
            raise NotATetrahedronError(
                "a face triangle through the hinge edge is not realizable"
            )
        # c34 as a function of x = cosh(t): slope and constant term
        self.slope = a12 * a12 - 1.0
        if self.slope <= 0.0:
            raise DomainError("volume integrand needs a positive hinge length l12")
        self.q0 = a13 * a14 + a23 * a24 - a12 * (a14 * a23 + a13 * a24)
        root = math.sqrt(self.c33 * self.c44)
        self.x_lo = (-root - self.q0) / self.slope
        self.x_hi = (root - self.q0) / self.slope
        self.l1 = math.acosh(max(self.x_lo, 1.0))
        self.l2 = math.acosh(max(self.x_hi, 1.0))
        # Every t-dependent cofactor is a polynomial in x = cosh(t) of
        # degree at most two.  They are stored recentered at x = 1, i.e.
        # as polynomials in xm1 = x - 1, with exactly computed
        # coefficients.  xm1 itself is evaluated as 2 sinh^2(t/2), so the
        # whole integrand stays accurate near x = 1, where isosceles
        # configurations make several cofactors vanish simultaneously and
        # the direct polynomials would lose every significant digit.
        cross = a13 * a24 - a14 * a23
        d23 = a23 - a24
        d13 = a13 - a14
        self.c11_at1 = -d23 * d23
        self.c11_d1 = 2.0 * (a23 * a24 - 1.0)
        self.c22_at1 = -d13 * d13
        self.c22_d1 = 2.0 * (a13 * a14 - 1.0)
        self.c13_at1 = a12 * d23 - d13 + a24 * cross
        self.c13_d = a14 - a12 * a24
        self.c14_at1 = -(a12 * d23 - d13 + a23 * cross)
        self.c14_d = a13 - a12 * a23
        self.c23_at1 = -(d23 - a12 * d13 + a14 * cross)
        self.c23_d = a24 - a12 * a14
        self.c24_at1 = d23 - a12 * d13 + a13 * cross
        self.c24_d = a23 - a12 * a13
        self.om1_at1 = d23
        self.om2_at1 = d13
        # distances from the current integration limits to the flat roots;
        # set by integral
        self.pad_lo = 0.0
        self.pad_hi = 0.0
        self.guarded_nodes = 0

    def integral(self, lower: float, upper: float, cfg: QuadratureConfig):
        """Quadrature of dV/dt over [lower, upper] within [l1, l2]."""
        self.pad_lo = lower - self.l1
        self.pad_hi = self.l2 - upper
        return quadrature.integrate(
            self.quadrature_node, lower, upper,
            abs_tol=cfg.abs_tol, rel_tol=cfg.rel_tol, max_levels=cfg.max_levels,
        )

    def neg_delta_at(self, x: float) -> float:
        return -self.slope * (x - self.x_lo) * (x - self.x_hi)

    def evaluate(self, t: float, neg_delta: float) -> float:
        """dV/dt at parameter t given a precomputed -Delta > 0."""
        xm1 = 2.0 * math.sinh(0.5 * t) ** 2
        a = self
        c11 = a.c11_at1 + xm1 * (a.c11_d1 - xm1)
        c22 = a.c22_at1 + xm1 * (a.c22_d1 - xm1)
        if c11 <= 0.0 or c22 <= 0.0:
            self.guarded_nodes += 1
            return 0.0
        c13 = a.c13_at1 + a.c13_d * xm1
        c14 = a.c14_at1 + a.c14_d * xm1
        c23 = a.c23_at1 + a.c23_d * xm1
        c24 = a.c24_at1 + a.c24_d * xm1
        omega = (c14 * (a.om1_at1 - a.a24 * xm1) / c11
                 + c24 * (a.om2_at1 - a.a14 * xm1) / c22)
        bsum = ((a.l24 * a.sh24 * c14 + a.l23 * a.sh23 * c13) / c11
                + (a.l13 * a.sh13 * c23 + a.l14 * a.sh14 * c24) / c22
                + a.l12 * a.sh12)
        return -0.5 * (t * omega + math.sinh(t) * bsum) / math.sqrt(neg_delta)

    def quadrature_node(self, t: float, dist_lo: float, dist_hi: float) -> float:
        """Integrand for the quadrature; distances refer to the bound interval.

        -Delta = slope * (cosh t - x_lo) * (x_hi - cosh t); each cosh
        difference is computed as 2 sinh(mean) sinh(half-gap) from the
        node's exact distance to the flat root, which stays fully accurate
        arbitrarily close to the roots where direct subtraction would lose
        every significant digit.
        """
        gap_lo = self.pad_lo + dist_lo
        gap_hi = self.pad_hi + dist_hi
        f_lo = 2.0 * math.sinh(0.5 * (t + self.l1)) * math.sinh(0.5 * gap_lo)
        f_hi = 2.0 * math.sinh(0.5 * (self.l2 + t)) * math.sinh(0.5 * gap_hi)
        neg_delta = self.slope * f_lo * f_hi
        if neg_delta <= 0.0:
            self.guarded_nodes += 1
            return 0.0
        return self.evaluate(t, neg_delta)

    def derivative(self, t: float) -> float:
        """dV/dt at an interior parameter value, with domain checks."""
        x = math.cosh(t)
        neg_delta = self.neg_delta_at(x)
        if neg_delta <= 0.0:
            raise DomainError(
                f"t = {t!r} lies outside the open admissible interval "
                f"({self.l1!r}, {self.l2!r}); the edge matrix is not "
                "negative-determinant there"
            )
        before = self.guarded_nodes
        value = self.evaluate(t, neg_delta)
        if self.guarded_nodes != before:
            raise NotATetrahedronError(
                "a vertex cofactor is not positive at this parameter value"
            )
        return value


def _edge_integrand(lengths: EdgeLengths | ExistenceReport):
    """Existence report and integrand of lengths that bound a tetrahedron.

    Takes the lengths or their ``exists`` report, which then stands in for
    a second test.  Raises ExistenceError (with the report attached) when
    they do not bound one, and NumericalError when the integrand's factored
    roots disagree with the closed-form fold bounds.
    """
    report = lengths if isinstance(lengths, ExistenceReport) else exists(lengths)
    if not report.exists:
        raise ExistenceError(
            "no compact hyperbolic tetrahedron has these edge lengths: "
            + ", ".join(report.failed),
            report=report,
        )
    integ = _EdgeIntegrand(report.lengths)
    bounds = report.bounds
    limit = DEFAULT_TOL.bounds_match * (1.0 + abs(bounds.C) + bounds.S)
    if (abs(integ.x_lo - (bounds.C - bounds.S)) > limit
            or abs(integ.x_hi - (bounds.C + bounds.S)) > limit):
        raise NumericalError(
            "the two expressions for the flat-fold bounds disagree: "
            f"factored ({integ.x_lo!r}, {integ.x_hi!r}) vs closed form "
            f"({bounds.C - bounds.S!r}, {bounds.C + bounds.S!r})"
        )
    return report, integ


def volume_derivative(lengths: EdgeLengths, t: float) -> float:
    """Derivative of the volume with respect to the sixth edge length.

    ``lengths`` provides the five fixed lengths (its l34 field is ignored);
    ``t`` must lie strictly inside the admissible interval (l1, l2).
    """
    if not math.isfinite(t) or t < 0:
        raise DomainError(f"parameter t must be finite and nonnegative, got {t!r}")
    return _EdgeIntegrand(lengths).derivative(t)


def _result_from_quadrature(
    outcome: quadrature.QuadratureOutcome,
    route: str,
    cfg: QuadratureConfig,
    diagnostics: dict,
) -> VolumeResult:
    value = outcome.value
    clamped = False
    if value < 0.0:
        if value < -max(cfg.abs_tol, 10.0 * outcome.error):
            raise NumericalError(
                f"volume quadrature returned {value!r}, negative beyond tolerance"
            )
        value = 0.0
        clamped = True
    diagnostics["clamped_negative"] = clamped
    return VolumeResult(
        value=value,
        error_estimate=outcome.error,
        evaluations=outcome.evaluations,
        route=route,
        diagnostics=diagnostics,
    )


def volume_edges(
    lengths: EdgeLengths | ExistenceReport,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> VolumeResult:
    """Volume by the edge-length integral from the flat bound l1 to l34.

    ``lengths`` may be the ``exists`` report of the lengths, which spares
    a second existence test.  Raises ExistenceError (with the report
    attached) when the lengths do not satisfy the existence conditions.
    Inputs on the degenerate boundary return an exact zero for l34 at the
    lower bound, and integrate normally otherwise (the volume also vanishes
    at the upper bound).
    """
    report, integ = _edge_integrand(lengths)
    lengths = report.lengths

    diagnostics = {
        "l1": integ.l1,
        "l2": integ.l2,
        "delta_at_l34": -integ.neg_delta_at(math.cosh(lengths.l34)),
        "degenerate": report.degenerate,
    }
    if lengths.l34 <= integ.l1 + DEFAULT_TOL.boundary * (1.0 + integ.l1):
        diagnostics["guarded_nodes"] = 0
        return VolumeResult(0.0, 0.0, 0, "edge_integral", diagnostics)

    outcome = integ.integral(integ.l1, min(lengths.l34, integ.l2), cfg)
    diagnostics["guarded_nodes"] = integ.guarded_nodes
    return _result_from_quadrature(outcome, "edge_integral", cfg, diagnostics)


def volume_profile(
    lengths: EdgeLengths | ExistenceReport,
    samples: int,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> list[tuple[float, float, float]]:
    """Rows (t, dV/dt, V) on ``samples`` equally spaced values of l34.

    The grid runs between the integrand's own flat roots l1 and l2, where V
    vanishes and dV/dt is reported as +inf and -inf; V sums one quadrature
    per segment.  ``lengths`` may be their ``exists`` report; l34 takes
    part only in the existence check.
    """
    _, integ = _edge_integrand(lengths)
    if samples < 2:
        raise DomainError(f"a volume profile needs at least 2 samples, got {samples!r}")
    l1, l2 = integ.l1, integ.l2
    step = (l2 - l1) / (samples - 1)
    rows = [(l1, math.inf, 0.0)]
    for k in range(1, samples):
        lower, _, volume = rows[-1]
        last = k == samples - 1
        t = l2 if last else l1 + k * step
        volume += integ.integral(lower, t, cfg).value
        rows.append((t, -math.inf if last else integ.derivative(t), volume))
    return rows


# volume_regular's bound is _REGULAR_ROUNDING for its Clausen calls, of total
# weight 16 (one nears its log singularity at long edges), plus Schlafli's
# |dV/dtheta| = 3a times _THETA_ROUNDING; past _LONG_EDGE, e^-a is below the
# rounding of theta.  Edges whose bound exceeds _REGULAR_FLOOR of V are refused.
_REGULAR_ROUNDING, _THETA_ROUNDING = 2e-14, 4.5e-16
_LONG_EDGE, _REGULAR_FLOOR = 40.0, 1e-6


def volume_regular(a: float) -> VolumeResult:
    """Volume of the regular tetrahedron with all edges equal to a.

    The closed form of the module docstring, kept signed.  Its
    ``error_estimate`` is an absolute rounding bound (against mpmath on
    3,700 edges in [1e-4, 1000] the error reached 0.69 of it); edges below
    about 5.5e-3, where it exceeds 1e-6 of the value, raise DomainError.
    ``diagnostics`` adds the roots' distance from the unit circle.
    """
    if not math.isfinite(a) or a < 0:
        raise DomainError(f"regular edge length must be finite and nonnegative, got {a!r}")
    if a == 0.0:
        return VolumeResult(0.0, 0.0, 0, "regular", {"l1": 0.0, "l2": 0.0})
    q = math.exp(-a)  # sech a = 2q / (1 + q^2) is finite where cosh a overflows
    theta = math.acos(1.0 / (2.0 + 2.0 * q / (1.0 + q * q)))
    w, v = cmath.exp(4j * theta), -cmath.exp(3j * theta)
    c2, c1 = 4.0 * v**3 - w**3 - 3.0 * w * w, 3.0 * w * w + 3.0 * w - 6.0 * v * v
    root = cmath.sqrt(c1 * c1 - 4.0 * c2 * (4.0 * v - 3.0 * w - 1.0))
    z = ((-c1 - root) / (2.0 * c2), (-c1 + root) / (2.0 * c2))
    # both arguments lie in [0, pi/3] up to rounding, far from the cut of phase
    phases = sorted(map(cmath.phase, z))
    s = [clausen(p) + 3.0 * clausen(4.0 * theta + p)
         - 4.0 * clausen(3.0 * theta + math.pi + p) for p in phases]
    value = 0.25 * (s[0] - s[1])
    bound = _REGULAR_ROUNDING + 3.0 * min(a, _LONG_EDGE) * _THETA_ROUNDING
    if value < -bound:
        raise NumericalError(f"regular volume {value!r} is negative beyond {bound!r}")
    if bound > _REGULAR_FLOOR * value:
        raise DomainError(f"regular edge {a!r} is below the closed form's floor: "
                          f"its bound {bound!r} exceeds {_REGULAR_FLOOR!r} of {value!r}")
    # cosh l2 = (4c^2 - c - 1)/(c + 1), c = cosh a; past _LONG_EDGE, l2 - a = log 4
    c = math.cosh(min(a, _LONG_EDGE))
    l2 = math.acosh((4.0 * c * c - c - 1.0) / (c + 1.0)) + max(a - _LONG_EDGE, 0.0)
    return VolumeResult(value, bound, 0, "regular", {
        "l1": 0.0, "l2": l2, "root_circle_distance": max(abs(abs(r) - 1.0) for r in z)})


def volume_sforza(
    angles: DihedralAngles, cfg: QuadratureConfig = DEFAULT_QUADRATURE
) -> VolumeResult:
    """Volume from dihedral angles by the one-angle logarithmic integral.

    det F and its (3, 4) cofactor are quadratics in y = cos t, fitted
    exactly from their values at y = -1, 0, 1.  The flat root t0, where the
    volume vanishes, is the arccos of the largest root of det F in
    [-1, cos theta_34), from the stable quadratic formula.  If det F is
    already nonnegative at theta_34, or has no such root, the angles are
    inconsistent (or exactly flat, which returns zero volume).
    """
    th34 = angles.th34
    # the 3-4 angle sits in the (1, 2) slot of the face Gram matrix
    g = [list(row) for row in gram_from_angles(angles).g]

    def gram_at(y: float) -> list:
        g[0][1] = g[1][0] = -y
        return g

    y_start = math.cos(th34)
    d_start = det4(gram_at(y_start))
    if d_start >= 0.0:
        if d_start <= DEFAULT_TOL.boundary * 16.0:
            # flat (zero-curvature) data: the integral is empty
            return VolumeResult(0.0, 0.0, 0, "sforza",
                                {"t0": th34, "det_at_th34": d_start})
        raise InconsistentAnglesError(
            f"determinant of the angle Gram matrix is {d_start!r} >= 0 at "
            "the given angles; not a compact hyperbolic tetrahedron"
        )

    (dm, cm), (d0, c0), (dp, cp) = (
        (det4(gram_at(y)), cofactor4(g, 2, 3)) for y in (-1.0, 0.0, 1.0)
    )
    d2, d1 = 0.5 * (dp + dm) - d0, 0.5 * (dp - dm)
    c2, c1 = 0.5 * (cp + cm) - c0, 0.5 * (cp - cm)

    # d2 = -sin^2(theta_12) <= 0, so det F is negative outside its roots
    # y_lo <= y_hi; the flat root is y_hi when y_start lies above it, and
    # clamping to y_start absorbs rounding when theta_34 sits on the root
    disc = d1 * d1 - 4.0 * d2 * d0
    if d2 >= 0.0 or disc < 0.0:
        y_lo = y_hi = math.inf
    else:
        q = -0.5 * (d1 + math.copysign(math.sqrt(disc), d1))
        y_lo, y_hi = sorted((q / d2, d0 / q if q else 0.0))
    if not (y_lo < y_start and y_hi >= -1.0):
        raise InconsistentAnglesError(
            "no flat root of the Gram determinant above the 3-4 angle; "
            "the angles do not bound a compact tetrahedron"
        )
    t0 = math.acos(min(y_hi, y_start))

    def f(t: float, dist_lo: float, dist_hi: float) -> float:
        y = math.cos(t)
        d = (d2 * y + d1) * y + d0
        c34 = (c2 * y + c1) * y + c0
        r = math.sqrt(max(-d, 0.0)) * math.sin(t)
        if c34 <= r:
            raise InconsistentAnglesError(
                "logarithm argument is not positive; the angles do not come "
                "from a compact tetrahedron"
            )
        return 0.25 * math.log((c34 - r) / (c34 + r))

    # the antiderivative runs from t0 downward
    outcome = quadrature.integrate(
        f, t0, th34,
        abs_tol=cfg.abs_tol, rel_tol=cfg.rel_tol, max_levels=cfg.max_levels,
    )
    diagnostics = {"t0": t0, "det_at_th34": d_start}
    return _result_from_quadrature(outcome, "sforza", cfg, diagnostics)


def schlafli_residual(
    lengths: EdgeLengths | ExistenceReport,
    h: float,
    cfg: QuadratureConfig = TIGHT_QUADRATURE,
) -> float:
    """Consistency defect between the volume and the angle variation.

    Moves the sixth edge from l34 to l34 + h and returns

        | V(l34 + h) - V(l34) + (1/2) sum_ij lij (theta_ij(l34 + h) - theta_ij(l34)) |

    with the lengths in the sum held at their base values.  The volume
    difference is one quadrature of dV/dt over [l34, l34 + h].  The
    variational identity makes the first-order terms cancel exactly, so the
    residual of these one-sided differences scales as h^2 (the coefficient
    is the derivative of the 3-4 angle, whose own length coefficient moves
    with the fold).  Requires a strictly interior configuration with margin
    for the step.  ``lengths`` may be their ``exists`` report.
    """
    from .core import cofactors, edge_matrix_from_lengths
    from .angles import dihedral_angles

    if not 0.0 < h < 0.1:
        raise DomainError(f"step h must be in (0, 0.1), got {h!r}")
    report, integ = _edge_integrand(lengths)
    lengths = report.lengths
    if report.degenerate:
        raise NotATetrahedronError(
            "the variational residual needs a strictly interior configuration"
        )
    if lengths.l34 + h >= report.bounds.l2:
        raise DomainError(
            f"step h = {h!r} leaves the admissible interval "
            f"(l2 = {report.bounds.l2!r})"
        )

    moved = lengths.with_l34(lengths.l34 + h)
    dv = integ.integral(lengths.l34, moved.l34, cfg).value
    th0 = dihedral_angles(cofactors(edge_matrix_from_lengths(lengths)))
    th1 = dihedral_angles(cofactors(edge_matrix_from_lengths(moved)))
    lm = lengths.length_matrix()
    swing = sum(
        lm[i][j] * (th1.angle(i, j) - th0.angle(i, j)) for (i, j) in EDGE_PAIRS
    )
    return abs(dv + 0.5 * swing)
