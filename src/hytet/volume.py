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
volume is the integral of this from l1 to the actual l34, or minus its
integral from l34 to l2, where the volume vanishes too.  Omega is the
stable form of the raw cofactor combination
c14 (c11 c23 - c12 c13) / c11 + c24 (c13 c22 - c12 c23) / c22 divided by
Delta: both parenthesized combinations are determinant multiples,

    c11 c23 - c12 c13 = -Delta (a23 - a24 x),
    c13 c22 - c12 c23 = -Delta (a13 - a14 x),

and dividing them out symbolically removes a catastrophic cancellation
near the flat endpoints where Delta -> 0.

-Delta = sinh^2(l12) (cosh t - cosh l1)(cosh l2 - cosh t), with l1 and l2
the fold bounds of :mod:`hytet.existence`, and each cosh difference is a
product of sinh of a half-sum and a half-difference, so the integrable
1/sqrt singularity sits exactly at the integration endpoint.

The numerator is a Schlafli sum, and it cancels: at short edges t Omega
and sinh(t) B agree to relative size (edge length)^2.  With the shifted
lengths u = cosh l - 1 = 2 sinh^2(l/2), xm1 = cosh t - 1, r = l sinh l - 2u
and p = u12 xm1 - u14 u23 - u13 u24, it is evaluated as

    t Omega + sinh(t) B = sinh(t) (A + R) + Omega (t - 2 tanh(t/2)),
    R = (r24 c14 + r23 c13) / c11 + (r13 c23 + r14 c24) / c22 + r12,
    A = 2 [(u13 u14 e11 + u23 u24 e22)(xm1 p - e12) + p e11 e22
           - 4 xm1 u13 u14 u23 u24 e12] / ((xm1 + 2) c11 c22),

where c11 = e11 + 2 u23 u24 xm1, c22 = e22 + 2 u13 u14 xm1 and
c12 = e12 + xm1 p split each cofactor into its parts of degree two and
three in the u's.  A is the sum with l sinh l replaced by 2u, the scaling
derivative of the 3-4 angle: its degree-two parts cancel exactly, and so
do the degree-three products that would cancel at long edges.
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
rounding moves V only to second order.  At long edges 3 theta + pi + phi1
nears 2 pi, where Cl2 has its log singularity, so the last term is taken
as Cl2(3 delta + phi), with delta = theta - pi/3 computed from sech a.
The README's regular form of the paper's edge integral is checked against
this value by the tests.
"""

from __future__ import annotations

import cmath
import math
import operator
from collections import namedtuple

from . import angles, core, quadrature
from .angles import DihedralAngles, gram_from_angles
from .config import BOUNDARY_TOL, QUADRATURE_TOL, SWEEP_SAMPLES_MAX, TIGHT_QUADRATURE_TOL
from .core import EdgeLengths, cofactor4, det4
from .errors import (
    DomainError,
    ExistenceError,
    InconsistentAnglesError,
    NotATetrahedronError,
    NumericalError,
    shown,
)
from .existence import ExistenceReport, L34Bounds, exists, l34_bounds

__all__ = [
    "VolumeResult",
    "clausen",
    "volume_derivative",
    "volume_edges",
    "volume_profile",
    "volume_regular",
    "volume_sforza",
    "schlafli_residual",
]


class VolumeResult(namedtuple("VolumeResult",
                              "value error_estimate evaluations route diagnostics")):
    """A volume value with its provenance and health indicators.

    ``route`` is one of ``edge_integral``, ``sforza``, ``regular``,
    ``monte_carlo``.  ``error_estimate`` is the quadrature's summed
    |K15 - G7|, one Monte Carlo standard error, or the regular rounding
    bound.  Tiny negative quadrature results (within the quadrature
    tolerance of zero) are clamped to zero and flagged in
    ``diagnostics["clamped_negative"]``; ``diagnostics["converged"]`` is
    false when a quadrature stopped at its panel cap.  ``diagnostics``
    defaults to a new empty dict.
    """

    __slots__ = ()

    def __new__(cls, value, error_estimate, evaluations, route, diagnostics=None):
        return tuple.__new__(cls, (value, error_estimate, evaluations, route,
                                   {} if diagnostics is None else diagnostics))


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


# 2k / (2k + 1)! for k = 7, ..., 1 (Horner order)
_YCOSH_SINH = tuple(2 * k / math.factorial(2 * k + 1) for k in range(7, 0, -1))


def _ycosh_sinh(y: float, sh: float, ch: float) -> float:
    """y cosh y - sinh y from sinh y and cosh y; its series below 0.5, where they cancel."""
    if y >= 0.5:
        return y * ch - sh
    z = y * y
    c7, c6, c5, c4, c3, c2, c1 = _YCOSH_SINH
    return y * z * ((((((c7 * z + c6) * z + c5) * z + c4) * z + c3) * z + c2) * z + c1)


class _EdgeIntegrand:
    """The edge-length volume integrand, with everything that does not
    depend on t fixed at construction: the fold bounds of ``bounds`` and
    coefficients from the five fixed lengths."""

    def __init__(self, lengths: EdgeLengths, bounds: L34Bounds):
        self.l1, self.l2 = bounds.l1, bounds.l2
        fixed = lengths.as_tuple()[:5]
        halves = [math.sinh(0.5 * x) for x in fixed]
        u12, u13, u14, u23, u24 = (2.0 * h * h for h in halves)
        # -Delta = slope (cosh t - cosh l1)(cosh l2 - cosh t), slope = sinh^2 l12
        self.slope = u12 * (u12 + 2.0)
        # The t-dependent cofactors are polynomials in xm1 = cosh t - 1
        # = 2 sinh^2(t/2) of degree at most two, with coefficients in the
        # shifted lengths u: polynomials in cosh would lose every digit
        # near xm1 = 0 and at short edges.  Of c11, c22 and c12 only the
        # parts e11, e22, e12 and p of the module docstring are stored.
        d23, d13 = u23 - u24, u13 - u14
        w = u13 * u24 - u14 * u23
        cross = d13 - d23 + w  # cosh l13 cosh l24 - cosh l14 cosh l23
        self.coefficients = (
            -d23 * d23, 2.0 * (u23 + u24), -d13 * d13, 2.0 * (u13 + u14),  # e11, e22
            d13 * d23, 2.0 * u12 - u13 - u14 - u23 - u24,  # e12
            -(u14 * u23 + u13 * u24), u12, u13 * u14, u23 * u24,  # p; two products
            u12 * d23 + w + u24 * cross, u14 - u12 - u24 - u12 * u24,  # c13
            -(u12 * d23 + w + u23 * cross), u13 - u12 - u23 - u12 * u23,  # c14
            -(w - u12 * d13 + u14 * cross), u24 - u12 - u14 - u12 * u14,  # c23
            w - u12 * d13 + u13 * cross, u23 - u12 - u13 - u12 * u13,  # c24
            d23, d13, 1.0 + u24, 1.0 + u14,  # Omega
            # r = l sinh l - 2u of l12, l13, l14, l23, l24
            *(4.0 * h * _ycosh_sinh(0.5 * x, h, math.sqrt(1.0 + h * h))
              for h, x in zip(halves, fixed)))
        self.guarded_nodes = 0

    def integral(self, lower: float, upper: float, tol: float = QUADRATURE_TOL):
        """Quadrature of dV/dt from lower to upper, either way round, within
        [l1, l2]; the rule's singular end is the limit nearer a flat root."""
        lo, hi = min(lower, upper), max(lower, upper)
        pad_lo, pad_hi = lo - self.l1, self.l2 - hi  # limits to flat roots
        if pad_lo <= pad_hi:  # node(t, distance to the anchor, to the other limit)
            a, b, node = lo, hi, lambda t, d, e: self.quadrature_node(t, pad_lo + d, pad_hi + e)
        else:
            a, b, node = hi, lo, lambda t, d, e: self.quadrature_node(t, pad_lo + e, pad_hi + d)
        outcome = quadrature.integrate(node, a, b, tol)
        if not math.isfinite(outcome.value):  # the coefficients overflow past l ~ 100
            raise NumericalError(f"the volume integral came out as {outcome.value!r}")
        return outcome if a == lower else outcome._replace(value=-outcome.value)

    def neg_delta(self, t: float, gap_lo: float, gap_hi: float) -> float:
        """-Delta at parameter t from its exact distances t - l1 and l2 - t,
        which stay accurate where cosh t - cosh l1 would cancel."""
        f_lo = 2.0 * math.sinh(0.5 * (t + self.l1)) * math.sinh(0.5 * gap_lo)
        f_hi = 2.0 * math.sinh(0.5 * (self.l2 + t)) * math.sinh(0.5 * gap_hi)
        return self.slope * f_lo * f_hi

    def evaluate(self, t: float, neg_delta: float) -> float:
        """dV/dt at parameter t given a precomputed -Delta > 0."""
        (e11_0, e11_1, e22_0, e22_1, e12_0, e12_1, p_0, p_1, uu13, uu23,
         c13_0, c13_1, c14_0, c14_1, c23_0, c23_1, c24_0, c24_1,
         d23, d13, a24, a14, r12, r13, r14, r23, r24) = self.coefficients
        half_sh = math.sinh(0.5 * t)
        x = 2.0 * half_sh * half_sh  # cosh t - 1
        e11 = e11_0 + x * (e11_1 - x)
        e22 = e22_0 + x * (e22_1 - x)
        c11 = e11 + 2.0 * uu23 * x
        c22 = e22 + 2.0 * uu13 * x
        if c11 <= 0.0 or c22 <= 0.0:
            self.guarded_nodes += 1
            return 0.0
        e12 = e12_0 + x * (e12_1 + x)
        p = p_0 + p_1 * x
        c13, c14 = c13_0 + c13_1 * x, c14_0 + c14_1 * x
        c23, c24 = c23_0 + c23_1 * x, c24_0 + c24_1 * x
        i11, i22 = 1.0 / c11, 1.0 / c22
        omega = c14 * (d23 - a24 * x) * i11 + c24 * (d13 - a14 * x) * i22
        euler = 2.0 * ((uu13 * e11 + uu23 * e22) * (x * p - e12) + p * e11 * e22
                       - 4.0 * x * uu13 * uu23 * e12) * i11 * i22 / (x + 2.0)
        rest = (r24 * c14 + r23 * c13) * i11 + (r13 * c23 + r14 * c24) * i22 + r12
        half_ch = math.sqrt(1.0 + half_sh * half_sh)
        psi = 2.0 * _ycosh_sinh(0.5 * t, half_sh, half_ch) / half_ch  # t - 2 tanh(t/2)
        return (-half_sh * half_ch * (euler + rest) - 0.5 * omega * psi) / math.sqrt(neg_delta)

    def quadrature_node(self, t: float, gap_lo: float, gap_hi: float) -> float:
        """Integrand for the quadrature, given t's distances to l1 and l2."""
        neg_delta = self.neg_delta(t, gap_lo, gap_hi)
        if neg_delta <= 0.0:
            self.guarded_nodes += 1
            return 0.0
        return self.evaluate(t, neg_delta)

    def derivative(self, t: float) -> float:
        """dV/dt at an interior parameter value, with domain checks."""
        neg_delta = self.neg_delta(t, t - self.l1, self.l2 - t)
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
        if not math.isfinite(value):
            raise NumericalError(f"dV/dt at t = {t!r} came out as {value!r}")
        return value


def _edge_integrand(lengths: EdgeLengths | ExistenceReport):
    """Existence report and integrand of lengths that bound a tetrahedron.

    Takes the lengths or their ``exists`` report, which then stands in for
    a second test.  Raises ExistenceError (with the report attached) when
    they do not bound one.
    """
    report = lengths if isinstance(lengths, ExistenceReport) else exists(lengths)
    if not report.exists:
        raise ExistenceError.from_report(report)
    return report, _EdgeIntegrand(report.lengths, report.bounds)


def volume_derivative(lengths: EdgeLengths, t: float) -> float:
    """Derivative of the volume with respect to the sixth edge length.

    ``lengths`` provides the five fixed lengths (its l34 field is ignored);
    ``t`` must lie strictly inside the admissible interval (l1, l2).
    """
    if not math.isfinite(t) or t < 0:
        raise DomainError(f"parameter t must be finite and nonnegative, got {t!r}")
    return _EdgeIntegrand(lengths, l34_bounds(*lengths.as_tuple()[:5])).derivative(t)


def _result_from_quadrature(outcome: quadrature.QuadratureOutcome, route: str,
                            diagnostics: dict) -> VolumeResult:
    value = outcome.value
    if value < -max(QUADRATURE_TOL, 10.0 * outcome.error):
        raise NumericalError(f"volume quadrature returned {value!r}, negative beyond tolerance")
    diagnostics["clamped_negative"] = value < 0.0
    diagnostics["converged"] = outcome.converged
    return VolumeResult(max(value, 0.0), outcome.error, outcome.evaluations, route, diagnostics)


def volume_edges(lengths: EdgeLengths | ExistenceReport) -> VolumeResult:
    """Volume by the edge-length integral from the nearer flat bound to l34.

    V vanishes at both fold bounds, so V = int_{l1}^{l34} = -int_{l34}^{l2};
    starting at the nearer bound keeps the far bound's singularity at least
    half the interval away and V from being the small difference of two
    large parts.  ``lengths`` may be the ``exists`` report of the lengths,
    which spares a second existence test.  Raises ExistenceError (with the
    report attached) when the lengths do not satisfy the existence
    conditions.  l34 at or past either bound, as ``exists`` allows within
    its tolerance, gives an exact zero; just inside a bound V grows like
    the square root of the distance, so it is integrated however close.
    """
    report, integ = _edge_integrand(lengths)
    l1, l2, l34 = integ.l1, integ.l2, report.lengths.l34

    diagnostics = {
        "l1": l1,
        "l2": l2,
        "delta_at_l34": -integ.neg_delta(l34, l34 - l1, l2 - l34),
        "degenerate": report.degenerate,
    }
    if not l1 < l34 < l2:
        diagnostics.update(guarded_nodes=0, clamped_negative=False, converged=True)
        return VolumeResult(0.0, 0.0, 0, "edge_integral", diagnostics)

    outcome = integ.integral(l1 if l34 - l1 <= l2 - l34 else l2, l34)
    diagnostics["guarded_nodes"] = integ.guarded_nodes
    return _result_from_quadrature(outcome, "edge_integral", diagnostics)


class VolumeProfile(list):
    """Rows of ``volume_profile``; ``converged`` is false if a segment's was not."""

    converged = True


def volume_profile(lengths: EdgeLengths | ExistenceReport, samples: int) -> VolumeProfile:
    """Rows (t, dV/dt, V) on ``samples`` equally spaced values of l34.

    The grid runs between the fold bounds l1 and l2, where V vanishes and
    dV/dt is reported as +inf and -inf; V sums one quadrature per segment.
    ``lengths`` may be their ``exists`` report; l34 takes part only in the
    existence check.  ``samples`` is an integer from 2 to ``SWEEP_SAMPLES_MAX``,
    which bounds the rows held in memory; it is checked before the lengths.
    """
    if not hasattr(samples, "__index__") or not 2 <= operator.index(samples) <= SWEEP_SAMPLES_MAX:
        raise DomainError(f"a volume profile needs 2 to {SWEEP_SAMPLES_MAX} samples, "
                          f"got {shown(samples)}")
    samples = operator.index(samples)
    _, integ = _edge_integrand(lengths)
    l1, l2 = integ.l1, integ.l2
    step = (l2 - l1) / (samples - 1)
    rows = VolumeProfile([(l1, math.inf, 0.0)])
    for k in range(1, samples):
        lower, _, volume = rows[-1]
        last = k == samples - 1
        t = l2 if last else l1 + k * step
        outcome = integ.integral(lower, t)
        volume += outcome.value
        rows.converged = rows.converged and outcome.converged
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
    2,500 edges in [5.6e-3, 1000] the error reached 0.18 of it); edges below
    about 5.5e-3, where it exceeds 1e-6 of the value, raise DomainError.
    ``diagnostics`` adds the roots' distance from the unit circle.
    """
    if not math.isfinite(a) or a < 0:
        raise DomainError(f"regular edge length must be finite and nonnegative, got {a!r}")
    if a == 0.0:
        return VolumeResult(0.0, 0.0, 0, "regular", {"l1": 0.0, "l2": 0.0})
    q = math.exp(-a)  # sech a = 2q / (1 + q^2) is finite where cosh a overflows
    sech = 2.0 * q / (1.0 + q * q)
    theta = math.acos(1.0 / (2.0 + sech))
    # theta - pi/3 from cos(pi/3) - cos(theta) = sech / (2 (2 + sech)), without cancellation
    delta = 2.0 * math.asin(sech / (4.0 * (2.0 + sech) * math.sin(0.5 * theta + math.pi / 6)))
    w, v = cmath.exp(4j * theta), -cmath.exp(3j * theta)
    c2, c1 = 4.0 * v**3 - w**3 - 3.0 * w * w, 3.0 * w * w + 3.0 * w - 6.0 * v * v
    root = cmath.sqrt(c1 * c1 - 4.0 * c2 * (4.0 * v - 3.0 * w - 1.0))
    z = ((-c1 - root) / (2.0 * c2), (-c1 + root) / (2.0 * c2))
    # both arguments lie in [0, pi/3] up to rounding, far from the cut of phase
    phases = sorted(map(cmath.phase, z))
    s = [clausen(p) + 3.0 * clausen(4.0 * theta + p)
         - 4.0 * clausen(3.0 * delta + p) for p in phases]
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


def volume_sforza(angles: DihedralAngles) -> VolumeResult:
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
    g = [list(row) for row in gram_from_angles(angles)]

    def gram_at(y: float) -> list:
        g[0][1] = g[1][0] = -y
        return g

    y_start = math.cos(th34)
    d_start = det4(gram_at(y_start))
    if d_start >= 0.0:
        if d_start <= BOUNDARY_TOL * 16.0:
            # flat (zero-curvature) data: the integral is empty
            return VolumeResult(0.0, 0.0, 0, "sforza", {
                "t0": th34, "det_at_th34": d_start, "clamped_negative": False, "converged": True})
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
    outcome = quadrature.integrate(f, t0, th34)
    diagnostics = {"t0": t0, "det_at_th34": d_start}
    return _result_from_quadrature(outcome, "sforza", diagnostics)


def schlafli_residual(lengths: EdgeLengths | ExistenceReport, h: float) -> tuple[float, bool]:
    """Consistency defect between the volume and the angle variation.

    Moves the sixth edge from l34 to l34 + h and returns

        | V(l34 + h) - V(l34) + (1/2) sum_ij lij (theta_ij(l34 + h) - theta_ij(l34)) |

    with the lengths in the sum held at their base values, and whether the
    volume difference converged.  That difference is one quadrature of dV/dt
    over [l34, l34 + h], at the tight quadrature tolerance.  The variational
    identity makes the first-order terms cancel exactly, so the residual of these one-sided differences
    scales as h^2 (the coefficient is the derivative of the 3-4 angle, whose
    own length coefficient moves with the fold).  Requires a strictly
    interior configuration with margin for the step.  ``lengths`` may be
    their ``exists`` report, whose angles then serve as the base ones.
    """
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
    dv = integ.integral(lengths.l34, moved.l34, TIGHT_QUADRATURE_TOL)
    th0 = report.angles
    th1 = angles.dihedral_angles(core.cofactors(core.edge_matrix_from_lengths(moved)))
    swing = sum(l * (a1 - a0) for l, a1, a0 in
                zip(lengths.as_tuple(), th1.as_tuple(), th0.as_tuple()))
    return abs(dv.value + 0.5 * swing), dv.converged
