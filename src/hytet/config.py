"""Centralized numerical tolerances and validation limits.

All magic thresholds used across the package live in one frozen record so
they can be audited in one place; every module reads ``DEFAULT_TOL``.
Everything is double precision.  The edge route holds to edges of about
100, past which its coefficients overflow.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Package-wide tolerance constants.

    boundary
        A signed slack within ``boundary * (1 + scale)`` of zero is treated
        as sitting on a degenerate boundary rather than failing a strict
        inequality; the fold bounds round such a slack's half-perimeter
        excess up to zero.
    sqrt_clamp
        Square-root arguments that are provably nonnegative may come out
        slightly negative in floating point; values down to ``-sqrt_clamp``
        are clamped to zero, anything lower is an internal error.
    cos_clamp
        Cosines may exceed 1 in magnitude by at most this much before the
        value is considered inconsistent rather than a rounding artifact.
    pivot
        Pivot threshold below which the hyperboloid factorization reports a
        rank drop instead of extrapolating.
    """

    boundary: float = 1e-12
    sqrt_clamp: float = 1e-10
    cos_clamp: float = 1e-12
    pivot: float = 1e-10


DEFAULT_TOL = Tolerances()

# The quadratures' accuracy target: the summed error estimate is at most
# tol * max(1, |value|).  The tight one is for results that feed a finite
# difference (`validate`'s Schlafli check); `--tol` sets the other per request.
QUADRATURE_TOL = 1e-10
TIGHT_QUADRATURE_TOL = 1e-13

# `validate` and `volume --validate`: the limits they check, the sample cap
JACOBI_LIMIT = 1e-10
ANGLE_GAP_LIMIT = 1e-9
ROUTE_GAP_LIMIT = 1e-6
MC_Z_LIMIT = 4.0
SCHLAFLI_LIMIT = 1e-8
MC_SAMPLES_MAX = 10**8  # about 5 s of sampling at 53 ms per 10^6 (scripts/layer_times.py)
