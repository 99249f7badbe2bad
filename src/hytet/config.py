"""Centralized numerical tolerances and validation limits.

All magic thresholds used across the package are the module constants
below, so they can be audited in one place; no function takes a per-call
override of them.  Everything is double precision.  The edge route holds
to edges of about 100, past which its coefficients overflow.
"""

from __future__ import annotations

# A signed slack within BOUNDARY_TOL * (1 + scale) of zero is treated as
# sitting on a degenerate boundary rather than failing a strict inequality;
# the fold bounds round such a slack's half-perimeter excess up to zero.
BOUNDARY_TOL = 1e-12
# Square-root arguments that are provably nonnegative may come out slightly
# negative in floating point; values down to -SQRT_CLAMP are clamped to
# zero, anything lower is an internal error.
SQRT_CLAMP = 1e-10
# Cosines may exceed 1 in magnitude by at most this much before the value
# is considered inconsistent rather than a rounding artifact.
COS_CLAMP = 1e-12
# Pivot threshold below which the hyperboloid factorization reports a rank
# drop instead of extrapolating.
PIVOT_TOL = 1e-10

# The quadratures' accuracy target: the summed error estimate is at most
# tol * max(1, |value|).  Every volume route integrates to QUADRATURE_TOL;
# the tight one is for results that feed a finite difference (`validate`'s
# Schlafli check).
QUADRATURE_TOL = 1e-10
TIGHT_QUADRATURE_TOL = 1e-13

# `validate` and `volume --validate`: the limits they check, their one Monte
# Carlo setting, and the library's sample cap
JACOBI_LIMIT = 1e-10
ANGLE_GAP_LIMIT = 1e-9
ROUTE_GAP_LIMIT = 1e-6
MC_Z_LIMIT = 4.0
MC_SEED = 42
MC_SAMPLES = 200_000
SCHLAFLI_LIMIT = 1e-8
MC_SAMPLES_MAX = 10**8  # 4.6-9.2 s at 46-92 ms per 10^6 in one run (scripts/layer_times.py)
# `volume_profile`'s sample cap (`sweep --samples`): 6.7-7.1 s and a 64 MB peak
# resident set at 10^5 rows on one CPU
SWEEP_SAMPLES_MAX = 10**5
