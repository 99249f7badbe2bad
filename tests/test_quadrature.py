import math

import pytest

from hytet.quadrature import _MAX_PANELS, integrate


def plain(f):
    return lambda x, da, db: f(x)


class TestTanhSinh:
    """Closed forms and identities of ``integrate``; the class keeps the name
    of the tanh-sinh rule these cases were first written for."""

    def test_polynomial(self):
        out = integrate(plain(lambda x: x ** 3), 0.0, 1.0)
        assert out.value == pytest.approx(0.25, abs=1e-13)

    def test_sine(self):
        out = integrate(plain(math.sin), 0.0, math.pi)
        assert out.value == pytest.approx(2.0, abs=1e-12)

    def test_inverse_sqrt_endpoint_singularity(self):
        out = integrate(lambda x, da, db: 1.0 / math.sqrt(da), 0.0, 1.0)
        assert out.value == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("a, b, value", [(1.0, 0.0, -2.0), (3.0, -1.0, -4.0)])
    def test_inverse_sqrt_anchored_at_the_upper_end(self, a, b, value):
        out = integrate(lambda x, da, db: 1.0 / math.sqrt(da), a, b)
        assert out.value == pytest.approx(value, abs=1e-12)
        assert out.evaluations == 15  # smooth after the substitution: one panel

    def test_log_endpoint_singularity(self):
        # outside the 1/sqrt domain, but continuous in s, so bisection converges
        out = integrate(lambda x, da, db: math.log(da), 0.0, 1.0, tol=1e-12)
        assert out.value == pytest.approx(-1.0, abs=1e-12)

    def test_singularity_at_the_far_end_is_outside_the_domain(self):
        # integral of 1/sqrt(x(1-x)) over (0,1) = pi; only the anchor's
        # singularity is removed, so the cap binds and says so
        out = integrate(lambda x, da, db: 1.0 / math.sqrt(da * db), 0.0, 1.0)
        assert not out.converged
        assert abs(out.value - math.pi) <= out.error

    def test_reversed_limits_flip_sign(self):
        # reversing the limits moves the anchor, so an integrand of the
        # anchor distance alone meets the same nodes: the bits only flip sign
        fwd = integrate(lambda x, da, db: math.exp(da), 0.0, 1.0)
        back = integrate(lambda x, da, db: math.exp(da), 1.0, 0.0)
        assert back.value == -fwd.value
        assert fwd.value == pytest.approx(math.e - 1.0, abs=1e-13)

    def test_empty_interval(self):
        out = integrate(plain(math.exp), 0.5, 0.5)
        assert out.value == 0.0
        assert out.evaluations == 0
        assert out.converged

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan])
    def test_a_tolerance_no_panel_meets_stops_at_the_cap(self, tol):
        # integrate refuses no tolerance: the panel cap bounds its loop, a
        # NaN target stops it at once, and either way the outcome is unconverged
        out = integrate(plain(math.exp), 0.0, 1.0, tol)
        assert not out.converged
        assert out.evaluations <= (2 * _MAX_PANELS - 1) * 15
        assert out.value == pytest.approx(math.e - 1.0, abs=1e-13)

    def test_error_estimate_is_honest(self):
        out = integrate(plain(math.sin), 0.0, math.pi, tol=1e-12)
        assert abs(out.value - 2.0) <= max(10 * out.error, 1e-12)

    def test_distances_sum_to_interval(self):
        for a, b in ((2.0, 5.0), (5.0, 2.0)):
            seen = []

            def probe(x, da, db):
                seen.append((x, da, db))
                return math.sin(40.0 * x)  # bisected a few times

            assert integrate(probe, a, b).evaluations == len(seen) > 15
            for x, da, db in seen:
                assert da > 0 and db > 0
                assert da + db == pytest.approx(3.0, rel=1e-12)
                assert abs(x - a) == pytest.approx(da, rel=1e-12, abs=1e-15)
                # x may round onto an endpoint; the distances never do
                assert 2.0 <= x <= 5.0

    def test_cusp_stops_at_the_panel_cap_unconverged(self):
        # a kink such as |x - 0.3| converges after 18 panels; the cusp's
        # sqrt runs into the cap of 32 panels, 945 evaluations
        out = integrate(plain(lambda x: math.sqrt(abs(x - 0.3))), 0.0, 1.0, tol=1e-13)
        exact = (2.0 / 3.0) * (0.3 ** 1.5 + 0.7 ** 1.5)
        assert (out.converged, out.evaluations) == (False, 945)
        assert out.error > 1e-13
        assert abs(out.value - exact) <= out.error


class TestPinnedBits:
    """value, error, evaluations and convergence pinned to the last bit.

    These hold the rule's nodes, weights, distances, splitting and summation
    order fixed: any change to how a panel is computed shows here first.
    """

    @pytest.mark.parametrize("f, a, b, kwargs, value, error, evaluations, converged", [
        (plain(math.exp), 0.0, 1.0, {},
         1.7182818284590453, 6.427280929699464e-11, 15, True),
        (lambda x, da, db: 1.0 / math.sqrt(da), 0.0, 1.0, {},
         1.9999999999999998, 0.0, 15, True),
        (lambda x, da, db: math.log(da), 0.0, 1.0, {},
         -1.0000000000013936, 7.617481831893007e-11, 345, True),
        (plain(math.exp), 1.0, 0.0, {},
         -1.7182818284590453, 4.800160269269327e-12, 15, True),
        (lambda x, da, db: math.log(da), 0.0, 1.0, {"tol": 1e-13},
         -1.0000000000000002, 9.240124611356116e-14, 555, True),
        # a kink at 0.3: bisection closes in on it within the cap
        (plain(lambda x: abs(x - 0.3)), 0.0, 1.0, {"tol": 1e-13},
         0.29000000000002096, 6.7499865428762394e-15, 525, True),
    ], ids=["exp", "inverse_sqrt", "log", "reversed", "tight_log", "tight_kink"])
    def test_outcome_is_bit_exact(self, f, a, b, kwargs, value, error, evaluations,
                                  converged):
        out = integrate(f, a, b, **kwargs)
        assert (out.value, out.error, out.evaluations, out.converged) == (
            value, error, evaluations, converged)
