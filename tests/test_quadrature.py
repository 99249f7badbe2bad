import math

import pytest

from hytet.quadrature import integrate


def plain(f):
    return lambda x, da, db: f(x)


class TestTanhSinh:
    def test_polynomial(self):
        out = integrate(plain(lambda x: x ** 3), 0.0, 1.0)
        assert out.value == pytest.approx(0.25, abs=1e-13)

    def test_sine(self):
        out = integrate(plain(math.sin), 0.0, math.pi)
        assert out.value == pytest.approx(2.0, abs=1e-12)

    def test_inverse_sqrt_endpoint_singularity(self):
        out = integrate(lambda x, da, db: 1.0 / math.sqrt(da), 0.0, 1.0)
        assert out.value == pytest.approx(2.0, abs=1e-12)

    def test_log_endpoint_singularity(self):
        out = integrate(lambda x, da, db: math.log(da), 0.0, 1.0)
        assert out.value == pytest.approx(-1.0, abs=1e-12)

    def test_both_endpoints_singular(self):
        # integral of 1/sqrt(x(1-x)) over (0,1) = pi
        out = integrate(lambda x, da, db: 1.0 / math.sqrt(da * db), 0.0, 1.0)
        assert out.value == pytest.approx(math.pi, abs=1e-12)

    def test_reversed_limits_flip_sign(self):
        fwd = integrate(plain(math.exp), 0.0, 1.0)
        back = integrate(plain(math.exp), 1.0, 0.0)
        assert back.value == -fwd.value

    def test_empty_interval(self):
        out = integrate(plain(math.exp), 0.5, 0.5)
        assert out.value == 0.0
        assert out.evaluations == 0

    def test_error_estimate_is_honest(self):
        out = integrate(plain(math.sin), 0.0, math.pi, tol=1e-12)
        assert abs(out.value - 2.0) <= max(10 * out.error, 1e-12)

    def test_distances_sum_to_interval(self):
        seen = []

        def probe(x, da, db):
            seen.append((x, da, db))
            return 0.0

        integrate(probe, 2.0, 5.0)  # a zero integrand stops at the fourth level
        for x, da, db in seen:
            assert da > 0 and db > 0
            assert da + db == pytest.approx(3.0, rel=1e-12)
            # x may round onto an endpoint; the distances never do
            assert 2.0 <= x <= 5.0


class TestPinnedBits:
    """value, error and evaluations pinned to the last bit (repr literals).

    These hold the rule's node table, weights, distances and summation order
    fixed: any change to how a node is computed shows here first.
    """

    @pytest.mark.parametrize("f, a, b, kwargs, value, error, evaluations", [
        (plain(math.exp), 0.0, 1.0, {},
         1.7182818284590455, 1.5416556919944924e-11, 73),
        (lambda x, da, db: 1.0 / math.sqrt(da), 0.0, 1.0, {},
         2.0, 3.1086244689504383e-15, 73),
        (lambda x, da, db: math.log(da), 0.0, 1.0, {},
         -1.0, 1.5121237595394632e-13, 73),
        (plain(math.exp), 1.0, 0.0, {},
         -1.7182818284590455, 1.5416556919944924e-11, 73),
        (lambda x, da, db: math.log(da), 0.0, 1.0,
         {"tol": 1e-13},
         -1.0, 0.0, 145),
        # a kink at 0.3 never converges, so every one of the 12 levels runs
        (plain(lambda x: abs(x - 0.3)), 0.0, 1.0, {"tol": 1e-13},
         0.2899999943559737, 4.074843668044892e-08, 18433),
    ], ids=["exp", "inverse_sqrt", "log", "reversed", "tight_log", "tight_kink"])
    def test_outcome_is_bit_exact(self, f, a, b, kwargs, value, error, evaluations):
        out = integrate(f, a, b, **kwargs)
        assert out.value == value
        assert out.error == error
        assert out.evaluations == evaluations
