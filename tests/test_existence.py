import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cases import sample_lengths
from hytet import (
    DegenerateError,
    DomainError,
    EdgeLengths,
    NotATetrahedronError,
    NumericalError,
    cofactors,
    dihedral_angles,
    edge_matrix_from_lengths,
    exists,
    l34_bounds,
)


def regular_upper_cosh(a: float) -> float:
    """Closed form of cosh(l2) when five lengths equal a."""
    c = math.cosh(a)
    return (4 * c * c - c - 1) / (c + 1)


class TestTriangleChecks:
    def test_equilateral_passes_with_unit_slack(self):
        L = EdgeLengths(1, 1, 2, 1, 2, 1)  # triangle 1-2-3 equilateral
        report = exists(L)
        assert report.tri_123_ok
        assert report.slacks["tri_123_sum"] == pytest.approx(1.0)
        assert report.slacks["tri_123_diff"] == pytest.approx(1.0)

    def test_long_edge_fails(self):
        L = EdgeLengths(3, 1, 1, 1, 1, 1)
        report = exists(L)
        assert not report.tri_123_ok
        assert report.slacks["tri_123_sum"] < 0

    def test_flat_triangle_passes_with_zero_slack(self):
        L = EdgeLengths(2, 1, 1, 1, 1, 1)
        report = exists(L)
        assert report.tri_123_ok
        assert report.slacks["tri_123_sum"] == pytest.approx(0.0, abs=1e-15)
        assert report.degenerate


class TestBounds:
    @pytest.mark.parametrize("a", [1.0, 2.0])
    def test_five_equal_lengths_closed_form(self, a):
        b = l34_bounds(a, a, a, a, a)
        assert b.l1 == pytest.approx(0.0, abs=1e-7)
        assert math.cosh(b.l2) == pytest.approx(regular_upper_cosh(a), rel=1e-13)

    def test_five_ones_upper_bound_value(self):
        b = l34_bounds(1, 1, 1, 1, 1)
        assert math.cosh(b.l2) == pytest.approx(2.7452180051928297, rel=1e-14)
        assert b.l2 == pytest.approx(1.6680504579626612, rel=1e-14)

    def test_flat_face_pins_l34(self):
        # l23 = l13 + l12 makes triangle 1-2-3 flat: S = 0, l1 = l2
        b = l34_bounds(0.7, 0.6, 0.9, 1.3, 0.8)
        assert b.S == pytest.approx(0.0, abs=1e-12)
        assert b.l1 == pytest.approx(b.l2, abs=1e-7)

    def test_zero_hinge_rejected(self):
        with pytest.raises(DomainError):
            l34_bounds(0.0, 1, 1, 1, 1)

    def test_violated_triangle_rejected(self):
        with pytest.raises(NotATetrahedronError):
            l34_bounds(3.0, 1, 1, 1, 1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31))
    def test_bounds_ordered_and_arccosh_defined(self, seed):
        L = sample_lengths(np.random.default_rng(seed))
        b = l34_bounds(L.l12, L.l13, L.l14, L.l23, L.l24)
        assert b.C - b.S >= 1.0 - 1e-12
        assert b.l1 <= b.l2


class TestExists:
    def test_all_ones_exists(self, all_ones):
        report = exists(all_ones)
        assert report.exists
        assert not report.degenerate
        assert report.l34_in_range

    @pytest.mark.parametrize("field", ["exists", "lengths", "bounds", "failed"])
    def test_fields_cannot_be_set(self, all_ones, field):
        # the report keeps a __dict__ for its cached E, cofactors and
        # angles, yet its fields stay read-only
        report = exists(all_ones)
        with pytest.raises(AttributeError):
            setattr(report, field, None)

    def test_five_ones_l34_two_fails(self):
        report = exists(EdgeLengths(1, 1, 1, 1, 1, 2))
        assert not report.exists
        assert not report.l34_in_range
        assert report.tri_123_ok and report.tri_124_ok
        assert "l34_upper" in report.failed

    def test_five_ones_l34_zero_degenerate(self):
        report = exists(EdgeLengths(1, 1, 1, 1, 1, 0))
        assert report.exists
        assert report.degenerate

    def test_zero_hinge_reported_not_raised(self):
        report = exists(EdgeLengths(0, 1, 1, 1, 1, 1))
        assert not report.exists
        assert report.degenerate

    def test_face_slack_judged_at_the_scale_of_its_five_lengths(self):
        # tri_123_diff is -3.5e-12: beyond the boundary tolerance at the
        # face lengths' scale 2, inside it at l34's scale 3
        report = exists(EdgeLengths(1, 2 + 3.5e-12, 1, 1, 2, 3))
        assert not report.exists
        assert report.failed == ("tri_123_diff",)
        assert not report.tri_123_ok and report.tri_124_ok
        assert report.bounds is None
        # the same faces without the excess are flat and pin l34 = 3
        flat = exists(EdgeLengths(1, 2, 1, 1, 2, 3))
        assert flat.exists and flat.degenerate

    def test_fold_band_angles_are_degenerate(self):
        # l34 1.1e-13 past l2, accepted as flat: a cosine overshoots COS_CLAMP,
        # which dihedral_angles reports as inconsistent and the report as flat
        L = EdgeLengths(0.007468550643548515, 0.005076026967728188, 0.007045129400578292,
                        0.007498529150978385, 0.0073509030150516845, 0.011071420160577146)
        report = exists(L)
        assert report.exists and report.degenerate
        with pytest.raises(NumericalError):
            dihedral_angles(report.cofactors)
        with pytest.raises(DegenerateError, match="flat within tolerance"):
            report.angles
        # at the fold bound of regular faces of edge 240 the cofactors
        # overflow, which stays a numerical failure
        long = exists(EdgeLengths(*(240.0,) * 5, l34_bounds(*(240.0,) * 5).l2))
        assert long.exists and long.degenerate
        with pytest.raises(NumericalError, match="cofactor norm inf"):
            long.angles

    def test_verdict_invariant_under_relabelings(self, rng):
        for _ in range(5):
            L = sample_lengths(rng)
            verdicts = {
                exists(L.relabel(sigma)).exists
                for sigma in itertools.permutations(range(4))
            }
            assert verdicts == {True}
        # and a nonexistent one stays nonexistent
        L = EdgeLengths(1, 1, 1, 1, 1, 2)
        verdicts = {
            exists(L.relabel(sigma)).exists
            for sigma in itertools.permutations(range(4))
        }
        assert verdicts == {False}

    def test_delta_vanishes_at_bounds_negative_inside(self, rng):
        for _ in range(10):
            L = sample_lengths(rng)
            b = l34_bounds(L.l12, L.l13, L.l14, L.l23, L.l24)
            for edge, expect_zero in ((b.l1, True), (b.l2, True), (L.l34, False)):
                C = cofactors(edge_matrix_from_lengths(L.with_l34(edge)))
                if expect_zero:
                    assert abs(C.delta) < 1e-10
                else:
                    assert C.delta < -1e-8


class TestFoldIntervalAgreesWithTheDeterminant:
    """The paper's criterion holds exactly on the fold interval: det E, which
    core.cofactors computes without l34_bounds, is negative inside (l1, l2)
    and changes sign across both ends."""

    # mp.mp.dps = 80; d = [mp.det(E(x)) for x in (-1, 0, 1)], E(x) the edge
    # matrix of mp.cosh(lij) with x in the 3-4 slot; l1 < l2 are mp.acosh of
    # the roots of ((d[2] + d[0]) / 2 - d[1]) x^2 + (d[2] - d[0]) / 2 x + d[1]
    SCALENE = [
        ((0.003, 0.0021, 0.0034, 0.0027, 0.0025),
         0.0014860740050686680826, 0.0044722223615061880786),
        ((1.2e-5, 9e-6, 1.1e-5, 7e-6, 1e-5),
         3.4004107181871713276e-6, 0.000013811970904930602051),
        ((14.0, 12.5, 16.0, 11.0, 13.5), 11.134795931362155677, 13.948130077173199697),
        ((25.0, 20.0, 27.0, 22.0, 24.0), 23.828699036580969241, 24.157779465651170031),
        ((0.02, 3.0, 3.01, 3.015, 2.995), 5.4384187576388219797, 6.0099560358764526224),
    ]

    @pytest.mark.parametrize("five, l1, l2", SCALENE)
    def test_pinned_scalene_bounds(self, five, l1, l2):
        b = l34_bounds(*five)
        assert b.l1 == pytest.approx(l1, rel=1e-14, abs=0.0)
        assert b.l2 == pytest.approx(l2, rel=1e-14, abs=0.0)

    def test_determinant_changes_sign_at_both_ends(self):
        rng = np.random.default_rng(20240817)  # the acceptance cases
        fives = [sample_lengths(rng).as_tuple()[:5] for _ in range(100)]
        fives += [(a,) * 5 for a in (1e-3, 0.01, 15.0, 30.0)]
        fives += [five for five, _, _ in self.SCALENE]
        for five in fives:
            b = l34_bounds(*five)

            def delta(t):
                return cofactors(edge_matrix_from_lengths(EdgeLengths(*five, t))).delta

            step = 1e-3 * (b.l2 - b.l1)
            for t in (b.l1 + step, 0.5 * (b.l1 + b.l2), b.l2 - step):
                assert delta(t) < 0.0, (five, t)
            assert delta(b.l2 + step) > 0.0, five
            # isosceles hinges (l13 = l14, l23 = l24) fold flat at l1 = 0
            if b.l1 > step:
                assert delta(b.l1 - step) > 0.0, five
            else:
                assert b.l1 == 0.0 and five[1] == five[2] and five[3] == five[4]
