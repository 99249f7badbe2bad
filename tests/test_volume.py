import inspect
import itertools
import math

import numpy as np
import pytest

from cases import sample_lengths
from hytet import (
    DomainError,
    EdgeLengths,
    ExistenceError,
    InconsistentAnglesError,
    DihedralAngles,
    NotATetrahedronError,
    cofactors,
    dihedral_angles,
    edge_matrix_from_lengths,
    euclidean_volume_cm,
    exists,
    l34_bounds,
    schlafli_residual,
    volume_derivative,
    volume_edges,
    volume_profile,
    volume_regular,
    volume_sforza,
)
from hytet import volume as volume_module
from hytet import quadrature
from hytet.config import QUADRATURE_TOL, SCHLAFLI_LIMIT, SWEEP_SAMPLES_MAX

FIVE_ONES = dict(l12=1.0, l13=1.0, l14=1.0, l23=1.0, l24=1.0)


def angles_of(lengths):
    return dihedral_angles(cofactors(edge_matrix_from_lengths(lengths)))


class TestVolumeDerivative:
    def test_matches_central_difference_of_volume(self):
        L = EdgeLengths(**FIVE_ONES, l34=1.0)
        h = 1e-5
        vp = volume_edges(L.with_l34(1.0 + h)).value
        vm = volume_edges(L.with_l34(1.0 - h)).value
        fd = (vp - vm) / (2 * h)
        exact = volume_derivative(L, 1.0)
        assert exact == pytest.approx(fd, rel=1e-6)

    def test_full_interval_integral_vanishes(self):
        # two samples make one segment, the quadrature over all of [l1, l2]
        t, _, full = volume_profile(EdgeLengths(**FIVE_ONES, l34=1.0), 2)[-1]
        assert t == l34_bounds(1, 1, 1, 1, 1).l2
        assert abs(full) < 1e-6

    def test_sign_change_at_interior_argmax(self):
        # bracket the argmax with a central-difference oracle, bisect, and
        # confirm the closed-form derivative vanishes there
        b = l34_bounds(1, 1, 1, 1, 1)
        base = EdgeLengths(**FIVE_ONES, l34=1.0)
        h = 1e-6

        def fd(t):
            vp = volume_edges(base.with_l34(t + h)).value
            vm = volume_edges(base.with_l34(t - h)).value
            return (vp - vm) / (2 * h)

        lo, hi = b.l1 + 0.2, b.l2 - 0.05
        assert fd(lo) > 0 > fd(hi)
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if fd(mid) > 0:
                lo = mid
            else:
                hi = mid
        argmax = 0.5 * (lo + hi)
        assert abs(volume_derivative(base, argmax)) < 1e-5

    def test_outside_interval_rejected(self):
        L = EdgeLengths(**FIVE_ONES, l34=1.0)
        with pytest.raises(DomainError):
            volume_derivative(L, 5.0)


class TestVolumeEdges:
    def test_degenerate_fold_is_zero(self):
        res = volume_edges(EdgeLengths(**FIVE_ONES, l34=0.0))
        assert res.value == 0.0
        assert res.diagnostics["degenerate"]

    def test_euclidean_limit_small_lengths(self):
        s = 0.1
        L = EdgeLengths(s, s, s, s, s, s)
        v = volume_edges(L).value
        v_eucl = euclidean_volume_cm(L)
        assert v_eucl == pytest.approx(math.sqrt(2) / 12 * s ** 3, rel=1e-12)
        assert v == pytest.approx(v_eucl, rel=1e-2)

    def test_routes_agree_on_all_ones(self, all_ones):
        v = volume_edges(all_ones)
        sf = volume_sforza(angles_of(all_ones))
        assert abs(v.value - sf.value) < 1e-6

    def test_nonexistent_input_raises_with_report(self):
        with pytest.raises(ExistenceError) as err:
            volume_edges(EdgeLengths(**FIVE_ONES, l34=2.0))
        assert err.value.report is not None
        assert not err.value.report.exists

    def test_permutation_invariance(self, rng):
        L = sample_lengths(rng)
        reference = volume_edges(L).value
        for sigma in itertools.permutations(range(4)):
            assert volume_edges(L.relabel(sigma)).value == pytest.approx(
                reference, abs=1e-10
            )

    # All-ones faces with l34 = l2 - gap, l2 from l34_bounds.  The references
    # integrate the paper's integrand in mpmath at 40 digits over the same
    # gap below the exact upper fold bound.  The float l2 lies 1.4e-16 below
    # that bound, so against the volume at the float l34 itself the route
    # reads about 7e-17 / gap relative off: input rounding, which no route
    # can remove.
    @pytest.mark.parametrize("gap, ref", [
        (1e-6, 0.00020322373812642385),
        (1e-8, 2.032238818583626e-05),
        (1e-10, 2.0322389232672716e-06),
    ])
    def test_near_the_upper_flat_bound(self, gap, ref):
        l2 = l34_bounds(1, 1, 1, 1, 1).l2
        res = volume_edges(EdgeLengths(**FIVE_ONES, l34=l2 - gap))
        assert res.value == pytest.approx(ref, rel=1e-12, abs=0)

    @pytest.mark.parametrize("past", [0.0, 1e-12])
    def test_exact_zero_at_or_past_the_upper_bound(self, past):
        l2 = l34_bounds(1, 1, 1, 1, 1).l2
        res = volume_edges(EdgeLengths(**FIVE_ONES, l34=l2 + past))
        assert (res.value, res.evaluations) == (0.0, 0)

    # Just inside a bound V grows like the square root of the distance, so
    # 1e-13 from a bound it is still far above the quadrature tolerance.
    # References as above, over the same distance from the exact bound.
    @pytest.mark.parametrize("l34, ref", [
        (2.040273544212972, 1.9102727280318964e-09),  # 1.0e-13 above l1
        (2.170484087112618, 3.2855191841192392e-09),  # 2.8e-13 below l2
    ])
    def test_integrated_however_close_to_a_bound(self, l34, ref):
        five = (0.07466798000732612, 0.07521564020259743, 2.1040084739506772,
                0.10693684301372494, 2.0689788973633476)
        res = volume_edges(EdgeLengths(*five, l34))
        assert res.value == pytest.approx(ref, rel=1e-11, abs=0)

    def test_mean_evaluations_on_the_acceptance_cases(self):
        # one Gauss-Kronrod panel of 15 nodes mostly, a split at most
        rng = np.random.default_rng(20240817)
        results = [volume_edges(sample_lengths(rng)) for _ in range(100)]
        assert sum(r.evaluations for r in results) / len(results) <= 33
        assert max(r.evaluations for r in results) <= 45
        assert all(r.diagnostics["converged"] for r in results)

    def test_bound_diagnostics_equal_l34_bounds(self, random_cases):
        for L in random_cases[:10]:
            res = volume_edges(L)
            b = l34_bounds(L.l12, L.l13, L.l14, L.l23, L.l24)
            assert (res.diagnostics["l1"], res.diagnostics["l2"]) == (b.l1, b.l2)

    def test_nonnegative_and_below_ideal_bound(self, random_cases):
        from hytet import lobachevsky

        bound = 3 * lobachevsky(math.pi / 3) + 1e-6
        for L in random_cases:
            v = volume_edges(L).value
            assert 0.0 <= v < bound


class TestVolumeRegular:
    def test_zero_edge(self):
        assert volume_regular(0.0).value == 0.0

    def test_matches_edge_route_at_unit(self, all_ones):
        vr = volume_regular(1.0).value
        ve = volume_edges(all_ones).value
        assert abs(vr - ve) < 1e-8

    def test_ideal_limit(self):
        from hytet import lobachevsky

        assert abs(volume_regular(10.0).value - 3 * lobachevsky(math.pi / 3)) < 1e-3

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            volume_regular(-1.0)

    def test_monotone_in_edge_length(self):
        values = [volume_regular(a).value for a in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(u < v for u, v in zip(values, values[1:]))

    # Schlafli's dV/da = -3a dtheta/da with cos theta = ch a / (2 ch a + 1):
    # mp.mp.dps = 30; mp.quad(lambda t: 3 * t * mp.sinh(t) / ((2 * mp.cosh(t) + 1)
    #     * mp.sqrt((3 * mp.cosh(t) + 1) * (mp.cosh(t) + 1))), [0, a])
    # agrees with the paper's edge integral in mpmath to 1e-16 relative
    PINNED = [
        (0.01, 1.1784774205946507047e-7),
        (0.05, 0.000014720809466523952858),
        (0.1, 0.00011751312332781837993),
        (0.5, 0.013732899242835099594),
        (1.0, 0.090597925377724199268),
        (3.0, 0.68720718873427787752),
        (8.0, 1.0097141942506395791),
        (12.0, 1.0148032602196255230),
        (20.0, 1.0149415314391750794),
        (30.0, 1.0149416064046291827),
    ]

    @pytest.mark.parametrize("a, ref", PINNED)
    def test_within_its_bound_of_pinned_reference(self, a, ref):
        res = volume_regular(a)
        assert res.route == "regular"
        assert abs(res.value - ref) <= res.error_estimate

    # the same integral where 3 theta + pi + phi1 nears 2 pi, the log
    # singularity of Cl2; the bound there is about 6e-14
    LONG = [
        (29.0, 1.0149416063964363506),
        (30.0, 1.0149416064046291827),
        (31.0, 1.0149416064077456105),
        (32.0, 1.0149416064089297707),
    ]

    @pytest.mark.parametrize("a, ref", LONG)
    def test_long_edges_within_2e_14(self, a, ref):
        assert abs(volume_regular(a).value - ref) <= 2e-14

    def test_readme_integral_agrees(self):
        # the paper's regular specialization, (1/2) int 0..a (A - B) / (C sqrt(D)),
        # by 64-node Gauss-Legendre in double precision; it and the quadrature
        # that used to compute it were both within 4e-15 of PINNED
        x, w = np.polynomial.legendre.leggauss(64)
        for a, _ in self.PINNED:
            t = 0.5 * a * (x + 1.0)
            c, ch = math.cosh(a), np.cosh(t)
            A = 2 * t * c * c * np.sqrt((c - 1) * (ch - 1))
            B = a * (1 - 4 * c + 2 * c * c + ch) * np.sqrt((c + 1) * (ch + 1))
            C = 1 + ch - 2 * c * c
            D = 4 * c * c - c - 1 - ch - c * ch
            integral = 0.25 * a * float(w @ ((A - B) / (C * np.sqrt(D))))
            res = volume_regular(a)
            assert abs(integral - res.value) <= 4e-15 + res.error_estimate

    @pytest.mark.parametrize("a", [1e-300, 1e-6, 1e-3, 5e-3])
    def test_short_edges_below_the_floor_are_refused(self, a):
        with pytest.raises(DomainError, match="below the closed form's floor"):
            volume_regular(a)

    def test_floor_leaves_the_bound_within_a_millionth(self):
        for a in (0.006, 0.01, 0.1):
            res = volume_regular(a)
            assert 0.0 < res.error_estimate <= 1e-6 * res.value

    @pytest.mark.parametrize("a", [400.0, 800.0, 1e6])
    def test_long_edges_reach_the_ideal_volume(self, a):
        from hytet import lobachevsky

        res = volume_regular(a)
        assert abs(res.value - 3 * lobachevsky(math.pi / 3)) <= res.error_estimate
        assert all(math.isfinite(v) for v in res.diagnostics.values())
        assert res.diagnostics["l2"] == pytest.approx(a + math.log(4.0), rel=1e-15)

    def test_takes_only_the_edge_and_no_quadrature(self, monkeypatch):
        import inspect

        def refuse(*args, **kwargs):
            raise AssertionError("volume_regular called the quadrature")

        assert list(inspect.signature(volume_regular).parameters) == ["a"]
        monkeypatch.setattr(volume_module.quadrature, "integrate", refuse)
        res = volume_regular(1.0)
        assert res.evaluations == 0
        assert res.diagnostics["root_circle_distance"] < 1e-14


class TestVolumeSforza:
    def test_regular_angles_match_edge_route(self, all_ones):
        ve = volume_edges(all_ones).value
        vs = volume_sforza(angles_of(all_ones)).value
        assert abs(ve - vs) < 1e-6

    def test_empty_interval_at_flat_root(self, all_ones):
        th = angles_of(all_ones)
        t0 = volume_sforza(th).diagnostics["t0"]
        shifted = DihedralAngles(
            th.th12, th.th13, th.th14, th.th23, th.th24, float(t0)
        )
        assert volume_sforza(shifted).value == pytest.approx(0.0, abs=1e-9)

    def test_angle_within_rounding_of_flat_root_gives_zero(self, random_cases):
        # det4 and the fitted quadratic may disagree on which side of the
        # root such an angle lies; either way the volume must vanish
        for L in random_cases:
            th = angles_of(L)
            t0 = volume_sforza(th).diagnostics["t0"]
            for toward in (0.0, math.pi):
                t = t0
                for _ in range(3):
                    shifted = DihedralAngles(
                        th.th12, th.th13, th.th14, th.th23, th.th24, t
                    )
                    assert volume_sforza(shifted).value == pytest.approx(0.0, abs=1e-9)
                    t = math.nextafter(t, toward)

    def test_euclidean_angles_give_zero(self):
        th = DihedralAngles(*([math.acos(1.0 / 3.0)] * 6))
        res = volume_sforza(th)
        assert res.value == 0.0
        assert res.diagnostics["t0"] == pytest.approx(th.th34)

    def test_inconsistent_angles_rejected(self):
        # right angles everywhere: Gram determinant is +1 at th34
        th = DihedralAngles(*([math.pi / 2] * 6))
        with pytest.raises(InconsistentAnglesError):
            volume_sforza(th)

    @pytest.mark.parametrize("edges", [
        (5.734164915134681, 5.498360392763894, 6.142752134274104,
         4.696252597847269, 4.829394725441337, 2.555174727030964),
        (8.372096252066987, 2.9625028317388153, 9.134369487928902,
         7.005747590390229, 7.88916998577378, 7.7343787359515455),
    ])
    def test_flat_root_found_where_a_grid_scan_misses_it(self, edges):
        L = EdgeLengths(*edges)
        vs = volume_sforza(angles_of(L)).value
        assert abs(vs - volume_edges(L).value) < 1e-10

    def test_random_cases_agree(self, rng):
        for _ in range(10):
            L = sample_lengths(rng)
            ve = volume_edges(L).value
            vs = volume_sforza(angles_of(L)).value
            assert abs(ve - vs) < 1e-6


class TestSchlafliResidual:
    @pytest.mark.parametrize("l34", [1.0, 1.3])
    def test_small_residual_at_h_1e5(self, l34):
        L = EdgeLengths(**FIVE_ONES, l34=l34)
        assert schlafli_residual(L, 1e-5) < 1e-8

    def test_second_order_scaling(self):
        L = EdgeLengths(**FIVE_ONES, l34=1.0)
        r3 = schlafli_residual(L, 1e-3)
        r4 = schlafli_residual(L, 1e-4)
        ratio = r3 / r4
        assert 100 / 3 < ratio < 100 * 3

    def test_degenerate_input_rejected(self):
        with pytest.raises(Exception):
            schlafli_residual(EdgeLengths(**FIVE_ONES, l34=0.0), 1e-5)

    @pytest.mark.parametrize("a", [1.0, 2.0])
    def test_a_scaled_integrand_fails_the_limit(self, a, monkeypatch):
        # validate's step is 1e-5 from l34 = 1 up; an integrand 10% off
        # moves the residual to 3.8e-8 at a = 1
        node = volume_module._EdgeIntegrand.quadrature_node
        L = EdgeLengths(*(a,) * 6)
        assert schlafli_residual(L, 1e-5) < SCHLAFLI_LIMIT
        monkeypatch.setattr(volume_module._EdgeIntegrand, "quadrature_node",
                            lambda self, *args: 1.1 * node(self, *args))
        assert schlafli_residual(L, 1e-5) > SCHLAFLI_LIMIT


class TestReportInPlaceOfLengths:
    """The edge routes take the existence report of their lengths and then
    answer exactly as they do from the lengths, without a second test."""

    @pytest.fixture
    def cases(self, random_cases):
        return [EdgeLengths(**FIVE_ONES, l34=1.0)] + random_cases[:10]

    def test_same_results(self, cases, monkeypatch):
        reports = [exists(L) for L in cases]
        expected = [(volume_edges(L), volume_profile(L, 5), schlafli_residual(L, 1e-5))
                    for L in cases]

        def refuse(lengths):
            raise AssertionError("a route given a report ran the existence test")

        monkeypatch.setattr(volume_module, "exists", refuse)
        for report, (res, rows, resid) in zip(reports, expected):
            assert volume_edges(report) == res
            assert volume_profile(report, 5) == rows
            assert schlafli_residual(report, 1e-5) == resid

    def test_degenerate_report(self):
        L = EdgeLengths(**FIVE_ONES, l34=0.0)
        assert volume_edges(exists(L)) == volume_edges(L)
        with pytest.raises(NotATetrahedronError):
            schlafli_residual(exists(L), 1e-5)

    @pytest.mark.parametrize("route", [
        volume_edges,
        lambda report: volume_profile(report, 5),
        lambda report: schlafli_residual(report, 1e-5),
    ], ids=["edges", "profile", "schlafli"])
    def test_failed_report_is_raised_with_itself(self, route):
        report = exists(EdgeLengths(**FIVE_ONES, l34=2.0))
        assert not report.exists
        with pytest.raises(ExistenceError) as err:
            route(report)
        assert err.value.report is report

    def test_report_names_its_lengths(self, all_ones):
        assert exists(all_ones).lengths is all_ones


class TestQuadratureTolerance:
    """Every volume route integrates to hytet.config's QUADRATURE_TOL; none
    takes another."""

    @pytest.mark.parametrize("route", [
        volume_edges,
        lambda lengths: volume_profile(lengths, 5),
        lambda lengths: volume_sforza(angles_of(lengths)),
    ], ids=["edges", "profile", "sforza"])
    @pytest.mark.parametrize("lengths", [
        EdgeLengths(**FIVE_ONES, l34=1.0),
        EdgeLengths(*[2.0] * 6),
        EdgeLengths(l12=1.0, l13=1.2, l14=0.9, l23=1.1, l24=1.3, l34=1.0),
    ], ids=["regular-1", "regular-2", "irregular"])
    def test_each_route_integrates_at_the_config_tolerance(self, monkeypatch, route, lengths):
        integrate, outcomes = quadrature.integrate, []

        def record(*args):
            call = inspect.signature(integrate).bind(*args)
            call.apply_defaults()
            outcomes.append((call.arguments["tol"], integrate(*args)))
            return outcomes[-1][1]

        monkeypatch.setattr(quadrature, "integrate", record)
        route(lengths)
        assert outcomes
        for tol, out in outcomes:
            assert tol == QUADRATURE_TOL
            assert out.converged
            assert out.error <= QUADRATURE_TOL * max(1.0, abs(out.value))


class TestConvergence:
    """Each quadrature route says whether its rule met the tolerance."""

    ROUTES = [
        lambda lengths: volume_edges(lengths).diagnostics["converged"],
        lambda lengths: volume_profile(lengths, 5).converged,
        lambda lengths: volume_sforza(angles_of(lengths)).diagnostics["converged"],
    ]
    IDS = ["edges", "profile", "sforza"]

    @pytest.mark.parametrize("route", ROUTES, ids=IDS)
    def test_converged_by_default(self, route, all_ones):
        assert route(all_ones) is True

    @pytest.mark.parametrize("route", ROUTES, ids=IDS)
    def test_a_capped_quadrature_is_reported(self, route, all_ones, monkeypatch):
        integrate = quadrature.integrate
        monkeypatch.setattr(quadrature, "integrate",
                            lambda *args: integrate(*args)._replace(converged=False))
        assert route(all_ones) is False


class TestOneDiagnosticsShape:
    """A flat result, where no quadrature runs, reports the keys and health
    flags of an integrated one, so each route prints one document shape."""

    @pytest.mark.parametrize("route, flat, solid", [
        (volume_edges, EdgeLengths(**FIVE_ONES, l34=0.0), EdgeLengths(**FIVE_ONES, l34=1.0)),
        (volume_sforza, DihedralAngles(*([math.acos(1.0 / 3.0)] * 6)),
         angles_of(EdgeLengths(**FIVE_ONES, l34=1.0))),
    ], ids=["edges", "sforza"])
    def test_flat_result_reports_as_an_integrated_one(self, route, flat, solid):
        res = route(flat)
        assert (res.value, res.evaluations) == (0.0, 0)
        assert list(res.diagnostics) == list(route(solid).diagnostics)
        assert (res.diagnostics["clamped_negative"], res.diagnostics["converged"]) == (False, True)


class TestProfileSamples:
    """volume_profile owns its sample range, and checks it before anything else."""

    @pytest.mark.parametrize("samples", [SWEEP_SAMPLES_MAX + 1, 10**9, 1, 0, -3, 5.0, "5"])
    @pytest.mark.parametrize("l34", [1.0, 2.0], ids=["tetrahedron", "not-a-tetrahedron"])
    def test_out_of_range_is_refused_before_any_quadrature(self, monkeypatch, samples, l34):
        def refuse(*args):
            raise AssertionError("a quadrature ran")

        monkeypatch.setattr(quadrature, "integrate", refuse)
        with pytest.raises(DomainError, match=f"needs 2 to {SWEEP_SAMPLES_MAX} samples"):
            volume_profile(EdgeLengths(**FIVE_ONES, l34=l34), samples)
