import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cases import sample_lengths
from hytet import (
    DihedralAngles,
    DomainError,
    EdgeLengths,
    NotATetrahedronError,
    cofactors,
    dihedral_angles,
    edge_matrix_from_lengths,
    gram_from_angles,
    l34_bounds,
)
from hytet.core import EDGE_PAIRS, cofactor4


def angles_of(lengths: EdgeLengths) -> DihedralAngles:
    return dihedral_angles(cofactors(edge_matrix_from_lengths(lengths)))


class TestDihedralAngles:
    def test_regular_unit_closed_form(self):
        th = angles_of(EdgeLengths(1, 1, 1, 1, 1, 1))
        c = math.cosh(1.0)
        expected = math.acos(c / (2 * c + 1))
        assert expected == pytest.approx(1.1835546602180564, abs=1e-12)
        for value in th.as_tuple():
            assert value == pytest.approx(expected, abs=1e-13)

    def test_small_lengths_approach_euclidean_angle(self):
        a = 1e-4
        th = angles_of(EdgeLengths(a, a, a, a, a, a))
        for value in th.as_tuple():
            assert value == pytest.approx(math.acos(1.0 / 3.0), abs=1e-7)

    def test_exact_fold_is_rejected(self):
        # at l34 = l1 = 0 two diagonal cofactors vanish: no solid tetrahedron
        C = cofactors(edge_matrix_from_lengths(EdgeLengths(1, 1, 1, 1, 1, 0)))
        with pytest.raises(NotATetrahedronError):
            dihedral_angles(C)

    def test_fold_limits_of_the_hinge_angle(self):
        b = l34_bounds(1, 1, 1, 1, 1)
        near_lo = angles_of(EdgeLengths(1, 1, 1, 1, 1, b.l1 + 1e-6))
        assert near_lo.th12 < 1e-4
        near_hi = angles_of(EdgeLengths(1, 1, 1, 1, 1, b.l2 - 1e-6))
        assert math.pi - near_hi.th12 < 1e-2
        assert near_hi.th12 < math.pi

    def test_hinge_angle_strictly_increasing(self):
        b = l34_bounds(1, 1, 1, 1, 1)
        grid = np.linspace(b.l1 + 1e-6, b.l2 - 1e-6, 40)
        values = [angles_of(EdgeLengths(1, 1, 1, 1, 1, float(t))).th12 for t in grid]
        assert all(u < v for u, v in zip(values, values[1:]))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31))
    def test_swap_of_hinge_vertices_preserves_opposite_angle(self, seed):
        L = sample_lengths(np.random.default_rng(seed))
        th = angles_of(L)
        th_swapped = angles_of(L.relabel((1, 0, 2, 3)))
        assert th_swapped.th34 == pytest.approx(th.th34, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31))
    def test_angles_in_open_interval(self, seed):
        L = sample_lengths(np.random.default_rng(seed))
        th = angles_of(L)
        assert all(0.0 < v < math.pi for v in th.as_tuple())
        assert not th.clamped


class TestGramMatrix:
    def test_right_angles_give_identity(self):
        th = DihedralAngles(*([math.pi / 2] * 6))
        assert np.allclose(gram_from_angles(th), np.eye(4), atol=1e-16)

    def test_euclidean_regular_angles_give_singular_gram(self):
        th = DihedralAngles(*([math.acos(1.0 / 3.0)] * 6))
        G = gram_from_angles(th)
        assert np.allclose(G - np.eye(4), -(1 / 3) * (np.ones((4, 4)) - np.eye(4)))
        assert np.linalg.det(G) == pytest.approx(0.0, abs=1e-14)

    def test_zero_angle_entry(self):
        # faces 3 and 4 (opposite vertices 3 and 4) share edge 1-2
        th = DihedralAngles(0.0, *([math.pi / 2] * 5))
        G = gram_from_angles(th)
        assert G[2][3] == pytest.approx(-1.0)

    def test_dual_cosine_rule_recovers_lengths(self, rng):
        # the face Gram matrix's cofactors give back the edge lengths:
        # cosh l_ij = c_ij / sqrt(c_ii c_jj)
        for _ in range(100):
            L = sample_lengths(rng)
            G = gram_from_angles(angles_of(L))
            lengths = L.length_matrix()
            c = [[cofactor4(G, i, j) for j in range(4)] for i in range(4)]
            for i, j in EDGE_PAIRS:
                cosh_l = c[i][j] / math.sqrt(c[i][i] * c[j][j])
                assert cosh_l == pytest.approx(math.cosh(lengths[i][j]), rel=1e-12)

    def test_angle_outside_range_rejected(self):
        th = DihedralAngles(3.2, *([math.pi / 2] * 5))
        with pytest.raises(DomainError):
            gram_from_angles(th)
