import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cases import sample_lengths
from hytet import (
    DomainError,
    EdgeLengths,
    cofactors,
    edge_matrix_from_lengths,
    expansion_residual,
    jacobi_residuals,
    opposite_pair,
)

EDGE_NAMES = ["l12", "l13", "l14", "l23", "l24", "l34"]


def numpy_cofactor_oracle(e):
    """Independent cofactor computation through LU-based determinants."""
    c = np.empty((4, 4))
    for i in range(4):
        for j in range(4):
            minor = np.delete(np.delete(e, i, axis=0), j, axis=1)
            c[i, j] = (-1) ** (i + j) * np.linalg.det(minor)
    return c, float(np.linalg.det(e))


lengths_st = st.lists(
    st.floats(min_value=0.0, max_value=2.5, allow_nan=False), min_size=6, max_size=6
)


class TestEdgeLengths:
    def test_zero_lengths_give_all_ones_matrix(self):
        E = edge_matrix_from_lengths(EdgeLengths(0, 0, 0, 0, 0, 0))
        assert np.array_equal(E.e, np.ones((4, 4)))

    def test_arccosh2_gives_entries_two(self):
        a = math.acosh(2.0)
        E = edge_matrix_from_lengths(EdgeLengths(a, a, a, a, a, a))
        assert np.allclose(E.e - np.eye(4), 2.0 * (1 - np.eye(4)), atol=1e-15)
        assert np.array_equal(np.diag(E.e), np.ones(4))

    def test_single_edge_cosh(self):
        E = edge_matrix_from_lengths(EdgeLengths(1.0, 0.3, 0.4, 0.5, 0.6, 0.7))
        assert E.e[0][1] == pytest.approx(1.5430806348152437, abs=1e-15)

    @pytest.mark.parametrize("field", EDGE_NAMES)
    def test_negative_input_names_field(self, field):
        values = dict.fromkeys(EDGE_NAMES, 1.0)
        values[field] = -0.5
        with pytest.raises(DomainError, match=field):
            EdgeLengths(**values)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, bad):
        values = dict.fromkeys(EDGE_NAMES, 1.0)
        values["l23"] = bad
        with pytest.raises(DomainError, match="l23"):
            EdgeLengths(**values)

    def test_relabel_roundtrip(self):
        L = EdgeLengths(0.9, 1.0, 1.1, 1.2, 1.3, 1.1)
        sigma = (2, 0, 3, 1)
        inverse = tuple(np.argsort(sigma))
        assert L.relabel(sigma).relabel(inverse) == L

    @pytest.mark.parametrize("field", EDGE_NAMES + ["other"])
    def test_fields_cannot_be_set(self, field):
        L = EdgeLengths(1, 1, 1, 1, 1, 1)
        with pytest.raises(AttributeError):
            setattr(L, field, 2.0)
        assert L == EdgeLengths(1, 1, 1, 1, 1, 1)

    def test_equal_values_compare_and_hash_alike(self):
        # a record is the tuple of its fields: equal lengths are equal
        # records, with one hash, and equal the plain tuple of their values
        a, b = EdgeLengths(1, 1, 1, 1, 1, 1), EdgeLengths(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        assert a == b and hash(a) == hash(b) and a == (1.0,) * 6
        assert a != a.with_l34(1.5)


class TestCofactors:
    def test_all_ones_matrix_is_rank_one(self):
        C = cofactors(edge_matrix_from_lengths(EdgeLengths(0, 0, 0, 0, 0, 0)))
        assert C.delta == 0.0
        assert np.array_equal(C.c, np.zeros((4, 4)))

    @pytest.mark.parametrize("a", [1e-4, 1e-2, 1.0, 10.0])
    def test_regular_closed_forms(self, a):
        c = math.cosh(a)
        one_minus_c = -2.0 * math.sinh(0.5 * a) ** 2
        C = cofactors(edge_matrix_from_lengths(EdgeLengths(a, a, a, a, a, a)))
        delta_exact = one_minus_c ** 3 * (1 + 3 * c)
        cii_exact = one_minus_c ** 2 * (1 + 2 * c)
        cij_exact = -c * one_minus_c ** 2
        assert C.delta == pytest.approx(delta_exact, rel=1e-13)
        for i in range(4):
            for j in range(4):
                expected = cii_exact if i == j else cij_exact
                assert C.c[i][j] == pytest.approx(expected, rel=1e-13)

    @settings(max_examples=80, deadline=None)
    @given(lengths_st)
    def test_matches_numpy_oracle(self, values):
        E = edge_matrix_from_lengths(EdgeLengths(*values))
        C = cofactors(E)
        oc, od = numpy_cofactor_oracle(E.e)
        scale = np.abs(oc).max() + 1.0
        assert np.abs(C.c - oc).max() <= 1e-12 * scale
        assert abs(C.delta - od) <= 1e-12 * (1.0 + abs(od))

    @settings(max_examples=80, deadline=None)
    @given(lengths_st)
    def test_symmetry_and_expansion(self, values):
        E = edge_matrix_from_lengths(EdgeLengths(*values))
        C = cofactors(E)
        assert np.array_equal(C.c, np.transpose(C.c))
        assert expansion_residual(E, C) <= 1e-12 * (1.0 + abs(C.delta))

    @settings(max_examples=40, deadline=None)
    @given(lengths_st, st.permutations(list(range(4))))
    def test_permutation_equivariance(self, values, sigma):
        L = EdgeLengths(*values)
        C = cofactors(edge_matrix_from_lengths(L))
        Cp = cofactors(edge_matrix_from_lengths(L.relabel(sigma)))
        scale = np.abs(C.c).max() + 1.0
        assert abs(C.delta - Cp.delta) <= 1e-11 * (1.0 + abs(C.delta))
        for i in range(4):
            for j in range(4):
                assert abs(Cp.c[i][j] - C.c[sigma[i]][sigma[j]]) <= 1e-11 * scale


class TestCofactorsPinnedBits:
    """cofactors() pinned to the last bit (repr literals), so that any change
    to its arithmetic or summation order shows here first."""

    def test_all_ones(self):
        C = cofactors(edge_matrix_from_lengths(EdgeLengths(*[1.0] * 6)))
        d, o = 1.2051584134863016, -0.45511091878748666
        assert C.c == tuple(tuple(d if i == j else o for j in range(4)) for i in range(4))
        assert C.delta == -0.9016601229355298

    def test_scalene(self):
        C = cofactors(edge_matrix_from_lengths(EdgeLengths(
            2.965137128963416, 1.3027372332455953, 3.620365722713066,
            2.7711659744596884, 3.3277033833681555, 3.444634108222735)))
        assert C.c == (
            (3006.1982095372105, -124.42856954304744, -3465.9369937570436,
             -94.06483524059),
            (-124.42856954304744, 559.8915468416837, -334.04934749986603,
             -249.35927769525964),
            (-3465.9369937570436, -334.04934749986603, 4434.809843823742,
             -109.52397812381989),
            (-94.06483524059, -249.35927769525964, -109.52397812381989,
             146.35995312292806),
        )
        assert C.delta == -6808.982684148418


class TestJacobiResiduals:
    def test_all_ones_matrix_vanishes_exactly(self):
        E = edge_matrix_from_lengths(EdgeLengths(0, 0, 0, 0, 0, 0))
        res = jacobi_residuals(E, cofactors(E))
        assert res.residuals == tuple([0.0] * 14)
        assert len(res.residuals) == 14

    def test_regular_unit(self):
        E = edge_matrix_from_lengths(EdgeLengths(1, 1, 1, 1, 1, 1))
        res = jacobi_residuals(E, cofactors(E))
        assert max(res.residuals) < 1e-12

    def test_hundred_random_valid_tetrahedra(self, rng):
        worst = 0.0
        for _ in range(100):
            L = sample_lengths(rng)
            E = edge_matrix_from_lengths(L)
            worst = max(worst, jacobi_residuals(E, cofactors(E)).max_relative)
        assert worst < 1e-10

    @settings(max_examples=80, deadline=None)
    @given(lengths_st)
    def test_holds_for_any_cosh_matrix(self, values):
        # algebraic identities: no geometric validity required
        E = edge_matrix_from_lengths(EdgeLengths(*values))
        res = jacobi_residuals(E, cofactors(E))
        assert res.max_relative < 1e-10


def test_opposite_pair_is_complementary():
    for i, j in itertools.combinations(range(4), 2):
        k, l = opposite_pair(i, j)
        assert {i, j, k, l} == {0, 1, 2, 3}
    assert opposite_pair(0, 1) == (2, 3)
    assert opposite_pair(0, 3) == (1, 2)
