"""The dense weight-table engine must agree exactly with tableau enumeration
and the Jacobi-Trudi oracle; it backs sequence terms in the big batteries."""
import random
from unittest import mock

import numpy as np
import pytest

from schurrec import _dense
from schurrec._dense import (
    UnsupportedShape,
    counts_to_multipoly,
    schur_int_eval,
    ssyt_count,
    weight_counts,
)
from schurrec.partitions import Partition, contains, partitions_up_to
from schurrec.polynomials import skew_schur, skew_schur_jacobi_trudi
from schurrec.recurrence import build_sequence
from schurrec.tableaux import SkewShape, enumerate_tableaux


def P(*parts):
    return Partition(parts)


def shape_battery(max_outer=6, max_len=3):
    out = []
    for outer in partitions_up_to(max_outer, max_len):
        for inner in partitions_up_to(outer.weight, max_len):
            if contains(outer, inner):
                out.append((outer, inner))
    return out


class TestWeightCounts:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_enumeration_exhaustively(self, n):
        for outer, inner in shape_battery(max_outer=7, max_len=5):
            table = weight_counts(outer, inner, n)
            assert table.dtype == np.int64
            poly = counts_to_multipoly(table, n, outer.weight - inner.weight)
            assert poly == skew_schur(SkewShape(outer, inner), n)

    def test_large_shape_against_jacobi_trudi(self):
        outer, inner = P(23, 9), P(8, 1)
        table = weight_counts(outer, inner, 3)
        poly = counts_to_multipoly(table, 3, outer.weight - inner.weight)
        assert poly == skew_schur_jacobi_trudi(SkewShape(outer, inner), 3)

    @pytest.mark.parametrize(
        "outer,inner",
        [(P(29, 14), P()), (P(12, 9, 5, 2), P(3, 1)), (P(9, 7, 6, 4, 2, 1), P(5, 2, 1)), (P(40), P(7))],
    )
    def test_large_four_letter_shapes_at_integer_points(self, outer, inner):
        poly = counts_to_multipoly(weight_counts(outer, inner, 4), 4, outer.weight - inner.weight)
        rng = random.Random(f"{outer}/{inner}")
        for _ in range(5):
            point = tuple(rng.randrange(-9, 10) for _ in range(4))
            assert poly.eval(point) == schur_int_eval(outer, inner, point)

    def test_unsupported_combinations(self):
        with pytest.raises(UnsupportedShape):
            weight_counts(P(2), P(), 5)
        table = weight_counts(P(1, 1, 1, 1), P(), 3)
        assert table.shape == (5, 5) and not table.any()

    def test_int64_guard_refuses_and_terms_stay_exact(self):
        seq = build_sequence(P(), P(), P(2, 1), P(), 4)
        expected = skew_schur(seq.shape_at(3), 4)
        with mock.patch.object(_dense, "_INT64_LIMIT", seq.count_at(3)):
            with pytest.raises(UnsupportedShape):
                weight_counts(seq.outer_at(3), seq.inner_at(3), 4)
            assert seq.term_table(3) is None
            assert seq.term(3) == expected

    def test_empty_shape(self):
        table = weight_counts(P(), P(), 3)
        assert table.shape == (1, 1) and int(table[0, 0]) == 1


class TestIntegerEvaluation:
    def test_counts(self):
        assert ssyt_count(P(2, 1), P(), 3) == 8
        assert ssyt_count(P(1), P(), 2) == 2
        assert ssyt_count(P(1, 1, 1), P(), 2) == 0
        assert ssyt_count(P(), P(), 2) == 1

    def test_counts_match_enumeration(self):
        for outer, inner in shape_battery(max_outer=5):
            for n in (1, 2, 3):
                expected = len(enumerate_tableaux(SkewShape(outer, inner), n))
                assert ssyt_count(outer, inner, n) == expected

    def test_point_evaluation_matches_polynomial(self):
        for outer, inner in [(P(3, 1), P(1)), (P(2, 2), P()), (P(4), P(2))]:
            shape = SkewShape(outer, inner)
            poly = skew_schur(shape, 3)
            for point in [(1, 1, 1), (2, 3, 5), (7, 2, 1)]:
                assert schur_int_eval(outer, inner, point) == poly.eval(point)

    def test_four_variables(self):
        shape = SkewShape(P(2, 1), P())
        poly = skew_schur(shape, 4)
        assert schur_int_eval(P(2, 1), P(), (1, 1, 1, 1)) == sum(poly.terms.values())
        assert schur_int_eval(P(2, 1), P(), (2, 3, 4, 5)) == poly.eval((2, 3, 4, 5))
