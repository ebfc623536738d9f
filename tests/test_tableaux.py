from collections import Counter
from functools import reduce
from itertools import starmap

import pytest

from battery import skew_pairs
from schurrec.partitions import Partition
from schurrec.tableaux import (
    column_factors,
    ColumnView,
    SkewShape,
    Tableau,
    column_tableau,
    columns,
    decompose,
    empty_tableau,
    enumerate_tableaux,
    insert,
    is_valid_ssyt,
    sits_inside,
    stabilization_index,
    weight,
)


def P(*parts):
    return Partition(parts)


FIG2_SHAPE = SkewShape(P(5, 4, 3, 1), P(3, 2, 2))
FIG2 = Tableau(FIG2_SHAPE, [[1, 1], [1, 3], [2], [3]], 3)


class TestShapes:
    def test_box_counts_match_figure(self):
        # shape (5,4,3,1)/(3,2,2): seven skew boxes, six ordinary boxes
        assert FIG2_SHAPE.num_skew_boxes == 7
        assert FIG2_SHAPE.num_boxes == 6

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            SkewShape(P(2), P(3))

    def test_shape_is_sum_of_its_column_runs(self):
        for shape in starmap(SkewShape, skew_pairs(6, 4)):
            outer, inner = P(), P()
            for first, last in shape.column_runs():
                outer, inner = outer + P(*[1] * last), inner + P(*[1] * (first - 1))
            assert SkewShape(outer, inner) == shape

    def test_column_intervals_are_contiguous_runs(self):
        for shape in starmap(SkewShape, skew_pairs(5, 4)):
            for j, (first, last) in enumerate(shape.column_runs(), 1):
                if first <= last:
                    rows = [i + 1 for i in range(len(shape.outer)) if shape.inner[i] < j <= shape.outer[i]]
                    assert rows == list(range(first, last + 1))


class TestValidity:
    def test_fig2_is_valid(self):
        assert is_valid_ssyt(FIG2)

    def test_empty_tableau_is_valid(self):
        assert is_valid_ssyt(empty_tableau(3))

    def test_column_violation(self):
        t = Tableau(SkewShape(P(1, 1)), [[1], [1]], 2)
        assert not is_valid_ssyt(t)

    def test_row_violation(self):
        t = Tableau(SkewShape(P(2)), [[2, 1]], 2)
        assert not is_valid_ssyt(t)

    def test_entry_out_of_range(self):
        t = Tableau(SkewShape(P(1)), [[3]], 2)
        assert not is_valid_ssyt(t)


class TestEnumerate:
    def test_single_box(self):
        ts = enumerate_tableaux(SkewShape(P(1)), 2)
        assert [t.rows for t in ts] == [((1,),), ((2,),)]

    def test_two_one_count(self):
        assert len(enumerate_tableaux(SkewShape(P(2, 1)), 3)) == 8

    def test_contains_fig2(self):
        assert FIG2 in enumerate_tableaux(FIG2_SHAPE, 3)

    def test_all_results_valid_and_distinct(self):
        for shape in starmap(SkewShape, skew_pairs(4, 3)):
            ts = enumerate_tableaux(shape, 3)
            assert len(set(ts)) == len(ts)
            assert all(is_valid_ssyt(t) for t in ts)

    def test_lexicographic_row_major_order(self):
        for shape in [SkewShape(P(2, 1)), SkewShape(P(3, 1), P(1))]:
            ts = enumerate_tableaux(shape, 3)
            flat = [sum((list(r) for r in t.rows), []) for t in ts]
            assert flat == sorted(flat)

    def test_empty_shape_has_one_filling(self):
        assert len(enumerate_tableaux(SkewShape(P(), P()), 3)) == 1
        assert len(enumerate_tableaux(SkewShape(P(2, 2), P(2, 2)), 3)) == 1

    def test_too_tall_column_gives_nothing(self):
        assert enumerate_tableaux(SkewShape(P(1, 1, 1)), 2) == []


class TestWeight:
    def test_fig2_weight(self):
        assert weight(FIG2) == (3, 1, 2)

    def test_empty(self):
        assert weight(empty_tableau(3)) == (0, 0, 0)

    def test_forced_filling(self):
        t = Tableau(SkewShape(P(2, 2)), [[1, 1], [2, 2]], 2)
        assert weight(t) == (2, 2)


class TestInsert:
    def test_column_squared(self):
        col = Tableau(SkewShape(P(1, 1)), [[1], [2]], 2)
        sq = insert(col, col)
        assert sq.shape == SkewShape(P(2, 2)) and sq.rows == ((1, 1), (2, 2))

    def test_identity(self):
        for t in enumerate_tableaux(SkewShape(P(2, 1)), 2):
            assert insert(t, empty_tableau(2)) == t

    def test_skew_goes_first(self):
        t1 = Tableau(SkewShape(P(1)), [[2]], 2)
        t2 = Tableau(SkewShape(P(2), P(1)), [[1]], 2)
        out = insert(t1, t2)
        assert out.shape == SkewShape(P(3), P(1))
        assert out.rows == ((1, 2),)
        assert weight(out) == (1, 1)

    def test_alphabet_mismatch_rejected(self):
        with pytest.raises(ValueError):
            insert(empty_tableau(2), empty_tableau(3))


class TestMonoid:
    """Closure, weight additivity, commutativity, associativity, cancellation
    and column factorization on an exhaustive small universe."""

    universe = None

    @classmethod
    def tableaux_universe(cls):
        if cls.universe is None:
            cls.universe = [
                t for shape in starmap(SkewShape, skew_pairs(4, 3)) for t in enumerate_tableaux(shape, 3)
            ]
        return cls.universe

    def test_closure_weights_and_commutativity(self):
        ts = self.tableaux_universe()
        for t1 in ts:
            for t2 in ts:
                prod = insert(t1, t2)  # insert re-validates internally
                assert prod.shape.outer == Partition(
                    [t1.shape.outer[i] + t2.shape.outer[i] for i in range(3)]
                )
                assert prod.shape.inner == Partition(
                    [t1.shape.inner[i] + t2.shape.inner[i] for i in range(3)]
                )
                assert weight(prod) == tuple(
                    a + b for a, b in zip(weight(t1), weight(t2))
                )
                assert prod == insert(t2, t1)

    def test_associativity(self):
        ts = [
            t for shape in starmap(SkewShape, skew_pairs(2, 2)) for t in enumerate_tableaux(shape, 3)
        ]
        for t1 in ts:
            for t2 in ts:
                t12 = insert(t1, t2)
                for t3 in ts:
                    assert insert(t12, t3) == insert(t1, insert(t2, t3))

    def test_cancellation(self):
        shapes = list(starmap(SkewShape, skew_pairs(3, 3)))
        for sa in shapes:
            ta = enumerate_tableaux(sa, 3)
            if not ta:
                continue
            for sb in shapes:
                for t in enumerate_tableaux(sb, 3):
                    images = {insert(x, t) for x in ta}
                    assert len(images) == len(ta)

    def test_column_factorization(self):
        for t in self.tableaux_universe():
            factors = column_factors(t)
            rebuilt = reduce(insert, factors, empty_tableau(t.n))
            assert rebuilt == t
            # shapes without fully-skew columns rebuild from the entry-bearing
            # columns alone
            if all(first <= last for first, last in t.shape.column_runs()):
                cols = [column_tableau(cv, t.n) for cv in columns(t)]
                assert reduce(insert, cols, empty_tableau(t.n)) == t


class TestColumns:
    def test_small_example(self):
        t = Tableau(SkewShape(P(2, 1)), [[1, 2], [2]], 3)
        cols = columns(t)
        assert [(c.col_index, c.first_row, c.last_row, c.entries) for c in cols] == [
            (1, 1, 2, (1, 2)),
            (2, 1, 1, (2,)),
        ]

    def test_empty(self):
        assert columns(empty_tableau(2)) == []

    def test_fig2_column_intervals(self):
        # derived from the (5,4,3,1)/(3,2,2) occupancy: four nonempty columns
        cols = columns(FIG2)
        assert [(c.col_index, c.first_row, c.last_row) for c in cols] == [
            (1, 4, 4),
            (3, 2, 3),
            (4, 1, 2),
            (5, 1, 1),
        ]

    def test_inconsistent_view_rejected(self):
        with pytest.raises(ValueError):
            ColumnView(1, 1, 3, (1, 2))


class TestSitsInside:
    def test_figure_three(self):
        a = SkewShape(P(2, 1), P(1))
        b = SkewShape(P(4, 2, 1), P(1, 1))
        c = SkewShape(P(6, 4, 1), P(2, 2))
        assert sits_inside(b, c)
        assert not sits_inside(a, b)
        assert not sits_inside(a, c)

    def test_reflexive(self):
        for shape in starmap(SkewShape, skew_pairs(4, 4)):
            assert sits_inside(shape, shape)

    def test_multiplicity_counts(self):
        one_col = SkewShape(P(1, 1))
        two_cols = SkewShape(P(2, 2))
        assert sits_inside(one_col, two_cols)
        assert not sits_inside(two_cols, one_col)


class TestStabilization:
    def test_empty_base_gives_zero(self):
        for mu, nu in [(P(1), P()), (P(2, 1), P(1)), (P(1, 1), P())]:
            assert stabilization_index(P(), P(), mu, nu) == 0

    def test_single_box_base(self):
        assert stabilization_index(P(1), P(), P(1), P()) == 0

    def test_bound(self):
        from schurrec.partitions import contains, partitions_up_to

        kls = partitions_up_to(4, 2, max_part=2)
        for kappa in kls:
            for lam in kls:
                if not contains(kappa, lam):
                    continue
                for mu, nu in skew_pairs(3, 2):
                    r = stabilization_index(kappa, lam, mu, nu)
                    assert 0 <= r <= kappa[0] + 1

    def test_invalid_base_rejected(self):
        with pytest.raises(ValueError):
            stabilization_index(P(1), P(2), P(1), P())


class TestDecompose:
    def test_symmetric_split(self):
        t = Tableau(SkewShape(P(2, 2)), [[1, 1], [2, 2]], 2)
        t1, t2 = decompose(t, SkewShape(P(1, 1)))
        assert t1.rows == ((1,), (2,)) and t2.rows == ((1,), (2,))

    def test_empty_factor(self):
        for t in enumerate_tableaux(SkewShape(P(2, 1)), 2):
            t1, t2 = decompose(t, SkewShape(P(), P()))
            assert t1 == empty_tableau(2) and t2 == t

    def test_round_trip_exhaustive(self):
        from schurrec.partitions import subtract

        shapes = list(starmap(SkewShape, skew_pairs(4, 3)))
        for big in shapes:
            tableaux = enumerate_tableaux(big, 3)
            for small in shapes:
                if not sits_inside(small, big):
                    continue
                # the complement of contained column runs is a skew shape
                rest = SkewShape(
                    Partition(subtract(big.outer, small.outer)),
                    Partition(subtract(big.inner, small.inner)),
                )
                assert rest.num_boxes == big.num_boxes - small.num_boxes
                for t in tableaux:
                    t1, t2 = decompose(t, small)
                    assert t1.shape == small
                    assert insert(t1, t2) == t

    def test_precondition_violation(self):
        t = Tableau(SkewShape(P(1)), [[1]], 2)
        with pytest.raises(ValueError):
            decompose(t, SkewShape(P(1, 1)))
