from collections import Counter
from functools import reduce
from itertools import starmap

import pytest
from hypothesis import given, settings, strategies as st

from battery import battery_families, skew_pairs
from schurrec.partitions import Partition, add, scale
from schurrec.recurrence import build_sequence
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
    first_enclosing_index,
    insert,
    is_valid_ssyt,
    iter_tableaux,
    sits_inside,
    stabilization_index,
    weight,
)


def P(*parts):
    return Partition(parts)


def runs_per_column(shape):
    """(inner'_j + 1, outer'_j) read one column j at a time: the definition of the column runs."""
    outer, inner = shape.outer.parts, shape.inner.parts
    return [(sum(x > j for x in inner) + 1, sum(x > j for x in outer)) for j in range(shape.outer[0])]


def stretched(kappa, lam, mu, nu, r):
    return SkewShape(add(kappa, scale(r, mu)), add(lam, scale(r, nu)))


def scanned_first_enclosing_index(kappa, lam, mu, nu):
    """The least r0 found by scanning r0 = 0, 1, ... with per-column runs: the bisection's oracle."""
    wanted = Counter(runs_per_column(SkewShape(mu, nu)))
    for r0 in range(kappa[0] + 2):
        if not wanted - Counter(runs_per_column(stretched(kappa, lam, mu, nu, r0))):
            return r0
    raise AssertionError("no enclosing index within the bound kappa_1 + 1")


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

    def test_column_blocks_expand_to_the_run_of_each_column(self):
        for shape in starmap(SkewShape, skew_pairs(9, 5)):
            blocks = shape._column_blocks()
            runs = [run for run, _ in blocks]
            assert len(set(runs)) == len(runs) and all(width > 0 for _, width in blocks)
            assert [run for run, width in blocks for _ in range(width)] == runs_per_column(shape) == shape.column_runs()
            assert shape.num_columns() == sum(first <= last for first, last in runs_per_column(shape))

    def test_column_blocks_of_a_wide_shape_are_cut_at_its_parts(self):
        shape = SkewShape(P(30_000_000, 5), P(29_999_999))
        assert shape._column_blocks() == [((2, 2), 5), ((2, 1), 29_999_994), ((1, 1), 1)]
        assert shape.num_columns() == 6

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


def grid_walk(shape, n, weight_cap=None):
    """The tableau walk with its partial filling in a (row, col) dict beside
    its rows: the oracle for iter_tableaux, which keeps the rows alone."""
    cells = shape.cells()
    grid, counts, value_rows = {}, [0] * (n + 1), [[] for _ in shape.outer]

    def rec(idx):
        if idx == len(cells):
            yield Tableau(shape, [list(r) for r in value_rows], n)
            return
        i, j = cells[idx]
        lo = 1
        if (i, j - 1) in grid:
            lo = max(lo, grid[(i, j - 1)])
        if (i - 1, j) in grid:
            lo = max(lo, grid[(i - 1, j)] + 1)
        for v in range(lo, n + 1):
            if weight_cap is not None and counts[v] + 1 > weight_cap[v - 1]:
                continue
            grid[(i, j)] = v
            counts[v] += 1
            value_rows[i].append(v)
            yield from rec(idx + 1)
            value_rows[i].pop()
            counts[v] -= 1
            del grid[(i, j)]

    return rec(0)


@st.composite
def walk_input_st(draw):
    shape = SkewShape(*draw(st.sampled_from(skew_pairs(8, 4))))
    n = draw(st.integers(1, 5))
    cap = draw(st.none() | st.lists(st.integers(0, 4), min_size=n, max_size=n))
    return shape, n, cap


class TestWalkAgainstGridOracle:
    @given(walk_input_st())
    @settings(deadline=None, max_examples=200)
    def test_same_tableaux_in_the_same_order(self, inp):
        shape, n, cap = inp
        assert list(iter_tableaux(shape, n, weight_cap=cap)) == list(grid_walk(shape, n, cap))


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

    @given(st.sampled_from(skew_pairs(8, 3)), st.sampled_from(skew_pairs(4, 3)))
    @settings(deadline=None, max_examples=300)
    def test_sits_inside_never_turns_false_as_r_grows(self, base, step):
        # which is what makes the bisection for the first enclosing index exact
        (kappa, lam), (mu, nu) = base, step
        small = SkewShape(mu, nu)
        inside = [sits_inside(small, stretched(kappa, lam, mu, nu, r)) for r in range(kappa[0] + 4)]
        assert inside == sorted(inside)

    def test_bisection_matches_the_scan_on_the_battery(self):
        families = list(battery_families())
        assert len(families) == 4007
        for kappa, lam, mu, nu, n in families:
            seq = build_sequence(kappa, lam, mu, nu, n)
            r0 = first_enclosing_index(seq.kappa, seq.lam, mu, nu)
            assert r0 == scanned_first_enclosing_index(seq.kappa, seq.lam, mu, nu), (kappa, lam, mu, nu, n)
            assert seq.r in (r0, max(0, r0 - 1))

    def test_bisection_matches_the_scan_on_wide_bases(self):
        # [m + r, r]/[m - 1] first has a column of two ordinary boxes at r = m
        for m in range(1, 51):
            kappa, lam, mu = P(m), P(m - 1), P(1, 1)
            assert first_enclosing_index(kappa, lam, mu, P()) == scanned_first_enclosing_index(kappa, lam, mu, P()) == m


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
