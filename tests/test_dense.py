"""The dense weight-table engine must agree exactly with tableau enumeration
and the Jacobi-Trudi oracle; it backs sequence terms in the big batteries."""
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from battery import skew_pairs
from schurrec import _dense, polynomials
from schurrec._dense import UnsupportedShape, counts_to_multipoly, table_cells, weight_counts
from schurrec.partitions import Partition
from schurrec.polynomials import schur_int_eval, skew_schur, skew_schur_jacobi_trudi, ssyt_count
from schurrec.recurrence import build_sequence, char_poly, verify_certificate
from schurrec.tableaux import SkewShape


def P(*parts):
    return Partition(parts)


class TestWeightCounts:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_enumeration_exhaustively(self, n):
        for outer, inner in skew_pairs(7, 5):
            table = weight_counts(outer, inner, n)
            assert table.dtype == np.int64
            poly = counts_to_multipoly(table, n, outer.weight - inner.weight)
            assert poly == skew_schur(SkewShape(outer, inner), n)

    def test_table_cells_in_c_order(self):
        # one column per letter, the last letter's exponent the boxes left over
        table = np.array([[0, 2], [3, 0], [0, 5]], dtype=np.int64)
        assert table_cells(table, 4) == ([[0, 1, 2], [1, 0, 1], [3, 3, 1]], [2, 3, 5])
        assert table_cells(np.array(7, dtype=np.int64), 4) == ([[4]], [7])  # one letter
        assert table_cells(np.array(0, dtype=np.int64), 4) == ([[]], [])
        with pytest.raises(RuntimeError, match="exceeds box count"):
            table_cells(table, 2)

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
        # a count at the limit is refused by the term too: no engine lists it
        seq = build_sequence(P(), P(), P(2, 1), P(), 4)
        total = ssyt_count(seq.outer_at(3), seq.inner_at(3), 4)
        refusal = rf"^{total} fillings reach the int64 limit {total}"
        with mock.patch.object(_dense, "_INT64_LIMIT", total):
            with pytest.raises(ValueError, match=refusal):
                weight_counts(seq.outer_at(3), seq.inner_at(3), 4)
            with pytest.raises(ValueError, match=refusal):
                seq.term(3)
        assert 3 not in seq._tables and 3 not in seq._terms
        assert seq.term(3) == skew_schur(seq.shape_at(3), 4)

    def test_thirty_two_disjoint_boxes_are_refused(self):
        # b one-box rows touching at corners have 4^b fillings at n = 4: 31
        # (2^62) are served, their chain in Python integers since its bound
        # is 2^63, and 32 (2^64) are refused up front
        chi = char_poly(P(), P(), 4)
        seq = build_sequence(P(*range(31, 0, -1)), P(*range(30, 0, -1)), P(), P(), 4)
        assert int(seq.term_table(seq.r).sum()) == 1 << 62
        assert verify_certificate(seq, chi, seq.r, 1).ok
        kappa, lam = P(*range(32, 0, -1)), P(*range(31, 0, -1))
        assert ssyt_count(kappa, lam, 4) == 1 << 64
        seq = build_sequence(kappa, lam, P(), P(), 4)
        with pytest.raises(ValueError, match=rf"^{1 << 64} fillings reach the int64 limit {1 << 63}"):
            verify_certificate(seq, chi, seq.r, 1)

    def test_int64_guard_serves_every_count_below_the_limit(self):
        # every intermediate is at most the filling count, so the engine
        # serves every count below 2^63
        assert _dense._INT64_LIMIT == 1 << 63
        outer, inner = P(5, 3, 2, 1), P(2, 1)
        total = ssyt_count(outer, inner, 4)
        with mock.patch.object(_dense, "_INT64_LIMIT", total + 1):
            assert int(weight_counts(outer, inner, 4).sum()) == total

    def test_empty_shape(self):
        table = weight_counts(P(), P(), 3)
        assert table.shape == (1, 1) and int(table[0, 0]) == 1


def rows_shape(rows):
    """outer, inner of the skew shape whose rows, bottom row first, are
    (length, link) pairs; link says how a row meets the row below it:
    "apart" (a column between), "touch" (at a corner) or "share" (one
    common column).  A row sharing with a wider row below is widened."""
    outer, inner = [], []
    lo = hi = 0
    for length, link in rows:
        start = {"apart": hi + 1, "touch": hi, "share": max(lo, hi - 1)}[link]
        lo, hi = start, max(start + length, hi)
        inner.insert(0, lo)
        outer.insert(0, hi)
    return Partition(outer), Partition(inner)


def chain_counts(lam, mu, n):
    """The weight table of lam/mu (one entry per row, both of the same
    length) through the chain engine, one shape on its own: the
    single-shape builder that window_counts batches, kept as its oracle.

    rho2 runs over the partitions between the two bounds, listed a part at
    a time; for each size c = |rho2/inner|, K[t1, c - t1, t3] sums
    A[t1] * B[t3] over the rho2 of that size."""
    lam = np.array(lam, dtype=np.int64)
    mu = np.array(mu, dtype=np.int64)
    D = int(lam.sum() - mu.sum())
    used = [j > 4 - n for j in (1, 2, 3)]
    lo, hi = np.maximum(mu, _dense._shifted(lam, 2)), np.minimum(lam, _dense._shifted(mu, -used[0] - used[1]))
    rho2 = np.full((1, 1), hi[0], dtype=np.int64)
    for a, b in zip(lo, hi):
        sizes = np.maximum(np.minimum(rho2[:, -1], b) - a + 1, 0)
        parent = np.repeat(np.arange(len(rho2)), sizes)
        value = a + np.arange(len(parent)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        rho2 = np.column_stack((rho2[parent], value))
    rho2 = rho2[:, 1:]
    lo1, hi1 = np.maximum(mu, _dense._shifted(rho2, 1)), np.minimum(rho2, _dense._shifted(mu, -used[0]))
    lo3, hi3 = np.maximum(_dense._shifted(lam, 1), rho2), np.minimum(lam, _dense._shifted(rho2, -used[2]))
    keep = (lo1 <= hi1).all(axis=1) & (lo3 <= hi3).all(axis=1)
    widths = [D + 1 if u else 1 for u in used]
    A = _dense._box_sums(lo1[keep] - mu, hi1[keep] - mu, widths[0])
    B = _dense._box_sums(lo3[keep] - rho2[keep], hi3[keep] - rho2[keep], widths[2])
    size = rho2[keep].sum(axis=1) - mu.sum()
    K = np.zeros(widths, dtype=np.int64)
    for c in set(size.tolist()):
        block = size == c
        t1 = np.arange(min(c, widths[0] - 1) + 1)
        K[t1, c - t1] += (A[block].T @ B[block])[t1]
    return K.reshape((D + 1,) * (n - 1))


def unsplit_table(outer, inner, n):
    rows = max(len(outer), 1)
    return chain_counts(_dense._padded(outer, rows), _dense._padded(inner, rows), n)


@st.composite
def stretched_isolated_st(draw):
    """A small shape stretched by k, the k keeping every row at most 80
    boxes and the chain engine's middle shapes on the unsplit shape few."""
    rows = draw(st.lists(st.tuples(st.integers(0, 4), st.sampled_from(["apart", "touch", "share"])), min_size=1, max_size=5))
    outer, inner = rows_shape(rows)
    lengths = [outer[r] - inner[r] for r in range(len(outer))]

    def cost(k):
        return np.prod([k * length + 1 for length in lengths])

    kmax = max([k for k in range(1, 21) if k * max(lengths, default=0) <= 80 and cost(k) <= 20000], default=1)
    k = draw(st.integers(1, kmax))
    return Partition([k * p for p in outer]), Partition([k * p for p in inner])


class TestIsolatedRows:
    """Rows sharing no column with a neighbour are h_m factors; the tables
    built that way must equal the chain engine's on the whole shape."""

    @given(stretched_isolated_st(), st.integers(1, 4), st.tuples(*[st.integers(-3, 3)] * 4))
    @settings(deadline=None, max_examples=60)
    def test_stretched_shapes_match_chain_engine_and_jacobi_trudi(self, shape, n, point):
        outer, inner = shape
        table = weight_counts(outer, inner, n)
        expected = unsplit_table(outer, inner, n)
        assert table.dtype == np.int64 and table.shape == expected.shape
        assert np.array_equal(table, expected)
        poly = counts_to_multipoly(table, n, outer.weight - inner.weight)
        assert poly.eval(point[:n]) == schur_int_eval(outer, inner, point[:n])

    @pytest.mark.parametrize(
        "outer,inner,isolated",
        [
            (P(40, 20, 10), P(20, 10), [True, True, True]),  # empty rest
            (P(30, 12, 12, 12, 6, 2), P(12, 12, 12, 5, 1), [True, True, True, False, False, False]),  # first, empty rows
            (P(20, 18, 9, 5, 5, 3), P(15, 9, 5, 5, 2), [False, False, True, True, False, False]),  # middle, empty row
            (P(20, 18, 9, 9), P(15, 9, 9), [False, False, True, True]),  # empty row, then last
        ],
    )
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_isolated_first_middle_and_last_rows(self, outer, inner, isolated, n):
        rows = len(outer)
        assert _dense._isolated_rows(_dense._padded(outer, rows), _dense._padded(inner, rows)) == isolated
        table = weight_counts(outer, inner, n)
        assert np.array_equal(table, unsplit_table(outer, inner, n))

    @pytest.mark.parametrize(
        "outer,inner,isolated",
        [
            (P(6, 4, 2), P(4, 2), [True, True, True]),  # every row touches the next at a corner
            (P(6, 4, 2), P(4, 1), [True, False, False]),  # rows 1 and 2 share column 1
            (P(6, 4, 2), P(3, 2), [False, False, True]),  # rows 0 and 1 share column 3
            (P(6, 4, 2), P(3, 1), [False, False, False]),
        ],
    )
    def test_column_boundary(self, outer, inner, isolated):
        assert _dense._isolated_rows(_dense._padded(outer, 3), _dense._padded(inner, 3)) == isolated
        for n in (2, 3, 4):
            table = weight_counts(outer, inner, n)
            assert np.array_equal(table, unsplit_table(outer, inner, n))
            poly = counts_to_multipoly(table, n, outer.weight - inner.weight)
            assert poly == skew_schur(SkewShape(outer, inner), n)

    def test_int64_guard_serves_every_count_below_the_limit(self):
        # the filter's intermediates are at most the table's total, so the
        # limit just above the filling count is enough, for a rest too
        for outer, inner in [(P(9, 5, 2), P(5, 2)), (P(9, 5, 4, 2), P(5, 3, 1))]:
            total = ssyt_count(outer, inner, 4)
            with mock.patch.object(_dense, "_INT64_LIMIT", total + 1):
                assert int(weight_counts(outer, inner, 4).sum()) == total
            with mock.patch.object(_dense, "_INT64_LIMIT", total):
                with pytest.raises(ValueError, match=f"{total} fillings"):
                    weight_counts(outer, inner, 4)

    def test_all_isolated_shape_lists_no_middle_shape(self):
        spy = mock.Mock(wraps=_dense._partitions_between)
        with mock.patch.object(_dense, "_partitions_between", spy):
            weight_counts(P(120, 40, 1), P(40, 2), 3)
            weight_counts(P(16, 8, 8, 3), P(8, 8, 3), 4)
            assert spy.call_count == 0
            weight_counts(P(16, 8, 8, 3), P(8, 7, 3), 4)
            assert spy.call_count == 1

    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_simplex_filter_matches_direct_sum(self, d):
        rng = np.random.default_rng(d)
        for width in range(1, 7):
            inside = sum(np.ogrid[(slice(width),) * d], 0) < width
            for m in range(width + 2):
                x = rng.integers(0, 50, (width,) * d) * inside
                expected = np.zeros_like(x)
                for t in zip(*np.nonzero(inside)) if d else [()]:
                    for u in np.ndindex(*(m + 1,) * d):
                        if sum(u) <= m and all(a >= b for a, b in zip(t, u)):
                            expected[t] += x[tuple(a - b for a, b in zip(t, u))]
                # a batch of one table, with its own m
                assert np.array_equal(_dense._simplex_filter(x[..., None], [m], d)[..., 0] * inside, expected)


SMALL_PAIRS = skew_pairs(4, 3)


@st.composite
def stretched_window_st(draw):
    """A window of consecutive terms of a stretched family: the shapes
    (kappa + k*mu)/(lam + k*nu) for k = start .. start + count - 1."""
    kappa, lam = draw(st.sampled_from(SMALL_PAIRS))
    mu, nu = draw(st.sampled_from(SMALL_PAIRS))
    start = draw(st.integers(0, 3))
    count = draw(st.integers(1, 6))
    stretch = lambda base, step, k: Partition([base[i] + k * step[i] for i in range(max(len(base), len(step)))])
    return [(stretch(kappa, mu, k), stretch(lam, nu, k)) for k in range(start, start + count)]


class TestWindowCounts:
    """A window of shapes is built in batches; each table must be the one
    the single-shape chain engine builds, and the polynomial enumeration
    gives."""

    @given(stretched_window_st(), st.integers(1, 4))
    @settings(deadline=None, max_examples=80)
    def test_stretched_windows_match_oracles(self, shapes, n):
        tables = _dense.window_counts(shapes, n)
        assert len(tables) == len(shapes)
        for (outer, inner), table in zip(shapes, tables):
            expected = unsplit_table(outer, inner, n)
            assert table.dtype == np.int64 and table.shape == expected.shape
            assert np.array_equal(table, expected)
            if outer.weight - inner.weight <= 10:
                poly = counts_to_multipoly(table, n, outer.weight - inner.weight)
                assert poly == skew_schur(SkewShape(outer, inner), n)

    @given(st.lists(st.sampled_from(skew_pairs(7, 5)), min_size=1, max_size=8), st.integers(1, 4))
    @settings(deadline=None, max_examples=60)
    def test_mixed_windows_match_one_shape_builds(self, shapes, n):
        # any row counts and isolated-row patterns, in any order, repeats too
        tables = _dense.window_counts(shapes, n)
        for (outer, inner), table in zip(shapes, tables):
            expected = unsplit_table(outer, inner, n)
            assert table.shape == expected.shape and np.array_equal(table, expected)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pattern_changes_inside_the_window(self, n):
        shapes = [
            (P(), P()),  # empty: the unit table
            (P(6, 4, 2), P(4, 2)),  # every row isolated
            (P(6, 4, 2), P(4, 1)),  # the first row isolated
            (P(6, 4, 2), P(3, 1)),  # no row isolated
            (P(5, 5), P(5, 5)),  # no box
            (P(9, 7, 6, 4, 2, 1), P(5, 2, 1)),
            (P(6, 4, 2), P(3, 2)),  # the last row isolated
            (P(2, 2, 2, 2, 2), P()),  # taller than n for n < 5: no filling
            (P(12, 8, 3), P(8, 3)),
        ]
        tables = _dense.window_counts(shapes, n)
        for (outer, inner), table in zip(shapes, tables):
            assert np.array_equal(table, unsplit_table(outer, inner, n))
            assert np.array_equal(table, weight_counts(outer, inner, n))
            poly = counts_to_multipoly(table, n, outer.weight - inner.weight)
            assert poly == skew_schur(SkewShape(outer, inner), n)

    def test_one_chain_pass_per_batch_and_the_cell_budget(self):
        seq = build_sequence(P(), P(), P(2, 2), P(1), 3)  # two rows sharing columns
        shapes = [(seq.outer_at(k), seq.inner_at(k)) for k in range(1, 9)]
        expected = [unsplit_table(outer, inner, 3) for outer, inner in shapes]
        spy = mock.Mock(wraps=_dense._chain_tables)
        with mock.patch.object(_dense, "_chain_tables", spy):
            tables = _dense.window_counts(shapes, 3)
            assert spy.call_count == 1  # 8 tables of at most 25 x 25 cells
            # a budget of one cell builds each table on its own, a row of
            # middle shapes at a time
            with mock.patch.object(_dense, "_CHUNK_CELLS", 1):
                alone = _dense.window_counts(shapes, 3)
            assert spy.call_count == 1 + 8
        for table, one, want in zip(tables, alone, expected):
            assert np.array_equal(table, want) and np.array_equal(one, want)

    def test_int64_guard_refuses_the_window_before_any_build(self):
        seq = build_sequence(P(), P(), P(2, 1), P(), 4)
        shapes = [(seq.outer_at(k), seq.inner_at(k)) for k in range(1, 6)]
        total = ssyt_count(*shapes[2], 4)
        refusal = rf"^{total} fillings reach the int64 limit {total}; refused$"
        spy = mock.Mock(wraps=_dense._batch_tables)
        with mock.patch.object(_dense, "_INT64_LIMIT", total), mock.patch.object(_dense, "_batch_tables", spy):
            with pytest.raises(ValueError, match=refusal):
                _dense.window_counts(shapes, 4)
            with pytest.raises(ValueError, match=refusal):
                weight_counts(*shapes[2], 4)
            with pytest.raises(ValueError, match=refusal):
                seq.term_tables(range(1, 6))
        assert spy.call_count == 0 and seq._tables == {}
        assert [int(t.sum()) for t in seq.term_tables(range(1, 6))] == [ssyt_count(*s, 4) for s in shapes]

    def test_guard_takes_one_h_table_per_window(self):
        seq = build_sequence(P(1), P(), P(3, 1), P(1), 3)
        shapes = [(seq.outer_at(k), seq.inner_at(k)) for k in range(0, 12)]
        with mock.patch.object(polynomials, "_h_table", wraps=polynomials._h_table) as spy:
            tables = _dense.window_counts(shapes, 3)
            assert spy.call_count == 1
            assert spy.call_args.args[0] == (1, 1, 1)
            seq.term_tables(range(0, 12))
            assert spy.call_count == 2
        assert [int(t.sum()) for t in tables] == [ssyt_count(*s, 3) for s in shapes]

    def test_five_letters_have_no_table(self):
        seq = build_sequence(P(), P(), P(1), P(), 5)
        with pytest.raises(UnsupportedShape):
            _dense.window_counts([(seq.outer_at(1), seq.inner_at(1))], 5)
        assert seq.term_tables([0, 1, 2, 1]) == [None] * 4
        assert sorted(seq._tables) == [0, 1, 2]
