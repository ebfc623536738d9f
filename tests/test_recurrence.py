import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from battery import battery_families, skew_pairs
from schurrec import _dense, polynomials, recurrence, tableaux
from schurrec.kostka import polynomiality_check
from schurrec.partitions import Partition, scale
from schurrec.polynomials import MultiPoly, complete_homogeneous, skew_schur
from schurrec.recurrence import (
    CharPoly,
    InvalidFamilyError,
    berlekamp_massey,
    build_sequence,
    char_poly,
    conjecture_check,
    conjectured_weights,
    minimal_report,
    verify_certificate,
    verify_recurrence,
)
from schurrec.tableaux import SkewShape


def P(*parts):
    return Partition(parts)


def expanded_residual(seq, chi, k):
    """sum_j coeffs[j] * term(k+j) over the expanded coefficients of chi: the
    oracle for the factor-chain residuals."""
    total = MultiPoly.zero(seq.n)
    for j, c in enumerate(chi.coeffs):
        total = total + c * seq.term(k + j)
    return total


class TestCharPoly:
    def test_single_row(self):
        chi = char_poly(P(1), P(), 2)
        assert chi.degree == 2
        assert chi.coeffs[1] == MultiPoly(2, {(1, 0): -1, (0, 1): -1})
        assert chi.coeffs[0] == MultiPoly(2, {(1, 1): 1})

    def test_single_column(self):
        chi = char_poly(P(1, 1), P(), 2)
        assert chi.degree == 1
        assert chi.coeffs[0] == MultiPoly(2, {(1, 1): -1})

    def test_zero_box_shape(self):
        chi = char_poly(P(1), P(1), 2)
        assert chi.degree == 1
        assert chi.coeffs[0] == -MultiPoly.one(2)

    def test_degree_zero_has_empty_root_list(self):
        chi = char_poly(P(1, 1, 1), P(), 2)  # no fillings: three rows, two letters
        assert chi.degree == 0
        assert chi.to_json_obj()["root_weights"] == []

    def test_degree_is_tableau_count(self):
        from schurrec.tableaux import enumerate_tableaux

        for mu, nu, n in [(P(2, 1), P(), 3), (P(3, 1), P(1), 2), (P(2, 2), P(1), 3)]:
            chi = char_poly(mu, nu, n)
            assert chi.degree == len(enumerate_tableaux(SkewShape(mu, nu), n))

    def test_elementary_symmetric_coefficients(self):
        # coefficient of t^{d-j} = (-1)^j e_j(root monomials), checked by
        # independent subset expansion
        from itertools import combinations

        from schurrec.tableaux import enumerate_tableaux, weight

        for mu, nu, n in [
            (P(2), P(), 2),
            (P(1, 1), P(), 3),
            (P(2, 1), P(1), 2),
            (P(3, 1), P(1), 2),  # degree 6
        ]:
            chi = char_poly(mu, nu, n)
            monos = [MultiPoly.monomial(weight(t)) for t in enumerate_tableaux(SkewShape(mu, nu), n)]
            d = len(monos)
            for j in range(d + 1):
                expected = MultiPoly.zero(n)
                for subset in combinations(monos, j):
                    prod = MultiPoly.one(n)
                    for m in subset:
                        prod = prod * m
                    expected = expected + prod
                if j % 2 == 1:
                    expected = -expected
                assert chi.coeffs[d - j] == expected

    def test_remove_root(self):
        chi = char_poly(P(1), P(), 2)
        remaining = list(chi.root_weights)
        remaining.remove((1, 0))
        reduced = CharPoly.from_root_weights(remaining, 2)
        assert reduced.degree == 1
        assert reduced.coeffs[0] == MultiPoly(2, {(0, 1): -1})

    def test_coefficients_expand_once_on_first_use(self):
        chi = char_poly(P(2, 1), P(), 3)
        assert chi.degree == 8 and chi._coeffs is None
        assert chi.coeffs is chi.coeffs and len(chi.coeffs) == 9
        assert chi.coeffs[8] == MultiPoly.one(3)

    def test_equality_ignores_root_order(self):
        chi = char_poly(P(2, 1), P(1), 3)
        shuffled = CharPoly.from_root_weights(chi.root_weights[::-1], 3)
        assert shuffled == chi and shuffled.coeffs == chi.coeffs
        assert CharPoly.from_root_weights(chi.root_weights[1:], 3) != chi


class TestBuildSequence:
    def test_plain_h_family(self):
        seq = build_sequence(P(), P(), P(1), P(), 2)
        assert seq.r == 0 and seq.shift == 0
        assert seq.term(0) == MultiPoly.one(2)
        assert seq.term(4) == complete_homogeneous(4, 2)

    def test_index_shift(self):
        seq = build_sequence(P(), P(2), P(1), P(), 2)
        assert seq.shift == 2
        assert seq.kappa == P(2) and seq.lam == P(2)
        # term(j) of the shifted family is h_j
        assert seq.term(3) == complete_homogeneous(3, 2)

    def test_term_matches_skew_schur(self):
        seq = build_sequence(P(1), P(), P(2, 1), P(1), 3)
        for k in range(4):
            shape = SkewShape(seq.outer_at(k), seq.inner_at(k))
            assert seq.term(k) == skew_schur(shape, 3)

    def test_term_reads_its_table_and_keeps_no_copy(self):
        seq = build_sequence(P(1), P(), P(2, 1), P(1), 3)
        for k in range(4):
            assert seq.term(k) == _dense.counts_to_multipoly(seq.term_table(k), 3, seq.boxes_at(k))
        assert seq._terms == {} and sorted(seq._tables) == [0, 1, 2, 3]
        five = build_sequence(P(), P(), P(1), P(), 5)
        assert five.term(2) == complete_homogeneous(2, 5)
        assert five.term_table(2) is None and list(five._terms) == [2]

    def test_boxes_at_counts_the_shape(self):
        plain = build_sequence(P(), P(), P(2, 1), P(1), 2)
        shifted = build_sequence(P(1), P(2), P(2, 1), P(1), 2)  # base [3,1]/[3]
        assert shifted.shift == 1
        for seq in (plain, shifted):
            for k in range(11):
                assert seq.boxes_at(k) == seq.shape_at(k).num_boxes

    def test_invalid_family_rejected(self):
        with pytest.raises(InvalidFamilyError):
            build_sequence(P(), P(1), P(1, 1), P(1, 1), 2)

    def test_counts_and_evaluation(self):
        seq = build_sequence(P(), P(), P(2, 1), P(), 3)
        for k in range(3):
            poly = seq.term(k)
            assert polynomials.ssyt_count(seq.outer_at(k), seq.inner_at(k), 3) == sum(poly.terms.values())
            assert seq.eval_at(k, (2, 3, 5)) == poly.eval((2, 3, 5))


class TestVerify:
    def test_h_recurrence(self):
        seq = build_sequence(P(), P(), P(1), P(), 2)
        chi = char_poly(P(1), P(), 2)
        assert verify_recurrence(seq, chi, 0, 11)

    def test_forced_column_family(self):
        seq = build_sequence(P(), P(), P(1, 1), P(), 2)
        chi = char_poly(P(1, 1), P(), 2)
        assert verify_recurrence(seq, chi, 0, 8)
        assert seq.term(4) == MultiPoly(2, {(4, 4): 1})

    def test_skew_family_with_base(self):
        seq = build_sequence(P(1), P(), P(2, 1), P(1), 2)
        chi = char_poly(P(2, 1), P(1), 2)
        assert verify_recurrence(seq, chi, seq.r, chi.degree + 4)

    def test_wrong_polynomial_reports_certificate(self):
        seq = build_sequence(P(), P(), P(1), P(), 2)
        wrong = CharPoly.from_root_weights([(1, 0)], 2)  # misses the x2 root
        cert = verify_certificate(seq, wrong, 0, 5)
        assert not cert.ok
        assert cert.failed_k == 0
        assert cert.residual is not None and not cert.residual.is_zero()
        # residual at k: h_{k+1} - x1*h_k, at k=0 equals x2
        assert cert.residual == MultiPoly(2, {(0, 1): 1})

    def test_dense_and_exact_paths_agree(self):
        seq = build_sequence(P(2), P(1), P(2, 1), P(1), 3)
        chi = char_poly(P(2, 1), P(1), 3)
        assert all(seq.term_table(k) is not None for k in range(seq.r, seq.r + 3 + chi.degree))
        dense = list(recurrence._residuals(seq, chi.root_weights, seq.r, 3))
        assert dense == [MultiPoly.zero(3)] * 3
        for k in range(seq.r, seq.r + 3):
            assert expanded_residual(seq, chi, k).is_zero()

    def test_exact_fallback_for_tall_shapes(self):
        # length-4 partitions with 3 letters: the dense tables are all zero
        seq = build_sequence(P(), P(), P(1, 1, 1, 1), P(), 3)
        chi = char_poly(P(1, 1, 1, 1), P(), 3)
        assert chi.degree == 0  # no fillings with 3 letters
        assert verify_recurrence(seq, chi, seq.r, 3)


def chain_families(letters, bases, max_degree, max_mu=3):
    """Valid families (kappa, lam, mu, nu, n) with |mu| <= max_mu over the
    given letters and base shapes, whose chi has degree <= max_degree."""
    out = []
    for n in letters:
        for mu, nu in skew_pairs(max_mu, n):
            if char_poly(mu, nu, n).degree > max_degree:
                continue
            for kappa, lam in bases:
                try:
                    build_sequence(kappa, lam, mu, nu, n)
                except InvalidFamilyError:
                    continue
                out.append((kappa, lam, mu, nu, n))
    return out


SMALL_BASES = [(a, b) for a in (P(), P(1), P(2), P(1, 1)) for b in (P(), P(1), P(1, 1))]
# n <= 3 with at most 3 rows
DENSE_FAMILIES = chain_families((1, 2, 3), SMALL_BASES, 6)
# four letters, or four-row base shapes: still dense tables, any number of rows
WIDE_FAMILIES = chain_families((4,), SMALL_BASES[:6], 4) + chain_families(
    (3,), [(P(1, 1, 1, 1), P(1)), (P(2, 1, 1, 1), P(1, 1)), (P(2, 2, 1, 1), P(1))], 4
)
# five letters: the dense engine refuses, so no term has a table
SPARSE_FAMILIES = chain_families((5,), SMALL_BASES[:6], 5, max_mu=2)


@st.composite
def chain_case(draw, families):
    """A family, a sub-multiset of its chi roots and a window of indices."""
    kappa, lam, mu, nu, n = draw(st.sampled_from(families))
    seq = build_sequence(kappa, lam, mu, nu, n)
    roots = char_poly(mu, nu, n).root_weights
    keep = draw(st.lists(st.booleans(), min_size=len(roots), max_size=len(roots)))
    weights = [w for w, kept in zip(roots, keep) if kept]
    start = draw(st.integers(0, seq.r + 2))
    count = draw(st.integers(1, 3))
    return seq, weights, start, count


def built_tables(seq, start, stop):
    """Build the term tables of seq at start ... stop-1, so that a patched
    int64 limit then reaches the chain only, not the table engine."""
    for k in range(start, stop):
        seq.term_table(k)


class TestFactorChain:
    @pytest.mark.parametrize(
        "families,limit,dtypes",
        [
            (DENSE_FAMILIES, _dense._INT64_LIMIT, {"int64"}),
            (WIDE_FAMILIES, _dense._INT64_LIMIT, {"int64"}),
            (DENSE_FAMILIES, 0, {"object"}),  # the a-priori bound always fails
            (SPARSE_FAMILIES, _dense._INT64_LIMIT, set()),
        ],
        ids=["int64", "int64-wide", "object", "multipoly"],
    )
    @settings(deadline=None)
    @given(data=st.data())
    def test_matches_expanded_coefficients(self, families, limit, dtypes, data):
        seq, weights, start, count = data.draw(chain_case(families))
        chi = CharPoly.from_root_weights(weights, seq.n)
        expected = [expanded_residual(seq, chi, k) for k in range(start, start + count)]
        built_tables(seq, start, start + count + len(weights))
        with mock.patch.object(_dense, "_INT64_LIMIT", limit), mock.patch.object(
            _dense, "counts_to_multipoly", wraps=_dense.counts_to_multipoly
        ) as spy:
            assert list(recurrence._residuals(seq, weights, start, count)) == expected
        assert {call.args[0].dtype.name for call in spy.call_args_list} == dtypes

    def test_int64_exactly_below_the_bound(self):
        # the bound is 2^d times the largest filling count in the window, the
        # largest table total: at that limit the chain runs in object, one
        # above it in int64
        seq = build_sequence(P(1), P(), P(2, 1), P(1), 3)
        weights = char_poly(P(2, 1), P(1), 3).root_weights
        start, count, d = seq.r, 2, len(weights)
        window = range(start, start + count + d)
        bound = max(polynomials.ssyt_count(seq.outer_at(k), seq.inner_at(k), 3) for k in window) << d
        built_tables(seq, start, start + count + d)
        for limit, dtype in ((bound, "object"), (bound + 1, "int64")):
            with mock.patch.object(_dense, "_INT64_LIMIT", limit), mock.patch.object(
                _dense, "counts_to_multipoly", wraps=_dense.counts_to_multipoly
            ) as spy:
                assert not any(recurrence._residuals(seq, weights, start, count))
            assert {call.args[0].dtype.name for call in spy.call_args_list} == {dtype}

    def test_one_window_build_per_residual_window(self):
        # the missing indices of a window are built in one call, in index
        # order; indices already cached are not built again
        seq = build_sequence(P(1), P(), P(2, 2), P(1), 3)
        chi = char_poly(P(2, 2), P(1), 3)
        d = chi.degree

        def shapes(ks):
            return [(seq.outer_at(k), seq.inner_at(k)) for k in ks]

        with mock.patch.object(_dense, "window_counts", wraps=_dense.window_counts) as spy:
            assert verify_certificate(seq, chi, seq.r, 2).ok
            assert spy.call_count == 1
            assert spy.call_args.args == (shapes(range(seq.r, seq.r + 2 + d)), 3)
            assert verify_certificate(seq, chi, seq.r + 1, 3).ok
            assert spy.call_count == 2
            assert spy.call_args.args == (shapes(range(seq.r + 2 + d, seq.r + 4 + d)), 3)
            assert verify_certificate(seq, chi, seq.r, 4).ok  # cached: no call
            assert spy.call_count == 2

    def test_rejects_weights_of_the_wrong_length(self):
        # or of the wrong total, before either route starts: x^w of total
        # |w| != |mu| - |nu| = 1 cannot annihilate, so no chain is run for it
        for n in (2, 3, 5):
            seq = build_sequence(P(), P(), P(1), P(), n)
            too_long, wrong_total = (1,) + (0,) * n, (1, 1) + (0,) * (n - 2)
            for weights in ([too_long], [(1,) + (0,) * (n - 1), wrong_total]):
                with pytest.raises(ValueError, match=f"length {n} and total .* = 1"):
                    list(recurrence._residuals(seq, weights, 0, 2))
            with pytest.raises(ValueError, match="total"):
                verify_certificate(seq, CharPoly([wrong_total], n), 0, 2)
            assert not seq._terms


def fraction_berlekamp_massey(values):
    """Berlekamp-Massey over Fractions, step by step as Massey states it:
    the oracle for the integer berlekamp_massey."""
    S = [Fraction(v) for v in values]
    C = [Fraction(1)]
    B = [Fraction(1)]
    L, m, b = 0, 1, Fraction(1)
    for i, s in enumerate(S):
        delta = s
        for j in range(1, L + 1):
            delta += C[j] * S[i - j]
        if delta == 0:
            m += 1
            continue
        T = C[:]
        coef = delta / b
        while len(C) < len(B) + m:
            C.append(Fraction(0))
        for j, bj in enumerate(B):
            C[j + m] -= coef * bj
        if 2 * L <= i:
            L, B, b, m = i + 1 - L, T, delta, 1
        else:
            m += 1
    coeffs = [C[L - j] if L - j < len(C) else Fraction(0) for j in range(L)]
    coeffs.append(Fraction(1))
    return coeffs


def fraction_zeros(coeffs, point, weights):
    """The weights w at which sum_j coeffs[j] * (p^w)^j vanishes, summed in
    Fractions: the oracle for the integer root test."""
    def value(z):
        return sum(c * z**j for j, c in enumerate(coeffs))

    return [w for w in weights if value(recurrence._eval_monomial(point, w)) == 0]


@st.composite
def recurrent_values(draw):
    """A sequence sum_i c_i r_i^k with small integer or rational c_i and r_i."""
    num = st.integers(-4, 4)
    rational = st.builds(Fraction, num, st.integers(1, 5))
    entry = draw(st.sampled_from([num, rational]))
    roots, coefs = draw(st.lists(entry, max_size=5)), draw(st.lists(entry, max_size=5))
    return [sum(c * r**k for c, r in zip(coefs, roots)) for k in range(draw(st.integers(0, 40)))]


scalar_sequences = st.one_of(
    st.lists(st.integers(-(1 << 1000), 1 << 1000), max_size=40),
    st.lists(st.integers(-3, 3), max_size=40),  # many zeros and repeats
    st.lists(st.fractions(max_denominator=1 << 40), max_size=40),
    st.integers(0, 40).map(lambda size: [0] * size),
    recurrent_values(),
)


class TestBerlekampMassey:
    @settings(deadline=None, max_examples=400)
    @given(scalar_sequences)
    def test_matches_the_fraction_oracle(self, values):
        coeffs = berlekamp_massey(values)
        assert coeffs == fraction_berlekamp_massey(values)
        assert all(type(c) is Fraction for c in coeffs)

    def test_geometric(self):
        assert berlekamp_massey([1, 2, 4, 8, 16]) == [Fraction(-2), Fraction(1)]

    def test_fibonacci(self):
        assert berlekamp_massey([0, 1, 1, 2, 3, 5]) == [
            Fraction(-1),
            Fraction(-1),
            Fraction(1),
        ]

    def test_h_specialization(self):
        values = [3 ** (k + 1) - 2 ** (k + 1) for k in range(7)]
        assert berlekamp_massey(values) == [Fraction(6), Fraction(-5), Fraction(1)]

    def test_rational_sequence(self):
        # a_k = (1/2)^k + 3^k has minimal degree 2
        vals = [Fraction(1, 2) ** k + Fraction(3) ** k for k in range(8)]
        coeffs = berlekamp_massey(vals)
        assert len(coeffs) == 3
        assert all(
            sum(coeffs[i] * vals[k + i] for i in range(3)) == 0 for k in range(5)
        )


class TestMinimal:
    def test_full_support_family(self):
        seq = build_sequence(P(), P(), P(1), P(), 2)
        chi = char_poly(P(1), P(), 2)
        rep = minimal_report(seq, chi, seed=0)
        assert rep.char_poly.degree == 2
        assert rep.removed == []
        assert rep.bm_degrees == [2, 2, 2]

    def test_already_minimal(self):
        seq = build_sequence(P(), P(), P(1, 1), P(), 2)
        chi = char_poly(P(1, 1), P(), 2)
        rep = minimal_report(seq, chi)
        assert rep.char_poly.degree == 1

    def test_repeated_root_dropped(self):
        # (2,1) with 3 letters: chi has degree 8, minimal has degree 6
        seq = build_sequence(P(), P(), P(2, 1), P(), 3)
        chi = char_poly(P(2, 1), P(), 3)
        rep = minimal_report(seq, chi)
        assert chi.degree == 8
        assert rep.char_poly.degree == 6
        assert set(rep.weights) == {
            (2, 1, 0), (2, 0, 1), (1, 2, 0), (0, 2, 1), (1, 0, 2), (0, 1, 2),
        }
        assert rep.bm_degrees == [6, 6, 6]

    def test_minimal_divides_chi(self):
        seq = build_sequence(P(), P(), P(2, 1), P(), 3)
        chi = char_poly(P(2, 1), P(), 3)
        rep = minimal_report(seq, chi)
        # quotient of the root multisets rebuilds chi exactly
        from collections import Counter

        remaining = Counter(chi.root_weights)
        for w in rep.weights:
            assert remaining[w] > 0
            remaining[w] -= 1
        rebuilt = CharPoly.from_root_weights(
            list(rep.weights) + list(remaining.elements()), 3
        )
        assert rebuilt.coeffs == chi.coeffs

    def test_permutation_invariance(self):
        seq = build_sequence(P(1), P(), P(2, 1), P(1), 3)
        chi = char_poly(P(2, 1), P(1), 3)
        rep = minimal_report(seq, chi)
        from itertools import permutations

        wset = set(rep.weights)
        for w in wset:
            for perm in permutations(w):
                assert perm in wset

    def test_annihilation_survives_five_extra_indices(self):
        families = [
            (P(), P(), P(1), P(), 2),
            (P(), P(), P(2, 1), P(), 3),
            (P(1), P(), P(2, 1), P(1), 3),
            (P(2), P(1), P(2, 2), P(1), 3),
            (P(2, 1), P(1), P(3, 1), P(1), 2),
            (P(), P(2), P(2), P(), 2),
        ]
        for kappa, lam, mu, nu, n in families:
            seq = build_sequence(kappa, lam, mu, nu, n)
            chi = char_poly(mu, nu, n)
            rep = minimal_report(seq, chi)
            assert verify_certificate(seq, rep.char_poly, seq.r + chi.degree, 5).ok


def greedy_minimal(seq, chi):
    """Greedy root removal, the oracle for minimal_report: each distinct root
    of chi, in canonical order, is dropped when the remaining product still
    annihilates deg(chi) consecutive terms from seq.r, checked on the
    expanded coefficients.  Returns (weights, removed)."""

    def annihilates(weights):
        poly = CharPoly.from_root_weights(weights, seq.n)
        return all(expanded_residual(seq, poly, k).is_zero() for k in range(seq.r, seq.r + chi.degree))

    current = recurrence._dedupe_canonical(chi.root_weights)
    assert annihilates(current)
    removed = []
    for w in list(current):
        trial = [u for u in current if u != w]
        if annihilates(trial):
            current = trial
            removed.append(w)
    return current, removed


H_FAMILY = (P(), P(), P(1), P(), 2)  # roots (1, 0) and (0, 1), both needed
# three rows over two letters: every term is zero, so even the last root goes
ZERO_FAMILY = (P(1, 1, 1), P(), P(1), P(), 2)


def dropping_bm(weight, calls):
    """berlekamp_massey with the factor (t - p^weight) divided out of its
    answer at the given call numbers, p the point drawn just before."""
    points = []
    draw, bm = recurrence._draw_point, recurrence.berlekamp_massey

    def drawn(*args):
        points.append(draw(*args))
        return points[-1]

    def dropped(values):
        coeffs = bm(values)
        if len(points) - 1 in calls:
            z, quotient = recurrence._eval_monomial(points[-1], weight), [coeffs[-1]]
            for c in coeffs[-2:0:-1]:  # synthetic division by (t - z)
                quotient.append(c + z * quotient[-1])
            coeffs = quotient[::-1]
        return coeffs

    return mock.patch.multiple(recurrence, _draw_point=drawn, berlekamp_massey=dropped)


class TestMinimalInIntegers:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_reports_match_the_fraction_oracles(self, n):
        # on the battery's families with |mu| <= 3: one h-table per point,
        # integer BM and the integer root test give the report of per-index
        # evaluation, Fraction BM and Fraction sums
        families = [f for f in battery_families() if f[4] == n and f[2].weight <= 3]
        assert families
        for family in families:
            seq, chi = build_sequence(*family), char_poly(*family[2:])
            rep = minimal_report(seq, chi)
            with mock.patch.multiple(
                recurrence,
                berlekamp_massey=fraction_berlekamp_massey,
                _zeros=fraction_zeros,
                schur_int_evals=lambda shapes, point: [polynomials.schur_int_eval(*s, point) for s in shapes],
            ):
                assert minimal_report(seq, chi) == rep, family

    def test_one_h_table_per_drawn_point(self):
        # the h-family's three points and the redraw that replaces the second
        seq, chi = build_sequence(*H_FAMILY), char_poly(P(1), P(), 2)
        built_tables(seq, seq.r, seq.r + 2 * chi.degree)  # the certificate's window
        with dropping_bm((1, 0), {1}), mock.patch.object(polynomials, "_h_table", wraps=polynomials._h_table) as spy:
            rep = minimal_report(seq, chi)
        rng = random.Random(0)
        drawn = [recurrence._draw_point(rng, 2, rep.weights) for _ in range(4)]
        assert rep.specializations == [drawn[0], drawn[3], drawn[2]]
        assert [call.args[0] for call in spy.call_args_list] == drawn


class TestMinimalAgainstGreedy:
    @pytest.mark.parametrize(
        "families,limit",
        [
            (DENSE_FAMILIES, _dense._INT64_LIMIT),
            (WIDE_FAMILIES, _dense._INT64_LIMIT),
            (DENSE_FAMILIES, 0),  # the certificate runs on Python integers
            (SPARSE_FAMILIES, _dense._INT64_LIMIT),
        ],
        ids=["int64", "int64-wide", "object", "multipoly"],
    )
    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_matches_greedy(self, families, limit, data):
        kappa, lam, mu, nu, n = data.draw(st.sampled_from(families))
        seq = build_sequence(kappa, lam, mu, nu, n)
        chi = char_poly(mu, nu, n)
        # every window the certificate and the squarefree check may read
        built_tables(seq, seq.r, seq.r + chi.degree + len(set(chi.root_weights)))
        with mock.patch.object(_dense, "_INT64_LIMIT", limit):
            rep = minimal_report(seq, chi, seed=data.draw(st.integers(0, 3)))
        assert (rep.weights, rep.removed) == greedy_minimal(seq, chi)
        assert rep.char_poly.root_weights == tuple(rep.weights)

    def test_one_certificate_on_success(self):
        seq = build_sequence(P(), P(), P(2, 1), P(), 3)
        chi = char_poly(P(2, 1), P(), 3)
        with mock.patch.object(recurrence, "_residuals", wraps=recurrence._residuals) as spy:
            rep = minimal_report(seq, chi)
        assert rep.removed == [(1, 1, 1)]
        assert spy.call_count == 1
        assert chi._coeffs is None  # the engine never expands chi

    def test_all_zero_family_drops_every_root(self):
        seq = build_sequence(*ZERO_FAMILY)
        chi = char_poly(P(1), P(), 2)
        rep = minimal_report(seq, chi)
        assert rep.char_poly.degree == 0 and rep.weights == []
        assert rep.removed == [(1, 0), (0, 1)]
        assert rep.bm_degrees == [0, 0, 0]
        assert (rep.weights, rep.removed) == greedy_minimal(seq, chi)

    @pytest.mark.parametrize("call", [0, 1, 2])
    def test_root_missed_at_one_point_is_redrawn(self, call):
        # the other two points name the root, so the certificate passes, and
        # the point that missed it is replaced by the next draw
        seq, chi = build_sequence(*H_FAMILY), char_poly(P(1), P(), 2)
        with dropping_bm((1, 0), {call}):
            rep = minimal_report(seq, chi)
        assert rep.weights == [(1, 0), (0, 1)] and rep.bm_degrees == [2, 2, 2]
        rng = random.Random(0)  # the seed's draws: three points, then the redraw
        drawn = [recurrence._draw_point(rng, 2, rep.weights) for _ in range(4)]
        assert rep.specializations == [drawn[3] if i == call else drawn[i] for i in range(3)]

    @pytest.mark.parametrize("call", [0, 1, 2])
    def test_root_missed_at_one_point_is_a_degree_disagreement(self, call):
        # the point and every redraw miss the root: the degree stays short
        seq, chi = build_sequence(*H_FAMILY), char_poly(P(1), P(), 2)
        degrees = [1 if i == call else 2 for i in range(3)]
        missed = {call, *range(3, 3 + recurrence._REDRAWS)}
        with dropping_bm((1, 0), missed), pytest.raises(
            RuntimeError,
            match=rf"specialized minimal degrees \[{', '.join(map(str, degrees))}\] disagree with symbolic degree 2",
        ):
            minimal_report(seq, chi)

    def test_collision_at_a_seed_is_redrawn(self):
        # seed 3 draws a point at which one of the 15 roots has coefficient 0
        seq, chi = build_sequence(P(), P(), P(4, 2, 1), P(1), 3), char_poly(P(4, 2, 1), P(1), 3)
        rep = minimal_report(seq, chi, seed=3)
        assert rep.bm_degrees == [15, 15, 15] and len(rep.weights) == 15

    def test_root_missed_at_every_point_fails_the_certificate(self):
        seq, chi = build_sequence(*H_FAMILY), char_poly(P(1), P(), 2)
        with mock.patch.object(recurrence, "_residuals", wraps=recurrence._residuals) as spy:
            with dropping_bm((1, 0), {0, 1, 2}), pytest.raises(
                RuntimeError, match=r"the 1 roots named at degrees \[1, 1, 1\] do not annihilate"
            ):
                minimal_report(seq, chi)
        # the certificate on the named root, then the squarefree check
        assert [list(call.args[1]) for call in spy.call_args_list] == [[(0, 1)], [(1, 0), (0, 1)]]

    def test_squarefree_failure_keeps_its_message(self):
        # the recurrence of this family holds from r = 1 only
        seq = build_sequence(P(2, 2), P(), P(4), P(3), 2)
        assert seq.r == 1
        seq.r = 0
        with pytest.raises(RuntimeError, match="squarefree part of chi does not annihilate"):
            minimal_report(seq, char_poly(P(4), P(3), 2))


class TestConjecturedWeights:
    def test_examples(self):
        assert set(conjectured_weights(P(1), P(), 2)) == {(1, 0), (0, 1)}
        assert conjectured_weights(P(1, 1), P(), 2) == [(1, 1)]
        assert set(conjectured_weights(P(2, 1), P(), 3)) == {
            (2, 1, 0), (2, 0, 1), (1, 2, 0), (0, 2, 1), (1, 0, 2), (0, 1, 2),
        }

    def test_domination_filter_blocks_balanced_weight(self):
        # (1,1,1) has positive Kostka for (2,1) but fails the domination test
        ws = conjectured_weights(P(2, 1), P(), 3)
        assert (1, 1, 1) not in ws


class TestConjectureCheck:
    @pytest.mark.parametrize(
        "mu,nu,n",
        [
            (P(1), P(), 2),
            (P(1, 1), P(), 2),
            (P(2, 1), P(), 3),
            (P(2, 1), P(1), 2),
            (P(2, 2), P(1), 3),
        ],
    )
    def test_supported_families(self, mu, nu, n):
        report = conjecture_check(P(), P(), mu, nu, n)
        assert report.verdict == "SUPPORTED"
        assert report.annihilates and report.minimal_matches

    def test_all_zero_family_refutes_minimality(self):
        report = conjecture_check(*ZERO_FAMILY)
        assert report.verdict == "REFUTED-MINIMALITY"
        assert report.annihilates and report.minimal_matches is False
        assert report.minimal_weights == [] and report.minimal_degree == 0

    def test_enumerates_the_tableaux_of_mu_nu_once(self, monkeypatch):
        shapes = []
        real = tableaux.iter_tableaux

        def spy(shape, n, *args, **kwargs):
            shapes.append(shape)
            return real(shape, n, *args, **kwargs)

        for module in (tableaux, polynomials):
            monkeypatch.setattr(module, "iter_tableaux", spy)
        report = conjecture_check(P(1), P(), P(2, 1), P(1), 3)
        assert report.verdict == "SUPPORTED"
        assert shapes.count(SkewShape(P(2, 1), P(1))) == 1

    def test_report_payload(self):
        report = conjecture_check(P(), P(), P(1), P(), 2)
        obj = report.to_json_obj()
        assert obj["conjecture"] == "SUPPORTED"
        assert sorted(map(tuple, obj["W"])) == [(0, 1), (1, 0)]


class TestPolynomiality:
    def test_h_family(self):
        rep = polynomiality_check(P(1), P(), 2, 8)
        assert rep.degree == 1
        assert rep.counts == list(range(1, 10))
        assert rep.verdict == "POLYNOMIAL(degree=1)"

    def test_constant_family(self):
        rep = polynomiality_check(P(1, 1), P(), 2, 6)
        assert rep.degree == 0
        assert rep.counts == [1] * 7

    def test_skew_family(self):
        rep = polynomiality_check(P(2, 1), P(1), 2, 12)
        assert rep.degree == 2
        assert rep.counts[:4] == [1, 4, 9, 16]

    def test_negative_kmax_rejected(self):
        with pytest.raises(ValueError, match="kmax must be nonnegative"):
            polynomiality_check(P(1), P(), 2, -3)

    def test_inconclusive_when_kmax_too_small(self):
        rep = polynomiality_check(P(2, 1), P(1), 3, 3)
        assert rep.verdict == "INCONCLUSIVE"

    def test_counts_come_from_one_h_table(self):
        for mu, nu, n in [(P(2, 1), P(1), 3), (P(3, 1), P(), 4), (P(2, 2), P(1), 2), (P(1, 1, 1), P(), 2)]:
            with mock.patch.object(polynomials, "_h_table", wraps=polynomials._h_table) as spy:
                rep = polynomiality_check(mu, nu, n, 40)
            assert spy.call_count == 1
            assert rep.counts == [polynomials.ssyt_count(scale(k, mu), scale(k, nu), n) for k in range(41)]

    def test_newton_coefficients_reconstruct_counts(self):
        from math import comb

        rep = polynomiality_check(P(2, 1), P(1), 3, 12)
        assert rep.degree == 4
        for k, c in enumerate(rep.counts):
            value = sum(
                coef * comb(k, j) for j, coef in enumerate(rep.newton_coefficients)
            )
            assert value == c
