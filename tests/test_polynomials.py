from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from schurrec.partitions import Partition, contains, partitions_up_to
from schurrec.polynomials import (
    MultiPoly,
    complete_homogeneous,
    eval_all_ones,
    monomial_symmetric,
    skew_schur,
    skew_schur_jacobi_trudi,
    weight_monomial,
)
from schurrec.tableaux import (
    SkewShape,
    Tableau,
    empty_tableau,
    enumerate_tableaux,
    insert,
    weight,
)


def P(*parts):
    return Partition(parts)


def total_degree(p: MultiPoly) -> int:
    """The largest exponent sum of p's terms (0 for the zero polynomial)."""
    return max((sum(e) for e in p.terms), default=0)


def is_symmetric(p: MultiPoly) -> bool:
    """Whether every swap of adjacent variables leaves p unchanged."""
    def swapped(i):
        return {e[:i] + (e[i + 1], e[i]) + e[i + 2 :]: c for e, c in p.terms.items()}

    return all(swapped(i) == p.terms for i in range(p.nvars - 1))


def poly_st(nvars=2):
    term = st.tuples(
        st.tuples(*[st.integers(min_value=0, max_value=4)] * nvars),
        st.integers(min_value=-9, max_value=9),
    )
    return st.lists(term, max_size=6).map(
        lambda ts: MultiPoly(nvars, {e: c for e, c in ts if c})
    )


class TestArithmetic:
    def test_examples(self):
        x1 = MultiPoly.monomial((1, 0))
        x2 = MultiPoly.monomial((0, 1))
        assert x1 + x2 == MultiPoly(2, {(1, 0): 1, (0, 1): 1})
        assert (x1 + x2) * (x1 - x2) == MultiPoly(2, {(2, 0): 1, (0, 2): -1})
        assert MultiPoly(2, {(2, 1): 1}).eval((2, 3)) == 12

    def test_nvars_mismatch(self):
        with pytest.raises(ValueError):
            MultiPoly.one(2) + MultiPoly.one(3)

    def test_zero_terms_dropped(self):
        p = MultiPoly(2, {(1, 0): 1})
        assert (p - p).is_zero()
        assert MultiPoly(2, {(1, 1): 0}).is_zero()

    @given(poly_st(), poly_st(), poly_st())
    @settings(max_examples=60)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(poly_st())
    def test_eval_is_ring_map(self, a):
        point = (Fraction(3, 2), Fraction(-2))
        b = MultiPoly(2, {(1, 1): 2, (0, 0): -1})
        assert (a * b).eval(point) == a.eval(point) * b.eval(point)
        assert (a + b).eval(point) == a.eval(point) + b.eval(point)

    def test_terms_is_a_read_only_view(self):
        p = MultiPoly(2, {(1, 0): 3})
        assert p.terms == {(1, 0): 3}
        with pytest.raises(TypeError):
            p.terms[(0, 1)] = 1
        assert p == MultiPoly(2, {(1, 0): 3})

    def test_canonical_term_order(self):
        p = MultiPoly(2, {(0, 0): 1, (2, 0): 1, (1, 1): 1, (0, 1): 1})
        exps = [e for e, _ in p.sorted_terms()]
        assert exps == [(2, 0), (1, 1), (0, 1), (0, 0)]

    def test_json_round_trip(self):
        p = MultiPoly(2, {(2, 1): 1, (0, 0): -3})
        assert MultiPoly.from_json(p.to_json()) == p
        assert '"coef":"1"' in p.to_json()

    def test_str(self):
        assert str(MultiPoly(2, {(1, 0): 1, (0, 1): 1})) == "x1+x2"
        assert str(MultiPoly.zero(2)) == "0"
        assert str(MultiPoly(2, {(2, 0): -1, (0, 0): 3})) == "-x1^2+3"


class TestWeightMonomial:
    def test_empty_tableau_gives_one(self):
        assert weight_monomial(empty_tableau(2)) == MultiPoly.one(2)

    def test_fig2(self):
        t = Tableau(SkewShape(P(5, 4, 3, 1), P(3, 2, 2)), [[1, 1], [1, 3], [2], [3]], 3)
        assert weight_monomial(t) == MultiPoly(3, {(3, 1, 2): 1})

    def test_homomorphism_single_boxes(self):
        ts = enumerate_tableaux(SkewShape(P(1)), 2)
        for a in ts:
            for b in ts:
                assert weight_monomial(insert(a, b)) == weight_monomial(a) * weight_monomial(b)

    def test_homomorphism_and_grading_small(self):
        shapes = []
        for outer in partitions_up_to(3, 2):
            for inner in partitions_up_to(outer.weight, 2):
                if contains(outer, inner):
                    shapes.append(SkewShape(outer, inner))
        ts = [t for s in shapes for t in enumerate_tableaux(s, 2)]
        for a in ts:
            assert total_degree(weight_monomial(a)) == a.shape.num_boxes
            for b in ts:
                assert weight_monomial(insert(a, b)) == weight_monomial(a) * weight_monomial(b)


class TestSkewSchur:
    def test_single_box(self):
        assert skew_schur(SkewShape(P(1)), 2) == MultiPoly(2, {(1, 0): 1, (0, 1): 1})

    def test_skew_two_tableaux(self):
        assert skew_schur(SkewShape(P(2, 2), P(1)), 2) == MultiPoly(2, {(2, 1): 1, (1, 2): 1})

    def test_two_one_with_three_vars(self):
        p = skew_schur(SkewShape(P(2, 1)), 3)
        assert p.num_terms() == 7
        assert p.coefficient((1, 1, 1)) == 2
        assert eval_all_ones(p) == 8

    def test_symmetry(self):
        for outer, inner, n in [
            (P(3, 1), P(1), 3),
            (P(2, 2), P(), 2),
            (P(4, 2, 1), P(2, 1), 3),
        ]:
            assert is_symmetric(skew_schur(SkewShape(outer, inner), n))

    def test_count_matches_enumeration(self):
        for outer, inner, n in [(P(2, 1), P(), 3), (P(3, 2), P(1), 2)]:
            shape = SkewShape(outer, inner)
            assert eval_all_ones(skew_schur(shape, n)) == len(enumerate_tableaux(shape, n))


class TestJacobiTrudiOracle:
    def test_single_box(self):
        assert skew_schur_jacobi_trudi(SkewShape(P(1)), 2) == skew_schur(SkewShape(P(1)), 2)

    def test_matches_on_medium_shapes(self):
        for outer, inner, n in [
            (P(2, 2), P(1), 2),
            (P(3, 2), P(1), 3),
            (P(3, 3, 1), P(2), 3),
            (P(2, 2, 2), P(1, 1), 2),
            (P(4, 2), P(), 4),
        ]:
            shape = SkewShape(outer, inner)
            assert skew_schur_jacobi_trudi(shape, n) == skew_schur(shape, n)

    def test_tall_shapes_vanish(self):
        assert skew_schur_jacobi_trudi(SkewShape(P(1, 1, 1)), 2).is_zero()

    def test_h_memoization_consistency(self):
        h3 = complete_homogeneous(3, 2)
        assert h3 == MultiPoly(2, {(3, 0): 1, (2, 1): 1, (1, 2): 1, (0, 3): 1})
        assert complete_homogeneous(0, 3) == MultiPoly.one(3)
        assert complete_homogeneous(-1, 3).is_zero()


class TestMonomialSymmetric:
    def test_examples(self):
        assert monomial_symmetric(P(2, 1), 2) == MultiPoly(2, {(2, 1): 1, (1, 2): 1})
        assert monomial_symmetric(P(1, 1), 3) == MultiPoly(
            3, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}
        )

    def test_stretch_is_power_substitution(self):
        # m_{2*lam}(x1,x2) = m_lam(x1^2, x2^2)
        m2 = monomial_symmetric(P(2), 2)
        m1 = monomial_symmetric(P(1), 2)
        substituted = MultiPoly(2, {tuple(2 * x for x in e): c for e, c in m1.terms.items()})
        assert m2 == substituted

    def test_too_long_rejected(self):
        with pytest.raises(ValueError):
            monomial_symmetric(P(1, 1, 1), 2)
