from itertools import product, starmap

import pytest

from battery import skew_pairs
from schurrec.kostka import (
    first_tableau_of_weight,
    kostka,
    m_basis_reconstruction,
    schur_in_m_basis,
    stretch_positivity_check,
)
from schurrec.partitions import Partition, partitions_up_to, scale, sort_decreasing
from schurrec.polynomials import skew_schur
from schurrec.tableaux import SkewShape, enumerate_tableaux, is_valid_ssyt, weight


def P(*parts):
    return Partition(parts)


class TestKostka:
    def test_examples(self):
        assert kostka(SkewShape(P(2, 1)), (1, 1, 1)) == 2
        assert kostka(SkewShape(P(2, 1)), (2, 1, 0)) == 1
        assert kostka(SkewShape(P(2, 1)), (1, 1)) == 0

    def test_counts_match_enumeration(self):
        for shape in starmap(SkewShape, skew_pairs(4, 3)):
            boxes = shape.num_boxes
            tableaux = enumerate_tableaux(shape, 3)
            for w in product(range(boxes + 1), repeat=3):
                if sum(w) != boxes:
                    continue
                expected = sum(1 for t in tableaux if weight(t) == w)
                assert kostka(shape, w) == expected

    def test_permutation_symmetry(self):
        for shape in starmap(SkewShape, skew_pairs(4, 3)):
            boxes = shape.num_boxes
            for w in product(range(boxes + 1), repeat=3):
                if sum(w) == boxes:
                    assert kostka(shape, w) == kostka(shape, sort_decreasing(w))

    def test_weight_mismatch_zero(self):
        assert kostka(SkewShape(P(3, 1)), (1, 1)) == 0
        assert kostka(SkewShape(P(2)), (2, 1)) == 0


class TestMBasis:
    def test_examples(self):
        assert schur_in_m_basis(SkewShape(P(1)), 2) == {P(1): 1}
        assert schur_in_m_basis(SkewShape(P(2, 1)), 3) == {P(2, 1): 1, P(1, 1, 1): 2}
        assert schur_in_m_basis(SkewShape(P(2, 2), P(1)), 2) == {P(2, 1): 1}

    def test_round_trip(self):
        for shape in starmap(SkewShape, skew_pairs(5, 3)):
            for n in (2, 3):
                coeffs = schur_in_m_basis(shape, n)
                assert m_basis_reconstruction(coeffs, n) == skew_schur(shape, n)


class TestStretchPositivity:
    def test_row_example(self):
        w = stretch_positivity_check(SkewShape(P(1)), (1, 0), 3)
        assert w.shape == SkewShape(P(3)) and w.rows == ((1, 1, 1),)

    def test_two_one_squared(self):
        w = stretch_positivity_check(SkewShape(P(2, 1)), (1, 1, 1), 2)
        assert w.shape == SkewShape(P(4, 2))
        assert weight(w) == (2, 2, 2)

    def test_witnesses_valid_on_battery(self):
        for shape in starmap(SkewShape, skew_pairs(4, 3)):
            boxes = shape.num_boxes
            for w in product(range(boxes + 1), repeat=3):
                if sum(w) != boxes or kostka(shape, w) == 0:
                    continue
                for k in (1, 2, 3):
                    witness = stretch_positivity_check(shape, w, k)
                    assert is_valid_ssyt(witness)
                    assert witness.shape.outer == scale(k, shape.outer)
                    assert witness.shape.inner == scale(k, shape.inner)
                    assert weight(witness) == tuple(k * x for x in w)

    def test_zero_kostka_rejected(self):
        # a column cannot repeat an entry, so weight (2,0) is impossible
        with pytest.raises(ValueError):
            stretch_positivity_check(SkewShape(P(1, 1)), (2, 0), 2)

    def test_first_witness_is_canonical(self):
        t = first_tableau_of_weight(SkewShape(P(2, 1)), (1, 1, 1))
        assert t.rows == ((1, 2), (3,)) or t.rows == ((1, 3), (2,))
        # canonical order: row-major lexicographic, so [1,2],[3] comes first
        assert t.rows == ((1, 2), (3,))


class TestSaturationReverse:
    """Empirical check of the reverse direction K_{k*shape, k*w} > 0 =>
    K_{shape, w} > 0 on straight shapes.  This relies on an external theorem
    (saturation) and is observed here, not certified."""

    def test_reverse_direction_on_battery(self):
        for outer in partitions_up_to(4, 3):
            shape = SkewShape(outer)
            boxes = shape.num_boxes
            for w in product(range(boxes + 1), repeat=3):
                if sum(w) != boxes:
                    continue
                for k in (2, 3):
                    stretched = SkewShape(scale(k, outer))
                    kw = tuple(k * x for x in w)
                    if kostka(stretched, kw) > 0:
                        assert kostka(shape, w) > 0, (outer, w, k)
