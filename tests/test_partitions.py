from itertools import product

import pytest
from hypothesis import given, strategies as st

from schurrec.partitions import (
    Partition,
    _stretch_scan,
    add,
    contains,
    dominates,
    format_partition,
    parse_partition,
    partitions_up_to,
    scale,
    sort_decreasing,
    stretch_condition,
    subtract,
)
from schurrec.recurrence import InvalidFamilyError, build_sequence


def P(*parts):
    return Partition(parts)


partition_st = st.lists(st.integers(min_value=0, max_value=8), max_size=5).map(
    lambda xs: Partition(sorted(xs, reverse=True))
)


class TestPartition:
    def test_canonical_form_strips_trailing_zeros(self):
        assert P(3, 2, 0, 0).parts == (3, 2)
        assert P().parts == ()
        assert not P(0, 0)

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            P(1, 2)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            P(2, -1)

    def test_indexing_pads_with_zeros(self):
        p = P(3, 1)
        assert p[0] == 3 and p[1] == 1 and p[5] == 0

    def test_text_round_trip(self):
        assert format_partition(P(5, 4, 3, 1)) == "[5,4,3,1]"
        assert format_partition(P()) == "[]"
        assert parse_partition("[5,4,3,1]") == P(5, 4, 3, 1)
        assert parse_partition("[]") == P()
        assert parse_partition("3,2") == P(3, 2)


class TestContains:
    def test_examples(self):
        assert contains(P(3, 2), P(2, 2))
        assert contains(P(), P())
        assert contains(P(5, 4, 3, 1), P(3, 2, 2))
        assert not contains(P(2, 2), P(3))

    def test_partial_order_on_small_partitions(self):
        universe = [p for p in partitions_up_to(6, 6)]
        for a in universe:
            assert contains(a, a)
        for a, b in product(universe, repeat=2):
            if contains(a, b) and contains(b, a):
                assert a == b
        below = {
            a: [b for b in universe if contains(a, b)] for a in universe
        }
        for a in universe:
            for b in below[a]:
                for c in below[b]:
                    assert contains(a, c)


class TestPartitionsUpTo:
    @pytest.mark.parametrize("max_weight,max_length,max_part", [(0, 3, None), (6, 6, None), (7, 3, None), (12, 4, None), (9, 3, 4), (5, 2, 1)])
    def test_exact_lists_the_weight_in_the_same_order(self, max_weight, max_length, max_part):
        every = partitions_up_to(max_weight, max_length, max_part)
        exact = partitions_up_to(max_weight, max_length, max_part, exact=True)
        assert exact == [p for p in every if p.weight == max_weight]

    def test_exact_lists_only_that_weight(self):
        assert len(partitions_up_to(12, 4)) == 155
        assert len(partitions_up_to(12, 4, exact=True)) == 34


class TestDominates:
    def test_examples(self):
        assert dominates((2, 1, 1), (1, 1, 1, 1))
        assert not dominates((2, 2), (3, 1))
        assert not dominates((1, 1, 1), (2, 1))

    def test_weight_mismatch_is_false(self):
        assert not dominates((2, 1), (2, 2))

    def test_unsorted_input_rejected(self):
        with pytest.raises(ValueError):
            dominates((1, 2), (2, 1))
        with pytest.raises(ValueError):
            dominates((2, 1), (1, 2))

    def test_partial_order_on_equal_weight_vectors(self):
        universe = [p.parts for p in partitions_up_to(6, 6) if p.weight == 6]
        for a in universe:
            assert dominates(a, a)
        for a, b in product(universe, repeat=2):
            if dominates(a, b) and dominates(b, a):
                assert tuple(a) == tuple(b)
        for a, b, c in product(universe, repeat=3):
            if dominates(a, b) and dominates(b, c):
                assert dominates(a, c)


class TestVectorOps:
    def test_sort_decreasing(self):
        assert sort_decreasing((1, 3, 2)) == (3, 2, 1)
        assert sort_decreasing((0, 0)) == (0, 0)
        assert sort_decreasing((3, 1, 2)) == (3, 2, 1)

    def test_sort_decreasing_rejects_negative(self):
        with pytest.raises(ValueError):
            sort_decreasing((1, -1))

    def test_add_scale_subtract_examples(self):
        assert add(P(2, 1), P(1, 1)) == P(3, 2)
        assert scale(3, P(2, 1)) == P(6, 3)
        assert subtract(P(2, 1), (1, 2)) == (1, -1)

    @given(partition_st, partition_st)
    def test_add_commutes(self, a, b):
        assert add(a, b) == add(b, a)

    @given(partition_st, partition_st, partition_st)
    def test_add_associates(self, a, b, c):
        assert add(add(a, b), c) == add(a, add(b, c))

    @given(st.integers(min_value=0, max_value=5), partition_st)
    def test_scale_is_repeated_add(self, k, a):
        total = Partition()
        for _ in range(k):
            total = add(total, a)
        assert scale(k, a) == total

    @given(partition_st, partition_st)
    def test_subtract_undoes_add(self, a, b):
        diff = subtract(add(a, b), b)
        padded = tuple(a[i] for i in range(len(diff)))
        assert diff == padded


class TestStretchCondition:
    def test_examples(self):
        assert stretch_condition(P(), P(), P(1), P()) == 1
        assert stretch_condition(P(), P(3), P(1), P()) == 3
        assert stretch_condition(P(), P(1), P(1, 1), P(1, 1)) is None

    def test_requires_mu_over_nu(self):
        with pytest.raises(ValueError):
            stretch_condition(P(), P(), P(1), P(2))

    def test_smallest_factor(self):
        k = stretch_condition(P(1), P(4, 2), P(2, 1), P(1))
        assert k == 3  # needs k >= (4-1)/(2-1)=3 and k >= 2/... per coordinate
        # brute confirmation
        def works(k):
            return all(
                k * (m - n) >= l - c
                for m, n, l, c in [(2, 1, 4, 1), (1, 0, 2, 0)]
            )
        assert works(k) and not works(k - 1)


# The per-coordinate forms the helpers above replaced, kept as oracles: each
# reads coordinate i of a partition or a tuple through one getter that pads
# with zeros, and the stretch factor and its witness come from two scans.
def _get(p, i):
    seq = p.parts if isinstance(p, Partition) else tuple(p)
    return seq[i] if i < len(seq) else 0


def contains_oracle(a, b):
    return all(_get(a, i) >= _get(b, i) for i in range(max(len(a), len(b))))


def subtract_oracle(a, b):
    return tuple(_get(a, i) - _get(b, i) for i in range(max(len(a), len(b))))


def dominates_oracle(a, b):
    if sum(a) != sum(b):
        return False
    pa = pb = 0
    for i in range(max(len(a), len(b))):
        pa, pb = pa + _get(a, i), pb + _get(b, i)
        if pa < pb:
            return False
    return True


def stretch_condition_oracle(kappa, lam, mu, nu):
    k = 1
    for i in range(max(len(kappa), len(lam), len(mu), len(nu))):
        need, grow = _get(lam, i) - _get(kappa, i), _get(mu, i) - _get(nu, i)
        if need > 0:
            if grow <= 0:
                return None
            k = max(k, -(-need // grow))
    return k


def stretch_violation_oracle(kappa, lam, mu, nu):
    for i in range(max(len(kappa), len(lam), len(mu), len(nu))):
        if _get(lam, i) - _get(kappa, i) > 0 and _get(mu, i) - _get(nu, i) <= 0:
            return i
    return None


vector_st = st.one_of(partition_st, st.lists(st.integers(min_value=-3, max_value=8), max_size=5).map(tuple))


class TestAgainstPerCoordinateOracles:
    @given(partition_st, partition_st)
    def test_contains_and_dominates(self, a, b):
        assert contains(a, b) == contains_oracle(a, b)
        assert dominates(a.parts, b.parts) == dominates_oracle(a.parts, b.parts)

    @given(vector_st, vector_st)
    def test_subtract_of_partitions_and_tuples(self, a, b):
        assert subtract(a, b) == subtract_oracle(a, b)

    @given(partition_st, partition_st, partition_st, partition_st, st.booleans())
    def test_stretch_factor_and_witness(self, kappa, lam, nu, grow, nested):
        # mu = nu + grow is the usual case; grow's zero tail leaves mu_i =
        # nu_i there, so many of these families have no stretch factor
        mu = add(nu, grow) if nested else grow
        if not contains_oracle(mu, nu):
            with pytest.raises(ValueError, match="stretch_condition requires mu to contain nu"):
                stretch_condition(kappa, lam, mu, nu)
            return
        k = stretch_condition_oracle(kappa, lam, mu, nu)
        i = stretch_violation_oracle(kappa, lam, mu, nu)
        assert stretch_condition(kappa, lam, mu, nu) == k
        assert _stretch_scan(kappa, lam, mu, nu) == (k, i)
        if k is None:
            with pytest.raises(InvalidFamilyError) as raised:
                build_sequence(kappa, lam, mu, nu, 2)
            assert str(raised.value) == f"no stretch factor: coordinate {i} has mu-nu = 0 but lam-kappa > 0"
        else:  # a base shape outside its stretch is moved by k
            assert build_sequence(kappa, lam, mu, nu, 2).shift == (0 if contains(kappa, lam) else k)
