import cmath
import math

import pytest

from schurrec.asymptotics import (
    ComplexPoly,
    DegenerateSpecialization,
    RootCloud,
    clouds_to_csv,
    find_roots,
    limit_experiment,
    specialize,
)
from schurrec.partitions import Partition
from schurrec.recurrence import build_sequence


def P(*parts):
    return Partition(parts)


def h_sequence(n=2):
    return build_sequence(P(), P(), P(1), P(), n)


class TestSpecialize:
    def test_h_family(self):
        seq = h_sequence()
        p = specialize(seq, 5, [1.0])
        assert p.degree == 5
        assert all(abs(c - 1) < 1e-15 for c in p.coeffs)

    def test_forced_column_family(self):
        seq = build_sequence(P(), P(), P(1, 1), P(), 2)
        p = specialize(seq, 4, [1.0])
        assert p.degree == 4
        assert all(abs(c) < 1e-15 for c in p.coeffs[:-1]) and abs(p.coeffs[4] - 1) < 1e-15

    def test_staircase_degree(self):
        seq = build_sequence(P(), P(), P(2, 1), P(), 3)
        for k in (1, 2, 3):
            p = specialize(seq, k, [1.0, 1.0])
            assert p.degree == 2 * k

    def test_xi_on_common_circle_required(self):
        seq = build_sequence(P(), P(), P(2, 1), P(), 3)
        with pytest.raises(ValueError):
            specialize(seq, 1, [1.0, 2.0])

    def test_xi_length_checked(self):
        with pytest.raises(ValueError):
            specialize(h_sequence(), 1, [1.0, 1.0])

    def test_collection_is_exact(self):
        # coefficients of P_k for integer xi are exact integers
        seq = build_sequence(P(), P(), P(2, 1), P(1), 2)
        p = specialize(seq, 3, [1.0])
        assert [round(c.real) for c in p.coeffs] == [1, 2, 3, 4, 3, 2, 1]
        assert all(abs(c.imag) == 0 for c in p.coeffs)

    def test_degree_matches_symbolic_first_variable_degree(self):
        for seq in (
            h_sequence(),
            build_sequence(P(), P(), P(2, 1), P(), 3),
            build_sequence(P(1), P(), P(2, 1), P(1), 2),
        ):
            xi = [1.0] * (seq.n - 1)
            for k in (1, 2, 3):
                p = specialize(seq, k, xi)
                assert p.degree == seq.term(k).degree_in(0)


class TestFindRoots:
    def test_quadratic_roots_of_unity(self):
        roots = find_roots(ComplexPoly.from_coefficients([1, 1, 1]))
        expected = sorted(
            [cmath.exp(2j * cmath.pi / 3), cmath.exp(-2j * cmath.pi / 3)],
            key=lambda z: (z.real, z.imag),
        )
        assert all(abs(a - b) < 1e-9 for a, b in zip(roots, expected))

    def test_pure_power(self):
        assert find_roots(ComplexPoly.from_coefficients([0, 0, 0, 1])) == [0j, 0j, 0j]

    def test_residuals_small(self):
        p = ComplexPoly.from_coefficients([3, -2, 0, 5, 1])
        for z in find_roots(p):
            assert abs(p(z)) / p.coefficient_scale(abs(z)) < 1e-8

    def test_conjugate_closure_for_real_inputs(self):
        p = ComplexPoly.from_coefficients([2, 0, 1, 1])
        roots = find_roots(p)
        multiset = sorted((round(z.real, 9), round(z.imag, 9)) for z in roots)
        conjugated = sorted((round(z.real, 9), round(-z.imag, 9)) for z in roots)
        assert multiset == conjugated

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            find_roots(ComplexPoly.from_coefficients([7]))

    def test_root_count_matches_degree(self):
        seq = build_sequence(P(), P(), P(2, 1), P(), 3)
        for k in (1, 2, 3, 4):
            p = specialize(seq, k, [1.0, 1.0])
            assert len(find_roots(p)) == p.degree


class TestStaircase:
    def test_roots_on_unit_circle(self):
        seq = build_sequence(P(), P(), P(2, 1), P(), 3)
        for k in range(1, 6):
            roots = find_roots(specialize(seq, k, [1.0, 1.0]))
            assert max(abs(abs(z) - 1.0) for z in roots) < 1e-6


class TestLimitExperiment:
    def test_h_family_deviations_vanish(self):
        result = limit_experiment(h_sequence(), [1.0], 12)
        assert len(result.clouds) == 12
        for cloud in result.clouds:
            assert cloud.deviation < 1e-12

    def test_cloud_sizes(self):
        result = limit_experiment(h_sequence(), [1.0], 5)
        assert [len(c.roots) for c in result.clouds] == [1, 2, 3, 4, 5]

    def test_mu_equal_nu_rejected(self):
        seq = build_sequence(P(2), P(), P(1), P(1), 2)
        with pytest.raises(ValueError):
            limit_experiment(seq, [1.0], 3)

    @pytest.mark.parametrize("xi", [float("nan"), float("inf"), complex(1.0, float("-inf"))])
    def test_non_finite_xi_rejected(self, xi):
        with pytest.raises(ValueError, match="xi must be finite"):
            limit_experiment(h_sequence(), [xi], 3)

    def test_origin_cluster_excluded_from_deviation(self):
        cloud = RootCloud.from_roots(1, [0j, 0.01 + 0j, 1.0 + 0j], 1.0)
        assert cloud.deviation == 0.0

    def test_radius_two(self):
        # h_k(z, 2): roots are 2 * (roots of unity except 1), on |z| = 2
        result = limit_experiment(h_sequence(), [2.0], 6)
        assert result.radius == 2.0
        for cloud in result.clouds:
            assert cloud.deviation < 1e-10

    def test_complex_xi(self):
        # h_k(z, i) = (z^{k+1} - i^{k+1})/(z - i): roots are (k+1)-th roots
        # of i^{k+1} other than i itself, all of modulus 1
        seq = h_sequence()
        for k in (3, 5, 8):
            p = specialize(seq, k, [1j])
            roots = find_roots(p)
            assert len(roots) == k
            assert max(abs(abs(z) - 1.0) for z in roots) < 1e-9
            assert all(abs(z**(k + 1) - (1j)**(k + 1)) < 1e-8 for z in roots)


class TestCsv:
    def test_header_and_shape(self):
        result = limit_experiment(h_sequence(), [1.0], 3)
        text = clouds_to_csv(result.clouds)
        lines = text.strip().split("\n")
        assert lines[0] == "k,root_index,re,im,modulus,deviation"
        assert len(lines) == 1 + 1 + 2 + 3
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "0"
