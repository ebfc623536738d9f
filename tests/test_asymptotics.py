import cmath
import math
import random

import numpy as np
import pytest

from battery import skew_pairs
from schurrec import asymptotics
from schurrec.asymptotics import (
    ComplexPoly,
    DegenerateSpecialization,
    RootCloud,
    RootConvergenceError,
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


def random_phases(radius, count, rng):
    return [radius * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi)) for _ in range(count)]


def cpoly(values):
    """A ComplexPoly with the given coefficients, constant term first."""
    return ComplexPoly(tuple(complex(v) for v in values))


def multipoly_coefficients(seq, k, xs):
    """Reference collection over the MultiPoly seq.term(k), term by term in
    its own order, with the same complex arithmetic as specialize."""
    by_power = {}
    for exps, coef in seq.term(k).terms.items():
        value = complex(coef)
        for x, p in zip(xs, exps[1:]):
            if p:
                value *= x**p
        by_power[exps[0]] = by_power.get(exps[0], 0j) + value
    return tuple(by_power.get(j, 0j) for j in range(max(by_power) + 1))


def oracle_distance(p):
    """Largest |z - w| / (1 + |z|) over the roots z of find_roots, each
    greedily matched to its nearest unused root w of np.roots."""
    others = list(np.roots(p.coeffs[::-1]))
    assert len(others) == p.degree
    worst = 0.0
    for z in find_roots(p):
        j = min(range(len(others)), key=lambda i: abs(others[i] - z))
        worst = max(worst, abs(others.pop(j) - z) / (1.0 + abs(z)))
    return worst


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

    @pytest.mark.parametrize("radius", [1e-4, 1.0, 1e4, 1e5, 1e6])
    def test_common_circle_is_relative(self, radius):
        # random phases on one circle differ in modulus by rounding, which at
        # large radii exceeds any absolute tolerance
        seq = build_sequence(P(), P(), P(2, 1), P(), 3)
        rng = random.Random(radius)
        for _ in range(100):
            assert specialize(seq, 2, random_phases(radius, 2, rng)).degree == 4
        with pytest.raises(ValueError, match="common circle"):
            specialize(seq, 2, [radius, radius * (1 + 1e-9)])

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

    @pytest.mark.parametrize("radius", [1e-3, 1e3])
    def test_degree_kept_at_extreme_radii(self, radius):
        # a top coefficient such as xi^5 of P_5 = xi^5 z^5 is small, not cancelled
        for mu, n in (((1, 1), 2), ((2,), 2), ((2, 1), 3), ((1, 1, 1), 3)):
            seq = build_sequence(P(), P(), P(*mu), P(), n)
            for k in range(1, 6):
                p = specialize(seq, k, [radius] * (n - 1))
                assert p.degree == seq.term(k).degree_in(0)

    def test_cancelled_top_coefficient_trimmed(self):
        # e_2(z, 1, -1): the z-coefficient x_2 + x_3 cancels to exactly zero
        seq = build_sequence(P(), P(), P(1, 1), P(), 3)
        assert specialize(seq, 1, [1.0, -1.0]).coeffs == (-1 + 0j,)

    @pytest.mark.parametrize(
        "kappa,lam,mu,nu,n",
        [
            ((), (), (2,), (), 1),
            ((), (), (2, 1), (1,), 2),
            ((), (), (2, 1), (), 3),
            ((2, 2, 1, 1), (1, 1), (1,), (), 3),
            ((), (), (2, 1), (), 4),
            ((2, 2, 1, 1), (1, 1), (1,), (), 4),
            ((), (), (1,), (), 5),  # the dense engine refuses n = 5
        ],
    )
    def test_table_path_equals_multipoly_path(self, kappa, lam, mu, nu, n):
        seq = build_sequence(P(*kappa), P(*lam), P(*mu), P(*nu), n)
        xs = random_phases(1.0, n - 1, random.Random(n))
        for k in range(1, 5):
            assert specialize(seq, k, xs).coeffs == multipoly_coefficients(seq, k, xs)


class TestFindRoots:
    def test_quadratic_roots_of_unity(self):
        roots = find_roots(cpoly([1, 1, 1]))
        expected = sorted(
            [cmath.exp(2j * cmath.pi / 3), cmath.exp(-2j * cmath.pi / 3)],
            key=lambda z: (z.real, z.imag),
        )
        assert all(abs(a - b) < 1e-9 for a, b in zip(roots, expected))

    def test_pure_power(self):
        assert find_roots(cpoly([0, 0, 0, 1])) == [0j, 0j, 0j]

    def test_residuals_small(self):
        p = cpoly([3, -2, 0, 5, 1])
        for z in find_roots(p):
            assert abs(p(z)) / p.coefficient_scale(abs(z)) < 1e-8

    def test_conjugate_closure_for_real_inputs(self):
        p = cpoly([2, 0, 1, 1])
        roots = find_roots(p)
        multiset = sorted((round(z.real, 9), round(z.imag, 9)) for z in roots)
        conjugated = sorted((round(z.real, 9), round(-z.imag, 9)) for z in roots)
        assert multiset == conjugated

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            find_roots(cpoly([7]))

    def test_error_reports_sweeps_at_cap(self, monkeypatch):
        monkeypatch.setattr(asymptotics, "MAX_ITERATIONS", 2)
        with pytest.raises(RootConvergenceError, match=r"after 2 sweeps \(cap of 2 sweeps\)") as info:
            find_roots(cpoly([3, -2, 0, 5, 1, 7, -1, 2]))
        assert info.value.sweeps == 2

    def test_error_reports_sweeps_run(self, monkeypatch):
        # every root fails a residual bound of 0, after the sweep stopped by itself
        monkeypatch.setattr(asymptotics, "RESIDUAL_TOL", 0.0)
        with pytest.raises(RootConvergenceError) as info:
            find_roots(cpoly([3, -2, 0, 5, 1]))
        err = info.value
        assert 0 < err.sweeps < asymptotics.MAX_ITERATIONS
        assert err.stop in ("steps converged", "stalled")
        assert f"after {err.sweeps} sweeps ({err.stop})" in str(err)

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


class TestOracle:
    """find_roots against np.roots, as multisets; tolerances fixed from the
    float64 error of simple roots and of double roots."""

    def test_random_phase_families(self):
        rng = random.Random(11)
        worst = 0.0
        for n in (2, 3):
            for mu, nu in skew_pairs(3, n):
                # (2k, k)/(k) falls apart into two rows: P_k = h_k(z, xi)^2
                if mu == nu or (mu, nu) == (P(2, 1), P(1)):
                    continue
                seq = build_sequence(P(), P(), mu, nu, n)
                xs = random_phases(1.0, n - 1, rng)
                for k in range(1, 6):
                    p = specialize(seq, k, xs)
                    if p.degree >= 1:
                        worst = max(worst, oracle_distance(p))
        assert worst < 1e-12

    @pytest.mark.parametrize("mu,nu,n", [((2, 1), (), 3), ((2, 1), (1,), 2), ((2, 1), (1,), 3)])
    def test_double_root_families(self, mu, nu, n):
        seq = build_sequence(P(), P(), P(*mu), P(*nu), n)
        for k in range(1, 7):
            assert oracle_distance(specialize(seq, k, [1.0] * (n - 1))) < 1e-6


class TestAnyRadius:
    RADII = [10.0**e for e in range(-4, 5)]

    @pytest.mark.parametrize("radius", RADII)
    @pytest.mark.parametrize("mu,n", [((2,), 2), ((2, 1), 3)])
    def test_clouds_on_circle(self, mu, n, radius):
        seq = build_sequence(P(), P(), P(*mu), P(), n)
        xs = random_phases(radius, n - 1, random.Random(7))
        for cloud in limit_experiment(seq, xs, 8).clouds:
            assert cloud.deviation <= 1e-9 * radius

    @pytest.mark.parametrize("radius", RADII)
    def test_h_family_real_xi(self, radius):
        seq = build_sequence(P(), P(), P(2), P(), 2)
        for cloud in limit_experiment(seq, [radius], 8).clouds:
            assert cloud.deviation <= 1e-9 * radius


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
