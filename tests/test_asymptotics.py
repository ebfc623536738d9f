import cmath
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from battery import battery_families, skew_pairs
from schurrec import _dense, asymptotics
from schurrec._dense import weight_counts
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
from schurrec.polynomials import schur_int_eval
from schurrec.recurrence import build_sequence
from schurrec.tableaux import SkewShape


def P(*parts):
    return Partition(parts)


def h_sequence(n=2):
    return build_sequence(P(), P(), P(1), P(), n)


def random_phases(radius, count, rng):
    return [radius * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi)) for _ in range(count)]


def cpoly(values):
    """A ComplexPoly with the given coefficients, constant term first."""
    return ComplexPoly(tuple(complex(v) for v in values))


def evaluate(p, z):
    """p(z) by Horner's rule in Python complex arithmetic."""
    acc = 0j
    for c in reversed(p.coeffs):
        acc = acc * z + c
    return acc


def coefficient_scale(p, radius):
    """sum_j |c_j| radius^j by Horner's rule."""
    acc = 0.0
    for c in reversed(p.coeffs):
        acc = acc * radius + abs(c)
    return acc


def residual(p, z):
    """find_roots' relative residual: |p(z)| / sum_j |c_j| |z|^j, or |p(z)|
    where that sum is 0."""
    scale = coefficient_scale(p, abs(z))
    return abs(evaluate(p, z)) / scale if scale > 0 else abs(evaluate(p, z))


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


def reference_aberth(coeffs):
    """The Gauss-Seidel Aberth sweep in Python complex arithmetic: each root
    updated in place from the others' latest iterates, one Horner loop per
    polynomial, a repulsion loop that skips j = i, and zero-divisor tests
    before each division.  The same start and stopping rules as
    asymptotics._aberth, whose batched Jacobi sweep is checked against it."""
    d = len(coeffs) - 1
    lead = coeffs[-1]
    monic = ComplexPoly(tuple(c / lead for c in coeffs))
    start = abs(monic.coeffs[0]) ** (1.0 / d)
    z = [
        start * cmath.exp(2j * cmath.pi * (j / d) + 1j * cmath.pi / (2 * d))
        for j in range(d)
    ]
    deriv = ComplexPoly(tuple(j * monic.coeffs[j] for j in range(1, d + 1)))
    rev = ComplexPoly(monic.coeffs[::-1])
    rev_deriv = ComplexPoly(tuple(j * rev.coeffs[j] for j in range(1, d + 1)))
    tol = 1e-14 * (1.0 + start)

    active = list(range(d))
    best_step = float("inf")
    since_best = 0
    sweeps = 0
    while active:
        if sweeps == asymptotics.MAX_ITERATIONS:
            return z, sweeps, f"cap of {asymptotics.MAX_ITERATIONS} sweeps"
        sweeps += 1
        max_step = 0.0
        unfrozen = []
        for i in active:
            zi = z[i]
            p, dp = evaluate(monic, zi), evaluate(deriv, zi)
            if not cmath.isfinite(p * dp):  # zi^d overflowed: p = zi^d q(1/zi), q reversed
                w = 1 / zi
                q = evaluate(rev, w)
                p, dp = zi * q, d * q - w * evaluate(rev_deriv, w)
            if p == 0:
                continue
            if dp == 0:
                newton = p / (dp + 1e-300)
            else:
                newton = p / dp
            repulsion = 0j
            for j in range(d):
                if j != i:
                    diff = zi - z[j]
                    if diff == 0:
                        diff = 1e-300
                    repulsion += 1.0 / diff
            denom = 1.0 - newton * repulsion
            step = newton / denom if denom != 0 else newton
            z[i] = zi - step
            size = abs(step)
            max_step = max(max_step, size)
            if size >= 1e-14 * (1.0 + abs(z[i])):
                unfrozen.append(i)
        active = unfrozen
        if max_step < tol:
            break
        if max_step < best_step * 0.999:
            best_step = max_step
            since_best = 0
        else:
            since_best += 1
            if since_best > 64:
                return z, sweeps, "stalled"
    return z, sweeps, "steps converged"


def bits(roots):
    """Roots as float.hex pairs: hex tells -0.0 from 0.0 and keeps nan
    comparable."""
    return [(z.real.hex(), z.imag.hex()) for z in roots]


def aberth_input(p):
    """The coefficients find_roots hands to _aberth: p less its roots at 0."""
    coeffs = list(p.coeffs)
    while coeffs[0] == 0:
        coeffs.pop(0)
    return coeffs


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

    @pytest.mark.parametrize(
        "mu,nu,n,kmax",
        [((2, 1), (), 2, 4), ((2, 1), (), 3, 4), ((2, 1), (), 4, 3), ((2, 1), (1,), 3, 4)],
    )
    def test_coefficients_are_in_units_of_the_radius(self, mu, nu, n, kmax):
        # s_k is homogeneous of degree D, so s_k(z0, m, ..., m) is the sum of
        # q_j z0^j m^(D - j) over the coefficients q_j of P_k in units of m
        seq = build_sequence(P(), P(), P(*mu), P(*nu), n)
        for k in range(1, kmax + 1):
            D = seq.boxes_at(k)
            for m in (2, 3, 7):
                q = [round(c.real) for c in specialize(seq, k, [float(m)] * (n - 1)).coeffs]
                for z0 in (1, 5, -4):
                    value = sum(c * z0**j * m ** (D - j) for j, c in enumerate(q))
                    assert value == schur_int_eval(*seq.pair_at(k), (z0,) + (m,) * (n - 1))


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
            assert residual(p, z) < 1e-8

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

    def test_nan_root_fails_the_residual_check(self, monkeypatch):
        def diverged(batch):
            return [([complex("nan")] * (len(coeffs) - 1), 1, "stalled") for coeffs in batch]

        monkeypatch.setattr(asymptotics, "_aberth", diverged)
        with pytest.raises(RootConvergenceError, match="residual=nan"):
            find_roots(cpoly([3, -2, 0, 5, 1]))

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


def assert_matches_reference(p, tol):
    """Every root of find_roots(p) within tol * (1 + |z|) of its greedily
    matched root of reference_aberth (or of 0, for p's roots at 0), and with
    a residual below RESIDUAL_TOL."""
    coeffs = aberth_input(p)
    others = reference_aberth(coeffs)[0] + [0j] * (p.degree + 1 - len(coeffs))
    for z in find_roots(p):
        j = min(range(len(others)), key=lambda i: abs(others[i] - z))
        assert abs(others.pop(j) - z) <= tol * (1.0 + abs(z)), (p, z)
        assert residual(p, z) < asymptotics.RESIDUAL_TOL, (p, z)


def clustered(p, gap=1e-4):
    """Whether two roots of reference_aberth lie within gap of each other,
    as about a double root."""
    roots = reference_aberth(aberth_input(p))[0]
    return any(abs(a - b) < gap for i, a in enumerate(roots) for b in roots[:i])


class TestAberthMatchesReference:
    """The batched Jacobi sweep against reference_aberth, the Gauss-Seidel
    sweep: matched roots within oracle_distance's tolerances (1e-12 for
    simple roots, 1e-6 about a double root), each with a residual below
    RESIDUAL_TOL.  A Jacobi sweep takes other steps than a Gauss-Seidel one,
    so the two agree to rounding at simple roots, not bit for bit."""

    def test_random_phase_families(self):
        # the library's root clouds: n = 2, 3, |mu| <= 4, degrees up to 28
        rng = random.Random(15)
        runs = 0
        for n in (2, 3):
            for mu, nu in skew_pairs(4, n):
                if mu == nu:
                    continue
                seq = build_sequence(P(), P(), mu, nu, n)
                xs = random_phases(1.0, n - 1, rng)
                for k in range(1, 29):
                    p = specialize(seq, k, xs)
                    if p.degree > 28:
                        break
                    if len(aberth_input(p)) >= 2:
                        runs += 1
                        assert_matches_reference(p, 1e-6 if clustered(p) else 1e-12)
        assert runs > 300

    @pytest.mark.parametrize("mu,nu,n", [((2, 1), (), 3), ((2, 1), (1,), 2), ((2, 1), (1,), 3)])
    def test_double_root_families(self, mu, nu, n):
        seq = build_sequence(P(), P(), P(*mu), P(*nu), n)
        for k in range(1, 7):
            assert_matches_reference(specialize(seq, k, [1.0] * (n - 1)), 1e-6)

    @pytest.mark.parametrize("k", [106, 120])
    def test_h_family_reversed_steps(self, k, monkeypatch):
        # degree 2k = 212 and 240, where the Gauss-Seidel sweep strays far
        # enough for z^d to overflow; the Jacobi sweep does not, so every
        # evaluation is sent to the reversed polynomial here
        evaluations = []

        class Overflowing:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def isfinite(values):
                evaluations.append(np.size(values))
                return np.zeros(np.shape(values), bool)

        p = specialize(build_sequence(P(), P(), P(2), P(), 2), k, [1.0])
        monkeypatch.setattr(asymptotics, "np", Overflowing())
        assert_matches_reference(p, 1e-12)
        assert sum(evaluations) >= 2 * k

    def test_zero_derivative(self):
        # p'(z) = 2z - 2 z_0 vanishes exactly at the first start point z_0
        z0 = cmath.exp(1j * cmath.pi / 4)
        assert_matches_reference(cpoly([1, -2 * z0, 1]), 1e-12)

    @pytest.mark.parametrize("values", [[[1e-200, 0.0, 3e200, 1.0], [1e-200, 0.0, 4e200, -2.0]]])
    def test_reciprocal_out_of_the_normal_range(self, values):
        # re^2 + im^2 underflows, is 0 (standing for 1e-300) or overflows
        pairs = np.array(values)
        expected = [1 / complex(1e-200, 1e-200), complex(1e300, -0.0), 1 / complex(3e200, 4e200), 1 / complex(1, -2)]
        with np.errstate(all="ignore"):
            got = asymptotics._recip(pairs)
        assert [complex(*w) for w in got.T] == pytest.approx(expected, rel=1e-15)


def batch_cases():
    """(seq, xi, kmax) of a library-like root run drawn by hypothesis."""
    families = [(mu, nu, n) for n in (2, 3) for mu, nu in skew_pairs(3, n) if mu != nu]
    return st.tuples(
        st.sampled_from(families), st.integers(1, 8), st.floats(0.5, 2.0), st.randoms(use_true_random=False)
    )


class TestBatches:
    """A polynomial's roots have the same bits alone (find_roots) as in any
    batch, and each polynomial of a batch reports its own sweeps."""

    @settings(max_examples=25, deadline=None)
    @given(batch_cases())
    def test_limit_experiment_batch_equals_each_alone(self, case):
        (mu, nu, n), kmax, radius, rng = case
        seq = build_sequence(P(), P(), mu, nu, n)
        xi = random_phases(radius, n - 1, rng)
        result = limit_experiment(seq, xi, kmax)
        for cloud in result.clouds:
            p = specialize(seq, cloud.k, xi)
            alone = [complex(z.real * result.radius, z.imag * result.radius) for z in find_roots(p)] if p.degree >= 1 else []
            assert bits(cloud.roots) == bits(alone)

    @settings(max_examples=25, deadline=None)
    @given(batch_cases(), st.data())
    def test_any_make_up_equals_each_alone(self, case, data):
        (mu, nu, n), kmax, radius, rng = case
        seq = build_sequence(P(), P(), mu, nu, n)
        xi = random_phases(radius, n - 1, rng)
        polys = [p for p in (specialize(seq, k, xi) for k in range(1, kmax + 1)) if p.degree >= 1]
        polys += [cpoly([2, 0, 1, 1]), cpoly([3, -2, 0, 5, 1])]
        batch = data.draw(st.lists(st.sampled_from(polys), min_size=1, max_size=8))
        found = asymptotics._find_all(batch)
        assert [bits(roots) for roots in found] == [bits(find_roots(p)) for p in batch]

    def test_each_polynomial_reports_its_own_sweeps(self):
        quartic = [complex(math.comb(4, j) * (-1) ** (4 - j)) for j in range(5)]  # (z - 1)^4
        square = [1 + 0j, 0j, 1 + 0j]  # z^2 + 1
        (_, stalled, why), (_, converged, done) = asymptotics._aberth([quartic, square])
        assert why == "stalled" and done == "steps converged" and converged < stalled
        assert asymptotics._aberth([square])[0][1:] == (converged, done)

    def test_a_failing_polynomial_raises_with_its_own_stop(self, monkeypatch):
        # the roots of (z - 1)(z - 0.004) start on the circle of radius
        # 0.063 and take many sweeps to get out; z^2 + 1 takes few
        slow, quick = cpoly([0.004, -1.004, 1]), cpoly([1, 0, 1])
        quick_sweeps = asymptotics._aberth([list(quick.coeffs)])[0][1]
        monkeypatch.setattr(asymptotics, "MAX_ITERATIONS", quick_sweeps + 1)
        with pytest.raises(RootConvergenceError) as info:
            asymptotics._find_all([quick, slow, quick])
        cap = quick_sweeps + 1
        assert info.value.sweeps == cap and info.value.stop == f"cap of {cap} sweeps"
        assert asymptotics._find_all([quick]) == [find_roots(quick)]
        # a stalled polynomial raises with its own count and reason
        monkeypatch.setattr(asymptotics, "MAX_ITERATIONS", 10_000)
        monkeypatch.setattr(asymptotics, "RESIDUAL_TOL", 0.0)
        quartic = cpoly([math.comb(4, j) * (-1) ** (4 - j) for j in range(5)])
        stalled = asymptotics._aberth([list(quartic.coeffs)])[0][1]
        with pytest.raises(RootConvergenceError) as info:
            asymptotics._find_all([quartic, quick])
        assert (info.value.sweeps, info.value.stop) == (stalled, "stalled")
        with pytest.raises(RootConvergenceError) as info:
            asymptotics._find_all([quick, quartic])
        assert (info.value.sweeps, info.value.stop) == (quick_sweeps, "steps converged")


def real_polynomials():
    """Real polynomials from roots r/2 and conjugate pairs a +- bi, each of
    multiplicity 1 to 3, as (real roots, pairs) of (root, multiplicity)."""
    real = st.tuples(st.integers(-6, 6), st.integers(1, 3))
    pair = st.tuples(st.tuples(st.integers(-3, 3), st.integers(1, 3)), st.integers(1, 3))
    return st.tuples(st.lists(real, max_size=3), st.lists(pair, max_size=2)).filter(lambda t: t[0] or t[1])


class TestConjugateClosure:
    @settings(max_examples=60, deadline=None)
    @given(real_polynomials())
    def test_roots_of_real_polynomials_are_closed_exactly(self, roots):
        reals, pairs = roots
        coeffs = [1]
        factors = [[-r / 2, 1] for r, m in reals for _ in range(m)]
        factors += [[a * a + b * b, -2 * a, 1] for (a, b), m in pairs for _ in range(m)]
        for f in factors:
            coeffs = [sum(f[i] * coeffs[j - i] for i in range(len(f)) if 0 <= j - i < len(coeffs)) for j in range(len(coeffs) + len(f) - 1)]
        found = find_roots(cpoly(coeffs))
        assert len(found) == len(coeffs) - 1
        assert sorted((z.real, z.imag) for z in found) == sorted((z.real, -z.imag) for z in found)

    def test_a_cluster_left_unpaired_is_closed(self):
        # a triple real root split into a rotated triangle of radius 1e-5:
        # two upper roots, one lower, none within 1e-6 of another's conjugate
        d = 1e-5
        cluster = [2 + d * cmath.exp(1j * cmath.pi * (1 / 6 + 2 * j / 3)) for j in range(3)]
        closed = asymptotics._conjugate_closure(cluster + [1 + 1j, 1 - 1j, 0.5 + 0j])
        assert sorted((z.real, z.imag) for z in closed) == sorted((z.real, -z.imag) for z in closed)
        assert len(closed) == 6 and max(abs(z - 2) for z in closed if abs(z - 2) < 1) < 2 * d


class TestAnyRadius:
    RADII = [10.0**e for e in range(-4, 5)] + [1e-200, 1e-9, 1e9, 1e200]

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

    @pytest.mark.parametrize("radius,k", [(0.1, 170), (10.0, 160), (1.0, 165)])
    def test_h_family_high_degree(self, radius, k):
        # R^(2k) underflows or overflows a float, the powers of xi/R do not
        seq = build_sequence(P(), P(), P(2), P(), 2)
        roots = [radius * z for z in find_roots(specialize(seq, k, [radius]))]
        cloud = RootCloud.from_roots(k, roots, radius)
        assert len(roots) == 2 * k and all(cmath.isfinite(z) for z in roots)
        assert min(abs(z) for z in roots) >= asymptotics.ORIGIN_EXCLUSION * radius
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

    def test_x1_degree_is_the_column_count(self):
        # the degree in x1 of every nonzero table is its shape's number of
        # nonempty columns, counted from the rows as from the column runs
        for outer, inner in skew_pairs(8, 4):
            shape = SkewShape(outer, inner)
            columns = shape.num_columns()
            assert columns == sum(top <= bottom for top, bottom in shape.column_runs())
            for n in (2, 3, 4):
                table = weight_counts(outer, inner, n)
                if table.any():
                    assert np.nonzero(table)[0].max() == columns

    def test_kmax_over_the_degree_cap_is_refused_before_any_table(self, monkeypatch):
        # k*[2,2]/k*[1] has 2k nonempty columns, so P_k has 2k + 1 coefficients
        kmax = 6
        spy = mock.Mock(wraps=_dense.window_counts)
        monkeypatch.setattr(_dense, "window_counts", spy)
        monkeypatch.setattr(asymptotics, "DEGREE_CAP", 2 * kmax + 1)
        seq = build_sequence(P(), P(), P(2, 2), P(1), 3)
        result = limit_experiment(seq, [1.0, 1.0], kmax)  # at the cap
        assert [len(c.roots) for c in result.clouds] == [2 * k for k in range(1, kmax + 1)]
        # one window, built in index order
        assert spy.call_count == 1
        assert spy.call_args.args == ([seq.pair_at(k) for k in range(1, kmax + 1)], 3)
        seq = build_sequence(P(), P(), P(2, 2), P(1), 3)
        refusal = (
            rf"^kmax={kmax + 1} \({2 * kmax + 2} nonempty columns in term {kmax + 1}\) is refused: "
            rf"its predicted size {2 * kmax + 3} is over the coefficient cap {2 * kmax + 1}$"
        )
        with pytest.raises(ValueError, match=refusal):
            limit_experiment(seq, [1.0, 1.0], kmax + 1)
        assert spy.call_count == 1 and seq._terms == {}

    def test_column_count_never_falls_as_k_grows(self):
        # so the cap checked at kmax bounds the degree of every P_k, k <= kmax
        for kappa, lam, mu, nu, n in battery_families():
            seq = build_sequence(kappa, lam, mu, nu, n)
            columns = [seq.shape_at(k).num_columns() for k in range(13)]
            assert columns == sorted(columns), (kappa, lam, mu, nu, n)

    def test_xi_of_the_wrong_length_is_refused_before_any_table(self):
        seq = h_sequence(3)
        with pytest.raises(ValueError, match="xi must have length n-1 = 2"):
            limit_experiment(seq, [1.0], 4)
        assert seq._terms == {}

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
