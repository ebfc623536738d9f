"""Root clouds of univariate specializations of the stretched sequences.

Specializing all variables but the first to points on a circle of radius R
turns each sequence term into a complex polynomial P_k(z); as k grows the
roots accumulate on the circle |z| = R (possibly plus the origin).  Terms
are homogeneous, so the work runs in units of R: the roots of P_k are R
times those of s_k(w, xi/R), whose coefficients are collected exactly and
whose roots are found by a simultaneous Aberth-Ehrlich iteration.  Per-cloud
deviations from the circle are reported at scale R.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .recurrence import SchurSequence

RESIDUAL_TOL = 1e-8
COEFF_TRIM = 1e-14
ORIGIN_EXCLUSION = 0.05
MAX_ITERATIONS = 10_000
DEGREE_CAP = 5_000


class RootConvergenceError(RuntimeError):
    """Raised when roots fail the residual check after the sweep stopped."""

    def __init__(self, bad_roots: list[tuple[int, complex, float]], sweeps: int, stop: str):
        self.bad_roots = bad_roots
        self.sweeps = sweeps
        self.stop = stop
        detail = "; ".join(f"root {i}: z={z:.6g}, residual={r:.3g}" for i, z, r in bad_roots)
        super().__init__(f"unconverged roots after {sweeps} sweeps ({stop}): {detail}")


class DegenerateSpecialization(ValueError):
    """The specialized polynomial vanished identically."""


@dataclass(frozen=True)
class ComplexPoly:
    """Dense complex polynomial; coeffs[j] multiplies z^j.  The coefficients
    are taken as given: specialize is where a cancelled top coefficient is
    trimmed."""

    coeffs: tuple[complex, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    @cached_property
    def _magnitudes(self) -> list[float]:
        return [abs(c) for c in self.coeffs]

    def coefficient_scale(self, radius: float) -> float:
        """Sum of |c_j| * radius^j, the natural backward-error scale, in one
        Horner pass: no power of radius is taken."""
        acc = 0.0
        for m in reversed(self._magnitudes):
            acc = acc * radius + m
        return acc

    def is_real(self) -> bool:
        biggest = max(self._magnitudes, default=0.0)
        return all(abs(c.imag) <= 1e-14 * (1.0 + biggest) for c in self.coeffs)


@dataclass(frozen=True)
class RootCloud:
    """All roots of one specialized polynomial plus the circle deviation."""

    k: int
    roots: tuple[complex, ...]
    radius: float
    deviation: float

    @staticmethod
    def from_roots(k: int, roots: Sequence[complex], radius: float) -> "RootCloud":
        kept = [z for z in roots if abs(z) >= ORIGIN_EXCLUSION * radius]
        dev = max((abs(abs(z) - radius) for z in kept), default=0.0)
        return RootCloud(k, tuple(roots), radius, dev)


def _unit(xs: Sequence[complex], n: int) -> float:
    """The modulus R that the n - 1 finite xi share up to a relative 1e-12;
    1.0 for no xi."""
    if len(xs) != n - 1:
        raise ValueError(f"xi must have length n-1 = {n - 1}")
    if not all(cmath.isfinite(v) for v in xs):
        raise ValueError("xi must be finite")
    try:
        moduli = [abs(v) for v in xs]
    except OverflowError:  # finite parts, but a modulus past the largest float
        raise ValueError("the modulus of an xi exceeds the float range") from None
    if moduli and max(moduli) - min(moduli) > 1e-12 * max(moduli):
        raise ValueError("all xi must lie on a common circle |xi| = R")
    return moduli[0] if moduli else 1.0


def specialize(seq: SchurSequence, k: int, xi: Sequence[complex]) -> ComplexPoly:
    """P_k in units of R: substitute x_2..x_n -> xi/R, where R is the common
    modulus of xi (1 when R = 0), and collect powers of x_1.

    The roots of P_k are R times the roots of the result, which is P_k
    itself at R = 1; every power taken has modulus 1.  The collection runs
    over the exact integer terms of term k in a fixed order (seq.term_cells:
    the nonzero cells of its weight table in C order).  Each coefficient is
    multiplied by its powers of xi/R letter by letter and summed, term by
    term, into its power of x_1.  A top coefficient is trimmed only when it
    cancels to COEFF_TRIM relative to the magnitudes summed into it.
    """
    unit = _unit(xi, seq.n) or 1.0
    xs = [complex(v.real / unit, v.imag / unit) for v in xi]
    exponents, counts = seq.term_cells(k)
    if not counts:
        raise DegenerateSpecialization(f"term {k} is the zero polynomial")
    values = [complex(c) for c in counts]
    for x, column in zip(xs, exponents[1:]):
        powers = [x**q for q in range(max(column) + 1)]
        # a zero exponent skips the product: times 1 + 0j could flip a zero's sign
        values = [v * powers[q] if q else v for v, q in zip(values, column)]
    top = max(exponents[0])
    by_power, magnitude = [0j] * (top + 1), [0.0] * (top + 1)
    for j, value in zip(exponents[0], values):
        by_power[j] += value
        magnitude[j] += abs(value)
    while top >= 0 and abs(by_power[top]) <= COEFF_TRIM * magnitude[top]:
        top -= 1
    if top < 0:
        raise DegenerateSpecialization(f"specialized term {k} vanished identically")
    return ComplexPoly(tuple(by_power[: top + 1]))


def _value_and_slope(pairs: list[tuple[complex, complex]], c0: complex, z: complex) -> tuple[complex, complex]:
    """p(z) and p'(z) by Horner's rule, both started from 0j, where pairs
    holds (c_j, j * c_j) for j = d .. 1."""
    p = dp = 0j
    for c, jc in pairs:
        p = p * z + c
        dp = dp * z + jc
    return p * z + c0, dp


def _aberth(coeffs: list[complex]) -> tuple[list[complex], int, str]:
    """Simultaneous Aberth-Ehrlich root iteration (Bini 1996).

    The roots start evenly spaced on the circle whose radius is their
    geometric mean |c_0/c_d|^(1/d), so coeffs[0] must be nonzero.  A root
    whose own step falls below 1e-14 * (1 + |z_i|) is frozen: it keeps
    repelling the others but is no longer updated.  The sweep stops when
    every root is frozen or the largest step falls below 1e-14 times
    (1 + the start radius), when the largest step has not improved for 64
    sweeps, or after MAX_ITERATIONS sweeps.  Returns the roots, the number
    of sweeps run and why the sweep stopped.

    A zero divisor (a zero derivative, two coincident iterates or a zero
    Aberth denominator) is rare, so it is handled where division raises.
    """
    d = len(coeffs) - 1
    lead = coeffs[-1]
    monic = [c / lead for c in coeffs]
    start = abs(monic[0]) ** (1.0 / d)
    z = [
        start * cmath.exp(2j * cmath.pi * (j / d) + 1j * cmath.pi / (2 * d))
        for j in range(d)
    ]
    rev = monic[::-1]
    pairs = [(monic[j], j * monic[j]) for j in range(d, 0, -1)]
    rev_pairs = [(rev[j], j * rev[j]) for j in range(d, 0, -1)]
    tol = 1e-14 * (1.0 + start)

    active = list(range(d))
    best_step = float("inf")
    since_best = 0
    sweeps = 0
    while active:
        if sweeps == MAX_ITERATIONS:
            return z, sweeps, f"cap of {MAX_ITERATIONS} sweeps"
        sweeps += 1
        max_step = 0.0
        unfrozen = []
        for i in active:
            zi = z[i]
            p, dp = _value_and_slope(pairs, monic[0], zi)
            if not cmath.isfinite(p * dp):  # zi^d overflowed: p = zi^d q(1/zi), q reversed
                w = 1 / zi
                q, dq = _value_and_slope(rev_pairs, rev[0], w)
                p, dp = zi * q, d * q - w * dq
            if p == 0:
                continue
            try:
                newton = p / dp
            except ZeroDivisionError:
                newton = p / (dp + 1e-300)
            try:
                repulsion = 0j
                for zj in z[:i]:
                    repulsion += 1.0 / (zi - zj)
                for zj in z[i + 1 :]:
                    repulsion += 1.0 / (zi - zj)
            except ZeroDivisionError:  # coincident iterates: 1e-300 stands in for 0
                repulsion = 0j
                for j in range(d):
                    if j != i:
                        diff = zi - z[j]
                        repulsion += 1.0 / (diff if diff != 0 else 1e-300)
            denom = 1.0 - newton * repulsion
            try:
                step = newton / denom
            except ZeroDivisionError:
                step = newton
            z[i] = zi - step
            size = abs(step)
            if size > max_step:
                max_step = size
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


def _conjugate_closure(roots: list[complex]) -> list[complex]:
    """For real polynomials: snap near-real roots to the axis and average
    conjugate pairs so the returned multiset is exactly conjugation-closed."""
    order = sorted(range(len(roots)), key=lambda i: -abs(roots[i].imag))
    used = [False] * len(roots)
    out: list[complex] = []
    for i in order:
        if used[i]:
            continue
        used[i] = True
        zi = roots[i]
        scale = 1.0 + abs(zi)
        if abs(zi.imag) <= 1e-8 * scale:
            out.append(complex(zi.real, 0.0))
            continue
        target = zi.conjugate()
        best_j, best_dist = -1, float("inf")
        for j in range(len(roots)):
            if not used[j]:
                dist = abs(roots[j] - target)
                if dist < best_dist:
                    best_j, best_dist = j, dist
        if best_j >= 0 and best_dist <= 1e-6 * scale:
            used[best_j] = True
            mean = (zi + roots[best_j].conjugate()) / 2.0
            out.append(mean)
            out.append(mean.conjugate())
        else:
            out.append(zi)
    return out


def find_roots(p: ComplexPoly) -> list[complex]:
    """All complex roots with multiplicity, deterministic, each validated to
    relative residual below 1e-8.  The absolute floors of _aberth and
    _conjugate_closure (1 + |z|) assume roots of modulus about 1, which is
    what specialize's units of R give."""
    if p.degree < 1:
        raise ValueError("find_roots requires degree >= 1")
    coeffs = list(p.coeffs)
    zeros_at_origin = 0
    while coeffs and coeffs[0] == 0:
        zeros_at_origin += 1
        coeffs.pop(0)
    roots: list[complex] = [0j] * zeros_at_origin
    sweeps, stop = 0, "no sweep needed"
    if len(coeffs) >= 2:
        found, sweeps, stop = _aberth(coeffs)
        if p.is_real():
            found = _conjugate_closure(found)
        roots.extend(found)
    bad = []
    for i, z in enumerate(roots):
        scale, value = p.coefficient_scale(abs(z)), abs(p(z))
        residual = value / scale if scale > 0 else value
        if not residual < RESIDUAL_TOL:  # a nan root fails too
            bad.append((i, z, residual))
    if bad:
        raise RootConvergenceError(bad, sweeps, stop)
    return sorted(roots, key=lambda z: (round(z.real, 12), round(z.imag, 12)))


@dataclass
class ExperimentResult:
    clouds: list[RootCloud]
    radius: float
    trend_ok: bool

    @property
    def deviations(self) -> list[float]:
        return [c.deviation for c in self.clouds]


def limit_experiment(seq: SchurSequence, xi: Sequence[complex], kmax: int) -> ExperimentResult:
    """Root clouds of P_1 .. P_kmax, found in units of R and scaled by R,
    with their deviations from |z| = R.

    trend_ok records whether deviation(kmax) < deviation(1); the limit
    statement gives no convergence rate, so the series is reported in full.

    Before any table is built, a kmax whose term has more nonempty columns
    (SkewShape.num_columns, O(rows) whatever kmax) than DEGREE_CAP - 1 is
    refused: that count is the degree of P_kmax before trimming, since no
    column holds two 1s and numbering each column's boxes 1, 2, ... from
    its top is a tableau, and it never falls as k grows.  The terms 1 ..
    kmax are then one window (SchurSequence.window), which refuses a window
    over the window limit or builds it in index order.
    """
    if seq.mu == seq.nu:
        raise ValueError("the limit experiment requires mu != nu")
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    radius = _unit(xi, seq.n)
    columns = seq.shape_at(kmax).num_columns()
    if columns + 1 > DEGREE_CAP:
        raise ValueError(
            f"kmax={kmax} is refused: term {kmax} has {columns} nonempty columns, so P_{kmax} "
            f"has up to {columns + 1} coefficients, over the cap of {DEGREE_CAP}"
        )
    seq.window(1, kmax)
    clouds = []
    for k in range(1, kmax + 1):
        poly = specialize(seq, k, xi)
        # P_k(R w) = R^D poly(w); at R = 0 every root is 0 and stays there
        roots = [complex(z.real * radius, z.imag * radius) for z in find_roots(poly)] if poly.degree >= 1 else []
        clouds.append(RootCloud.from_roots(k, roots, radius))
    trend_ok = clouds[-1].deviation < clouds[0].deviation
    return ExperimentResult(clouds, radius, trend_ok)


def clouds_to_csv(clouds: Sequence[RootCloud]) -> str:
    """CSV rows k,root_index,re,im,modulus,deviation (per-root deviation)."""
    lines = ["k,root_index,re,im,modulus,deviation"]
    for cloud in clouds:
        for i, z in enumerate(cloud.roots):
            modulus = abs(z)
            dev = abs(modulus - cloud.radius)
            lines.append(
                f"{cloud.k},{i},{z.real:.15g},{z.imag:.15g},{modulus:.15g},{dev:.15g}"
            )
    return "\n".join(lines) + "\n"
