"""Root clouds of univariate specializations of the stretched sequences.

Specializing all variables but the first to points on a circle of radius R
turns each sequence term into a complex polynomial P_k(z); as k grows the
roots accumulate on the circle |z| = R (possibly plus the origin).  This
module collects the exact coefficients symbolically, finds roots with a
simultaneous Aberth-Ehrlich iteration, and reports per-cloud deviations
from the circle.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
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

    def coefficient_scale(self, radius: float) -> float:
        """Sum of |c_j| * radius^j, the natural backward-error scale."""
        return sum(abs(c) * radius**j for j, c in enumerate(self.coeffs))

    def is_real(self) -> bool:
        biggest = max((abs(c) for c in self.coeffs), default=0.0)
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


def specialize(seq: SchurSequence, k: int, xi: Sequence[complex]) -> ComplexPoly:
    """P_k(z): substitute x_2..x_n -> xi and collect powers of x_1.

    The collection runs over the exact integer terms of seq.term(k), in
    the order its MultiPoly lists them; each term is evaluated in complex
    arithmetic once.  The xi must share one modulus R up to a relative
    1e-12, so any R is accepted whose powers keep the coefficients finite;
    an R that overflows them is refused.  A top coefficient is trimmed only
    when it cancels to COEFF_TRIM relative to the magnitudes summed into it,
    so any radius keeps the true degree.
    """
    xs = [complex(v) for v in xi]
    if len(xs) != seq.n - 1:
        raise ValueError(f"xi must have length n-1 = {seq.n - 1}")
    if xs:
        moduli = [abs(v) for v in xs]
        if max(moduli) - min(moduli) > 1e-12 * max(moduli):
            raise ValueError("all xi must lie on a common circle |xi| = R")
    by_power: dict[int, complex] = {}
    magnitude: dict[int, float] = {}
    powers: dict[tuple[int, int], complex] = {}

    def xi_power(i: int, p: int) -> complex:
        got = powers.get((i, p))
        if got is None:
            try:
                got = xs[i] ** p
            except OverflowError:  # refused below, with the modulus named
                got = complex(math.inf)
            powers[(i, p)] = got
        return got

    for exps, coef in seq.term(k).terms.items():
        value = complex(coef)
        for i, p in enumerate(exps[1:]):
            if p:
                value *= xi_power(i, p)
        by_power[exps[0]] = by_power.get(exps[0], 0j) + value
        magnitude[exps[0]] = magnitude.get(exps[0], 0.0) + abs(value)
    # each magnitude bounds its coefficient; an overflowed term makes it inf or nan
    if not all(math.isfinite(m) for m in magnitude.values()):
        raise ValueError(f"xi of modulus {abs(xs[0]):g} overflows the coefficients of term {k}")
    if not by_power:
        raise DegenerateSpecialization(f"term {k} is the zero polynomial")
    top = max(by_power)
    while top >= 0 and abs(by_power.get(top, 0j)) <= COEFF_TRIM * magnitude.get(top, 0.0):
        top -= 1
    if top < 0:
        raise DegenerateSpecialization(f"specialized term {k} vanished identically")
    return ComplexPoly(tuple(by_power.get(j, 0j) for j in range(top + 1)))


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
    """
    d = len(coeffs) - 1
    lead = coeffs[-1]
    monic = ComplexPoly(tuple(c / lead for c in coeffs))
    start = abs(monic.coeffs[0]) ** (1.0 / d)
    z = [
        start * cmath.exp(2j * cmath.pi * (j / d) + 1j * cmath.pi / (2 * d))
        for j in range(d)
    ]
    deriv = ComplexPoly(tuple(j * monic.coeffs[j] for j in range(1, d + 1)))
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
            p = monic(zi)
            if p == 0:
                continue
            dp = deriv(zi)
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
    relative residual below 1e-8."""
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
        scale = p.coefficient_scale(abs(z))
        residual = abs(p(z)) / scale if scale > 0 else abs(p(z))
        if residual >= RESIDUAL_TOL:
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
    """Root clouds of P_1 .. P_kmax with circle deviations.

    trend_ok records whether deviation(kmax) < deviation(1); the limit
    statement gives no convergence rate, so the series is reported in full.
    """
    if seq.mu == seq.nu:
        raise ValueError("the limit experiment requires mu != nu")
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    xs = [complex(v) for v in xi]
    if not all(cmath.isfinite(v) for v in xs):
        raise ValueError("xi must be finite")
    radius = abs(xs[0]) if xs else 1.0
    clouds = []
    for k in range(1, kmax + 1):
        poly = specialize(seq, k, xs)
        if poly.degree + 1 > DEGREE_CAP:
            raise ValueError(f"specialized polynomial at k={k} exceeds {DEGREE_CAP} coefficients")
        roots = find_roots(poly) if poly.degree >= 1 else []
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
