"""Root clouds of univariate specializations of the stretched sequences.

Specializing all variables but the first to points on a circle of radius R
turns each sequence term into a complex polynomial P_k(z); as k grows the
roots accumulate on the circle |z| = R (possibly plus the origin).  Terms
are homogeneous, so the work runs in units of R: the roots of P_k are R
times those of s_k(w, xi/R), whose coefficients are collected exactly.  A
run's clouds are solved at once by Jacobi sweeps of an Aberth iteration in
numpy (_aberth; mu = [2,1], n = 3 to kmax = 80, degree 160: 5-6 s on 2 cores),
in float64 pairs under + - * / and hypot, summed in index order: so a root
has the same bits on any SIMD dispatch or numpy version (complex products
and np.exp, by FMA, do not) and alone as in a batch.  Per-cloud
deviations from the circle are reported at scale R.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Sequence

from ._dense import np
from .recurrence import SchurSequence

RESIDUAL_TOL = 1e-8
COEFF_TRIM = 1e-14
ORIGIN_EXCLUSION = 0.05
MAX_ITERATIONS = 10_000
DEGREE_CAP = 5_000
_CHUNK_CELLS = 1 << 16  # coefficient cells of the points evaluated at once
_ONE = np.reshape((1.0, 0.0), (2, 1, 1))  # 1 + 0i as a float64 pair


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

    def is_real(self) -> bool:
        biggest = max(map(abs, self.coeffs), default=0.0)
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
    """P_k in units of R: substitute x_2..x_n -> xi/R, R the common modulus
    of xi (1 when R = 0), and collect powers of x_1; the roots of P_k are R
    times those of the result, and every power taken has modulus 1.  Each
    exact count of term k, in seq.term_cells order, is multiplied by its
    powers of xi/R letter by letter and summed into its power of x_1.  A top
    coefficient is trimmed only when it cancels to COEFF_TRIM relative to
    the magnitudes summed into it."""
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


def _mul(a, b):
    """a b in float64 (re, im) pairs on the first axis: (a0 b0 - a1 b1, a1 b0 + a0 b1)."""
    out, swapped = a * b[0], a[::-1] * b[1]
    swapped[0] *= -1.0
    out += swapped
    return out


def _recip(a):
    """1/a in float64 pairs; 0 stands for 1e-300, and hypot scales an abnormal re^2 + im^2."""
    den = a[0] * a[0] + a[1] * a[1]
    if den.size and 1e-290 < den.min() and den.max() < 1e290:
        out = a / den
    else:
        a = np.where((a[0] == 0) & (a[1] == 0), np.reshape((1e-300, 0.0), (2,) + (1,) * den.ndim), a)
        h = np.hypot(a[0], a[1])
        out = np.where((den > 1e-290) & (den < 1e290), a / den, a / h / h)
    out[1] *= -1.0
    return out


def _columns(lists: list, width: int):
    """Entry j of each list (0 past its end) in pairs: (width + 1, 2, lists)."""
    cols = np.zeros((width + 1, 2, len(lists)))
    for b, values in enumerate(lists):
        cols[: len(values), :, b] = [(c.real, c.imag) for c in values]
    return cols


def _horner(cols, z):
    """sum_j cols[j] z^j at the points z (2, N), cols[j] shaped (polynomials, 2,
    N).  Zero padding past a degree leaves (+0, +0), the start, at finite z."""
    acc = np.zeros(cols.shape[1:])
    prod, swapped, zr, zs = (np.empty_like(acc) for _ in range(4))
    zr[...], zs[:, 0], zs[:, 1], back = z[0], -z[1], z[1], acc[:, ::-1]  # as in _mul
    for c in list(cols[::-1]):
        np.multiply(acc, zr, prod)
        np.multiply(back, zs, swapped)
        np.add(prod, swapped, acc)
        np.add(acc, c, acc)
    return acc


def _step(z, degree, fwd, rev, rows, cols):
    """One Jacobi step N / (1 - N sum_j 1/(z_i - z_j)), N = p/p', of the roots
    (rows, cols) of z: new iterates, step sizes and which still move."""
    at, top = z[:, rows, cols], degree[rows[0]]  # rows run by degree, highest first
    p, dp = _horner(fwd[: top + 1, ..., rows], at)
    far = (~np.isfinite((p + dp).sum(axis=0))).nonzero()[0]
    if far.size:  # z^d overflowed: p = z^(d-1) (z q(w)), p' = z^(d-1) (d q - w q'), w = 1/z, q reversed
        w = _recip(at[:, far])
        q, dq = _horner(rev[: top + 1, ..., rows[far]], w)
        p[:, far], dp[:, far] = _mul(at[:, far], q), degree[rows[far]] * q - _mul(w, dq)
    # sum_j in index order, with -0.0 (which leaves any sum) at j = i and past d
    span = np.arange(top)
    skip = (span >= degree[rows, None]) | (span == cols[:, None])
    diff = at[..., None] - z[:, rows, :top]
    np.copyto(diff, _ONE, where=skip)
    inverse = _recip(diff)
    np.copyto(inverse, -0.0, where=skip)
    # the step is p / (p' - p sum), so z^(d-1) cancels from a reversed p, p'
    step = _mul(p, _recip(dp - _mul(p, np.add.accumulate(inverse, axis=2)[..., -1])))
    new = at - step
    size = np.hypot(step[0], step[1])
    return new, size, size >= 1e-14 * (1.0 + np.hypot(new[0], new[1]))


def _aberth(batch: list[list[complex]]) -> list[tuple[list[complex], int, str]]:
    """Aberth-Ehrlich iteration (Aberth 1973, Bini 1996) on polynomials from
    their nonzero constant term: roots, sweeps and stop reason of each.  The
    d roots start on the circle of radius |c_0/c_d|^(1/d) at angles
    2 pi j/d + pi/(2d); each sweep is a _step.  A root stepping under
    1e-14 (1 + |z|) freezes but still repels.  A polynomial stops when all
    its roots are frozen or its largest step is under 1e-14 (1 + the start
    radius), that step has not improved for 64 sweeps, or MAX_ITERATIONS."""
    order = sorted(range(len(batch)), key=lambda b: -len(batch[b]))  # degree descending
    monic = [[c / batch[b][-1] for c in batch[b]] for b in order]
    degree = np.array([len(m) - 1 for m in monic])
    width = degree[0]
    # p beside p', whose coefficient j is (j + 1) c_(j+1); rev for the reversed polynomial
    fwd, rev = (
        np.stack([c, np.concatenate([c[1:] * np.arange(1, width + 1)[:, None, None], np.zeros_like(c[:1])])], axis=1)
        for c in (_columns(monic, width), _columns([m[::-1] for m in monic], width))
    )
    starts = [abs(m[0]) ** (1.0 / (len(m) - 1)) for m in monic]
    angles = [[cmath.exp(2j * cmath.pi * (j / d) + 1j * cmath.pi / (2 * d)) for j in range(d)] for d in degree.tolist()]
    z = _columns([[s * w for w in ws] for s, ws in zip(starts, angles)], width - 1).transpose(1, 2, 0).copy()
    tol, active, live = 1e-14 * (1.0 + np.array(starts)), np.arange(width) < degree[:, None], degree > 0
    best, since, code = np.full(len(order), np.inf), np.zeros(len(order), int), np.zeros(len(order), int)
    out, sweeps, reasons = [None] * len(batch), 0, ["", "steps converged", "stalled", f"cap of {MAX_ITERATIONS} sweeps"]
    while True:
        if sweeps == MAX_ITERATIONS:
            code[live & (code == 0)] = 3
        for row in code.nonzero()[0]:
            out[order[row]] = [complex(*w) for w in zip(*z[:, row, : degree[row]].tolist())], sweeps, reasons[code[row]]
        live &= code == 0
        if not live.any():
            return out
        active &= live[:, None]  # a stopped polynomial is swept no more
        sweeps += 1
        rows, cols = np.nonzero(active)
        per = max(1, _CHUNK_CELLS // (degree[rows[0]] + 1))
        parts = [(rows[lo : lo + per], cols[lo : lo + per]) for lo in range(0, len(rows), per)]
        steps = [_step(z, degree, fwd, rev, *part) for part in parts]  # all from this sweep's z
        sizes = np.zeros(active.shape)
        for part, (new, size, moving) in zip(parts, steps):
            z[:, part[0], part[1]], sizes[part], active[part] = new, size, moving
        largest = np.fmax.reduce(sizes, axis=1)  # a nan step counts as none
        better = largest < best * 0.999
        best, since = np.where(better, largest, best), np.where(better, 0, since + 1)
        code = live * np.where(largest < tol, 1, np.where(since > 64, 2, np.where(active.any(axis=1), 0, 1)))


def _conjugate_pairs(roots: list[complex]) -> tuple[list[complex], list[complex]]:
    """Conjugates within 1e-6 (1 + |z|) of both roots, paired as their mean
    and its conjugate, and the roots left.  One sort on (Re, |Im|); in its
    order a root pairs with the nearest open root in reach, or opens."""
    pairs, opened, left = [], [], []
    for z in sorted(roots, key=lambda z: (z.real, abs(z.imag))):
        while opened and z.real - opened[0].real > 1e-6 * (1.0 + abs(opened[0])):
            left.append(opened.pop(0))
        gaps = [(abs(z - w.conjugate()), i) for i, w in enumerate(opened) if (w.imag > 0) != (z.imag > 0)]
        _, i = min([(g, i) for g, i in gaps if g <= 1e-6 * (1.0 + min(abs(z), abs(opened[i])))], default=(0.0, None))
        if i is None:
            opened.append(z)
        else:
            mean = (z + opened.pop(i).conjugate()) / 2.0
            pairs += [mean, mean.conjugate()]
    return pairs, left + opened


def _conjugate_closure(roots: list[complex]) -> list[complex]:
    """For real polynomials, a multiset exactly closed under conjugation:
    near-real roots snap, the others pair (_conjugate_pairs), and of what
    clusters leave, two nearer each other's conjugate than the axis pair."""
    near = [abs(z.imag) <= 1e-8 * (1.0 + abs(z)) for z in roots]
    pairs, odd = _conjugate_pairs([z for z, real in zip(roots, near) if not real])
    snapped, taken = [z for z, real in zip(roots, near) if real], set()
    gaps = [(abs(z - w.conjugate()), i, j) for i, z in enumerate(odd) for j, w in enumerate(odd) if z.imag > 0 > w.imag]
    for gap, i, j in sorted(gaps):
        if i not in taken and j not in taken and gap <= min(odd[i].imag, -odd[j].imag):
            taken |= {i, j}
            mean = (odd[i] + odd[j].conjugate()) / 2.0
            pairs += [mean, mean.conjugate()]
    return [complex(z.real, 0.0) for z in snapped + [z for i, z in enumerate(odd) if i not in taken]] + pairs


def _find_all(polys: list[ComplexPoly]) -> list[list[complex]]:
    """find_roots of each polynomial in one batch; the first with a residual
    |p(z)| / sum_j |c_j| |z|^j (or |p(z)|) not below RESIDUAL_TOL raises."""
    if any(p.degree < 1 for p in polys):
        raise ValueError("find_roots requires degree >= 1")
    origin = [next((j for j, c in enumerate(p.coeffs) if c != 0), len(p.coeffs)) for p in polys]
    swept = [b for b, p in enumerate(polys) if p.degree > origin[b]]
    width = max((p.degree for p in polys), default=0)
    with np.errstate(all="ignore"):
        runs = dict(zip(swept, _aberth([list(polys[b].coeffs[origin[b] :]) for b in swept]) if swept else []))
        found = [runs[b][0] if b in runs else [] for b in range(len(polys))]
        clouds = [[0j] * o + (_conjugate_closure(f) if p.is_real() else f) for p, o, f in zip(polys, origin, found)]
        value = _columns([p.coeffs for p in polys], width)
        scale = np.stack([np.hypot(value[:, 0], value[:, 1]), np.zeros_like(value[:, 1])], axis=1)
        rows = np.repeat(np.arange(len(polys)), [len(cloud) for cloud in clouds])
        zs = np.array([(z.real, z.imag) for cloud in clouds for z in cloud]).T.reshape(2, -1)
        residual, per = np.empty(len(rows)), max(1, _CHUNK_CELLS // (width + 1))
        for lo in range(0, len(rows), per):
            at, part = rows[lo : lo + per], zs[:, lo : lo + per]
            size = np.hypot(*_horner(value[:, None, :, at], part)[0])
            bound = _horner(scale[:, None, :, at], np.array([np.hypot(*part), np.zeros(len(at))]))[0, 0]
            residual[lo : lo + per] = np.where(bound > 0, size / bound, size)
    for b, (cloud, at) in enumerate(zip(clouds, np.split(residual, np.cumsum([len(c) for c in clouds])))):
        bad = [(i, z, r) for i, (z, r) in enumerate(zip(cloud, at.tolist())) if not r < RESIDUAL_TOL]  # nan fails
        if bad:
            raise RootConvergenceError(bad, *runs.get(b, (None, 0, "no sweep needed"))[1:])
    return [sorted(cloud, key=lambda z: (round(z.real, 12), round(z.imag, 12))) for cloud in clouds]


def find_roots(p: ComplexPoly) -> list[complex]:
    """All complex roots with multiplicity, the same bits as in any batch,
    each with relative residual below RESIDUAL_TOL.  The floors (1 + |z|)
    assume roots of modulus about 1, as specialize's units of R give."""
    return _find_all([p])[0]


@dataclass
class ExperimentResult:
    clouds: list[RootCloud]
    radius: float
    trend_ok: bool

    @property
    def deviations(self) -> list[float]:
        return [c.deviation for c in self.clouds]


def check_experiment(seq: SchurSequence, kmax: int) -> None:
    """Refuse before anything is built: mu = nu, kmax < 1, a term kmax with
    more nonempty columns than DEGREE_CAP - 1 (the degree of P_kmax before
    trimming, never falling in k: a column holds one 1, and numbering its
    boxes 1, 2, ... is a tableau), then a window predict refuses."""
    if seq.mu == seq.nu:
        raise ValueError("the limit experiment requires mu != nu")
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    columns = seq.shape_at(kmax).num_columns()
    if columns + 1 > DEGREE_CAP:
        raise ValueError(
            f"kmax={kmax} is refused: term {kmax} has {columns} nonempty columns, so P_{kmax} "
            f"has up to {columns + 1} coefficients, over the cap of {DEGREE_CAP}"
        )
    seq.predict(1, kmax)


def limit_experiment(seq: SchurSequence, xi: Sequence[complex], kmax: int) -> ExperimentResult:
    """Root clouds of P_1 .. P_kmax, found in units of R in one batch and
    scaled by R, with their deviations from |z| = R, once check_experiment
    admits them.  trend_ok records whether deviation(kmax) < deviation(1);
    the limit statement gives no rate, so the series is reported in full."""
    check_experiment(seq, kmax)
    radius = _unit(xi, seq.n)
    seq.window(1, kmax)
    polys = [specialize(seq, k, xi) for k in range(1, kmax + 1)]
    found = iter(_find_all([p for p in polys if p.degree >= 1]))
    # P_k(R w) = R^D poly(w); at R = 0 every root is 0 and stays there
    roots = [[complex(z.real * radius, z.imag * radius) for z in next(found)] if p.degree >= 1 else [] for p in polys]
    clouds = [RootCloud.from_roots(k, cloud, radius) for k, cloud in enumerate(roots, 1)]
    return ExperimentResult(clouds, radius, clouds[-1].deviation < clouds[0].deviation)


def clouds_to_csv(clouds: Sequence[RootCloud]) -> str:
    """CSV rows k,root_index,re,im,modulus,deviation (per-root deviation)."""
    lines = ["k,root_index,re,im,modulus,deviation"]
    for cloud in clouds:
        for i, z in enumerate(cloud.roots):
            lines.append(f"{cloud.k},{i},{z.real:.15g},{z.imag:.15g},{abs(z):.15g},{abs(abs(z) - cloud.radius):.15g}")
    return "\n".join(lines) + "\n"
