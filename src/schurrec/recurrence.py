"""Linear recurrences for stretched skew Schur polynomial sequences.

Builds the characteristic polynomial chi(t) as the product of (t - x^w) over
all tableaux of the ground shape, verifies the recurrence exactly on sequence
terms, extracts the minimal annihilator of product form, and exposes the
conjectured minimal root set driven by Kostka positivity and domination.
Berlekamp-Massey on integer specializations names the roots of the minimal
annihilator, and one exact factor chain certifies them.

Verification is exact throughout.  Residuals come from applying the linear
factors of chi one at a time.  For n <= 4 letters and any number of rows
they run on dense weight tables, in int64 under an a-priori bound that rules
out overflow and in Python integers above it; n >= 5 falls back to sparse
exact polynomials.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import _dense
from .partitions import (
    IntVector,
    Partition,
    add,
    contains,
    dominates,
    scale,
    sort_decreasing,
    stretch_condition,
    stretch_violation,
    subtract,
)
from .polynomials import MultiPoly, skew_schur
from .tableaux import (
    SkewShape,
    enumerate_tableaux,
    first_enclosing_index,
    stabilization_index,
    weight,
)


class InvalidFamilyError(ValueError):
    """The four partitions do not define an eventually-valid stretched family."""


# ---------------------------------------------------------------------------
# characteristic polynomials


class CharPoly:
    """Monic polynomial prod_w (t - x^w) in the shift symbol t.

    root_weights lists the weight vectors w of the linear factors, with
    multiplicity.  coeffs[j], their expansion into MultiPoly coefficients, is
    the coefficient of t^j; it is built on first use, since the recurrence
    checks apply the factors one at a time.  The recurrence it encodes is
    sum_j coeffs[j] * s_{k+j} = 0.
    """

    __slots__ = ("nvars", "root_weights", "_coeffs")

    def __init__(self, root_weights: Sequence[IntVector], nvars: int):
        self.nvars = nvars
        self.root_weights = tuple(tuple(w) for w in root_weights)
        self._coeffs: Optional[tuple[MultiPoly, ...]] = None

    @classmethod
    def from_root_weights(cls, weights: Sequence[IntVector], nvars: int) -> "CharPoly":
        """The same as CharPoly(weights, nvars)."""
        return cls(weights, nvars)

    @property
    def coeffs(self) -> tuple[MultiPoly, ...]:
        if self._coeffs is None:
            zero, coeffs = [MultiPoly.zero(self.nvars)], [MultiPoly.one(self.nvars)]
            for w in self.root_weights:  # times (t - x^w); t shifts the coefficients up
                mono = MultiPoly.monomial(w)
                coeffs = [up - mono * c for up, c in zip(zero + coeffs, coeffs + zero)]
            self._coeffs = tuple(coeffs)
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self.root_weights)

    def __eq__(self, other: object) -> bool:
        # Z[x][t] factors uniquely, so the root multisets decide equality
        if isinstance(other, CharPoly):
            return self.nvars == other.nvars and sorted(self.root_weights) == sorted(other.root_weights)
        return NotImplemented

    def __str__(self) -> str:
        parts = []
        for j in range(self.degree, -1, -1):
            c = self.coeffs[j]
            if c.is_zero():
                continue
            tpow = "t" if j == 1 else (f"t^{j}" if j else "")
            if j == self.degree:
                parts.append(tpow or "1")
            else:
                body = str(c)
                wrapped = body if c.num_terms() == 1 and not body.startswith("-") else f"({body})"
                parts.append(f"+ {wrapped}" + (f"*{tpow}" if tpow else ""))
        return " ".join(parts) if parts else "1"

    __repr__ = __str__

    def to_json_obj(self) -> dict:
        return {
            "nvars": self.nvars,
            "degree": self.degree,
            "coeffs": [c.to_json_obj() for c in self.coeffs],
            "root_weights": [list(w) for w in self.root_weights],
        }


def char_poly(mu: Partition, nu: Partition, n: int) -> CharPoly:
    """chi(t): the product of (t - x^w(T)) over all tableaux of mu/nu."""
    if not contains(mu, nu):
        raise ValueError("mu must contain nu")
    return CharPoly([weight(t) for t in enumerate_tableaux(SkewShape(mu, nu), n)], n)


# ---------------------------------------------------------------------------
# stretched sequences


class SchurSequence:
    """The sequence k -> skew Schur polynomial of (kappa + k*mu)/(lam + k*nu).

    kappa/lam here are the effective base shapes: build_sequence absorbs the
    index shift needed to make the base a valid skew shape, recording it in
    `shift` (term(k) of this object is term(k + shift) of the requested
    family).
    """

    def __init__(
        self,
        kappa: Partition,
        lam: Partition,
        mu: Partition,
        nu: Partition,
        n: int,
        r: int,
        shift: int = 0,
        requested: Optional[tuple[Partition, Partition]] = None,
    ):
        self.kappa = kappa
        self.lam = lam
        self.mu = mu
        self.nu = nu
        self.n = n
        self.r = r
        self.shift = shift
        self.requested = requested if requested is not None else (kappa, lam)
        self._terms: dict[int, MultiPoly] = {}
        self._tables: dict[int, Optional[np.ndarray]] = {}

    def outer_at(self, k: int) -> Partition:
        return add(self.kappa, scale(k, self.mu))

    def inner_at(self, k: int) -> Partition:
        return add(self.lam, scale(k, self.nu))

    def shape_at(self, k: int) -> SkewShape:
        return SkewShape(self.outer_at(k), self.inner_at(k))

    def boxes_at(self, k: int) -> int:
        return self.shape_at(k).num_boxes

    def term_table(self, k: int) -> Optional[np.ndarray]:
        """Dense weight table of term k, or None when unsupported."""
        if k not in self._tables:
            try:
                self._tables[k] = _dense.weight_counts(self.outer_at(k), self.inner_at(k), self.n)
            except _dense.UnsupportedShape:
                self._tables[k] = None
        return self._tables[k]

    def term(self, k: int) -> MultiPoly:
        """The exact skew Schur polynomial at index k."""
        if k < 0:
            raise ValueError("sequence index must be nonnegative")
        if k not in self._terms:
            table = self.term_table(k)
            if table is not None:
                self._terms[k] = _dense.counts_to_multipoly(table, self.n, self.boxes_at(k))
            else:
                self._terms[k] = skew_schur(self.shape_at(k), self.n)
        return self._terms[k]

    def eval_at(self, k: int, point: tuple[int, ...]) -> int:
        """Exact integer evaluation of term k at an integer point."""
        return _dense.schur_int_eval(self.outer_at(k), self.inner_at(k), point)

    def family_json(self) -> dict:
        req_kappa, req_lam = self.requested
        return {
            "kappa": str(req_kappa),
            "lambda": str(req_lam),
            "mu": str(self.mu),
            "nu": str(self.nu),
            "n": self.n,
            "shift": self.shift,
            "effective_kappa": str(self.kappa),
            "effective_lambda": str(self.lam),
            "r": self.r,
        }


def build_sequence(kappa: Partition, lam: Partition, mu: Partition, nu: Partition, n: int) -> SchurSequence:
    """Validate the family, normalize the base shape, and compute the start
    index r from which the chi(t) recurrence is claimed."""
    if not contains(mu, nu):
        raise InvalidFamilyError(f"mu={mu} does not contain nu={nu}")
    k0 = stretch_condition(kappa, lam, mu, nu)
    if k0 is None:
        i = stretch_violation(kappa, lam, mu, nu)
        raise InvalidFamilyError(
            f"no stretch factor: coordinate {i} has mu-nu = 0 but lam-kappa > 0"
        )
    shift = 0 if contains(kappa, lam) else k0
    eff_kappa = add(kappa, scale(shift, mu))
    eff_lam = add(lam, scale(shift, nu))
    if not contains(eff_kappa, eff_lam):
        raise RuntimeError("index shift did not produce a valid base shape")
    if _dense.ssyt_count(mu, nu, n) == 0:
        # degree-0 recurrence (s_k = 0): valid only where mu/nu actually
        # sits inside, not one index earlier
        r = first_enclosing_index(eff_kappa, eff_lam, mu, nu)
    else:
        r = stabilization_index(eff_kappa, eff_lam, mu, nu)
    return SchurSequence(eff_kappa, eff_lam, mu, nu, n, r, shift, requested=(kappa, lam))


# ---------------------------------------------------------------------------
# exact recurrence verification


@dataclass
class VerifyResult:
    ok: bool
    failed_k: Optional[int] = None
    residual: Optional[MultiPoly] = None


# int64 stays exact while every intermediate of the factor chain stays below this
_INT64_EXACT_LIMIT = 1 << 62


def _residuals(seq: SchurSequence, weights: Sequence[IntVector], start: int, count: int) -> Iterator[MultiPoly]:
    """Residuals of prod_w (E - x^w), E the index shift, on the sequence at
    k = start ... start+count-1, in order.

    One factor maps the terms U_k to U_{k+1} - x^w * U_k; applied in turn to
    the terms at start ... start+count+d-1, the d factors leave the count
    residuals.  Dense weight tables carry the chain when every term has one
    and |w| = |mu| - |nu| for every factor, so that x^w shifts a table inside
    the next; every intermediate l1 norm is at most 2^d times the largest
    filling count, read off as the largest table total, which decides
    between int64 and Python integers.  Sparse polynomials carry it otherwise.
    """
    n, d = seq.n, len(weights)
    if any(len(w) != n for w in weights):
        raise ValueError(f"root weights must have length {n}")
    window = range(start, start + count + d)
    tables = [seq.term_table(k) for k in window]
    step = seq.mu.weight - seq.nu.weight
    if all(t is not None for t in tables) and all(sum(w) == step for w in weights):
        bound = max((int(t.sum()) for t in tables), default=0) << d
        dtype = np.int64 if bound < _INT64_EXACT_LIMIT else object
        terms = [t.astype(dtype) for t in tables]  # copies: the chain runs in place
        for w in weights:
            # from the top down, the buffer of U_{k+1} becomes the new U_k
            for lo, hi in zip(terms[-2::-1], terms[:0:-1]):
                hi[tuple(slice(o, o + s) for o, s in zip(w[: n - 1], lo.shape))] -= lo
            del terms[0]
        for k, table in zip(window, terms):
            yield _dense.counts_to_multipoly(table, n, seq.boxes_at(k + d))
    else:
        terms = [seq.term(k) for k in window]
        for w in weights:
            mono = MultiPoly.monomial(w)
            terms = [hi - mono * lo for lo, hi in zip(terms, terms[1:])]
        yield from terms


def verify_certificate(seq: SchurSequence, chi: CharPoly, r: int, count: int) -> VerifyResult:
    """Exact check of sum_j coeffs[j] * term(k+j) = 0 for k = r ... r+count-1;
    a failure names the first failing index and its residual."""
    if count < 1:
        raise ValueError("count must be positive")
    for k, residual in enumerate(_residuals(seq, chi.root_weights, r, count), r):
        if residual:
            return VerifyResult(False, k, residual)
    return VerifyResult(True)


def verify_recurrence(seq: SchurSequence, chi: CharPoly, r: Optional[int] = None, count: Optional[int] = None) -> bool:
    """True iff the recurrence holds exactly at count consecutive indices from r."""
    start = seq.r if r is None else r
    cnt = chi.degree + 3 if count is None else count
    return verify_certificate(seq, chi, start, cnt).ok


# ---------------------------------------------------------------------------
# Berlekamp-Massey over the rationals


def berlekamp_massey(values: Sequence) -> list[Fraction]:
    """Monic coefficients [c_0, ..., c_L] of the shortest linear recurrence
    sum_i c_i * a_{k+i} = 0 satisfied by the given scalar sequence."""
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
    # a_{k+L} + C[1] a_{k+L-1} + ... + C[L] a_k = 0
    coeffs = [C[L - j] if L - j < len(C) else Fraction(0) for j in range(L)]
    coeffs.append(Fraction(1))
    return coeffs


# ---------------------------------------------------------------------------
# minimal characteristic polynomial


@dataclass
class MinimalReport:
    char_poly: CharPoly
    weights: list[IntVector]
    removed: list[IntVector]
    bm_degrees: list[int]
    specializations: list[tuple[int, ...]]
    seed: int


def _dedupe_canonical(weights: Sequence[IntVector]) -> list[IntVector]:
    distinct = set(tuple(w) for w in weights)
    return sorted(distinct, key=lambda w: (sum(w), w), reverse=True)


def minimal_report(seq: SchurSequence, chi: CharPoly, seed: int = 0) -> MinimalReport:
    """Least-degree monic divisor of chi of product form annihilating the
    sequence.

    Once the squarefree part of chi annihilates from seq.r, the terms are
    s_k = sum_w c_w x^(w k) over the distinct roots w, and the answer is the
    product of (t - x^w) over T = {w : c_w != 0}.  At each of three integer
    points p at which the root monomials take distinct values, Berlekamp-
    Massey on s_k(p) returns the product over {w : c_w(p) != 0}; its zeros
    among the p^w name those roots, and their union S over the points is a
    subset of T.  One exact factor chain then certifies that the product over
    S annihilates: deg(chi) consecutive zero residuals from seq.r suffice,
    since the residual sequence itself satisfies the chi recurrence.  A
    product that annihilates has every root of T, so S = T.  A point at which
    some c_w(p) vanishes is reported as a collision.
    """
    distinct = _dedupe_canonical(chi.root_weights)
    rng = random.Random(seed)
    window = range(seq.r, seq.r + 2 * len(distinct) + 4)
    bm_degrees: list[int] = []
    points: list[tuple[int, ...]] = []
    found: set[IntVector] = set()
    for _ in range(3):
        point = _draw_point(rng, seq.n, distinct)
        bm = berlekamp_massey([seq.eval_at(k, point) for k in window])
        found.update(w for w in distinct if _value(bm, _eval_monomial(point, w)) == 0)
        bm_degrees.append(len(bm) - 1)
        points.append(point)
    weights = [w for w in distinct if w in found]
    if any(_residuals(seq, weights, seq.r, chi.degree)):
        if any(_residuals(seq, distinct, seq.r, chi.degree)):
            raise RuntimeError("the squarefree part of chi does not annihilate the sequence")
        raise RuntimeError(
            f"the {len(weights)} roots named at degrees {bm_degrees} do not annihilate "
            f"the sequence (collision suspected; rerun with a different seed)"
        )
    if any(deg != len(weights) for deg in bm_degrees):
        raise RuntimeError(
            f"specialized minimal degrees {bm_degrees} disagree with symbolic degree "
            f"{len(weights)} (collision suspected; rerun with a different seed)"
        )
    removed = [w for w in distinct if w not in found]
    return MinimalReport(CharPoly(weights, chi.nvars), weights, removed, bm_degrees, points, seed)


def _value(coeffs: Sequence[Fraction], z: int) -> Fraction:
    return sum(c * z**j for j, c in enumerate(coeffs))


def _draw_point(rng: random.Random, n: int, monomials: Sequence[IntVector]) -> tuple[int, ...]:
    """Small positive integer point at which all candidate root monomials take
    pairwise distinct values; collisions trigger a redraw."""
    for _ in range(1000):
        point = tuple(rng.randrange(2, 60) for _ in range(n))
        values = [_eval_monomial(point, w) for w in monomials]
        if len(set(values)) == len(values):
            return point
    raise RuntimeError("could not find a collision-free specialization point")


def _eval_monomial(point: tuple[int, ...], w: IntVector) -> int:
    v = 1
    for x, p in zip(point, w):
        v *= x**p
    return v


# ---------------------------------------------------------------------------
# the conjectured minimal root set


def _dominating(weights: Iterable[IntVector], mu: Partition, nu: Partition) -> list[IntVector]:
    """The distinct weights whose decreasing rearrangement dominates that of
    mu - nu, in canonical order."""
    target = sort_decreasing(subtract(mu, nu))
    return _dedupe_canonical([w for w in weights if dominates(sort_decreasing(w), target)])


def conjectured_weights(mu: Partition, nu: Partition, n: int) -> list[IntVector]:
    """Weight vectors w with positive Kostka coefficient for mu/nu (the
    support of its skew Schur polynomial, which is the set of chi's roots)
    whose decreasing rearrangement dominates that of mu - nu."""
    return _dominating(char_poly(mu, nu, n).root_weights, mu, nu)


@dataclass
class ConjectureReport:
    verdict: str
    annihilates: bool
    failed_k: Optional[int]
    minimal_matches: Optional[bool]
    conjectured: list[IntVector]
    minimal_weights: Optional[list[IntVector]]
    count: int
    seed: int
    family: dict = field(default_factory=dict)
    degree: int = 0
    minimal_degree: Optional[int] = None

    def to_json_obj(self) -> dict:
        r = self.family.get("r", 0)
        return {
            "family": self.family,
            "r": r,
            "degree": self.degree,
            "verified_upto": r + self.count - 1 if self.annihilates else None,
            "minimal_degree": self.minimal_degree,
            "W": [list(w) for w in self.conjectured],
            "conjecture": self.verdict,
            "seed": self.seed,
            "annihilates": self.annihilates,
            "failed_k": self.failed_k,
            "minimal_matches": self.minimal_matches,
            "minimal_W": [list(w) for w in self.minimal_weights] if self.minimal_weights is not None else None,
            "count": self.count,
        }


def conjecture_check(
    kappa: Partition,
    lam: Partition,
    mu: Partition,
    nu: Partition,
    n: int,
    count: Optional[int] = None,
    seed: int = 0,
) -> ConjectureReport:
    """Test whether the product over the conjectured root set annihilates the
    sequence and equals the computed minimal characteristic polynomial.

    The verdict is evidence, not proof: SUPPORTED, REFUTED-AT(k) when the
    conjectured polynomial fails to annihilate at index k, REFUTED-MINIMALITY
    when it annihilates but is not minimal, or INCONCLUSIVE.
    """
    seq = build_sequence(kappa, lam, mu, nu, n)
    chi = char_poly(mu, nu, n)
    cnt = chi.degree if count is None else count
    cnt = max(cnt, 1)
    conj = _dominating(chi.root_weights, mu, nu)
    conj_poly = CharPoly(conj, n)
    cert = verify_certificate(seq, conj_poly, seq.r, cnt)
    if not cert.ok:
        return ConjectureReport(
            f"REFUTED-AT({cert.failed_k})", False, cert.failed_k, None,
            conj, None, cnt, seed, seq.family_json(), chi.degree, None,
        )
    minimal = minimal_report(seq, chi, seed)
    matches = sorted(minimal.weights) == sorted(conj)
    verdict = "SUPPORTED" if matches else "REFUTED-MINIMALITY"
    return ConjectureReport(
        verdict, True, None, matches, conj, minimal.weights, cnt, seed,
        seq.family_json(), chi.degree, minimal.char_poly.degree,
    )


# ---------------------------------------------------------------------------
# polynomiality of the filling counts


@dataclass
class PolynomialityReport:
    counts: list[int]
    degree: Optional[int]
    vanish_order: Optional[int]
    verdict: str
    newton_coefficients: Optional[list[int]]

    def to_json_obj(self) -> dict:
        return {
            "counts": self.counts,
            "degree": self.degree,
            "vanish_order": self.vanish_order,
            "verdict": self.verdict,
            "newton_coefficients": self.newton_coefficients,
        }


def polynomiality_check(mu: Partition, nu: Partition, n: int, kmax: int) -> PolynomialityReport:
    """Finite-difference check that k -> #SSYT of k*mu/k*nu is polynomial.

    Requires kmax >= degree + 2 to conclude; otherwise INCONCLUSIVE.
    """
    if not contains(mu, nu):
        raise ValueError("mu must contain nu")
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    counts = [
        _dense.ssyt_count(scale(k, mu), scale(k, nu), n) for k in range(kmax + 1)
    ]
    diffs = counts
    newton = [counts[0]]
    order = 0
    while len(diffs) >= 2 and any(diffs):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        order += 1
        newton.append(diffs[0])
    if any(diffs):
        return PolynomialityReport(counts, None, None, "INCONCLUSIVE", None)
    # all differences of this order vanish; need at least 2 witnesses
    if len(diffs) < 2:
        return PolynomialityReport(counts, None, None, "INCONCLUSIVE", None)
    # counts[0] = 1 (the empty shape), so a vanishing order is at least 1
    degree = order - 1
    return PolynomialityReport(counts, degree, order, f"POLYNOMIAL(degree={degree})", newton[:-1])
