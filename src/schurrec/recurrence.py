"""Linear recurrences for stretched skew Schur polynomial sequences.

Verifies the recurrence of chi(t), the product of (t - x^w) over all
tableaux of the ground shape (polynomials.char_poly), exactly on sequence
terms, extracts the minimal annihilator of product form, and exposes the
conjectured minimal root set driven by Kostka positivity and domination.
Berlekamp-Massey on integer specializations names the roots of the minimal
annihilator, and one exact factor chain certifies them.

Verification is exact throughout.  Residuals come from applying the linear
factors of chi one at a time.  For n <= 4 letters and any number of rows
they run on dense weight tables (_dense.factor_chain), in int64 under an
a-priori bound that rules out overflow and in Python integers above it; a
term with a filling count at the int64 limit is refused, and n >= 5 falls
back to sparse exact polynomials.  A window of terms whose predicted size
passes a fixed limit is refused before any of it is built.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd, lcm, prod
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence

from . import _dense
from .partitions import (
    IntVector,
    Partition,
    _stretch_scan,
    add,
    contains,
    dominates,
    scale,
    sort_decreasing,
    subtract,
)
from .polynomials import (
    _WINDOW_LIMIT, CharPoly, MultiPoly, char_poly, schur_int_eval, schur_int_evals, skew_schur, ssyt_count
)
from .tableaux import SkewShape, first_enclosing_index, stabilization_index


class InvalidFamilyError(ValueError):
    """The four partitions do not define an eventually-valid stretched family."""


# ---------------------------------------------------------------------------
# stretched sequences


class SchurSequence:
    """The sequence k -> skew Schur polynomial of (kappa + k*mu)/(lam + k*nu).

    kappa/lam here are the effective base shapes: build_sequence absorbs the
    index shift needed to make the base a valid skew shape, recording it in
    `shift` (term(k) of this object is term(k + shift) of the requested
    family).  Each index's (outer, inner) pair is built once and cached
    (pair_at), beside its exact form (window).
    """

    def __init__(
        self,
        kappa: Partition,
        lam: Partition,
        mu: Partition,
        nu: Partition,
        n: int,
        r: int,
        shift: int,
        requested: tuple[Partition, Partition],
    ):
        self.kappa = kappa
        self.lam = lam
        self.mu = mu
        self.nu = nu
        self.n = n
        self.r = r
        self.shift = shift
        self.requested = requested
        # each index's one exact form (window): a dense table, or a sparse
        # polynomial where _dense has none (n >= 5)
        self._terms: dict[int, _dense.np.ndarray | MultiPoly] = {}
        self._pairs: dict[int, tuple[Partition, Partition]] = {}

    def pair_at(self, k: int) -> tuple[Partition, Partition]:
        """(kappa + k*mu, lam + k*nu), the outer and inner shape of term k,
        built on first use and cached."""
        pair = self._pairs.get(k)
        if pair is None:
            pair = self._pairs[k] = (add(self.kappa, scale(k, self.mu)), add(self.lam, scale(k, self.nu)))
        return pair

    def shape_at(self, k: int) -> SkewShape:
        return SkewShape(*self.pair_at(k))

    def boxes_at(self, k: int) -> int:
        return self.kappa.weight - self.lam.weight + k * (self.mu.weight - self.nu.weight)

    def predict(self, start: int, count: int) -> int:
        """The size of window(start, count), predicted in O(1): count times
        (64 plus the last, largest term: (D + 1)^(n-1) cells for n <= 4,
        C(D + n - 1, n - 1) weights of n exponents for n >= 5, D its boxes),
        plus the guard's h-table.  A negative start or a size over
        _WINDOW_LIMIT is refused."""
        if start < 0:
            raise ValueError("sequence index must be nonnegative")
        last, n = start + count - 1, self.n
        boxes = self.boxes_at(last)
        size = (boxes + 1) ** (n - 1) if n <= 4 else comb(boxes + n - 1, n - 1) * n
        rows = max(len(self.kappa), len(self.mu) if last else 0)
        predicted = count * (size + 64) + self.kappa[0] + last * self.mu[0] + rows
        if predicted > _WINDOW_LIMIT:  # a size past 2^10000 is named by its bits: str() stops at 4300 digits
            shown = predicted if predicted.bit_length() <= 10_000 else f"about 2^{predicted.bit_length()}"
            raise ValueError(
                f"the {count} terms from index {start} are refused: their predicted size "
                f"{shown} is over the window limit {_WINDOW_LIMIT}"
            )
        return predicted

    def window(self, start: int, count: int) -> list:
        """The exact forms (tables for n <= 4, sparse for n >= 5) of the count
        terms from start, once predict admits them; missing ones are built and
        cached by one _dense.window_counts call, or one skew_schur each."""
        self.predict(start, count)
        ks = range(start, start + count)
        missing = [k for k in ks if k not in self._terms]
        if missing:
            shapes = [self.pair_at(k) for k in missing]
            try:
                forms = _dense.window_counts(shapes, self.n)
            except _dense.UnsupportedShape:
                forms = [skew_schur(SkewShape(*pair), self.n) for pair in shapes]
            self._terms.update(zip(missing, forms))
        return [self._terms[k] for k in ks]

    def term(self, k: int) -> MultiPoly:
        """The exact skew Schur polynomial at index k, read off its dense
        table when there is one."""
        form = self.window(k, 1)[0]
        if isinstance(form, MultiPoly):
            return form
        return _dense.counts_to_multipoly(form, self.n, self.boxes_at(k))

    def term_cells(self, k: int) -> tuple[Sequence[Sequence[int]], list[int]]:
        """The terms of term(k) as columns, in the order term(k) lists them:
        one column of exponents per letter, and the coefficients.  Read
        straight off the dense table when there is one."""
        form = self.window(k, 1)[0]
        if isinstance(form, MultiPoly):
            return list(zip(*form.terms)), list(form.terms.values())
        return _dense.table_cells(form, self.boxes_at(k))

    def eval_at(self, k: int, point: tuple[int, ...]) -> int:
        """Exact integer evaluation of term k at an integer point."""
        return schur_int_eval(*self.pair_at(k), point)

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
    k0, i = _stretch_scan(kappa, lam, mu, nu)
    if k0 is None:
        raise InvalidFamilyError(
            f"no stretch factor: coordinate {i} has mu-nu = 0 but lam-kappa > 0"
        )
    shift = 0 if contains(kappa, lam) else k0
    eff_kappa = add(kappa, scale(shift, mu))
    eff_lam = add(lam, scale(shift, nu))
    if not contains(eff_kappa, eff_lam):
        raise RuntimeError("index shift did not produce a valid base shape")
    if ssyt_count(mu, nu, n) == 0:
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


def _residuals(seq: SchurSequence, weights: Sequence[IntVector], start: int, count: int) -> Iterator[MultiPoly]:
    """Residuals of prod_w (E - x^w), E the index shift, on the sequence at
    k = start ... start+count-1, in order: U_k <- U_{k+1} - x^w * U_k, one
    factor at a time, on the terms at start ... start+count+d-1.  Every w
    must have n entries and total |mu| - |nu|, the degree step of the terms;
    a factor of another total cannot annihilate a nonzero sequence.  Dense
    weight tables carry the chain (_dense.factor_chain) when the window has
    them, sparse polynomials otherwise: one window call (SchurSequence.window)
    refuses the window or builds it, and its form picks the chain.  A
    residual table that is all zero is never converted: it yields the zero
    polynomial, so a caller that stops at the first nonzero residual
    converts at most that one table."""
    n, d = seq.n, len(weights)
    step = seq.mu.weight - seq.nu.weight
    if any(len(w) != n or sum(w) != step for w in weights):
        raise ValueError(f"root weights must have length {n} and total |mu| - |nu| = {step}")
    terms = seq.window(start, count + d)
    if terms and isinstance(terms[0], MultiPoly):
        for w in weights:
            mono = MultiPoly.monomial(w)
            terms = [hi - mono * lo for lo, hi in zip(terms, terms[1:])]
        yield from terms
    else:
        for k, table in enumerate(_dense.factor_chain(terms, weights), start + d):
            yield _dense.counts_to_multipoly(table, n, seq.boxes_at(k)) if table.any() else MultiPoly.zero(n)


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
    sum_i c_i * a_{k+i} = 0 satisfied by the given rational sequence.

    The sequence is scaled to integers by the lcm of its denominators.  Its
    discrepancies scale with it, so the first b is that lcm instead of 1,
    and every update is the one on the unscaled sequence.  The connection
    polynomial C, and the last one B over its discrepancy b, are each an
    integer vector over one denominator; each update C <- C - (delta / b)
    x^m B is taken over the product of the two denominators and reduced by
    the gcd of the result."""
    S = [v if isinstance(v, int) else Fraction(v) for v in values]
    den = lcm(*(v.denominator for v in S))
    S = [v.numerator * (den // v.denominator) for v in S]
    C, c = [1], 1  # C / c, with C[0] = c
    B, b = [1], den  # B / b: the last C over its discrepancy, at first 1 over 1 unscaled
    L, m = 0, 1
    for i in range(len(S)):
        delta = sum(map(mul, C[: L + 1], S[i::-1]))  # the discrepancy times c
        if delta == 0:
            m += 1
            continue
        new = [x * b for x in C] + [0] * (len(B) + m - len(C))
        for j, y in enumerate(B, m):
            new[j] -= delta * y
        g = c * b
        for x in new:
            if (g := gcd(g, x)) == 1:
                break
        if 2 * L <= i:  # B / b becomes the old C / c over delta / c
            L, B, b, m = i + 1 - L, (C if delta > 0 else [-x for x in C]), abs(delta), 1
        else:
            m += 1
        C, c = [x // g for x in new], new[0] // g
    # a_{k+L} + C[1] a_{k+L-1} + ... + C[L] a_k = 0
    coeffs = [Fraction(C[L - j], c) if L - j < len(C) else Fraction(0) for j in range(L)]
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


# extra points drawn, at most, to replace those whose BM degree falls short
_REDRAWS = 5


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
    some c_w(p) vanishes has a lower degree; once S is certified, each such
    point is replaced by the next draw, up to _REDRAWS draws in all, and a
    degree still short is reported as a collision.
    """
    distinct = _dedupe_canonical(chi.root_weights)
    rng = random.Random(seed)
    shapes = [seq.pair_at(k) for k in range(seq.r, seq.r + 2 * len(distinct) + 4)]
    drawn, values = zip(*(_draw_point(rng, seq.n, distinct) for _ in range(3)))
    bms = [berlekamp_massey(terms) for terms in schur_int_evals(shapes, drawn)]
    found = {w for bm, at in zip(bms, values) for w in _zeros(bm, at, distinct)}
    bm_degrees = [len(bm) - 1 for bm in bms]
    points = list(drawn)
    weights = [w for w in distinct if w in found]
    if any(_residuals(seq, weights, seq.r, chi.degree)):
        if any(_residuals(seq, distinct, seq.r, chi.degree)):
            raise RuntimeError("the squarefree part of chi does not annihilate the sequence")
        raise RuntimeError(
            f"the {len(weights)} roots named at degrees {bm_degrees} do not annihilate "
            f"the sequence (collision suspected; rerun with a different seed)"
        )
    redraws = _REDRAWS
    for i in range(3):
        while bm_degrees[i] < len(weights) and redraws:
            redraws -= 1
            points[i] = _draw_point(rng, seq.n, distinct)[0]
            bm_degrees[i] = len(berlekamp_massey(schur_int_evals(shapes, [points[i]])[0])) - 1
    if any(deg != len(weights) for deg in bm_degrees):
        raise RuntimeError(
            f"specialized minimal degrees {bm_degrees} disagree with symbolic degree "
            f"{len(weights)} (collision suspected; rerun with a different seed)"
        )
    removed = [w for w in distinct if w not in found]
    return MinimalReport(CharPoly(weights, chi.nvars), weights, removed, bm_degrees, points, seed)


def _zeros(coeffs: Sequence[Fraction], values: Sequence[int], weights: Sequence[IntVector]) -> list[IntVector]:
    """The weights w at whose value p^w, given in values, the polynomial
    sum_j coeffs[j] t^j vanishes: its denominators are cleared once, and
    each value is an exact integer Horner sum."""
    den = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in reversed(coeffs)]
    zeros = []
    for w, z in zip(weights, values):
        value = 0
        for c in ints:
            value = value * z + c
        if value == 0:
            zeros.append(w)
    return zeros


def _draw_point(rng: random.Random, n: int, monomials: Sequence[IntVector]) -> tuple[tuple[int, ...], list[int]]:
    """Small positive integer point p at which all candidate root monomials
    take pairwise distinct values p^w, with those values; collisions trigger
    a redraw."""
    for _ in range(1000):
        point = tuple(rng.randrange(2, 60) for _ in range(n))
        values = [prod(map(pow, point, w)) for w in monomials]
        if len(set(values)) == len(values):
            return point, values
    raise RuntimeError("could not find a collision-free specialization point")


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
    conjectured polynomial fails to annihilate at index k, or
    REFUTED-MINIMALITY when it annihilates but is not minimal.
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
