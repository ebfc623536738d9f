"""Exact sparse multivariate polynomials over the integers, and the symmetric
polynomials built from tableaux: skew Schur, monomial symmetric, complete
homogeneous; the Jacobi-Trudi determinant, symbolic as an independent
oracle and at integer points for exact filling counts; and chi(t), the
product of (t - x^w) over the tableaux of a shape.
"""
from __future__ import annotations

import json
from functools import lru_cache
from itertools import permutations
from math import comb
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .partitions import IntVector, Partition, contains
from .tableaux import SkewShape, Tableau, iter_tableaux, weight

Exponent = tuple[int, ...]
# the largest size built at once, refused through _refuse: the entries that SchurSequence.predict,
# kostka.polynomiality_check and _refuse_walk predict (tables, terms, index matrices or fillings, an
# overhead each), schur_int_evals's h-table words and kostka.schur_in_m_basis's weight length; 4 GiB
# as int64 cells, which the d = 90 windows at n = 3 need
_WINDOW_LIMIT = 1 << 29


def _refuse(what: str, size: int, limit: int, name: str = "window limit") -> None:
    """Raise the one refusal, a ValueError, when a predicted size passes its
    limit.  A size past 2^10000 is named by its bits, since str() of an int
    may stop at 4300 digits."""
    if size > limit:
        shown = size if size.bit_length() <= 10_000 else f"about 2^{size.bit_length()}"
        raise ValueError(f"{what} is refused: its predicted size {shown} is over the {name} {limit}")


class MultiPoly:
    """Sparse polynomial with arbitrary-precision integer coefficients.

    Terms map exponent vectors (length nvars, nonnegative) to nonzero
    coefficients.  Instances are treated as immutable.
    """

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: Mapping[Exponent, int] | None = None):
        if nvars < 1:
            raise ValueError("nvars must be positive")
        self.nvars = int(nvars)
        clean: dict[Exponent, int] = {}
        if terms:
            for exp, coef in terms.items():
                c = int(coef)
                if c == 0:
                    continue
                e = tuple(int(x) for x in exp)
                if len(e) != nvars or any(x < 0 for x in e):
                    raise ValueError(f"bad exponent vector {e} for nvars={nvars}")
                clean[e] = c
        self._terms = clean

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def monomial(cls, exponents: Sequence[int]) -> "MultiPoly":
        e = tuple(int(x) for x in exponents)
        return cls(len(e), {e: 1})

    @classmethod
    def _trusted(cls, nvars: int, terms: dict[Exponent, int]) -> "MultiPoly":
        """Wrap terms that are already clean (int exponent tuples of length
        nvars, nonzero int coefficients) without checking or copying them."""
        out = cls.__new__(cls)
        out.nvars = nvars
        out._terms = terms
        return out

    # -- ring operations ---------------------------------------------------
    def _check(self, other: "MultiPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"nvars mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        terms = dict(self._terms)
        for e, c in other._terms.items():
            v = terms.get(e, 0) + c
            if v:
                terms[e] = v
            else:
                terms.pop(e, None)
        return MultiPoly._trusted(self.nvars, terms)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._trusted(self.nvars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return MultiPoly.zero(self.nvars)
            return MultiPoly._trusted(self.nvars, {e: c * other for e, c in self._terms.items()})
        self._check(other)
        terms: dict[Exponent, int] = {}
        small, big = self._terms, other._terms
        if len(small) > len(big):
            small, big = big, small
        for e1, c1 in small.items():
            for e2, c2 in big.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                v = terms.get(e, 0) + c1 * c2
                if v:
                    terms[e] = v
                else:
                    del terms[e]
        return MultiPoly._trusted(self.nvars, terms)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MultiPoly):
            return self.nvars == other.nvars and self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self._terms.items())))

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- queries -----------------------------------------------------------
    @property
    def terms(self) -> Mapping[Exponent, int]:
        """A read-only view of the exponent -> coefficient map."""
        return MappingProxyType(self._terms)

    def num_terms(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def degree_in(self, var: int) -> int:
        return max((e[var] for e in self._terms), default=0)

    def coefficient(self, exponents: Sequence[int]) -> int:
        return self._terms.get(tuple(exponents), 0)

    def sorted_terms(self) -> list[tuple[Exponent, int]]:
        """Canonical order: graded lexicographic, highest first."""
        return sorted(self._terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def eval(self, point: Sequence) -> object:
        """Evaluate at a point; exact for int/Fraction entries, floating for complex."""
        if len(point) != self.nvars:
            raise ValueError("point length must equal nvars")
        total = 0
        for e, c in self._terms.items():
            v = c
            for x, p in zip(point, e):
                if p:
                    v = v * x**p
            total = total + v
        return total

    # -- serialization -----------------------------------------------------
    def to_json_obj(self) -> dict:
        return {
            "nvars": self.nvars,
            "terms": [
                {"exp": list(e), "coef": str(c)} for e, c in self.sorted_terms()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "MultiPoly":
        data = json.loads(text)
        return cls(
            data["nvars"],
            {tuple(t["exp"]): int(t["coef"]) for t in data["terms"]},
        )

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for i, p in enumerate(e):
                if p == 1:
                    factors.append(f"x{i + 1}")
                elif p > 1:
                    factors.append(f"x{i + 1}^{p}")
            mono = "*".join(factors)
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += sign + body
        return text

    __repr__ = __str__


def weight_monomial(t: Tableau) -> MultiPoly:
    """The monomial x^w(t); multiplicative over tableau insertion."""
    return MultiPoly.monomial(weight(t))


def _refuse_walk(shape: SkewShape, n: int) -> None:
    """Refuse, before any filling is made, a walk over all SSYTs of the shape
    with entries in 1..n whose predicted size passes _WINDOW_LIMIT: its
    exact filling count (ssyt_count) times boxes + n, the entries and the
    weight vector of each filling."""
    size = ssyt_count(shape.outer, shape.inner, n) * (shape.num_boxes + n)
    _refuse(f"the walk over the fillings of {shape} with entries in 1..{n}", size, _WINDOW_LIMIT)


def skew_schur(shape: SkewShape, n: int) -> MultiPoly:
    """Generating polynomial of all SSYTs of the shape with entries in 1..n;
    a walk over the window limit is refused first (_refuse_walk)."""
    _refuse_walk(shape, n)
    terms: dict[Exponent, int] = {}
    for t in iter_tableaux(shape, n):
        w = weight(t)
        terms[w] = terms.get(w, 0) + 1
    return MultiPoly(n, terms)


def _h_table(point: Sequence, upto: int, one) -> list:
    """h_0 .. h_upto at a point, in the ring of one (int, or MultiPoly with
    the letters as point), one letter at a time:
    h_m(x_1..x_j) = h_m(x_1..x_{j-1}) + x_j * h_{m-1}(x_1..x_j)."""
    table = [one] + [one * 0] * upto
    for x in point:
        for m in range(1, upto + 1):
            table[m] = table[m] + x * table[m - 1]
    return table


@lru_cache(maxsize=None)
def complete_homogeneous(m: int, n: int) -> MultiPoly:
    """Sum of all degree-m monomials in n variables (h_m); h_m = 0 for m < 0."""
    if m < 0:
        return MultiPoly.zero(n)
    letters = [MultiPoly.monomial((0,) * j + (1,) + (0,) * (n - 1 - j)) for j in range(n)]
    return _h_table(letters, m, MultiPoly.one(n))[m]


def _jacobi_trudi(outer: Partition, inner: Partition) -> list[list[int]]:
    """The index matrix (outer_i - i) - (inner_j - j) of det(h_{outer_i -
    inner_j - i + j}) (Macdonald I.5), -1 for every negative index (h is 0
    there), at most outer_1 + len(outer) - 1.  It reads the parts as tuples,
    inner's cut or padded to len(outer) once."""
    rows = [a - i for i, a in enumerate(outer.parts)]
    columns = [b - j for j, b in enumerate(inner.padded(len(outer)))]
    return [[a - b if a >= b else -1 for b in columns] for a in rows]


def _det(entries: list[list[MultiPoly]], n: int) -> MultiPoly:
    """Determinant by expansion along the first remaining column, memoized on
    the surviving row set."""
    size = len(entries)
    memo: dict[tuple[int, ...], MultiPoly] = {}

    def minor(rows: tuple[int, ...]) -> MultiPoly:
        if not rows:
            return MultiPoly.one(n)
        got = memo.get(rows)
        if got is not None:
            return got
        col = size - len(rows)
        acc = MultiPoly.zero(n)
        for pos, r in enumerate(rows):
            entry = entries[r][col]
            if entry.is_zero():
                continue
            sub = minor(rows[:pos] + rows[pos + 1 :])
            term = entry * sub
            acc = acc + (term if pos % 2 == 0 else -term)
        memo[rows] = acc
        return acc

    return minor(tuple(range(size)))


def _det_int(index: list[list[int]], h: Mapping[int, int] | Sequence[int]) -> int:
    """Exact integer determinant (Bareiss) of h[index[i][j]]; 1 for the
    empty matrix.  Its exact divisions have no MultiPoly counterpart, and
    _det's expansion is exponential in the rows, so each ring keeps its own
    determinant."""
    a = [[h[m] for m in row] for row in index]
    size = len(a)
    sign = 1
    prev = 1
    for k in range(size - 1):
        if a[k][k] == 0:
            for i in range(k + 1, size):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if a else 1


def skew_schur_jacobi_trudi(shape: SkewShape, n: int) -> MultiPoly:
    """The same polynomial as skew_schur, via det(h_{outer_i - inner_j - i + j})."""
    index = _jacobi_trudi(shape.outer, shape.inner)
    return _det([[complete_homogeneous(m, n) for m in row] for row in index], n)


def schur_int_evals(shapes: Sequence[tuple[Partition, Partition]], points: Sequence[Sequence[int]]) -> list[list[int]]:
    """Exact integer values of the skew Schur polynomials of the shapes,
    given as (outer, inner) pairs, at each integer point, one list per
    point, each read through that point's h-table (h_0 .. h_upto, then the
    0 that -1 reads; h_m has at most m * bit_length(sum |point_i|) bits), refused
    past _WINDOW_LIMIT 64-bit words; each index matrix is built once."""
    upto = max((outer[0] + len(outer) - 1 for outer, _ in shapes), default=0)
    words = sum((upto + 2) * (1 + upto * sum(map(abs, point)).bit_length() // 64) for point in points)
    _refuse(f"an h-table up to h_{upto} at each of {len(points)} points", words, _WINDOW_LIMIT)
    indices = [_jacobi_trudi(outer, inner) for outer, inner in shapes]
    tables = [_h_table(point, upto, 1) + [0] for point in points]
    return [[_det_int(index, table) for index in indices] for table in tables]


def schur_int_eval(outer: Partition, inner: Partition, point: tuple[int, ...]) -> int:
    """Exact integer value of the skew Schur polynomial at an integer point."""
    return schur_int_evals([(outer, inner)], [point])[0][0]


def ssyt_counts(shapes: Sequence[tuple[Partition, Partition]], n: int) -> list[int]:
    """Exact number of SSYTs with entries in 1..n of each shape: its value at
    the point of n ones, which builds no point.  Only the h_m(1^n) =
    C(n + m - 1, m) that the index matrices read are made, each once, so a
    shape costs at most len(outer)^2 binomials."""
    indices = [_jacobi_trudi(outer, inner) for outer, inner in shapes]
    read = {m for index in indices for row in index for m in row if m > 0}
    h = {-1: 0, 0: 1, **{m: comb(n + m - 1, m) for m in read}}
    return [_det_int(index, h) for index in indices]


def ssyt_count(outer: Partition, inner: Partition, n: int) -> int:
    """Exact number of SSYTs of the shape with entries in 1..n."""
    return ssyt_counts([(outer, inner)], n)[0]


def monomial_symmetric(lam: Partition, n: int) -> MultiPoly:
    """Sum of x^w over the distinct permutations w of lam, padded to length n."""
    if len(lam) > n:
        raise ValueError(f"partition {lam} is longer than nvars {n}")
    terms = {perm: 1 for perm in set(permutations(lam.padded(n)))}
    return MultiPoly(n, terms)


def eval_all_ones(p: MultiPoly) -> int:
    return sum(p.terms.values())


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
            tpow = "t" if j == 1 else (f"t^{j}" if j else "")
            if j == self.degree:
                parts.append(tpow or "1")
            else:
                body = str(c)
                wrapped = body if c.num_terms() == 1 and not body.startswith("-") else f"({body})"
                parts.append(f"+ {wrapped}" + (f"*{tpow}" if tpow else ""))
        return " ".join(parts)

    __repr__ = __str__

    def to_json_obj(self) -> dict:
        return {
            "nvars": self.nvars,
            "degree": self.degree,
            "coeffs": [c.to_json_obj() for c in self.coeffs],
            "root_weights": [list(w) for w in self.root_weights],
        }


def char_poly(mu: Partition, nu: Partition, n: int) -> CharPoly:
    """chi(t): the product of (t - x^w(T)) over all tableaux of mu/nu; a walk
    over the window limit is refused first (_refuse_walk)."""
    if not contains(mu, nu):
        raise ValueError("mu must contain nu")
    shape = SkewShape(mu, nu)
    _refuse_walk(shape, n)
    return CharPoly([weight(t) for t in iter_tableaux(shape, n)], n)
