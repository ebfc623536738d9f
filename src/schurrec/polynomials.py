"""Exact sparse multivariate polynomials over the integers, and the symmetric
polynomials built from tableaux: skew Schur, monomial symmetric, complete
homogeneous, plus the Jacobi-Trudi determinant as an independent oracle.
"""
from __future__ import annotations

import json
from functools import lru_cache
from itertools import permutations
from types import MappingProxyType
from typing import Mapping, Sequence

from .partitions import Partition
from .tableaux import SkewShape, Tableau, iter_tableaux, weight

Exponent = tuple[int, ...]


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
    def monomial(cls, exponents: Sequence[int], coef: int = 1) -> "MultiPoly":
        e = tuple(int(x) for x in exponents)
        return cls(len(e), {e: coef})

    @classmethod
    def variable(cls, index: int, nvars: int) -> "MultiPoly":
        e = [0] * nvars
        e[index] = 1
        return cls(nvars, {tuple(e): 1})

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
        out = MultiPoly.__new__(MultiPoly)
        out.nvars = self.nvars
        out._terms = terms
        return out

    def __neg__(self) -> "MultiPoly":
        out = MultiPoly.__new__(MultiPoly)
        out.nvars = self.nvars
        out._terms = {e: -c for e, c in self._terms.items()}
        return out

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return MultiPoly.zero(self.nvars)
            out = MultiPoly.__new__(MultiPoly)
            out.nvars = self.nvars
            out._terms = {e: c * other for e, c in self._terms.items()}
            return out
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
        out = MultiPoly.__new__(MultiPoly)
        out.nvars = self.nvars
        out._terms = terms
        return out

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative power")
        result = MultiPoly.one(self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

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

    def total_degree(self) -> int:
        return max((sum(e) for e in self._terms), default=0)

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

    def swap_variables(self, i: int, j: int) -> "MultiPoly":
        terms: dict[Exponent, int] = {}
        for e, c in self._terms.items():
            le = list(e)
            le[i], le[j] = le[j], le[i]
            terms[tuple(le)] = c
        return MultiPoly(self.nvars, terms)

    def is_symmetric(self) -> bool:
        return all(
            self.swap_variables(i, i + 1) == self for i in range(self.nvars - 1)
        )

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


def skew_schur(shape: SkewShape, n: int) -> MultiPoly:
    """Generating polynomial of all SSYTs of the shape with entries in 1..n."""
    terms: dict[Exponent, int] = {}
    for t in iter_tableaux(shape, n):
        w = weight(t)
        terms[w] = terms.get(w, 0) + 1
    return MultiPoly(n, terms)


@lru_cache(maxsize=None)
def complete_homogeneous(m: int, n: int) -> MultiPoly:
    """Sum of all degree-m monomials in n variables (h_m); h_m = 0 for m < 0."""
    if m < 0:
        return MultiPoly.zero(n)
    if m == 0:
        return MultiPoly.one(n)
    if n == 1:
        return MultiPoly(1, {(m,): 1})
    # peel the last variable: h_m(x_1..x_n) = h_m(x_1..x_{n-1}) + x_n*h_{m-1}(x_1..x_n)
    smaller = complete_homogeneous(m, n - 1)
    lifted = MultiPoly(n, {e + (0,): c for e, c in smaller.terms.items()})
    xn = MultiPoly.variable(n - 1, n)
    return lifted + xn * complete_homogeneous(m - 1, n)


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


def skew_schur_jacobi_trudi(shape: SkewShape, n: int) -> MultiPoly:
    """The same polynomial as skew_schur, via det(h_{outer_i - inner_j - i + j})."""
    outer, inner = shape.outer, shape.inner
    size = len(outer)
    if size == 0:
        return MultiPoly.one(n)
    entries = [
        [complete_homogeneous(outer[i] - inner[j] - i + j, n) for j in range(size)]
        for i in range(size)
    ]
    return _det(entries, n)


def monomial_symmetric(lam: Partition, n: int) -> MultiPoly:
    """Sum of x^w over the distinct permutations w of lam, padded to length n."""
    if len(lam) > n:
        raise ValueError(f"partition {lam} is longer than nvars {n}")
    padded = tuple(lam[i] for i in range(n))
    terms = {perm: 1 for perm in set(permutations(padded))}
    return MultiPoly(n, terms)


def eval_all_ones(p: MultiPoly) -> int:
    return sum(p.terms.values())
