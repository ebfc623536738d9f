"""Skew shapes, semistandard Young tableaux, and the row-insertion monoid.

The product `insert` concatenates two tableaux row by row and re-sorts each
row, with skew boxes kept to the left of ordinary boxes.  It is commutative,
associative and cancellative on SSYTs, and adds shapes and weights.  Every
tableau is the product of its one-column factors, read off the shape's
column runs, so `decompose` splits a tableau by grouping its columns.
"""
from __future__ import annotations

import json
from bisect import bisect_left
from collections import Counter
from itertools import zip_longest
from typing import Iterator, Optional, Sequence

from .partitions import Partition, add, contains, scale

SKEW_CHAR = "■"  # filled square, marks skew boxes in diagrams


class SkewShape:
    """An outer/inner pair of partitions with inner contained in outer."""

    __slots__ = ("outer", "inner")

    def __init__(self, outer, inner=()):
        self.outer = outer if isinstance(outer, Partition) else Partition(outer)
        self.inner = inner if isinstance(inner, Partition) else Partition(inner)
        if not contains(self.outer, self.inner):
            raise ValueError(f"inner {self.inner} not contained in outer {self.outer}")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SkewShape):
            return self.outer == other.outer and self.inner == other.inner
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.outer, self.inner))

    def __repr__(self) -> str:
        return f"SkewShape({self.outer}, {self.inner})"

    def __str__(self) -> str:
        return f"{self.outer}/{self.inner}"

    @property
    def num_boxes(self) -> int:
        return self.outer.weight - self.inner.weight

    @property
    def num_skew_boxes(self) -> int:
        return self.inner.weight

    def num_columns(self) -> int:
        """The number of nonempty column runs, read off the column blocks."""
        return sum(width for (first, last), width in self._column_blocks() if first <= last)

    def row_span(self, i: int) -> tuple[int, int]:
        """Column bounds of the ordinary boxes of row i (0-based): (inner_i, outer_i]."""
        return self.inner[i], self.outer[i]

    def _column_blocks(self) -> list[tuple[tuple[int, int], int]]:
        """Each column run, left to right, with the width of the block of adjacent columns sharing it.
        A block ends only where a part of outer or inner does, so this is O(rows^2), not O(outer_1);
        each cut lowers a count and neither count rises, so no run repeats."""
        outer, inner, cuts = self.outer.parts, self.inner.parts, sorted({*self.outer, *self.inner})
        return [((sum(x > a for x in inner) + 1, sum(x > a for x in outer)), b - a) for a, b in zip([0, *cuts], cuts)]

    def column_runs(self) -> list[tuple[int, int]]:
        """(inner'_j + 1, outer'_j) for each column j = 1..outer_1: the rows
        (1-based, inclusive) of its ordinary boxes.  A column holding h skew
        boxes only is the empty run (h+1, h)."""
        return [run for run, width in self._column_blocks() for _ in range(width)]

    def to_ascii(self) -> str:
        return _diagram(self.inner, [["."] * (self.outer[i] - self.inner[i]) for i in range(len(self.outer))])


class ColumnView:
    """One column of a tableau: its index, row interval (1-based), and
    entries.  Immutable; compared and hashed by those four fields."""

    __slots__ = ("col_index", "first_row", "last_row", "entries")

    def __init__(self, col_index: int, first_row: int, last_row: int, entries: tuple[int, ...]):
        if last_row - first_row + 1 != len(entries):
            raise ValueError("entry count does not match the row interval")
        for name, value in zip(self.__slots__, (col_index, first_row, last_row, entries)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return self.col_index, self.first_row, self.last_row, self.entries

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ColumnView):
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not by assignment
        return ColumnView, self._key()

    def __repr__(self) -> str:
        col_index, first_row, last_row, entries = self._key()
        return f"ColumnView({col_index=}, {first_row=}, {last_row=}, {entries=})"


class Tableau:
    """A filling of the ordinary boxes of a skew shape with entries in 1..n."""

    __slots__ = ("shape", "n", "rows")

    def __init__(self, shape: SkewShape, rows: Sequence[Sequence[int]], n: int):
        self.shape = shape
        self.n = int(n)
        if self.n < 1:
            raise ValueError("alphabet bound n must be positive")
        rs = tuple(tuple(int(v) for v in row) for row in rows)
        if len(rs) != len(shape.outer):
            raise ValueError(f"expected {len(shape.outer)} rows, got {len(rs)}")
        for i, row in enumerate(rs):
            lo, hi = shape.row_span(i)
            if len(row) != hi - lo:
                raise ValueError(f"row {i}: expected {hi - lo} entries, got {len(row)}")
        self.rows = rs

    def entry(self, i: int, j: int) -> int:
        """Entry at 0-based row i, 0-based diagram column j (must be an ordinary box)."""
        lo, hi = self.shape.row_span(i)
        if not lo <= j < hi:
            raise IndexError(f"({i},{j}) is not an ordinary box")
        return self.rows[i][j - lo]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Tableau):
            return self.shape == other.shape and self.rows == other.rows and self.n == other.n
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.shape, self.rows, self.n))

    def __repr__(self) -> str:
        return f"Tableau({self.shape!r}, {[list(r) for r in self.rows]}, n={self.n})"

    def to_json_obj(self) -> dict:
        return {
            "outer": list(self.shape.outer),
            "inner": list(self.shape.inner),
            "n": self.n,
            "rows": [list(r) for r in self.rows],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "Tableau":
        """Parse a tableau from outside input; raises ValueError unless it is an SSYT."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"a tableau must be a JSON object, got {text!r}")
        inner, rows = data.get("inner", []), data.get("rows")
        well_typed = {
            "outer": _is_int_list(data.get("outer")),
            "inner": _is_int_list(inner),
            "n": type(data.get("n")) is int,
            "rows": isinstance(rows, list) and all(_is_int_list(row) for row in rows),
        }
        bad = [key for key, ok in well_typed.items() if not ok]
        if bad:
            raise ValueError(
                f"tableau JSON has missing or mistyped {', '.join(bad)}: "
                "outer, inner and each row are integer lists, n is an integer"
            )
        tableau = cls(SkewShape(Partition(data["outer"]), Partition(inner)), rows, data["n"])
        if not is_valid_ssyt(tableau):
            raise ValueError(f"not a semistandard tableau: {text}")
        return tableau

    def to_ascii(self) -> str:
        return _diagram(self.shape.inner, [[str(v) for v in row] for row in self.rows])


def _diagram(inner: Partition, rows: Sequence[Sequence[str]]) -> str:
    """One line per row: inner[i] skew marks, then row i's cells."""
    lines = [" ".join([SKEW_CHAR] * inner[i] + list(row)) for i, row in enumerate(rows)]
    return "\n".join(lines) if lines else "(empty)"


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(type(v) is int for v in value)


def empty_tableau(n: int) -> Tableau:
    return Tableau(SkewShape(Partition(), Partition()), [], n)


def is_valid_ssyt(t: Tableau) -> bool:
    """Rows weakly increase, columns strictly increase, entries in 1..n."""
    shape = t.shape
    for i, row in enumerate(t.rows):
        for v in row:
            if not 1 <= v <= t.n:
                return False
        for a, b in zip(row, row[1:]):
            if a > b:
                return False
    for i in range(1, len(shape.outer)):
        lo, hi = shape.row_span(i)
        lo_up, hi_up = shape.row_span(i - 1)
        for j in range(max(lo, lo_up), min(hi, hi_up)):
            if t.entry(i - 1, j) >= t.entry(i, j):
                return False
    return True


def iter_tableaux(
    shape: SkewShape, n: int, weight_cap: Optional[Sequence[int]] = None
) -> Iterator[Tableau]:
    """Yield all SSYTs of the shape with entries in 1..n, in row-major
    lexicographic order.  weight_cap, when given, prunes fillings whose
    letter multiplicities would exceed it.  One loop, with no call per box, keeps the filling as
    its rows, box (i, j) at value_rows[i][j - inner_i]; each step opens the next box (box_rows gives
    its row) at the least value its left and upper neighbours allow, or moves the last filled box up."""
    cap = list(weight_cap) if weight_cap is not None else None
    if cap is not None and len(cap) != n:
        raise ValueError("weight_cap must have length n")
    outer, inner = shape.outer.parts, shape.inner.padded(len(shape.outer))
    box_rows = [i for i, (lo, hi) in enumerate(zip(inner, outer)) for _ in range(lo, hi)]
    counts, value_rows = [0] * (n + 1), [[] for _ in outer]

    def walk() -> Iterator[Tableau]:
        filled, lo = 0, 0  # lo = 0 opens box `filled`; else that box takes the least value from lo up
        while True:
            if not lo and filled == len(box_rows):
                yield Tableau(shape, value_rows, n)
                lo = n + 1  # no box is left to open: move the last filled box
            elif not lo:
                row = value_rows[i := box_rows[filled]]
                lo = row[-1] if row else 1
                j = inner[i] + len(row)
                if i and j >= inner[i - 1]:  # and j < outer_i <= outer_(i-1): the box above is ordinary
                    lo = max(lo, value_rows[i - 1][j - inner[i - 1]] + 1)
            for v in range(lo, n + 1):
                if cap is None or counts[v] < cap[v - 1]:
                    break
            else:  # close the box and move the one before it
                if not filled:
                    return
                filled -= 1
                row = value_rows[box_rows[filled]]
                lo = row.pop() + 1
                counts[lo - 1] -= 1
                continue
            row.append(v)
            counts[v] += 1
            filled, lo = filled + 1, 0

    return walk()


def enumerate_tableaux(shape: SkewShape, n: int) -> list[Tableau]:
    """All SSYTs of the shape with entries in 1..n, canonical order; a walk
    over the window limit is refused first (polynomials._refuse_walk)."""
    from .polynomials import _refuse_walk  # polynomials imports this module

    _refuse_walk(shape, n)
    return list(iter_tableaux(shape, n))


def weight(t: Tableau) -> tuple[int, ...]:
    """Letter multiplicity vector of length n."""
    w = [0] * t.n
    for row in t.rows:
        for v in row:
            w[v - 1] += 1
    return tuple(w)


def insert(t1: Tableau, t2: Tableau) -> Tableau:
    """Row-insertion product: concatenate rows, sort, skew boxes first."""
    if t1.n != t2.n:
        raise ValueError("tableaux must share the same alphabet bound n")
    outer = add(t1.shape.outer, t2.shape.outer)
    inner = add(t1.shape.inner, t2.shape.inner)
    shape = SkewShape(outer, inner)
    rows = [sorted(r1 + r2) for r1, r2 in zip_longest(t1.rows, t2.rows, fillvalue=())]
    result = Tableau(shape, rows, t1.n)
    if not is_valid_ssyt(result):
        raise RuntimeError(f"insertion produced an invalid tableau from {t1!r} and {t2!r}")
    return result


def _column_views(t: Tableau) -> list[ColumnView]:
    """One view per column of t, left to right, skew-only columns included."""
    return [
        ColumnView(j, first, last, tuple(t.entry(i - 1, j - 1) for i in range(first, last + 1)))
        for j, (first, last) in enumerate(t.shape.column_runs(), 1)
    ]


def columns(t: Tableau) -> list[ColumnView]:
    """The nonempty columns of t, left to right."""
    return [cv for cv in _column_views(t) if cv.entries]


def column_tableau(cv: ColumnView, n: int) -> Tableau:
    """The single-column tableau occupying rows first..last with cv's entries."""
    height = cv.last_row
    skew = cv.first_row - 1
    shape = SkewShape(Partition([1] * height), Partition([1] * skew))
    rows = [[] for _ in range(skew)] + [[e] for e in cv.entries]
    return Tableau(shape, rows, n)


def column_factors(t: Tableau) -> list[Tableau]:
    """One single-column tableau per column of t, left to right, whose
    insertion product is exactly t.  A column holding h skew boxes only
    gives the box-free factor (1^h)/(1^h)."""
    return [column_tableau(cv, t.n) for cv in _column_views(t)]


def sits_inside(small: SkewShape, big: SkewShape) -> bool:
    """Multiset containment of column runs, skew-only columns included.

    A skew shape is the sum of its one-column shapes, so then big - small is
    a skew shape too, and every tableau of big is the product of column
    factors with small's runs and the rest (see decompose)."""
    return not Counter(dict(small._column_blocks())) - Counter(dict(big._column_blocks()))


def first_enclosing_index(kappa: Partition, lam: Partition, mu: Partition, nu: Partition) -> int:
    """Least r0 >= 0 at which mu/nu sits inside S_r0 = (kappa + r0*mu)/(lam + r0*nu), kappa/lam and mu/nu valid
    skew shapes.  Bisected up to kappa_1 + 1: sits-inside never turns false as r grows, since S_{r+1} = S_r + mu/nu
    row by row takes the sorted union of column heights, and once mu/nu's (inner', outer') pairs are among S_r's,
    which form a chain, that sorted union is the union of the pairs."""
    if not contains(kappa, lam):
        raise ValueError("kappa/lam is not a valid skew shape")
    small, bound = SkewShape(mu, nu), kappa[0] + 2
    r0 = bisect_left(
        range(bound), True, key=lambda r: sits_inside(small, SkewShape(add(kappa, scale(r, mu)), add(lam, scale(r, nu))))
    )
    if r0 == bound:
        raise RuntimeError("no enclosing index within the bound kappa_1 + 1")
    return r0


def stabilization_index(kappa: Partition, lam: Partition, mu: Partition, nu: Partition) -> int:
    """First index from which the stretched family supports the recurrence.

    The recurrence starting at r only needs mu/nu to sit inside the shapes
    at indices r+1, r+2, ..., so this is max(0, first_enclosing_index - 1).
    """
    return max(0, first_enclosing_index(kappa, lam, mu, nu) - 1)


def decompose(t: Tableau, small: SkewShape) -> tuple[Tableau, Tableau]:
    """Split t = t1 * t2 with t1 of the given shape.

    t is the product of its column factors.  t1 is the product of the
    leftmost columns of t whose runs are small's, and t2 the product of the
    other columns; insert validates each product."""
    if not sits_inside(small, t.shape):
        raise ValueError(f"{small} does not sit inside {t.shape}")
    wanted = Counter(dict(small._column_blocks()))
    t1 = t2 = empty_tableau(t.n)
    for run, factor in zip(t.shape.column_runs(), column_factors(t)):
        if wanted[run]:
            wanted[run] -= 1
            t1 = insert(t1, factor)
        else:
            t2 = insert(t2, factor)
    if insert(t1, t2) != t:
        raise RuntimeError("decomposition does not multiply back")
    return t1, t2
