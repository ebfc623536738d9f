"""Partitions, integer weight vectors, and the two partial orders on them.

Partitions are weakly decreasing tuples of nonnegative integers, stored with
trailing zeros stripped.  Indexing past the stored length reads 0, so all
componentwise operations silently pad to the longer operand.
"""
from __future__ import annotations

from itertools import accumulate, zip_longest
from typing import Callable, Iterable, Iterator, Optional, Sequence

IntVector = tuple[int, ...]


class Partition:
    """A weakly decreasing sequence of nonnegative integers."""

    __slots__ = ("_parts",)

    def __init__(self, parts: Iterable[int] = ()):
        ps = tuple(int(p) for p in parts)
        for a, b in zip(ps, ps[1:]):
            if a < b:
                raise ValueError(f"not weakly decreasing: {ps}")
        if ps and ps[-1] < 0:
            raise ValueError(f"negative part in {ps}")
        while ps and ps[-1] == 0:
            ps = ps[:-1]
        self._parts = ps

    @property
    def parts(self) -> IntVector:
        return self._parts

    def __len__(self) -> int:
        return len(self._parts)

    def __getitem__(self, i: int) -> int:
        # the usual convention: parts beyond the length are 0
        if i < 0:
            raise IndexError("negative part index")
        return self._parts[i] if i < len(self._parts) else 0

    def __iter__(self) -> Iterator[int]:
        return iter(self._parts)

    def __bool__(self) -> bool:
        return bool(self._parts)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Partition):
            return self._parts == other._parts
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._parts)

    def __repr__(self) -> str:
        return f"Partition({list(self._parts)})"

    def __str__(self) -> str:
        return format_partition(self)

    def __add__(self, other: "Partition") -> "Partition":
        return add(self, other)

    @property
    def weight(self) -> int:
        return sum(self._parts)

    def padded(self, length: int) -> IntVector:
        """The parts, cut or padded with zeros to length."""
        return (self._parts + (0,) * length)[:length]


def contains(a: Partition, b: Partition) -> bool:
    """Inclusion order: a_i >= b_i for all i."""
    return all(x >= y for x, y in zip_longest(a, b, fillvalue=0))


def dominates(a: Sequence[int], b: Sequence[int]) -> bool:
    """Domination order on decreasing vectors of equal weight.

    Both arguments must already be weakly decreasing; callers sort via
    sort_decreasing.  Returns False when the weights differ.
    """
    ta, tb = tuple(a), tuple(b)
    for name, t in (("a", ta), ("b", tb)):
        if any(x < y for x, y in zip(t, t[1:])):
            raise ValueError(f"dominates: argument {name}={t} is not sorted decreasingly")
    if sum(ta) != sum(tb):
        return False
    # the prefix sums of a less those of b, padded to the longer length
    return all(s >= 0 for s in accumulate(x - y for x, y in zip_longest(ta, tb, fillvalue=0)))


def sort_decreasing(w: Sequence[int]) -> IntVector:
    """Rearrange a nonnegative weight vector in weakly decreasing order."""
    t = tuple(int(x) for x in w)
    if any(x < 0 for x in t):
        raise ValueError(f"sort_decreasing: negative entry in {t}")
    return tuple(sorted(t, reverse=True))


def add(a: Partition, b: Partition) -> Partition:
    return Partition([x + y for x, y in zip_longest(a.parts, b.parts, fillvalue=0)])


def scale(k: int, a: Partition) -> Partition:
    if k < 0:
        raise ValueError("scale factor must be nonnegative")
    return Partition(k * p for p in a)


def subtract(a: Partition | Sequence[int], b: Partition | Sequence[int]) -> IntVector:
    """Componentwise a - b; the result need not be a partition."""
    return tuple(x - y for x, y in zip_longest(a, b, fillvalue=0))


def _stretch_scan(
    kappa: Partition, lam: Partition, mu: Partition, nu: Partition
) -> tuple[Optional[int], Optional[int]]:
    """(k, None) with k the smallest k >= 1 such that k*(mu_i - nu_i) >=
    lam_i - kappa_i for all i, or (None, i) with i the first coordinate
    where mu_i - nu_i <= 0 but lam_i - kappa_i > 0, when no k exists."""
    k = 1
    for i, (c, l, m, v) in enumerate(zip_longest(kappa, lam, mu, nu, fillvalue=0)):
        if l > c:
            if m <= v:
                return None, i
            k = max(k, -((c - l) // (m - v)))  # the ceiling of (l - c) / (m - v)
    return k, None


def stretch_condition(kappa: Partition, lam: Partition, mu: Partition, nu: Partition) -> Optional[int]:
    """Smallest k >= 1 with k*(mu_i - nu_i) >= lam_i - kappa_i for all i.

    Returns None when no such k exists, i.e. some coordinate has
    mu_i = nu_i but lam_i > kappa_i.
    """
    if not contains(mu, nu):
        raise ValueError("stretch_condition requires mu to contain nu")
    return _stretch_scan(kappa, lam, mu, nu)[0]


def parse_entries(text: str, convert: Callable = int, kind: str = "an integer") -> list:
    """The comma-separated entries of text, less any enclosing brackets, each
    through convert; a blank body has none.  A bad entry, an empty one too,
    raises ValueError naming it and text."""
    s = text.strip()
    if s.startswith("[") and s.endswith("]"):
        s = s[1:-1]
    values = []
    for tok in s.split(",") if s.strip() else []:
        try:
            values.append(convert(tok))
        except ValueError:
            raise ValueError(f"expected {kind}, got {tok!r} in {text!r}") from None
    return values


def parse_partition(text: str) -> Partition:
    """Parse the bracketed text form, e.g. '[5,4,3,1]'; '[]' is empty."""
    return Partition(parse_entries(text))


def format_partition(p: Partition) -> str:
    return "[" + ",".join(str(x) for x in p.parts) + "]"


def partitions_up_to(
    max_weight: int, max_length: int, max_part: Optional[int] = None, *, exact: bool = False
) -> list[Partition]:
    """All partitions with weight <= max_weight (== max_weight when exact),
    length <= max_length, parts <= max_part; exact lists the same
    partitions in the same order as filtering by weight would."""
    cap = max_weight if max_part is None else max_part
    out: list[Partition] = []

    def rec(prefix: list[int], remaining: int, top: int) -> None:
        if not exact or remaining == 0:
            out.append(Partition(prefix))
        if len(prefix) == max_length:
            return
        for p in range(min(top, remaining), 0, -1):
            if exact and p * (max_length - len(prefix)) < remaining:
                break  # parts of at most p no longer reach max_weight
            prefix.append(p)
            rec(prefix, remaining - p, p)
            prefix.pop()

    rec([], max_weight, cap)
    return out
