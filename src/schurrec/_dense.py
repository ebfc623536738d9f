"""Dense weight-multiplicity tables for skew shapes in at most 4 letters
with any number of rows, plus exact integer evaluation through the
Jacobi-Trudi determinant.

The table for a shape with box count D and n letters is an (n-1)-dimensional
int64 array K with K[t_1, ..., t_{n-1}] = number of SSYTs of weight
(t_1, ..., t_{n-1}, D - sum t_i).  Fillings are counted through chains of
horizontal strips (the branching rule, Macdonald I.5); split at the middle
shape, the two halves range over coordinatewise boxes, so the counts reduce
to lattice-point counts of boxes sliced by coordinate sum.  The arithmetic
is int64 only, guarded by the exact total count computed up front.
"""
from __future__ import annotations

import numpy as np

from .partitions import Partition
from .polynomials import MultiPoly

# every table entry and intermediate is at most the filling count
_INT64_LIMIT = 1 << 63
_CHUNK_CELLS = 1 << 13


class UnsupportedShape(Exception):
    """Raised when the dense engine cannot handle a shape/letter combination."""


def _padded(p: Partition, length: int) -> tuple[int, ...]:
    return tuple(p[i] for i in range(length))


def _h_int_table(point: tuple[int, ...], upto: int) -> list[int]:
    """h_m evaluated at an integer point, for m = 0..upto, via the
    constant-coefficient recurrence with elementary symmetric values."""
    n = len(point)
    es = [1]
    for x in point:
        new = es + [0]
        for i in range(len(es) - 1, -1, -1):
            new[i + 1] += es[i] * x
        es = new
    table = [0] * (upto + 1)
    if upto >= 0:
        table[0] = 1
    for m in range(1, upto + 1):
        acc = 0
        for i in range(1, min(n, m) + 1):
            term = es[i] * table[m - i]
            acc += term if i % 2 == 1 else -term
        table[m] = acc
    return table


def _det_int(mat: list[list[int]]) -> int:
    """Exact integer determinant (Bareiss)."""
    a = [row[:] for row in mat]
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
    return sign * a[-1][-1]


def schur_int_eval(outer: Partition, inner: Partition, point: tuple[int, ...]) -> int:
    """Exact integer value of the skew Schur polynomial at an integer point."""
    size = len(outer)
    if size == 0:
        return 1
    upto = outer[0] + size
    table = _h_int_table(point, upto)

    def h(m: int) -> int:
        return 0 if m < 0 else table[m]

    mat = [[h(outer[i] - inner[j] - i + j) for j in range(size)] for i in range(size)]
    return _det_int(mat)


def ssyt_count(outer: Partition, inner: Partition, n: int) -> int:
    """Exact number of SSYTs of the shape with entries in 1..n."""
    return schur_int_eval(outer, inner, (1,) * n)


def _shifted(p: np.ndarray, s: int) -> np.ndarray:
    """q[..., i] = p[..., i + s] over the rows of p: 0 below the last row and
    unbounded above the first."""
    edge = np.full(p.shape[:-1] + (abs(s),), np.iinfo(p.dtype).max if s < 0 else 0, dtype=p.dtype)
    parts = (p[..., s:], edge) if s >= 0 else (edge, p[..., :s])
    return np.concatenate(parts, axis=-1)[..., : p.shape[-1]]


def _partitions_between(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Every partition rho with lo <= rho <= hi coordinatewise, one per row,
    built a row at a time so that only partitions are ever listed."""
    rhos = np.full((1, 1), hi[0], dtype=np.int64)  # sentinel first column
    for a, b in zip(lo, hi):
        sizes = np.maximum(np.minimum(rhos[:, -1], b) - a + 1, 0)
        parent = np.repeat(np.arange(len(rhos)), sizes)
        value = a + np.arange(len(parent)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        rhos = np.column_stack((rhos[parent], value))
    return rhos[:, 1:]


def _shift_rows(x: np.ndarray, by: np.ndarray) -> np.ndarray:
    """y[j, s] = x[j, s - by[j]], and 0 where s < by[j]; by >= 0."""
    rows, width = x.shape
    padded = np.zeros((rows, 2 * width), dtype=x.dtype)
    padded[:, width:] = x
    starts = np.arange(rows) * 2 * width + width - np.minimum(by, width)
    return padded.ravel().take(starts[:, None] + np.arange(width))


def _box_sums(lo: np.ndarray, hi: np.ndarray, width: int) -> np.ndarray:
    """counts[j, s] = #{u : lo[j] <= u <= hi[j] coordinatewise, sum u = s} for
    s < width, given 0 <= lo <= hi.  One prefix sum per coordinate that is
    not fixed; every intermediate counts the points of a sub-box, so none
    exceeds the row's final total."""
    counts = np.zeros((len(lo), width), dtype=np.int64)
    counts[:, 0] = 1
    for span in (hi - lo).T:
        if span.any():
            cum = np.cumsum(counts, axis=1)
            counts = cum - _shift_rows(cum, span + 1)
    return _shift_rows(counts, lo.sum(axis=1))


def weight_counts(outer: Partition, inner: Partition, n: int) -> np.ndarray:
    """Dense weight table for n <= 4 letters and any number of rows; raises
    UnsupportedShape for other n or a filling count at the int64 limit.

    A filling is a chain inner = rho0 c rho1 c ... c rho4 = outer of
    horizontal strips, the first 4 - n of them empty.  The chain is split at
    rho2: once rho2 is fixed, rho1 and rho3 range over independent boxes,
    whose lattice points are counted by coordinate sum (A and B), and
    K[t1, c - t1, t3] sums A[t1] * B[t3] over the rho2 with |rho2/inner| = c.
    Every intermediate counts a subset of the fillings, so it stays below
    the exact total, which is checked against the table.
    """
    if not 1 <= n <= 4:
        raise UnsupportedShape(f"dense engine is limited to 1..4 letters, got n={n}")
    total = ssyt_count(outer, inner, n)
    if total >= _INT64_LIMIT:
        raise UnsupportedShape(f"{total} fillings reach the int64 limit")
    rows = max(len(outer), 1)
    lam = np.array(_padded(outer, rows), dtype=np.int64)
    mu = np.array(_padded(inner, rows), dtype=np.int64)
    D = int(lam.sum() - mu.sum())
    used = [j > 4 - n for j in (1, 2, 3)]  # letter 4 is always used
    rho2 = _partitions_between(
        np.maximum(mu, _shifted(lam, 2)), np.minimum(lam, _shifted(mu, -used[0] - used[1]))
    )
    lo1, hi1 = np.maximum(mu, _shifted(rho2, 1)), np.minimum(rho2, _shifted(mu, -used[0]))
    lo3, hi3 = np.maximum(_shifted(lam, 1), rho2), np.minimum(lam, _shifted(rho2, -used[2]))
    keep = (lo1 <= hi1).all(axis=1) & (lo3 <= hi3).all(axis=1)
    size = rho2.sum(axis=1) - mu.sum()
    order = np.flatnonzero(keep)[np.argsort(size[keep])]
    widths = [D + 1 if u else 1 for u in used]
    K = np.zeros(widths, dtype=np.int64)
    step = max(1, _CHUNK_CELLS // (D + 1))  # bounds the memory of A and B
    for at in range(0, len(order), step):
        part = order[at : at + step]
        A = _box_sums(lo1[part] - mu, hi1[part] - mu, widths[0])
        B = _box_sums(lo3[part] - rho2[part], hi3[part] - rho2[part], widths[2])
        for c in set(size[part].tolist()):  # np.unique would import numpy.ma
            block = size[part] == c
            t1 = np.arange(min(c, widths[0] - 1) + 1)
            K[t1, c - t1] += (A[block].T @ B[block])[t1]
    if int(K.sum()) != total:
        raise RuntimeError("dense table total mismatch")
    return K.reshape((D + 1,) * (n - 1))


def counts_to_multipoly(arr: np.ndarray, n: int, total_boxes: int) -> MultiPoly:
    """Rebuild the sparse polynomial from a dense weight table."""
    terms = {}
    if n == 1:
        if int(arr[()]) != 0:
            terms[(total_boxes,)] = int(arr[()])
        return MultiPoly(1, terms)
    for idx in zip(*np.nonzero(arr)):
        t = tuple(int(x) for x in idx)
        last = total_boxes - sum(t)
        if last < 0:
            raise RuntimeError("dense table exponent exceeds box count")
        terms[t + (last,)] = int(arr[idx])
    return MultiPoly(n, terms)
