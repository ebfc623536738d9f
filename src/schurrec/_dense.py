"""Dense weight-multiplicity tables for skew shapes with at most 3 rows and
at most 3 letters, plus exact integer evaluation through the Jacobi-Trudi
determinant.

The table for a shape with box count D and n letters is an (n-1)-dimensional
int64 array K with K[t_1, ..., t_{n-1}] = number of SSYTs of weight
(t_1, ..., t_{n-1}, D - sum t_i).  Fillings are counted through chains of
horizontal strips; for each intermediate shape the strip condition is a
coordinatewise box, so the counts reduce to lattice-point counts of boxes
sliced by coordinate sum.  All float64 intermediates are integers below
2**53, guarded by an exact total count computed up front.
"""
from __future__ import annotations

import numpy as np

from .partitions import Partition
from .polynomials import MultiPoly

_FLOAT_EXACT_LIMIT = 1 << 52


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


def weight_counts(outer: Partition, inner: Partition, n: int) -> np.ndarray:
    """Dense weight table; raises UnsupportedShape outside rows <= 3, n <= 3."""
    if n > 3 or len(outer) > 3:
        raise UnsupportedShape(f"dense engine is limited to 3 rows / 3 letters, got {outer} with n={n}")
    total = ssyt_count(outer, inner, n)
    if total >= _FLOAT_EXACT_LIMIT:
        raise UnsupportedShape(f"{total} fillings exceed the exact float64 range")
    L1, L2, L3 = _padded(outer, 3)
    m1, m2, m3 = _padded(inner, 3)
    D = (L1 + L2 + L3) - (m1 + m2 + m3)
    msize = m1 + m2 + m3

    if n == 1:
        # one horizontal strip: inner -> outer directly
        ok = m1 <= L1 and m2 <= L2 and m3 <= L3 and L2 <= m1 and L3 <= m2
        arr = np.zeros((), dtype=np.int64)
        if ok:
            arr[()] = 1
        if int(arr[()]) != total:
            raise RuntimeError("dense n=1 total mismatch")
        return arr

    if n == 2:
        # single intermediate shape rho, counted per size
        a1, b1 = max(m1, L2), L1
        a2, b2 = max(m2, L3), min(m1, L2)
        a3, b3 = m3, min(m2, L3)
        K = np.zeros(D + 1, dtype=np.int64)
        if b1 < a1 or b2 < a2 or b3 < a3:
            return K
        base = a1 + a2 + a3
        spans = (b1 - a1, b2 - a2, b3 - a3)
        for t1 in range(D + 1):
            K[t1] = _count_box_sum_scalar(msize + t1 - base, spans)
        if int(K.sum()) != total:
            raise RuntimeError("dense n=2 total mismatch")
        return K

    # n == 3: outer sum over sigma (shape after letters 1,2), inner box for rho
    K = np.zeros((D + 1, D + 1), dtype=np.int64)
    s1 = np.arange(max(L2, m1), L1 + 1, dtype=np.int64)
    s2 = np.arange(max(L3, m2), L2 + 1, dtype=np.int64)
    s3 = np.arange(m3, L3 + 1, dtype=np.int64)
    if len(s1) == 0 or len(s2) == 0 or len(s3) == 0:
        if total != 0:
            raise RuntimeError("dense n=3 empty sigma box but nonzero count")
        return K
    S1, S2, S3 = np.meshgrid(s1, s2, s3, indexing="ij")
    a1 = np.maximum(S2, m1)
    b1 = S1
    a2 = np.maximum(S3, m2)
    b2 = np.minimum(S2, m1)
    a3 = np.full_like(S1, m3)
    b3 = np.minimum(S3, m2)
    La = (b1 - a1).ravel()
    Lb = (b2 - a2).ravel()
    Lc = (b3 - a3).ravel()
    keep = (La >= 0) & (Lb >= 0) & (Lc >= 0)
    if not keep.any():
        if total != 0:
            raise RuntimeError("dense n=3 empty rho boxes but nonzero count")
        return K
    base = (a1 + a2 + a3).ravel()[keep]
    La, Lb, Lc = La[keep], Lb[keep], Lc[keep]
    sig12 = (S1 + S2 + S3).ravel()[keep] - msize  # t1 + t2 for each sigma
    # inclusion-exclusion corner offsets for the box [0,La]x[0,Lb]x[0,Lc]
    corner_offsets = []
    for mask in range(8):
        shift = np.zeros_like(La)
        sign = 1
        for bit, Lx in enumerate((La, Lb, Lc)):
            if mask >> bit & 1:
                shift = shift + Lx + 1
                sign = -sign
        corner_offsets.append((sign, (base + shift).astype(np.float64)))
    nbins = D + 1
    for t1 in range(nbins):
        s_target = float(msize + t1)
        cnt = np.zeros(La.shape, dtype=np.float64)
        for sign, off in corner_offsets:
            mm = s_target - off
            np.maximum(mm, -1.0, out=mm)
            cnt += sign * ((mm + 2.0) * (mm + 1.0) * 0.5)
        row = np.bincount(sig12, weights=cnt, minlength=nbins)
        K[t1, : nbins - t1] = np.rint(row[t1:nbins]).astype(np.int64)
    if int(K.sum()) != total:
        raise RuntimeError("dense n=3 total mismatch")
    return K


def _count_box_sum_scalar(m: int, spans: tuple[int, int, int]) -> int:
    """#{u in prod [0, spans_j] : sum u = m} by inclusion-exclusion."""
    total = 0
    for mask in range(8):
        mm = m
        sign = 1
        for bit in range(3):
            if mask >> bit & 1:
                mm -= spans[bit] + 1
                sign = -sign
        if mm >= 0:
            total += sign * (mm + 2) * (mm + 1) // 2
    return total


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
