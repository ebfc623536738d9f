"""Dense weight-multiplicity tables for skew shapes in at most 4 letters
with any number of rows, the factor chain that runs the recurrence on them,
and their conversion to sparse polynomials.  This is the one module that
imports numpy.

The table for a shape with box count D and n letters is an (n-1)-dimensional
int64 array K with K[t_1, ..., t_{n-1}] = number of SSYTs of weight
(t_1, ..., t_{n-1}, D - sum t_i).  A row that shares no column with its
neighbours is a factor h_m of the skew Schur polynomial (Macdonald I.5), and
multiplying by h_m is a filter of the table built from prefix sums.  The
other rows are counted through chains of horizontal strips (the branching
rule); split at the middle shape, the two halves range over coordinatewise
boxes, so the counts reduce to lattice-point counts of boxes sliced by
coordinate sum.  The arithmetic is int64 only, guarded by the exact total
count (polynomials.ssyt_count) computed up front; a count at the limit is
refused, not enumerated.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .partitions import IntVector, Partition
# ssyt_count guards the int64 limit.  schur_int_eval is not used here, but
# bench/spans.py traces both under this module, so it stays importable.
from .polynomials import MultiPoly, schur_int_eval, ssyt_count

# int64 is exact below this; tables and chains bound every entry under it
_INT64_LIMIT = 1 << 63
_CHUNK_CELLS = 1 << 13


class UnsupportedShape(Exception):
    """Raised when the dense engine cannot handle a shape/letter combination."""


def _padded(p: Partition, length: int) -> tuple[int, ...]:
    return tuple(p[i] for i in range(length))


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


def _isolated_rows(lam: tuple[int, ...], mu: tuple[int, ...]) -> list[bool]:
    """Rows that share no column with either neighbour: mu[r-1] >= lam[r]
    and mu[r] >= lam[r+1].  No other row shares a column with such a row
    either, so its h_m is a factor, and the rows left over form a skew
    shape whose polynomial is the other factor."""
    above = (lam[0],) + mu[:-1]  # no row above the first
    below = lam[1:] + (0,)
    return [a >= l and m >= b for a, l, m, b in zip(above, lam, mu, below)]


def _strided(x: np.ndarray, shape: tuple[int, ...], skip: int, tilt: int, d: int) -> np.ndarray:
    """The view y[t, c, ...] = x[t, skip + c + tilt * sum(t), ...] of x, with
    t over axes 0..d-2 and c along axis d-1; numpy checks that it stays in
    x's buffer."""
    step = x.strides[d - 1]
    strides = tuple(s + tilt * step if j < d - 1 else s for j, s in enumerate(x.strides))
    return np.ndarray(shape, np.int64, x, skip * step, strides)


def _simplex_filter(x: np.ndarray, m: int, d: int) -> np.ndarray:
    """y[t] = sum of x[t - u] over u >= 0 with |u| <= m, over the first d
    axes of x, which all have width w; the axes after them are carried
    along.  Exact where those first d indices sum to less than w.

    This is x times S_m, the sum of the monomials of degree <= m in d
    letters.  Peeling the last letter z,
        S_m(x', z) = [S_m(x') - z^(m+1) S_m(x'/z)] / (1 - z),
    the prefix sums along axis d-1 go through the (d-1)-letter filter twice:
    as they are, and sheared to s = c + sum(t'), the index the monomial
    z^(m+1) (x'/z)^u keeps, then shifted by m + 1 and sheared back.  Both
    shears are strided views of zero-padded buffers, so no index array is
    built.  Every entry of every step is 0 or a sum of distinct entries of
    x, so none exceeds the total of x.
    """
    if d == 0:
        return x
    width, pad = x.shape[0], (d - 1) * (x.shape[0] - 1)
    axes = (slice(None),) * (d - 1)
    padded = x.shape[: d - 1] + (pad + width,) + x.shape[d:]
    sums = np.zeros(padded, dtype=np.int64)
    np.cumsum(x, axis=d - 1, out=sums[axes + (slice(pad, None),)])
    out = _simplex_filter(sums[axes + (slice(pad, None),)], m, d - 1)
    slanted = _simplex_filter(_strided(sums, x.shape, pad, -1, d), m, d - 1)
    del sums  # freed before back is made, which lowers the peak
    back = np.zeros(padded, dtype=np.int64)
    span = max(0, min(width, width + pad - m - 1))
    back[axes + (slice(m + 1, m + 1 + span),)] = slanted[axes + (slice(span),)]
    out -= _strided(back, x.shape, 0, 1, d)
    return out


def weight_counts(outer: Partition, inner: Partition, n: int) -> np.ndarray:
    """Dense weight table for n <= 4 letters and any number of rows; raises
    UnsupportedShape for other n and ValueError at the int64 limit.

    A row that shares no column with its neighbours is a factor h_m of the
    skew Schur polynomial, m its length.  The table of the rest, the shape
    made of the other rows, comes from the chain engine (the unit table when
    no row is left), and each factor h_m turns it into the simplex filter
    K'[t] = sum of K[t - u] over u >= 0 in the n - 1 explicit letters with
    |u| <= m (see _simplex_filter; n = 1 is the identity and n = 2 one
    boxcar).  Every intermediate of the filter is 0 or a sum of distinct
    entries of the table it filters.  For n = 3 they are the row prefix
    sums, their prefix sums down a column and down an anti-diagonal, and the
    differences of those (the boxcars).  For n = 4 they are the prefix sums
    along the third letter, the same n = 3 steps taken on them, as they are
    and sheared onto the planes t1 + t2 + t3 = s, and the difference.  So
    each stays at most the total of the table filtered, which is at most
    the final total: the exact filling count, computed once up front and
    checked against the table at the end.
    """
    if not 1 <= n <= 4:
        raise UnsupportedShape(f"dense engine is limited to 1..4 letters, got n={n}")
    total = ssyt_count(outer, inner, n)
    if total >= _INT64_LIMIT:
        raise ValueError(f"{total} fillings reach the int64 limit {_INT64_LIMIT}; refused")
    rows = max(len(outer), 1)
    lam, mu = _padded(outer, rows), _padded(inner, rows)
    isolated = _isolated_rows(lam, mu)
    rest = [r for r in range(rows) if not isolated[r]]
    if rest:
        K = _chain_counts(tuple(lam[r] for r in rest), tuple(mu[r] for r in rest), n)
    else:
        K = np.ones((1,) * (n - 1), dtype=np.int64)
    factors = [lam[r] - mu[r] for r in range(rows) if isolated[r] and lam[r] > mu[r]]
    if factors:  # else K is already the whole table
        D = sum(lam) - sum(mu)
        inside = sum(np.ogrid[(slice(D + 1),) * (n - 1)], 0) <= D
        part, K = K, np.zeros((D + 1,) * (n - 1), dtype=np.int64)
        K[tuple(slice(w) for w in part.shape)] = part
    for m in factors:
        K = _simplex_filter(K, m, n - 1)
        K *= inside
    if int(K.sum()) != total:
        raise RuntimeError("dense table total mismatch")
    return K


def _chain_counts(lam: tuple[int, ...], mu: tuple[int, ...], n: int) -> np.ndarray:
    """The weight table of the shape lam/mu (one entry per row, both of the
    same length) through the chain engine.

    A filling is a chain inner = rho0 c rho1 c ... c rho4 = outer of
    horizontal strips, the first 4 - n of them empty.  The chain is split at
    rho2: once rho2 is fixed, rho1 and rho3 range over independent boxes,
    whose lattice points are counted by coordinate sum (A and B), and
    K[t1, c - t1, t3] sums A[t1] * B[t3] over the rho2 with |rho2/inner| = c.
    Every intermediate counts a subset of the fillings, so it stays below
    the total of the whole shape, which weight_counts has checked.
    """
    lam = np.array(lam, dtype=np.int64)
    mu = np.array(mu, dtype=np.int64)
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
        if used[0]:
            A = _box_sums(lo1[part] - mu, hi1[part] - mu, widths[0])
        else:  # rho1 = inner: one point per kept rho2
            A = np.ones((len(part), 1), dtype=np.int64)
        B = _box_sums(lo3[part] - rho2[part], hi3[part] - rho2[part], widths[2])
        for c in set(size[part].tolist()):  # np.unique would import numpy.ma
            block = size[part] == c
            t1 = np.arange(min(c, widths[0] - 1) + 1)
            K[t1, c - t1] += (A[block].T @ B[block])[t1]
    return K.reshape((D + 1,) * (n - 1))


def factor_chain(tables: list[np.ndarray], weights: Sequence[IntVector]) -> list[np.ndarray]:
    """The residual tables of prod_w (E - x^w), E the index shift, on a
    window of term tables: U_k <- U_{k+1} - x^w * U_k, x^w shifting a table
    by the first n - 1 entries of w.  Every intermediate l1 norm is at most
    2^d times the largest table total, which keeps the chain in int64 when
    that bound is below the int64 limit, else in Python integers."""
    bound = max((int(t.sum()) for t in tables), default=0) << len(weights)
    dtype = np.int64 if bound < _INT64_LIMIT else object
    terms = [t.astype(dtype) for t in tables]  # copies: the chain runs in place
    for w in weights:
        # from the top down, the buffer of U_{k+1} becomes the new U_k
        for lo, hi in zip(terms[-2::-1], terms[:0:-1]):
            hi[tuple(slice(o, o + s) for o, s in zip(w, lo.shape))] -= lo
        del terms[0]
    return terms


def counts_to_multipoly(arr: np.ndarray, n: int, total_boxes: int) -> MultiPoly:
    """The sparse polynomial of a dense weight table: its nonzero cells in C
    order, the exponent of the last letter being total_boxes less the others.
    The terms are clean by construction, so they are not validated again."""
    if n == 1:
        coef = int(arr[()])
        return MultiPoly._trusted(1, {(total_boxes,): coef} if coef else {})
    cells = np.nonzero(arr)
    terms = {}
    for t, coef in zip(zip(*(c.tolist() for c in cells)), arr[cells].tolist()):
        last = total_boxes - sum(t)
        if last < 0:
            raise RuntimeError("dense table exponent exceeds box count")
        terms[t + (last,)] = coef
    return MultiPoly._trusted(n, terms)
