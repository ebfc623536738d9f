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
count computed up front for the whole window at once (one Jacobi-Trudi
h-table, polynomials.schur_int_evals at (1, ..., 1)); a count at the limit
is refused, not enumerated.

Tables are built a window at a time (window_counts): the consecutive terms
of a family that a recurrence window or a root-cloud run reads share their
row structure, so their middle shapes are listed together, their box sums
are taken in shared blocks and their factors filter the stacked tables.  A
batch of shapes is closed before its tables, padded to its largest box
count, pass _CHUNK_CELLS cells, so large tables are built one or a few at a
time; every count still belongs to one shape.  weight_counts is the window
of one shape.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .partitions import IntVector, Partition
# schur_int_evals guards the int64 limit.  ssyt_count and schur_int_eval are
# not used here: they are re-exported only because bench/spans.py traces
# both under this module.
from .polynomials import MultiPoly, schur_int_eval, schur_int_evals, ssyt_count

# int64 is exact below this; tables and chains bound every entry under it
_INT64_LIMIT = 1 << 63
# cells of one block of box sums, and padded table cells of one batch of
# window_counts: a bound on the memory of both, measured best near 2^14
_CHUNK_CELLS = 1 << 14


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


def _partitions_between(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every partition rho with lo[s] <= rho <= hi[s] coordinatewise, for
    each row s of lo and hi: one per row, with its label s.  Built a part at
    a time, so that only partitions are ever listed."""
    label = np.arange(len(lo))
    rhos = hi[:, :1].copy()  # sentinel first column
    for a, b in zip(lo.T, hi.T):
        a, b = a[label], b[label]
        sizes = np.maximum(np.minimum(rhos[:, -1], b) - a + 1, 0)
        parent = np.repeat(np.arange(len(rhos)), sizes)
        value = a[parent] + np.arange(len(parent)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        rhos = np.column_stack((rhos[parent], value))
        label = label[parent]
    return rhos[:, 1:], label


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


def _simplex_filter(x: np.ndarray, m: Sequence[int], d: int) -> np.ndarray:
    """y[t, ..., b] = sum of x[t - u, ..., b] over u >= 0 with |u| <= m[b],
    over the first d axes of x, which all have width w; the axes after them
    are carried along, and the last one is a batch of tables, table b
    filtered with its own m[b].  Exact where those first d indices sum to
    less than w.

    This is x times S_m, the sum of the monomials of degree <= m in d
    letters.  Peeling the last letter z,
        S_m(x', z) = [S_m(x') - z^(m+1) S_m(x'/z)] / (1 - z),
    the prefix sums along axis d-1 go through the (d-1)-letter filter twice:
    as they are, and sheared to s = c + sum(t'), the index the monomial
    z^(m+1) (x'/z)^u keeps, then shifted by m + 1 (the one step taken table
    by table) and sheared back.  Both shears are strided views of
    zero-padded buffers, so no index array is built.  Every entry of every
    step is 0 or a sum of distinct entries of one table of x, so none
    exceeds that table's total.
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
    for b, shift in enumerate(m):
        span = max(0, min(width, width + pad - shift - 1))
        back[axes + (slice(shift + 1, shift + 1 + span), ..., b)] = slanted[axes + (slice(span), ..., b)]
    out -= _strided(back, x.shape, 0, 1, d)
    return out


def window_counts(shapes: Sequence[tuple[Partition, Partition]], n: int) -> list[np.ndarray]:
    """Dense weight tables of the skew shapes outer/inner given as (outer,
    inner) pairs, in that order, for n <= 4 letters and any number of rows;
    raises UnsupportedShape for other n and, before any table is built,
    ValueError when a shape's filling count reaches the int64 limit.

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
    the final total: the exact filling count, computed up front for every
    shape, all from one h-table, and checked against its table at the end.

    Consecutive shapes with as many rest rows and as many factors as each
    other, as the terms of one stretched family have, are built as one
    batch: one pass of the chain engine and one filter per factor level
    over the stack of their tables, padded to the batch's largest box count.
    A batch is closed before its padded cells pass _CHUNK_CELLS, so large
    tables are built one or a few at a time.  Nothing sums across shapes.
    """
    if not 1 <= n <= 4:
        raise UnsupportedShape(f"dense engine is limited to 1..4 letters, got n={n}")
    totals = schur_int_evals(shapes, (1,) * n)
    for total in totals:
        if total >= _INT64_LIMIT:
            raise ValueError(f"{total} fillings reach the int64 limit {_INT64_LIMIT}; refused")
    batches: list[list[_Split]] = []
    width = 0  # of the last batch's tables
    for split in (_split(outer, inner) for outer, inner in shapes):
        width = max(width, split.boxes + 1)
        batch = batches[-1] if batches else []
        if batch and batch[0].kind == split.kind and (len(batch) + 1) * width ** (n - 1) <= _CHUNK_CELLS:
            batch.append(split)
        else:
            batches.append([split])
            width = split.boxes + 1
    tables = [table for batch in batches for table in _batch_tables(batch, n)]
    if any(int(table.sum()) != total for table, total in zip(tables, totals)):
        raise RuntimeError("dense table total mismatch")
    return tables


def weight_counts(outer: Partition, inner: Partition, n: int) -> np.ndarray:
    """The dense weight table of one shape: window_counts on a window of
    that shape alone, with its errors."""
    return window_counts([(outer, inner)], n)[0]


class _Split(NamedTuple):
    """A shape split into its rest, the rows that share a column with a
    neighbour (as outer and inner parts), and the lengths m of its nonempty
    isolated rows, its h_m factors."""

    lam: list[int]
    mu: list[int]
    factors: list[int]
    boxes: int

    @property
    def kind(self) -> tuple[int, int]:
        """What the shapes of one batch share: rest rows and factors."""
        return len(self.lam), len(self.factors)


def _split(outer: Partition, inner: Partition) -> _Split:
    rows = max(len(outer), 1)
    lam, mu = _padded(outer, rows), _padded(inner, rows)
    isolated = _isolated_rows(lam, mu)
    rest = [r for r in range(rows) if not isolated[r]]
    factors = [lam[r] - mu[r] for r in range(rows) if isolated[r] and lam[r] > mu[r]]
    return _Split([lam[r] for r in rest], [mu[r] for r in rest], factors, sum(lam) - sum(mu))


def _batch_tables(batch: list[_Split], n: int) -> list[np.ndarray]:
    """The tables of one batch of window_counts, in its order."""
    lam = np.array([s.lam for s in batch], dtype=np.int64).reshape(len(batch), -1)
    mu = np.array([s.mu for s in batch], dtype=np.int64).reshape(len(batch), -1)
    if lam.shape[1]:
        K = _chain_tables(lam, mu, n, int((lam.sum(axis=1) - mu.sum(axis=1)).max()) + 1)
    else:
        K = np.ones((len(batch),) + (1,) * (n - 1), dtype=np.int64)
    K = np.moveaxis(K, 0, -1)  # the batch axis last, where the filter carries it
    boxes = [s.boxes for s in batch]
    if batch[0].factors:  # else K already holds the whole tables
        width = max(boxes) + 1
        inside = np.asarray(sum(np.ogrid[(slice(width),) * (n - 1)], 0) < width)[..., None]
        part, K = K, np.zeros((width,) * (n - 1) + (len(batch),), dtype=np.int64)
        K[tuple(slice(w) for w in part.shape)] = part
        for m in zip(*(s.factors for s in batch)):
            K = _simplex_filter(K, m, n - 1)
            K *= inside
    tables = [K[(slice(D + 1),) * (n - 1) + (..., b)] for b, D in enumerate(boxes)]
    # a table that shares its buffer, with padding or other tables, is copied out
    return [t if t.base.nbytes == t.nbytes else t.copy() for t in tables]


def _chain_tables(lam: np.ndarray, mu: np.ndarray, n: int, width: int) -> np.ndarray:
    """The weight tables of the shapes lam[s]/mu[s], one per row of the two
    arrays, through the chain engine, stacked along a first axis and each
    padded to width along every other axis.

    A filling is a chain inner = rho0 c rho1 c ... c rho4 = outer of
    horizontal strips, the first 4 - n of them empty.  The chain is split at
    rho2: once rho2 is fixed, rho1 and rho3 range over independent boxes,
    whose lattice points are counted by coordinate sum (A and B), and
    K[t1, c - t1, t3] sums A[t1] * B[t3] over the rho2 with |rho2/inner| = c.
    The rho2 of every shape are listed at once, each with its shape's label,
    and taken a block of rows at a time in the order of (shape, c).  For
    n <= 3, A is 1, and a block's sums per (shape, c) are one
    np.add.reduceat; for n = 4 each is one product A^T B, added in before
    the next is made, so that at most one (D+1) x (D+1) product is alive.
    Every intermediate
    counts a subset of one shape's fillings, so it stays below that shape's
    total, which window_counts has checked.
    """
    used = [j > 4 - n for j in (1, 2, 3)]  # letter 4 is always used
    rho2, label = _partitions_between(
        np.maximum(mu, _shifted(lam, 2)), np.minimum(lam, _shifted(mu, -used[0] - used[1]))
    )
    K = np.zeros((len(lam),) + tuple(width if u else 1 for u in used), dtype=np.int64)
    lam, mu = lam[label], mu[label]
    lo1, hi1 = np.maximum(mu, _shifted(rho2, 1)), np.minimum(rho2, _shifted(mu, -used[0]))
    lo3, hi3 = np.maximum(_shifted(lam, 1), rho2), np.minimum(lam, _shifted(rho2, -used[2]))
    keep = (lo1 <= hi1).all(axis=1) & (lo3 <= hi3).all(axis=1)
    key = label * width + rho2.sum(axis=1) - mu.sum(axis=1)  # (shape, c)
    order = np.flatnonzero(keep)[np.argsort(key[keep], kind="stable")]
    w1, w3 = K.shape[1], K.shape[3]
    step = max(1, _CHUNK_CELLS // width)  # bounds the memory of A and B
    for at in range(0, len(order), step):
        part = order[at : at + step]
        B = _box_sums(lo3[part] - rho2[part], hi3[part] - rho2[part], w3)
        starts = np.flatnonzero(np.diff(key[part], prepend=-1))
        shape, c = np.divmod(key[part][starts], width)
        if used[0]:  # one product A^T B per (shape, c), added in as it is made
            A = _box_sums(lo1[part] - mu[part], hi1[part] - mu[part], w1)
            ends = np.append(starts[1:], len(part))
            for s, e, at_shape, at_c in zip(*(v.tolist() for v in (starts, ends, shape, c))):
                t1 = np.arange(min(at_c, w1 - 1) + 1)
                K[at_shape, t1, at_c - t1] += (A[s:e].T @ B[s:e])[t1]
        else:  # rho1 = inner, so A is 1 on every kept rho2 and t1 = 0
            K[shape, 0, c] += np.add.reduceat(B, starts)
    return K.reshape((len(K),) + (width,) * (n - 1))


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


def table_cells(arr: np.ndarray, total_boxes: int) -> tuple[list[list[int]], list[int]]:
    """The nonzero cells of a dense weight table in C order, as Python ints:
    one column of exponents per letter, the last letter's being total_boxes
    less the others, and the column of counts."""
    cells = np.nonzero(arr) if arr.ndim else ()  # n = 1: a 0-d table, no column
    counts = arr[arr != 0]
    last = np.full(len(counts), total_boxes, dtype=np.int64)
    for column in cells:
        last -= column
    if (last < 0).any():
        raise RuntimeError("dense table exponent exceeds box count")
    return [c.tolist() for c in cells] + [last.tolist()], counts.tolist()


def counts_to_multipoly(arr: np.ndarray, n: int, total_boxes: int) -> MultiPoly:
    """The sparse polynomial of a dense weight table, its terms listed in the
    C order of the table's cells (table_cells).  The terms are clean by
    construction, so they are not validated again."""
    exponents, counts = table_cells(arr, total_boxes)
    return MultiPoly._trusted(n, dict(zip(zip(*exponents), counts)))
