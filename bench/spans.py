"""In-memory spans for the traced benchmark run.

A span is one call into a layer: its name, start, end and the span that was
open when it began.  Spans live in flat arrays so that a run with millions of
them (one per tableau yielded on the n = 4 workload) stays small, and they
are written out once, when the run ends.  Wrappers are installed from the
benchmark's own files; nothing in the library changes.
"""
from __future__ import annotations

import gzip
import importlib
import time
from array import array
from collections import Counter

_clock = time.perf_counter

# prefix of the stderr line on which a traced CLI child exports its spans
SPANS_MARK = b"#bench-spans "


class Tracer:
    """Span recorder plus the counters the per-layer metrics need."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts: Counter = Counter()
        self.active = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------
    def _id(self, name: str) -> int:
        got = self._name_ids.get(name)
        if got is None:
            got = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return got

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(_clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _clock()
        self._stack.pop()

    def merge(self, payload: dict, parent: int) -> None:
        """Append the spans and counters exported by another process's tracer
        (perf_counter is system-wide, so its times are comparable); its root
        spans become children of `parent`."""
        base = len(self.start)
        names = payload["names"]
        for nid, s, e, p in zip(payload["name_id"], payload["start"], payload["end"], payload["parent"]):
            self.name_id.append(self._id(names[nid]))
            self.start.append(s)
            self.end.append(e)
            self.parent.append(parent if p < 0 else base + p)
        self.counts.update(payload["counts"])

    def export(self) -> dict:
        return {
            "names": self.names,
            "name_id": list(self.name_id),
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
            "counts": dict(self.counts),
        }

    # -- wrapping ------------------------------------------------------------
    def patch(self, owner: object, attr: str, value: object) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    def wrap(self, func, name: str, after=None):
        """A wrapper recording one span per call while the tracer is active;
        after(args, kwargs, result) updates counters outside the span."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def wrap_generator(self, func, name: str, counter: str):
        """A generator wrapper: the call and every item drawn are spans, and
        `counter` counts the items yielded."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                yield from func(*args, **kwargs)
                return
            idx = tracer.open(name)
            try:
                it = func(*args, **kwargs)
            finally:
                tracer.close(idx)
            while True:
                idx = tracer.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close(idx)
                tracer.counts[counter] += 1
                yield item

        wrapper.__wrapped__ = func
        return wrapper

    # -- output --------------------------------------------------------------
    def write(self, path) -> None:
        """Write every span as a gzip'd TSV row: index, name, start, end, parent."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            names = self.names
            for i, (nid, s, e, p) in enumerate(zip(self.name_id, self.start, self.end, self.parent)):
                fh.write(f"{i}\t{names[nid]}\t{s!r}\t{e!r}\t{p}\n")


def layer_times(names, name_id, start, end, parent) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy seconds and self seconds.

    Self time is a span's duration minus the part of it that its children
    cover (the union of the child intervals, clipped to the parent).  Busy
    time sums the durations of spans not nested inside a span of the same
    name, so recursion is not counted twice.
    """
    count = len(start)
    order = sorted(range(count), key=start.__getitem__)
    covered = [0.0] * count
    frontier = [float("-inf")] * count
    for i in order:
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], frontier[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        frontier[p] = max(frontier[p], hi)
    out: dict[str, dict[str, float]] = {}
    for i in range(count):
        nid = name_id[i]
        row = out.setdefault(names[nid], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        duration = end[i] - start[i]
        row["calls"] += 1
        row["self_s"] += duration - covered[i]
        p = parent[i]
        while p >= 0 and name_id[p] != nid:
            p = parent[p]
        if p < 0:
            row["busy_s"] += duration
    return out


def tracer_layer_times(tracer: Tracer) -> dict[str, dict[str, float]]:
    return layer_times(tracer.names, tracer.name_id, tracer.start, tracer.end, tracer.parent)


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of every schurrec layer, at each name through
    which a caller looks them up."""
    import schurrec
    from schurrec import _dense, asymptotics, cli, polynomials, recurrence, tableaux

    kostka = importlib.import_module("schurrec.kostka")  # the package re-exports a function of that name
    modules = (schurrec, _dense, asymptotics, cli, kostka, polynomials, recurrence, tableaux)
    counts = tracer.counts

    def everywhere(func, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is func:
                    tracer.patch(module, attr, wrapper)

    def plain(func, name, after=None) -> None:
        everywhere(func, tracer.wrap(func, name, after))

    def table_built(args, kwargs, table) -> None:
        counts["dense.table_cells"] += table.size

    weight_counts = tracer.wrap(_dense.weight_counts, "dense.weight_counts", table_built)

    def counted_weight_counts(*args, **kwargs):
        try:
            return weight_counts(*args, **kwargs)
        except _dense.UnsupportedShape:
            if tracer.active:
                counts["dense.unsupported"] += 1
            raise

    everywhere(_dense.weight_counts, counted_weight_counts)
    plain(_dense.ssyt_count, "dense.ssyt_count")
    plain(_dense.schur_int_eval, "dense.schur_int_eval")
    plain(_dense.counts_to_multipoly, "dense.counts_to_multipoly")

    def verified(args, kwargs, result) -> None:
        count = args[3] if len(args) > 3 else kwargs["count"]
        counts["recurrence.verify.indices"] += count

    def minimized(args, kwargs, report) -> None:
        chi = args[1] if len(args) > 1 else kwargs["chi"]
        # candidates the greedy considers (the distinct roots of chi) and the
        # ones it removes; read from the report so a faster greedy that tests
        # the same candidates keeps the same ratio
        counts["recurrence.greedy.trials"] += len(set(chi.root_weights))
        counts["recurrence.greedy.accepted"] += len(report.removed)

    plain(recurrence.build_sequence, "recurrence.build_sequence")
    plain(recurrence.char_poly, "recurrence.char_poly")
    plain(recurrence.verify_certificate, "recurrence.verify", verified)
    plain(recurrence.minimal_report, "recurrence.minimal", minimized)
    plain(recurrence.berlekamp_massey, "recurrence.bm")
    plain(recurrence.conjecture_check, "recurrence.conjecture")

    plain(polynomials.skew_schur, "polynomials.skew_schur")
    multipoly = polynomials.MultiPoly
    mul = multipoly.__mul__

    def multiplied(args, kwargs, result) -> None:
        a, b = args
        counts["polynomials.mul.term_pairs"] += a.num_terms() * (
            b.num_terms() if isinstance(b, multipoly) else 1
        )

    traced_mul = tracer.wrap(mul, "polynomials.mul", multiplied)
    tracer.patch(multipoly, "__mul__", traced_mul)
    tracer.patch(multipoly, "__rmul__", traced_mul)

    everywhere(
        tableaux.iter_tableaux,
        tracer.wrap_generator(tableaux.iter_tableaux, "tableaux.iter", "tableaux.fillings"),
    )
    plain(kostka.kostka, "kostka")

    def rooted(args, kwargs, roots) -> None:
        counts["asymptotics.roots"] += len(roots)

    plain(asymptotics.limit_experiment, "asymptotics.limit_experiment")
    plain(asymptotics.specialize, "asymptotics.specialize")
    plain(asymptotics.find_roots, "asymptotics.find_roots", rooted)
