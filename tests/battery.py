"""The Theorem-1 family battery shared by the acceptance criteria.

Families: mu of weight <= 4, nu inside mu, kappa and lambda with parts <= 2,
n <= 3, all four partitions of length <= n (the theorem's hypothesis), and
the stretch condition satisfiable.  Each family is verified once; the
criteria read the cached summaries.  Only plain data is kept per family so
the battery's dense caches can be reclaimed as it runs.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import permutations, product
from typing import Optional

from schurrec.partitions import Partition, contains, partitions_up_to, stretch_condition
from schurrec.recurrence import (
    CharPoly,
    build_sequence,
    char_poly,
    minimal_report,
    verify_certificate,
)

MAX_MU_WEIGHT = 4
MAX_BASE_PART = 2


@dataclass
class FamilyResult:
    kappa: tuple
    lam: tuple
    mu: tuple
    nu: tuple
    n: int
    r: int
    degree: int
    verified: bool
    failed_k: Optional[int]
    minimal_degree: Optional[int] = None
    minimal_weights: Optional[tuple] = None
    bm_degrees: Optional[tuple] = None
    divides_chi: Optional[bool] = None
    perm_invariant: Optional[bool] = None

    @property
    def label(self) -> str:
        return (
            f"kappa={list(self.kappa)} lambda={list(self.lam)} "
            f"mu={list(self.mu)} nu={list(self.nu)} n={self.n}"
        )


def skew_pairs(max_weight: int, max_length: int) -> list[tuple[Partition, Partition]]:
    """Every (outer, inner) with inner inside outer, |outer| <= max_weight
    and both of length <= max_length, in partitions_up_to order: the one
    grid of stretch pairs mu/nu and of small test shapes."""
    return [
        (outer, inner)
        for outer in partitions_up_to(max_weight, max_length)
        for inner in partitions_up_to(outer.weight, max_length)
        if contains(outer, inner)
    ]


def battery_families():
    for n in (1, 2, 3):
        bases = partitions_up_to(MAX_BASE_PART * n, n, max_part=MAX_BASE_PART)
        for mu, nu in skew_pairs(MAX_MU_WEIGHT, n):
            for kappa, lam in product(bases, bases):
                if stretch_condition(kappa, lam, mu, nu) is None:
                    continue
                yield kappa, lam, mu, nu, n


_CHI_CACHE: dict[tuple, CharPoly] = {}


def chi_for(mu: Partition, nu: Partition, n: int) -> CharPoly:
    key = (mu.parts, nu.parts, n)
    if key not in _CHI_CACHE:
        _CHI_CACHE[key] = char_poly(mu, nu, n)
    return _CHI_CACHE[key]


def _perm_invariant(weights) -> bool:
    wset = set(weights)
    return all(perm in wset for w in wset for perm in permutations(w))


def _divides_chi(minimal_weights, chi: CharPoly) -> bool:
    """Product-form divisibility: the minimal root multiset embeds in chi's,
    and restoring the quotient roots rebuilds chi's coefficients exactly."""
    remaining = Counter(chi.root_weights)
    for w in minimal_weights:
        if remaining[w] <= 0:
            return False
        remaining[w] -= 1
    rebuilt = CharPoly.from_root_weights(
        list(minimal_weights) + list(remaining.elements()), chi.nvars
    )
    return rebuilt.coeffs == chi.coeffs


def run_family(args, seed: int = 0, with_minimal: bool = True) -> FamilyResult:
    kappa, lam, mu, nu, n = args
    seq = build_sequence(kappa, lam, mu, nu, n)
    chi = chi_for(mu, nu, n)
    cert = verify_certificate(seq, chi, seq.r, chi.degree + 3)
    result = FamilyResult(
        kappa.parts, lam.parts, mu.parts, nu.parts, n,
        seq.r, chi.degree, cert.ok, cert.failed_k,
    )
    if with_minimal and cert.ok:
        rep = minimal_report(seq, chi, seed=seed)
        result.minimal_degree = rep.char_poly.degree
        result.minimal_weights = tuple(rep.weights)
        result.bm_degrees = tuple(rep.bm_degrees)
        result.divides_chi = _divides_chi(rep.weights, chi)
        result.perm_invariant = _perm_invariant(rep.weights)
    return result


def run_battery(seed: int = 0, with_minimal: bool = True, families=None) -> list[FamilyResult]:
    """Run every family; parallel across processes when cores are available
    (override the worker count with SCHURREC_BATTERY_WORKERS)."""
    import os

    if families is None:
        families = list(battery_families())
    workers = int(os.environ.get("SCHURREC_BATTERY_WORKERS", os.cpu_count() or 1))
    if workers <= 1 or len(families) < 32:
        return [run_family(f, seed=seed, with_minimal=with_minimal) for f in families]
    from concurrent.futures import ProcessPoolExecutor
    from functools import partial

    job = partial(run_family, seed=seed, with_minimal=with_minimal)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(job, families, chunksize=16))
