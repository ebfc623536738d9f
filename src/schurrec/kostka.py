"""Kostka coefficients of skew shapes, the monomial-basis expansion of skew
Schur polynomials, explicit witnesses for stretch positivity, and the
polynomiality of the stretched filling counts."""
from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import reduce
from typing import Optional, Sequence

from .partitions import Partition, contains, partitions_up_to, scale
from .polynomials import MultiPoly, monomial_symmetric, schur_int_evals
from .tableaux import SkewShape, Tableau, insert, iter_tableaux, weight


def kostka(shape: SkewShape, w: Sequence[int]) -> int:
    """Number of SSYTs of the shape with weight w (alphabet bound len(w)).

    Zero when the weight total does not match the box count.  Counting is by
    weight-pruned enumeration: partial fillings that already exceed some
    multiplicity in w are abandoned.
    """
    wt = tuple(int(x) for x in w)
    if any(x < 0 for x in wt):
        raise ValueError(f"weight must be nonnegative, got {wt}")
    if sum(wt) != shape.num_boxes:
        return 0
    if not wt:  # the empty filling of a shape with no boxes
        return 1
    return sum(1 for _ in iter_tableaux(shape, len(wt), weight_cap=wt))


def schur_in_m_basis(shape: SkewShape, n: int) -> dict[Partition, int]:
    """Positive coefficients K with skew_schur = sum K_w * m_w, keyed by partition."""
    boxes = shape.num_boxes
    out: dict[Partition, int] = {}
    for lam in partitions_up_to(boxes, n, exact=True):
        k = kostka(shape, tuple(lam[i] for i in range(n)))
        if k:
            out[lam] = k
    return out


def m_basis_reconstruction(coeffs: dict[Partition, int], n: int) -> MultiPoly:
    """Sum K_w * m_w; equals skew_schur on the originating shape."""
    total = MultiPoly.zero(n)
    for lam, k in coeffs.items():
        total = total + monomial_symmetric(lam, n) * k
    return total


def first_tableau_of_weight(shape: SkewShape, w: Sequence[int]) -> Tableau:
    """First tableau with weight w in the canonical enumeration order."""
    wt = tuple(int(x) for x in w)
    for t in iter_tableaux(shape, len(wt), weight_cap=wt):
        if weight(t) == wt:
            return t
    raise ValueError(f"no tableau of shape {shape} has weight {wt}")


def stretch_positivity_check(shape: SkewShape, w: Sequence[int], k: int) -> Tableau:
    """Witness that K > 0 is preserved under stretching: the k-fold insertion
    power of the first tableau of weight w, of shape k*outer/k*inner and
    weight k*w."""
    if k < 1:
        raise ValueError("stretch factor k must be positive")
    wt = tuple(int(x) for x in w)
    seed = first_tableau_of_weight(shape, wt)
    witness = reduce(insert, [seed] * k)
    expected_shape = SkewShape(scale(k, shape.outer), scale(k, shape.inner))
    if witness.shape != expected_shape:
        raise RuntimeError("witness shape is not the stretched shape")
    if weight(witness) != tuple(k * x for x in wt):
        raise RuntimeError("witness weight is not the stretched weight")
    return witness


@dataclass
class PolynomialityReport:
    counts: list[int]
    degree: Optional[int]
    vanish_order: Optional[int]
    verdict: str
    newton_coefficients: Optional[list[int]]

    def to_json_obj(self) -> dict:
        return asdict(self)


def polynomiality_check(mu: Partition, nu: Partition, n: int, kmax: int) -> PolynomialityReport:
    """Finite-difference check that k -> #SSYT of k*mu/k*nu is polynomial.

    Requires kmax >= degree + 2 to conclude; otherwise INCONCLUSIVE.
    """
    if not contains(mu, nu):
        raise ValueError("mu must contain nu")
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    counts = schur_int_evals([(scale(k, mu), scale(k, nu)) for k in range(kmax + 1)], (1,) * n)
    diffs = counts
    newton = [counts[0]]
    order = 0
    while len(diffs) >= 2 and any(diffs):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        order += 1
        newton.append(diffs[0])
    # conclusive when all differences of this order vanish, with at least 2 witnesses
    if any(diffs) or len(diffs) < 2:
        return PolynomialityReport(counts, None, None, "INCONCLUSIVE", None)
    # counts[0] = 1 (the empty shape), so a vanishing order is at least 1
    degree = order - 1
    return PolynomialityReport(counts, degree, order, f"POLYNOMIAL(degree={degree})", newton[:-1])
