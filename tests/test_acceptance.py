"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The family battery
(criteria 1 and 8) runs once as a session fixture; expect a few minutes of
wall time on one core.
"""
from functools import reduce
from itertools import combinations, product, starmap

import pytest

from battery import battery_families, chi_for, run_battery, skew_pairs
from schurrec.asymptotics import find_roots, limit_experiment, specialize
from schurrec.kostka import (
    kostka,
    m_basis_reconstruction,
    polynomiality_check,
    schur_in_m_basis,
    stretch_positivity_check,
)
from schurrec.partitions import (
    Partition,
    scale,
    sort_decreasing,
)
from schurrec.polynomials import (
    MultiPoly,
    complete_homogeneous,
    skew_schur,
    skew_schur_jacobi_trudi,
)
from schurrec.recurrence import (
    build_sequence,
    char_poly,
    conjecture_check,
    verify_recurrence,
)
from schurrec.tableaux import (
    SkewShape,
    Tableau,
    column_factors,
    empty_tableau,
    enumerate_tableaux,
    insert,
    is_valid_ssyt,
    sits_inside,
    weight,
)


def P(*parts):
    return Partition(parts)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="session")
def battery_results():
    return run_battery(seed=0, with_minimal=True)


def test_criterion_01_theorem_battery(battery_results):
    """Every battery family satisfies the chi(t) recurrence exactly at
    deg(chi)+3 consecutive indices from the computed r."""
    failures = [res.label for res in battery_results if not res.verified]
    ok = not failures
    report(1, ok, f"Theorem-1 battery: {len(battery_results)} families verified exactly"
           + (f"; failures: {failures[:3]}" if failures else ""))
    assert ok, failures[:10]


def test_criterion_02_oracle_equivalence():
    """Tableau-sum and Jacobi-Trudi determinant agree on every skew shape
    with |outer| <= 8 and every n <= 4."""
    cases = 0
    for shape in starmap(SkewShape, skew_pairs(8, 8)):
        for n in (1, 2, 3, 4):
            assert skew_schur(shape, n) == skew_schur_jacobi_trudi(shape, n), (shape, n)
            cases += 1
    report(2, True, f"oracle equivalence on {cases} (shape, n) cases, exact")


def test_criterion_03_figure_fidelity():
    shape = SkewShape(P(5, 4, 3, 1), P(3, 2, 2))
    fig2 = Tableau(shape, [[1, 1], [1, 3], [2], [3]], 3)
    assert is_valid_ssyt(fig2)
    assert weight(fig2) == (3, 1, 2)
    assert shape.num_skew_boxes == 7 and shape.num_boxes == 6
    fig3a = SkewShape(P(2, 1), P(1))
    fig3b = SkewShape(P(4, 2, 1), P(1, 1))
    fig3c = SkewShape(P(6, 4, 1), P(2, 2))
    assert sits_inside(fig3b, fig3c)
    assert not sits_inside(fig3a, fig3b)
    report(3, True, "figure fidelity: tableau weight (3,1,2), 7 skew + 6 ordinary boxes, "
                    "sits-inside verdicts reproduced")


def test_criterion_04_monoid_suite():
    universe = [t for s in starmap(SkewShape, skew_pairs(4, 3)) for t in enumerate_tableaux(s, 3)]
    pairs = 0
    for t1 in universe:
        for t2 in universe:
            prod = insert(t1, t2)  # validates closure internally
            assert weight(prod) == tuple(a + b for a, b in zip(weight(t1), weight(t2)))
            assert prod == insert(t2, t1)
            pairs += 1
    small = [t for s in starmap(SkewShape, skew_pairs(2, 2)) for t in enumerate_tableaux(s, 3)]
    for t1 in small:
        for t2 in small:
            left = insert(t1, t2)
            for t3 in small:
                assert insert(left, t3) == insert(t1, insert(t2, t3))
    cancel_shapes = list(starmap(SkewShape, skew_pairs(3, 3)))
    for sa in cancel_shapes:
        ta = enumerate_tableaux(sa, 3)
        if not ta:
            continue
        for sb in cancel_shapes:
            for t in enumerate_tableaux(sb, 3):
                assert len({insert(x, t) for x in ta}) == len(ta)
    for t in universe:
        assert reduce(insert, column_factors(t), empty_tableau(t.n)) == t
    report(4, True, f"monoid suite on {len(universe)} tableaux ({pairs} products): closure, "
                    "weights, commutativity, associativity, cancellation, column factorization")


def test_criterion_05_h_recurrence_identity():
    """The (emptyset, emptyset, (1), emptyset, n=2) family satisfies
    t^2 - (x1+x2)t + x1x2 for k = 0..10, checked against direct expansion."""
    e1 = MultiPoly(2, {(1, 0): 1, (0, 1): 1})
    e2 = MultiPoly(2, {(1, 1): 1})
    for k in range(11):
        residual = complete_homogeneous(k + 2, 2) - e1 * complete_homogeneous(k + 1, 2) + e2 * complete_homogeneous(k, 2)
        assert residual.is_zero(), k
    seq = build_sequence(P(), P(), P(1), P(), 2)
    chi = char_poly(P(1), P(), 2)
    assert chi.degree == 2
    assert chi.coeffs[1] == -e1 and chi.coeffs[0] == e2
    assert verify_recurrence(seq, chi, 0, 11)
    report(5, True, "h-recurrence t^2-(x1+x2)t+x1x2 exact for k=0..10 (direct expansion + engine)")


def test_criterion_06_staircase_roots():
    seq = build_sequence(P(), P(), P(2, 1), P(), 3)
    worst = 0.0
    for k in range(1, 9):
        poly = specialize(seq, k, [1.0, 1.0])
        assert poly.degree == 2 * k
        roots = find_roots(poly)
        worst = max(worst, max(abs(abs(z) - 1.0) for z in roots))
    ok = worst < 1e-6
    report(6, ok, f"staircase roots k=1..8 on the unit circle, worst modulus deviation {worst:.2e} < 1e-6")
    assert ok


@pytest.mark.xfail(
    strict=False,
    reason="unattainable as stated: for this family P_k(z) = h_k(z,1)^2, whose roots lie "
    "exactly on the unit circle for every k, so the deviation series is floating-point "
    "noise; deviation(1) is exactly 0.0 (double root at -1 found exactly) and no value "
    "can be strictly smaller.  See the decisions ledger.",
)
def test_criterion_07_deviation_trend():
    seq = build_sequence(P(), P(), P(2, 1), P(1), 2)
    result = limit_experiment(seq, [1.0], 10)
    devs = [f"{c.deviation:.2e}" for c in result.clouds]
    ok = result.trend_ok
    report(7, ok, f"deviation trend for kappa=[] lambda=[] mu=[2,1] nu=[1] n=2: series {devs}; "
                  f"deviation(10) < deviation(1) is {ok}")
    assert ok, "deviation(kmax) is not strictly below deviation(1)"


def test_criterion_08_minimality_evidence(battery_results):
    checked = 0
    for res in battery_results:
        assert res.verified, res.label
        assert res.minimal_weights is not None, res.label
        assert res.divides_chi, f"minimal poly does not divide chi: {res.label}"
        assert res.perm_invariant, f"root set not permutation-invariant: {res.label}"
        assert all(deg == res.minimal_degree for deg in res.bm_degrees), (
            f"Berlekamp-Massey degrees {res.bm_degrees} != {res.minimal_degree}: {res.label}"
        )
        checked += 1
    report(8, True, f"minimality evidence on {checked} families: exact divisor, "
                    "permutation-invariant roots, BM degree match on 3 specializations")


def test_criterion_09_conjecture_scan(tmp_path):
    refuted = []
    scanned = 0
    for n in (1, 2, 3):
        for mu, nu in skew_pairs(4, n):
            reportobj = conjecture_check(P(), P(), mu, nu, n)
            scanned += 1
            if reportobj.verdict != "SUPPORTED":
                refuted.append(reportobj)
    if refuted:
        import json

        cert_path = tmp_path / "conjecture_refutations.json"
        cert_path.write_text(json.dumps([r.to_json_obj() for r in refuted], indent=2))
        report(9, False, f"conjecture scan: {len(refuted)}/{scanned} families not SUPPORTED; "
                         f"certificate at {cert_path}")
        pytest.xfail(f"genuine refutation certificates recorded at {cert_path}")
    report(9, True, f"conjecture scan: all {scanned} families SUPPORTED")


def test_criterion_10_kostka_suite():
    shapes = list(starmap(SkewShape, skew_pairs(4, 3)))
    sym_checks = trip_checks = witness_checks = 0
    for shape in shapes:
        boxes = shape.num_boxes
        for w in product(range(boxes + 1), repeat=3):
            if sum(w) != boxes:
                continue
            value = kostka(shape, w)
            assert value == kostka(shape, sort_decreasing(w))
            sym_checks += 1
            if value > 0:
                for k in (1, 2, 3):
                    witness = stretch_positivity_check(shape, w, k)
                    assert is_valid_ssyt(witness)
                    assert witness.shape.outer == scale(k, shape.outer)
                    assert witness.shape.inner == scale(k, shape.inner)
                    assert weight(witness) == tuple(k * x for x in w)
                    witness_checks += 1
        assert kostka(shape, (boxes + 1,) + (0,) * 2) == 0  # weight mismatch
    for shape in starmap(SkewShape, skew_pairs(6, 3)):
        for n in (2, 3, 4):
            coeffs = schur_in_m_basis(shape, n)
            assert m_basis_reconstruction(coeffs, n) == skew_schur(shape, n)
            trip_checks += 1
    report(10, True, f"kostka suite: {sym_checks} symmetry checks, {trip_checks} m-basis "
                     f"round trips, {witness_checks} stretch witnesses, all exact")


def test_criterion_11_polynomiality():
    degrees = {}
    for n in (2, 3):
        rep = polynomiality_check(P(2, 1), P(1), n, 12)
        assert rep.verdict.startswith("POLYNOMIAL"), rep.verdict
        assert rep.degree is not None and rep.degree + 2 <= 12
        # differences beyond the reported degree vanish identically
        diffs = list(rep.counts)
        for _ in range(rep.degree + 1):
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        assert all(d == 0 for d in diffs)
        degrees[n] = rep.degree
    report(11, True, f"polynomiality of filling counts for mu=[2,1] nu=[1]: "
                     f"degree {degrees[2]} (n=2), degree {degrees[3]} (n=3), k<=12")
