"""Opt-in four-letter battery: the Theorem-1 recurrence and the minimal-root
conjecture on n = 4 families with |mu| <= 3 and small base shapes.  Every
term comes from the dense int64 weight tables.  The tests carry the `n4`
marker, which pytest.ini deselects by default; run them with `pytest -m n4`.
"""
import numpy as np
import pytest

from battery import skew_pairs
from schurrec.partitions import Partition, stretch_condition
from schurrec.recurrence import build_sequence, char_poly, conjecture_check, verify_certificate

pytestmark = pytest.mark.n4

N = 4
P = Partition
BASES = [(P(), P()), (P([1]), P()), (P([1, 1]), P([1]))]  # includes kappa=[1], mu=[2,1]
FAMILIES = [
    (kappa, lam, mu, nu)
    for mu, nu in skew_pairs(3, N)
    for kappa, lam in BASES
    if stretch_condition(kappa, lam, mu, nu) is not None
]
IDS = [f"kappa={k} lambda={l} mu={m} nu={v}" for k, l, m, v in FAMILIES]


@pytest.mark.parametrize("kappa,lam,mu,nu", FAMILIES, ids=IDS)
def test_theorem_one(kappa, lam, mu, nu):
    seq = build_sequence(kappa, lam, mu, nu, N)
    chi = char_poly(mu, nu, N)
    count = chi.degree + 3
    assert all(isinstance(form, np.ndarray) for form in seq.window(seq.r, count + chi.degree))
    assert verify_certificate(seq, chi, seq.r, count).ok


@pytest.mark.parametrize("kappa,lam,mu,nu", FAMILIES, ids=IDS)
def test_conjecture(kappa, lam, mu, nu):
    assert conjecture_check(kappa, lam, mu, nu, N).verdict == "SUPPORTED"
