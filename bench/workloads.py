"""The benchmark's workloads: seeded inputs, the op each one times, and the
checks run on every op's output outside the timed region.

Both workloads are closed loops with one client.  A run makes its inputs
from the seed and times them in passes, each in a seeded order.

library runs the public API on families of three kinds: a digest of the
Theorem-1 battery (n <= 3, dense tables and recurrence residuals), a digest
of the n = 4 families the dense engine cannot serve (tableau enumeration
and polynomial products), and limit_experiment root clouds (Aberth root
finding).  Single ops differ in cost by three orders of magnitude, so each
digest is the same spread over its pool's cost range in every run: the pool
sorted by a cost estimate, cut into equal blocks, the middle item of each.
The parameters that move an op's cost are fixed too, so every run times the
same work; every pass runs every input once, and the seed sets the order of
each pass and what the checks sample.

cli-cold runs one fresh `python -m schurrec.cli` per op: each pass is the 13
golden commands plus one newly seeded command of each kind.
"""
from __future__ import annotations

import cmath
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from functools import lru_cache
from itertools import product
from pathlib import Path

from schurrec import asymptotics, recurrence
from schurrec.partitions import (
    Partition,
    contains,
    format_partition,
    partitions_up_to,
    stretch_condition,
)
from schurrec.recurrence import CharPoly
from schurrec.tableaux import SkewShape, enumerate_tableaux

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
GOLDEN = ROOT / "tests" / "golden"
EMPTY = Partition()

# Pool definitions (also recorded in BENCHMARK.json and CHANGES.md).
BATTERY_MAX_MU_WEIGHT = 4  # the Theorem-1 battery: |mu| <= 4, bases with parts <= 2, n <= 3
BATTERY_MAX_BASE_PART = 2
WIDE_N = 4  # n = 4, |mu| <= 4, chi degree <= 6, empty bases
WIDE_MAX_DEGREE = 6
ROOTS_TARGET_DEGREE = 28  # kmax is the first k whose specialized degree reaches this
ROOTS_RADIUS = (0.8, 1.25)
# families of each kind in a library run
LIBRARY_BATTERY = 40
LIBRARY_WIDE = 11
LIBRARY_ROOTS = 21


@lru_cache(maxsize=None)
def chi_degree(mu: Partition, nu: Partition, n: int) -> int:
    return len(enumerate_tableaux(SkewShape(mu, nu), n))


def cost_digest(pool, cost, size: int) -> list:
    """size pool items spread evenly over the cost range: the pool sorted by
    cost is cut into size equal blocks and the middle item of each is taken."""
    ordered = sorted(pool, key=lambda item: (cost(item), repr(item)))
    count = len(ordered)
    return [ordered[(2 * i + 1) * count // (2 * size)] for i in range(size)]


# ---------------------------------------------------------------------------
# battery and wide families: one op builds, verifies and minimizes one family


def battery_pool() -> list[tuple]:
    pool = []
    for n in (1, 2, 3):
        bases = partitions_up_to(BATTERY_MAX_BASE_PART * n, n, max_part=BATTERY_MAX_BASE_PART)
        for mu in partitions_up_to(BATTERY_MAX_MU_WEIGHT, n):
            for nu in partitions_up_to(mu.weight, n):
                if not contains(mu, nu):
                    continue
                for kappa, lam in product(bases, bases):
                    if stretch_condition(kappa, lam, mu, nu) is not None:
                        pool.append((kappa, lam, mu, nu, n))
    return pool


def wide_pool() -> list[tuple]:
    """The families s_{k*mu/k*nu} in n = 4 letters with |mu| <= 4 and chi
    degree <= 6.  Nonempty bases are left out: with them a single degree-6
    family takes up to 11 s, too long for a steady sample in one run."""
    n = WIDE_N
    return [
        (EMPTY, EMPTY, mu, nu, n)
        for mu in partitions_up_to(BATTERY_MAX_MU_WEIGHT, n)
        for nu in partitions_up_to(mu.weight, n)
        if contains(mu, nu) and chi_degree(mu, nu, n) <= WIDE_MAX_DEGREE
    ]


def family_cost(fam) -> int:
    """Work estimate for one family op: the greedy runs about d^2 residual
    windows over indices r .. r+2d+2, each as large as the weight tables of
    its terms, (boxes+1)^(n-1) cells."""
    kappa, lam, mu, nu, n = fam
    d = chi_degree(mu, nu, n)
    seq = recurrence.build_sequence(kappa, lam, mu, nu, n)
    cells = sum((seq.boxes_at(k) + 1) ** (n - 1) for k in range(seq.r, seq.r + 2 * d + 3))
    return (d + 1) ** 2 * cells


def family_input(fam, fixed: random.Random, rng: random.Random) -> dict:
    """minimal_report's seed (its specialization points move the op's cost)
    is drawn from `fixed`, the check's sample index and point from `rng`."""
    n = fam[4]
    return {
        "family": fam,
        "seed": fixed.randrange(1 << 30),
        "check_offset": rng.random(),
        "point": tuple(rng.randrange(2, 10) for _ in range(n)),
    }


def family_op(inp: dict):
    kappa, lam, mu, nu, n = inp["family"]
    seq = recurrence.build_sequence(kappa, lam, mu, nu, n)
    chi = recurrence.char_poly(mu, nu, n)
    cert = recurrence.verify_certificate(seq, chi, seq.r, chi.degree + 3)
    rep = recurrence.minimal_report(seq, chi, seed=inp["seed"])
    return seq, chi, cert, rep


def divides(minimal_weights, chi: CharPoly) -> bool:
    """The minimal root multiset embeds in chi's, and restoring the quotient
    roots rebuilds chi's coefficients exactly."""
    remaining = Counter(chi.root_weights)
    for w in minimal_weights:
        if remaining[w] <= 0:
            return False
        remaining[w] -= 1
    rebuilt = CharPoly.from_root_weights(list(minimal_weights) + list(remaining.elements()), chi.nvars)
    return rebuilt.coeffs == chi.coeffs


def check_family(inp: dict, out) -> str | None:
    seq, chi, cert, rep = out
    if not cert.ok:
        return f"recurrence refuted at k={cert.failed_k}"
    degree = len(rep.weights)
    if rep.char_poly.degree != degree or any(b != degree for b in rep.bm_degrees):
        return f"Berlekamp-Massey degrees {rep.bm_degrees} differ from minimal degree {degree}"
    if not divides(rep.weights, chi):
        return "minimal root multiset does not divide chi"
    k = seq.r + int(inp["check_offset"] * (chi.degree + 3))
    point = inp["point"]
    if seq.term(k).eval(point) != seq.eval_at(k, point):
        return f"term {k} disagrees with Jacobi-Trudi at {point}"
    return None


# ---------------------------------------------------------------------------
# root clouds: one op is one limit_experiment


def roots_pool() -> list[tuple]:
    """Families s_k = s_{k*mu/k*nu} in n = 2, 3 letters whose specialized
    degree grows with k, each with the kmax that first reaches the target."""
    pool = []
    for n in (2, 3):
        for mu in partitions_up_to(BATTERY_MAX_MU_WEIGHT, n):
            for nu in partitions_up_to(mu.weight, n):
                if mu == nu or not contains(mu, nu):
                    continue
                seq = recurrence.build_sequence(EMPTY, EMPTY, mu, nu, n)
                low, high = seq.term(4).degree_in(0), seq.term(8).degree_in(0)
                if high <= low:
                    continue
                slope = (high - low) / 4
                kmax = max(1, 8 + math.ceil((ROOTS_TARGET_DEGREE - high) / slope))
                pool.append((mu, nu, n, kmax))
    return pool


def roots_inputs(pool, rng: random.Random) -> list[dict]:
    """One op per pool family, with radii spread evenly over ROOTS_RADIUS
    and dealt in shuffled order, and random phases."""
    lo, hi = ROOTS_RADIUS
    count = len(pool)
    radii = [lo + (hi - lo) * (i + 0.5) / count for i in range(count)]
    rng.shuffle(radii)
    return [roots_input(item, radius, rng) for item, radius in zip(pool, radii)]


def roots_input(item, radius: float, rng: random.Random) -> dict:
    mu, nu, n, kmax = item
    xi = tuple(radius * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi)) for _ in range(n - 1))
    return {"family": (EMPTY, EMPTY, mu, nu, n), "xi": xi, "kmax": kmax}


def roots_op(inp: dict):
    kappa, lam, mu, nu, n = inp["family"]
    seq = recurrence.build_sequence(kappa, lam, mu, nu, n)
    return seq, asymptotics.limit_experiment(seq, inp["xi"], inp["kmax"])


def check_roots(inp: dict, out) -> str | None:
    seq, result = out
    if [c.k for c in result.clouds] != list(range(1, inp["kmax"] + 1)):
        return "missing root clouds"
    for cloud in result.clouds:
        degree = asymptotics.specialize(seq, cloud.k, inp["xi"]).degree
        if len(cloud.roots) != degree:
            return f"cloud {cloud.k} has {len(cloud.roots)} roots for degree {degree}"
    return None


# ---------------------------------------------------------------------------
# library: the three kinds of op above, in one process


def library_inputs(rng: random.Random) -> list[dict]:
    """Every parameter that moves an op's cost (minimal_report's seed, the
    root clouds' radii and phases) comes from one fixed stream, so every run
    times the same work; the seed sets what the checks sample."""
    fixed = random.Random(0)
    battery = cost_digest(battery_pool(), family_cost, LIBRARY_BATTERY)
    wide = cost_digest(wide_pool(), family_cost, LIBRARY_WIDE)
    roots = cost_digest(roots_pool(), lambda item: (item[2], item[3]), LIBRARY_ROOTS)
    inputs = [{"kind": "battery", **family_input(fam, fixed, rng)} for fam in battery]
    inputs += [{"kind": "wide", **family_input(fam, fixed, rng)} for fam in wide]
    inputs += [{"kind": "roots", **inp} for inp in roots_inputs(roots, fixed)]
    return inputs


def library_op(inp: dict):
    return roots_op(inp) if inp["kind"] == "roots" else family_op(inp)


def check_library(inp: dict, out) -> str | None:
    return check_roots(inp, out) if inp["kind"] == "roots" else check_family(inp, out)


# ---------------------------------------------------------------------------
# cli-cold: one op is one fresh `python -m schurrec.cli` process

# The golden commands of tests/test_cli.py, copied so that the benchmark's op
# mix stays fixed when the tests change.
GOLDEN_CASES = [
    ("tableaux.json", ["tableaux", "--outer", "[2,1]", "--n", "2"]),
    ("tableaux.txt", ["tableaux", "--outer", "[2,2]", "--inner", "[1]", "--n", "2", "--format", "pretty"]),
    ("schur.txt", ["schur", "--outer", "[1]", "--n", "2"]),
    ("schur.json", ["schur", "--outer", "[2,2]", "--inner", "[1]", "--n", "2", "--format", "json"]),
    (
        "insert.json",
        [
            "insert",
            "--t1", '{"outer":[1],"inner":[],"n":2,"rows":[[2]]}',
            "--t2", '{"outer":[2],"inner":[1],"n":2,"rows":[[1]]}',
        ],
    ),
    ("char_poly.json", ["char-poly", "--mu", "[1]", "--nu", "[]", "--n", "2"]),
    ("verify.json", ["verify", "--mu", "[1]", "--nu", "[]", "--n", "2", "--count", "6"]),
    ("minimal.json", ["minimal", "--mu", "[2,1]", "--nu", "[]", "--n", "3", "--seed", "7"]),
    ("kostka.txt", ["kostka", "--outer", "[2,1]", "--weight", "[1,1,1]"]),
    ("m_basis.json", ["m-basis", "--outer", "[2,1]", "--n", "3"]),
    ("conjecture.json", ["conjecture", "--mu", "[2,1]", "--nu", "[]", "--n", "3", "--seed", "3"]),
    ("polynomiality.json", ["polynomiality", "--mu", "[2,1]", "--nu", "[1]", "--n", "2", "--kmax", "10"]),
    ("roots.csv", ["roots", "--mu", "[2,1]", "--nu", "[]", "--n", "3", "--xi-radius", "1", "--kmax", "4"]),
]

CLI_FAMILY_DEGREES = (8, 9, 10)  # mid-size verify / minimal / conjecture families
CLI_ROOTS_TARGET_DEGREE = 20


def cli_pools() -> dict[str, list]:
    families = [
        fam for fam in battery_pool()
        if fam[4] == 3 and chi_degree(fam[2], fam[3], 3) in CLI_FAMILY_DEGREES
    ]
    classes = sorted({(mu, nu) for _, _, mu, nu, _ in families}, key=repr)
    roots = [
        (mu, nu, n, max(1, round(kmax * CLI_ROOTS_TARGET_DEGREE / ROOTS_TARGET_DEGREE)))
        for mu, nu, n, kmax in roots_pool() if n == 3 and nu == EMPTY
    ]
    return {"verify": families, "minimal": families, "conjecture": classes, "roots": roots}


def _family_args(kappa, lam, mu, nu, n) -> list[str]:
    return [
        "--kappa", format_partition(kappa), "--lambda", format_partition(lam),
        "--mu", format_partition(mu), "--nu", format_partition(nu), "--n", str(n),
    ]


def cli_input(kind: str, item, rng: random.Random) -> dict:
    if kind == "golden":
        name, args = item
        return {"kind": kind, "args": args, "golden": name}
    if kind == "verify":
        return {"kind": kind, "args": ["verify", *_family_args(*item)]}
    if kind == "minimal":
        return {"kind": kind, "args": ["minimal", *_family_args(*item), "--seed", str(rng.randrange(1000))]}
    if kind == "conjecture":
        mu, nu = item
        return {"kind": kind, "args": ["conjecture", *_family_args(EMPTY, EMPTY, mu, nu, 3),
                                       "--seed", str(rng.randrange(1000))]}
    mu, nu, n, kmax = item
    radius = round(rng.uniform(*ROOTS_RADIUS), 3)
    return {
        "kind": kind,
        "args": ["roots", *_family_args(EMPTY, EMPTY, mu, nu, n), "--xi-radius", str(radius), "--kmax", str(kmax)],
        "family": (EMPTY, EMPTY, mu, nu, n),
        "kmax": kmax,
    }


def cli_passes(rng: random.Random):
    """Endless passes, each the 13 golden commands and one newly seeded
    mid-size verify, minimal, conjecture and roots command, in seeded order."""
    pools = cli_pools()
    while True:
        ops = [cli_input("golden", case, rng) for case in GOLDEN_CASES]
        ops += [cli_input(kind, rng.choice(pool), rng) for kind, pool in pools.items()]
        rng.shuffle(ops)
        yield ops


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(cmd: list[str], stdin: bytes | None = None) -> tuple[int, bytes, bytes]:
    """Run one child to completion with src/ on its path; returns (exit
    code, stdout, stderr)."""
    proc = subprocess.run(cmd, input=stdin, capture_output=True, cwd=ROOT, env=child_env())
    return proc.returncode, proc.stdout, proc.stderr


def cli_command(inp: dict, traced: bool) -> list[str]:
    if traced:
        return [sys.executable, str(BENCH / "cli_child.py"), *inp["args"]]
    return [sys.executable, "-m", "schurrec.cli", *inp["args"]]


def check_cli(inp: dict, out) -> str | None:
    code, stdout, stderr = out
    kind = inp["kind"]
    if code != 0:
        return f"exit code {code}: {stderr.decode(errors='replace').strip()[-200:]}"
    if kind == "golden":
        if stdout != (GOLDEN / inp["golden"]).read_bytes():
            return f"output differs from golden {inp['golden']}"
        return None
    if kind == "roots":
        rows = stdout.decode().splitlines()[2:]
        per_k = Counter(int(row.split(",", 1)[0]) for row in rows)
        seq = recurrence.build_sequence(*inp["family"])
        for k in range(1, inp["kmax"] + 1):
            if per_k[k] != seq.term(k).degree_in(0):
                return f"roots: cloud {k} has {per_k[k]} roots"
        return None
    payload = json.loads(stdout)
    if kind == "verify":
        if payload["ok"] is not True or payload["verified_upto"] != payload["start"] + payload["degree"] + 2:
            return "verify: recurrence not verified over deg+3 indices"
    elif kind == "minimal":
        degree = payload["minimal_degree"]
        if len(payload["W"]) != degree or payload["bm_degrees"] != [degree] * 3 or payload["verified_upto"] is None:
            return "minimal: degrees disagree"
    elif payload["conjecture"] != "SUPPORTED" or payload["minimal_matches"] is not True:
        return f"conjecture: {payload['conjecture']}"
    return None
