"""Golden-file coverage for every CLI subcommand, plus the exit-code contract.

Each golden run is executed twice to pin byte-identical determinism.
"""
import hashlib
import json
import math
import os
import pathlib
import resource
import subprocess
import sys
import time

import pytest

from schurrec import cli, polynomials, recurrence
from schurrec.asymptotics import RootConvergenceError

GOLDEN = pathlib.Path(__file__).parent / "golden"

CASES = [
    ("tableaux.json", ["tableaux", "--outer", "[2,1]", "--n", "2"], 0),
    ("tableaux.txt", ["tableaux", "--outer", "[2,2]", "--inner", "[1]", "--n", "2", "--format", "pretty"], 0),
    ("schur.txt", ["schur", "--outer", "[1]", "--n", "2"], 0),
    ("schur.json", ["schur", "--outer", "[2,2]", "--inner", "[1]", "--n", "2", "--format", "json"], 0),
    (
        "insert.json",
        [
            "insert",
            "--t1", '{"outer":[1],"inner":[],"n":2,"rows":[[2]]}',
            "--t2", '{"outer":[2],"inner":[1],"n":2,"rows":[[1]]}',
        ],
        0,
    ),
    ("char_poly.json", ["char-poly", "--mu", "[1]", "--nu", "[]", "--n", "2"], 0),
    ("verify.json", ["verify", "--mu", "[1]", "--nu", "[]", "--n", "2", "--count", "6"], 0),
    ("minimal.json", ["minimal", "--mu", "[2,1]", "--nu", "[]", "--n", "3", "--seed", "7"], 0),
    # chi of degree 42 whose residual chain runs in int64 only under the
    # largest-entry bound
    ("verify_long_chain.json", ["verify", "--mu", "[5,2]", "--nu", "[]", "--n", "3"], 0),
    ("kostka.txt", ["kostka", "--outer", "[2,1]", "--weight", "[1,1,1]"], 0),
    ("m_basis.json", ["m-basis", "--outer", "[2,1]", "--n", "3"], 0),
    ("conjecture.json", ["conjecture", "--mu", "[2,1]", "--nu", "[]", "--n", "3", "--seed", "3"], 0),
    # two rows that share no column: 6 of the 12 stated roots are minimal, so
    # the certificate of REFUTED-MINIMALITY, exit 2
    ("conjecture_refuted.json", ["conjecture", "--mu", "[4,2]", "--nu", "[2]", "--n", "3", "--seed", "1"], 2),
    # a forced r = 0 is refuted at the first index: the residual is the
    # certificate, exit 2
    (
        "verify_refuted.json",
        ["verify", "--kappa", "[1,1]", "--mu", "[2]", "--nu", "[1]", "--n", "3", "--r-override", "0", "--count", "2"],
        2,
    ),
    # the same at n = 5, where the terms come from the tableau walk
    (
        "verify_refuted_n5.json",
        ["verify", "--kappa", "[1,1]", "--mu", "[2]", "--nu", "[1]", "--n", "5", "--r-override", "0", "--count", "2"],
        2,
    ),
    ("polynomiality.json", ["polynomiality", "--mu", "[2,1]", "--nu", "[1]", "--n", "2", "--kmax", "10"], 0),
    ("roots.csv", ["roots", "--mu", "[2,1]", "--nu", "[]", "--n", "3", "--xi-radius", "1", "--kmax", "4"], 0),
    # the other format of commands that render two
    (
        "insert.txt",
        [
            "insert",
            "--t1", '{"outer":[1],"inner":[],"n":2,"rows":[[2]]}',
            "--t2", '{"outer":[2],"inner":[1],"n":2,"rows":[[1]]}',
            "--format", "pretty",
        ],
        0,
    ),
    ("char_poly.txt", ["char-poly", "--mu", "[2,1]", "--nu", "[]", "--n", "2", "--format", "pretty"], 0),
    ("kostka.json", ["kostka", "--outer", "[2,1]", "--weight", "[1,1,1]", "--format", "json"], 0),
    ("m_basis.txt", ["m-basis", "--outer", "[2,1]", "--n", "3", "--format", "pretty"], 0),
    (
        "roots.json",
        ["roots", "--mu", "[2,1]", "--nu", "[]", "--n", "3", "--xi-radius", "1", "--kmax", "4", "--format", "json"],
        0,
    ),
]

# The formats each command renders; any other --format is a usage error.
FORMATS = {
    "tableaux": {"json", "pretty"},
    "schur": {"json", "pretty"},
    "insert": {"json", "pretty"},
    "char-poly": {"json", "pretty"},
    "kostka": {"json", "pretty"},
    "m-basis": {"json", "pretty"},
    "verify": {"json"},
    "minimal": {"json"},
    "conjecture": {"json"},
    "polynomiality": {"json"},
    "roots": {"csv", "json"},
}

T_GOOD = '{"outer":[1],"n":2,"rows":[[1]]}'

# (argv, text the one stderr error line must contain)
BAD_INVOCATIONS = [
    (["tableaux", "--outer", "[2]", "--n", "0"], "argument --n"),
    (["m-basis", "--outer", "[2]", "--n", "0"], "argument --n"),
    (["polynomiality", "--mu", "[1]", "--n", "0", "--kmax", "3"], "argument --n"),
    (["schur", "--outer", "[1]", "--n", "-1"], "argument --n"),
    (["schur", "--outer", "[1]", "--n", "abc"], "argument --n: expected a positive integer, got 'abc'"),
    (["verify", "--mu", "[1]", "--n", "0"], "argument --n"),
    (["conjecture", "--mu", "[1]", "--n", "2", "--count", "-2"], "argument --count"),
    (["verify", "--mu", "[1]", "--n", "2", "--count", "0"], "argument --count"),
    (["minimal", "--mu", "[1]", "--n", "2", "--count", "0"], "argument --count"),
    (["verify", "--mu", "[1]", "--n", "2", "--r-override", "-1"], "argument --r-override"),
    (["roots", "--mu", "[1]", "--n", "2", "--xi-radius", "1", "--kmax", "0"], "argument --kmax: expected a positive integer, got 0"),
    (["polynomiality", "--mu", "[1]", "--n", "2", "--kmax", "-1"], "argument --kmax: expected a nonnegative integer, got -1"),
    (["insert", "--t1", "{}", "--t2", T_GOOD], "missing or mistyped outer, n, rows"),
    (["insert", "--t1", "[1]", "--t2", T_GOOD], "must be a JSON object"),
    (["insert", "--t1", '{"outer":[1],"n":"2","rows":[[1]]}', "--t2", T_GOOD], "missing or mistyped n"),
    (["insert", "--t1", '{"outer":[1],"n":2,"rows":[[3]]}', "--t2", T_GOOD], "not a semistandard tableau"),
    (["tableaux", "--outer", "[1]", "--n", "2", "--format", "csv"], "argument --format"),
    (["verify", "--mu", "[1]", "--n", "2", "--format", "csv"], "argument --format"),
    (["roots", "--mu", "[1]", "--n", "2", "--xi-radius", "1", "--format", "pretty"], "argument --format"),
    (["schur", "--outer", "[1]", "--n", "2", "--output", "/nonexistent/dir/x.txt"], "cannot write --output"),
    (["roots", "--mu", "[1]", "--n", "2", "--kmax", "2"], "exactly one of --xi / --xi-radius is required"),
    (["roots", "--mu", "[1]", "--n", "2", "--xi", "1", "--xi-radius", "1", "--kmax", "2"], "exactly one of --xi / --xi-radius is required"),
    # three rows over two letters: every term is zero
    (["roots", "--mu", "[1,1,1]", "--n", "2", "--xi-radius", "1", "--kmax", "2"], "term 1 is the zero polynomial"),
    # s_k(x1, 0, 0) of two rows is zero, though s_k is not
    (["roots", "--mu", "[1,1]", "--n", "3", "--xi-radius", "0", "--kmax", "2"], "specialized term 1 vanished identically"),
    (["roots", "--mu", "[1]", "--n", "2", "--xi-radius", "nan", "--kmax", "2"], "xi must be finite"),
    (["roots", "--mu", "[1]", "--n", "2", "--xi-radius", "inf", "--kmax", "2"], "xi must be finite"),
    (["roots", "--mu", "[1]", "--n", "3", "--xi", "1,nan", "--kmax", "2"], "xi must be finite"),
    # finite, but its modulus is past the largest float
    (["roots", "--mu", "[1]", "--n", "2", "--xi", "1.5e308+1.5e308j", "--kmax", "1"], "the modulus of an xi exceeds the float range"),
    (["roots", "--mu", "[1]", "--n", "2", "--xi", "1+", "--kmax", "2"], "argument --xi: expected a complex number, got '1+'"),
    (["roots", "--mu", "[1]", "--n", "2", "--xi", "abc", "--kmax", "2"], "argument --xi: expected a complex number, got 'abc'"),
    (["roots", "--mu", "[1]", "--n", "3", "--xi", "1,,1", "--kmax", "1"], "argument --xi: expected a complex number, got ''"),
    (["kostka", "--outer", "[2,1]", "--weight", "[1,,1]"], "argument --weight: expected an integer, got ''"),
    (["char-poly", "--mu", "[1,,2]", "--n", "2"], "argument --mu: expected an integer, got ''"),
    (["kostka", "--outer", "[2,1]", "--weight", "1.5"], "argument --weight: expected an integer, got '1.5'"),
    # 100000 columns at k = kmax: refused before any table is built
    (["roots", "--mu", "[1]", "--n", "2", "--xi-radius", "1", "--kmax", "100000"], "kmax=100000 (100000 nonempty columns in term 100000) is refused: its predicted size 100001 is over the coefficient cap 5000"),
    # the column count reads the rows, not the columns, so a huge kmax is refused at once too
    (["roots", "--mu", "[1]", "--n", "2", "--xi-radius", "1", "--kmax", str(10**12)], f"kmax={10**12} ({10**12} nonempty columns in term {10**12}) is refused"),
    # 32 disjoint boxes over 4 letters: 2^64 fillings, refused before any table or tableau
    (
        ["verify", "--kappa", str(list(range(32, 0, -1))), "--lambda", str(list(range(31, 0, -1))), "--mu", "[]", "--n", "4"],
        f"{1 << 64} fillings reach the int64 limit {1 << 63}",
    ),
    # the same at n = 5, beyond the dense engine: 5^32 fillings, refused
    # before the tableau walk
    (
        ["verify", "--kappa", str(list(range(32, 0, -1))), "--lambda", str(list(range(31, 0, -1))), "--mu", "[]", "--n", "5"],
        f"{5 ** 32} fillings reach the int64 limit {1 << 63}",
    ),
]


def run_cli(args, **options):
    return subprocess.run(
        [sys.executable, "-m", "schurrec.cli", *args],
        capture_output=True,
        text=True,
        **options,
    )


@pytest.mark.parametrize("golden,args,code", CASES, ids=[c[0] for c in CASES])
def test_golden(golden, args, code):
    expected = (GOLDEN / golden).read_text()
    first = run_cli(args)
    second = run_cli(args)
    assert first.returncode == code, first.stderr
    assert first.stdout == expected
    assert second.stdout == first.stdout  # byte-identical reruns


def _dispatched_cpu_features():
    """The CPU features beyond its baseline that numpy dispatches to here."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return [name for name in getattr(umath, "__cpu_dispatch__", []) if umath.__cpu_features__.get(name)]


def test_roots_golden_on_the_baseline_instruction_set():
    # the root finder uses only float64 + - * / and hypot, whose bits no
    # SIMD dispatch changes; with CI's older numpy this pins the roots
    # across dispatch and numpy version
    features = _dispatched_cpu_features()
    if not features:
        pytest.skip("numpy dispatches to no feature beyond its baseline here")
    golden, args, _ = next(case for case in CASES if case[0] == "roots.csv")
    result = run_cli(args, env={**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(features)})
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN / golden).read_text()


def _answered_at_once(argv):
    """The stdout of argv run under the 1 GiB cap, which exits 0 within a second."""
    began = time.perf_counter()
    result = run_cli(argv, preexec_fn=_cap_address_space)
    elapsed = time.perf_counter() - began
    assert result.returncode == 0, result.stderr
    assert elapsed < 1.0
    return result.stdout


def test_golden_verify_from_a_wide_base_answers_at_once():
    # start index 2999, bisected over column blocks; the pinned bytes are those of a scan
    # over every index
    argv = ["verify", "--kappa", "[3000]", "--lambda", "[2999]", "--mu", "[1,1]", "--n", "2"]
    assert hashlib.sha256(_answered_at_once(argv).encode()).hexdigest() == (
        "01157fe1ad5d2c31b9ecd9b2b2933be3fae3f9df93b3fd06127d599d1687e8f4"
    )


def test_golden_verify_in_one_letter_from_a_billion_answers_at_once():
    # one cell per term at n = 1: the window is priced by its tables alone, however far it starts
    argv = ["verify", "--mu", "[1]", "--n", "1", "--r-override", "1000000000"]
    report = json.loads(_answered_at_once(argv))
    assert report["ok"] is True and report["verified_upto"] == 1000000003


def test_golden_written_to_output(tmp_path):
    # --output writes the golden bytes and prints nothing
    path = tmp_path / "verify.json"
    result = run_cli(["verify", "--mu", "[1]", "--nu", "[]", "--n", "2", "--count", "6", "--output", str(path)])
    assert result.returncode == 0, result.stderr
    assert result.stdout == ""
    assert path.read_bytes() == (GOLDEN / "verify.json").read_bytes()


class TestExitCodes:
    def test_success_is_zero(self):
        assert run_cli(["schur", "--outer", "[1]", "--n", "2"]).returncode == 0

    def test_usage_error_is_one(self):
        result = run_cli(["schur", "--outer", "[1]"])  # missing --n
        assert result.returncode == 1
        result = run_cli(["schur", "--outer", "oops", "--n", "2"])
        assert result.returncode == 1
        result = run_cli(["verify", "--mu", "[1,1]", "--nu", "[1,1]", "--lambda", "[1]", "--n", "2"])
        assert result.returncode == 1  # no stretch factor: invalid family

    @pytest.mark.parametrize(
        "family,radius,kmax",
        [
            (["--mu", "[2]", "--n", "2"], "10", "8"),
            (["--mu", "[1,1]", "--n", "2"], "1e-3", "5"),
            (["--mu", "[2]", "--n", "2"], "1e-9", "2"),
            (["--mu", "[2,1]", "--n", "3"], "1e-200", "1"),
            (["--mu", "[2,1]", "--n", "3"], "1e200", "3"),
        ],
        ids=["radius-10", "radius-1e-3", "radius-1e-9", "radius-1e-200", "radius-1e200"],
    )
    def test_roots_at_any_radius_is_zero(self, family, radius, kmax):
        def rows(r):
            result = run_cli(["roots", *family, "--xi-radius", r, "--kmax", kmax])
            assert result.returncode == 0, result.stderr
            return [line.split(",") for line in result.stdout.splitlines()[2:]]

        # real xi divided by R is exactly 1: each root is R times the root
        # in the same row of the radius-1 run
        scaled, unit = rows(radius), rows("1")
        R = float(radius)
        assert len(scaled) == len(unit) > 0
        for row, one in zip(scaled, unit):
            assert row[:2] == one[:2]
            for got, want in zip(row[2:4], one[2:4]):
                assert math.isclose(float(got), R * float(want), rel_tol=1e-14, abs_tol=1e-14 * R)

    def test_roots_accept_xi_equal_in_modulus_up_to_rounding(self):
        # |xi_1| = 10000 - 1.8e-12, one ulp below |xi_2|
        xi = "9925.46151641322+1218.6934340514747j,10000"
        result = run_cli(["roots", "--mu", "[2,1]", "--n", "3", "--xi", xi, "--kmax", "3"])
        assert result.returncode == 0, result.stderr

    def test_negative_kmax_is_a_usage_error(self):
        result = run_cli(["polynomiality", "--mu", "[1]", "--n", "2", "--kmax", "-3"])
        assert result.returncode == 1
        # the parser names the option; polynomiality_check keeps its own check
        assert result.stderr.endswith(
            "schurrec polynomiality: error: argument --kmax: expected a nonnegative integer, got -3\n"
        )

    def test_refutation_is_two(self):
        # verifying with a start index before the valid range refutes the
        # degree-0 recurrence of an empty-alphabet family
        result = run_cli(
            ["verify", "--mu", "[1,1,1]", "--nu", "[]", "--n", "2", "--r-override", "0", "--count", "1"]
        )
        assert result.returncode == 2
        payload = json.loads(result.stdout)
        assert payload["ok"] is False
        assert payload["refuted_at"] == 0
        assert payload["residual"]["terms"]

    def test_all_zero_family_minimal_is_zero(self):
        # three rows over two letters: every term is zero, so no root is needed
        result = run_cli(["minimal", "--kappa", "[1,1,1]", "--mu", "[1]", "--n", "2"])
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout)
        assert payload["minimal_degree"] == 0 and payload["W"] == []
        assert payload["removed"] == [[1, 0], [0, 1]]

    def test_all_zero_family_refutes_minimality(self):
        result = run_cli(["conjecture", "--kappa", "[1,1,1]", "--mu", "[1]", "--n", "2"])
        assert result.returncode == 2, result.stderr
        payload = json.loads(result.stdout)
        assert payload["conjecture"] == "REFUTED-MINIMALITY"
        assert payload["minimal_degree"] == 0 and payload["minimal_W"] == []

    def test_conjecture_refuted_at_an_index_is_two(self, monkeypatch, capsys):
        real = recurrence._dominating
        monkeypatch.setattr(recurrence, "_dominating", lambda *args: real(*args)[1:])
        assert cli.main(["conjecture", "--mu", "[2,1]", "--nu", "[]", "--n", "3"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["conjecture"] == "REFUTED-AT(0)" and payload["failed_k"] == 0
        assert payload["annihilates"] is False and payload["verified_upto"] is None
        assert payload["minimal_W"] is None and payload["minimal_matches"] is None
        assert len(payload["W"]) == 5

    @pytest.mark.parametrize(
        "error",
        [
            RuntimeError("decomposition does not multiply back"),
            RootConvergenceError([(0, 1j, 0.5)], 200, "stalled"),
            KeyError("n"),
        ],
        ids=["runtime", "root-convergence", "key"],
    )
    def test_internal_error_is_three(self, monkeypatch, capsys, error):
        def broken(args):
            raise error

        monkeypatch.setitem(cli._COMMANDS, "schur", broken)
        assert cli.main(["schur", "--outer", "[1]", "--n", "2"]) == cli.INTERNAL_ERROR == 3
        # a failed internal check speaks for itself; any other fault is named by its type
        kind = "" if isinstance(error, RuntimeError) else f"{type(error).__name__}: "
        assert capsys.readouterr().err == f"schurrec schur: internal error: {kind}{error}\n"


@pytest.mark.parametrize("argv,message", BAD_INVOCATIONS, ids=[f"{a[0]}: {m}" for a, m in BAD_INVOCATIONS])
def test_bad_invocation_is_one_error_line(capsys, argv, message):
    assert cli.main(argv) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and message in errors[0], captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


# windows, walks or h-tables that cannot be built: each is refused before
# anything is built
OVERSIZED = [
    ["verify", "--mu", "[1]", "--nu", "[]", "--n", "2", "--count", "1000000000"],
    ["verify", "--mu", "[1]", "--nu", "[]", "--n", "2", "--r-override", "1000000000"],
    ["minimal", "--mu", "[1]", "--nu", "[]", "--n", "2", "--count", "1000000000"],
    ["conjecture", "--mu", "[1]", "--nu", "[]", "--n", "2", "--count", "1000000000"],
    # under DEGREE_CAP columns, but one table per k
    ["roots", "--mu", "[1]", "--n", "4", "--xi-radius", "1", "--kmax", "4000"],
    ["roots", "--mu", "[2,1]", "--n", "3", "--xi-radius", "1", "--kmax", "2000"],
    # the verify window is refused before the minimal report is made
    ["minimal", "--nu", "[1]", "--n", "3", "--count", "1000000000", "--mu", "[4,2,1]"],
    # no sequence window: kmax + 1 index matrices
    ["polynomiality", "--mu", "[1]", "--n", "2", "--kmax", "1000000000"],
    # a walk over C(199, 99) fillings
    ["schur", "--outer", "[100]", "--n", "100"],
    # a billion letters: every walk is refused, and no point of n ones or n - 1 xi is built
    ["tableaux", "--outer", "[1]", "--n", "1000000000"],
    ["schur", "--outer", "[1]", "--n", "1000000000"],
    ["char-poly", "--mu", "[1]", "--n", "1000000000"],
    ["verify", "--mu", "[1]", "--n", "1000000000"],
    ["minimal", "--mu", "[1]", "--n", "1000000000"],
    ["m-basis", "--outer", "[1]", "--n", "1000000000"],
    ["conjecture", "--mu", "[1]", "--n", "1000000000"],
    ["roots", "--mu", "[1]", "--xi-radius", "1", "--n", "1000000000"],
    # one term of 2e8 weights of 2e8 exponents each: refused before the
    # 2e8 - 1 xi are built, which alone pass a 1 GiB cap
    ["roots", "--mu", "[1]", "--xi-radius", "1", "--n", "200000000", "--kmax", "1"],
    # a predicted size of 59,403 bits, named by its bits: str() of it would stop at 4300 digits
    ["roots", "--mu", "[1]", "--xi-radius", "1", "--n", "1000000000", "--kmax", "3000"],
    # walks over C(10^9 + 699, 700) fillings, about 4,600 digits: named by their bits too
    ["tableaux", "--n", "1000000000", "--outer", "[700]"],
    ["schur", "--n", "1000000000", "--outer", "[700]"],
    ["char-poly", "--n", "1000000000", "--mu", "[700]"],
    ["verify", "--n", "1000000000", "--mu", "[700]"],
    # bases 3e7 and 2e7 columns wide: the start index is bisected over a few column blocks,
    # never one run per column, and the window is refused
    ["verify", "--mu", "[1]", "--n", "3", "--kappa", "[30000000]"],
    ["minimal", "--mu", "[1]", "--n", "3", "--kappa", "[20000000,1]"],
    # start index 29999, found in about 15 checks of a few column blocks each
    ["verify", "--kappa", "[30000]", "--mu", "[1,1]", "--n", "3", "--lambda", "[29999]"],
    # a window of five tables of 10^6 cells, but each point's h-table runs to h_1000007
    ["minimal", "--mu", "[1]", "--n", "2", "--kappa", "[1000000]"],
]


def _cap_address_space():
    # in the child only: a build that starts runs out of memory at once
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _refused_at_once(argv, **options):
    """The one error line of argv run under the 1 GiB cap, which exits 1 within a second."""
    began = time.perf_counter()
    result = run_cli(argv, preexec_fn=_cap_address_space, **options)
    elapsed = time.perf_counter() - began
    errors = [line for line in result.stderr.splitlines() if "error:" in line]
    assert result.returncode == cli.USAGE_ERROR, result.stderr
    assert len(errors) == 1 and "Traceback" not in result.stderr, result.stderr
    assert "Exceeds the limit" not in result.stderr
    assert elapsed < 1.0
    return errors[0]


@pytest.mark.parametrize("argv", OVERSIZED, ids=[" ".join(a[:1] + a[-2:]) for a in OVERSIZED])
def test_bad_invocation_over_the_window_limit_is_refused_at_once(argv):
    error = _refused_at_once(argv)
    assert "predicted size" in error and f"window limit {polynomials._WINDOW_LIMIT}" in error


def test_bad_invocation_of_a_wide_base_over_the_coefficient_cap_is_refused_at_once():
    # the column-cap rows of BAD_INVOCATIONS with a base 3e7 columns wide, under the 1 GiB cap:
    # neither the start index nor the column count lists one run per column
    argv = ["roots", "--kappa", "[30000000]", "--mu", "[1]", "--n", "2", "--xi-radius", "1", "--kmax", "1"]
    assert _refused_at_once(argv).endswith(
        "kmax=1 (30000001 nonempty columns in term 1) is refused: its predicted size 30000002 is over the coefficient cap 5000"
    )


# an interpreter before Python 3.10.7 prints ints of any length and has no limit to set
needs_digit_limit = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int print limit")


@needs_digit_limit
@pytest.mark.parametrize("kmax", [650, 2000, 20000, 1000000])
def test_bad_invocation_of_counts_past_the_digit_limit_is_refused_at_once(kmax):
    # N(k) = C(10^9 + k - 1, k) never falls, so N(1), N(2), N(4), ..., N(kmax) are made in turn
    # and the first past 4300 digits is refused: N(512) has 3442 digits, N(649) 4296 and N(1024)
    # 6577, so that is N(kmax) below 1024 and N(1024) above, and no larger count is made
    argv = ["polynomiality", "--mu", "[1]", "--n", "1000000000", "--kmax", str(kmax)]
    error = _refused_at_once(argv, env={**os.environ, "PYTHONINTMAXSTRDIGITS": "4300"})
    assert f"the count N({min(kmax, 1024)}) is refused: its predicted size " in error
    assert error.endswith(" is over the digit limit 4300")


def test_polynomiality_in_a_billion_letters_answers_at_once():
    # its counts read h_m(1^n) = C(n + m - 1, m): nothing of length n is built,
    # and C(n + k - 1, k), of degree n - 1 in k, is inconclusive at kmax = 3
    argv = ["polynomiality", "--mu", "[1]", "--n", "1000000000", "--kmax", "3"]
    began = time.perf_counter()
    result = run_cli(argv, preexec_fn=_cap_address_space)
    elapsed = time.perf_counter() - began
    assert result.returncode == cli.REFUTED, result.stderr
    report = json.loads(result.stdout)
    assert report["verdict"] == "INCONCLUSIVE"
    assert report["counts"] == [math.comb(10**9 + k - 1, k) for k in range(4)]
    assert elapsed < 1.0


def test_polynomiality_at_the_digit_limit_answers():
    # N(649) has 4296 digits: every count is printed, the same 1,446,016 bytes as
    # before the digit refusal existed
    argv = ["polynomiality", "--mu", "[1]", "--n", "1000000000", "--kmax", "649"]
    result = run_cli(argv, env={**os.environ, "PYTHONINTMAXSTRDIGITS": "4300"})
    assert result.returncode == cli.REFUTED, result.stderr
    assert len(result.stdout) == 1_446_016
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == (
        "ed141372cbeb5aff443407f101e331531eaa3a5f2fc66ec679fa0954662441c1"
    )


@needs_digit_limit
@pytest.mark.parametrize("absent", [False, True], ids=["limit 0", "no limit to read"])
def test_polynomiality_without_a_digit_limit_answers(monkeypatch, capsys, absent):
    # 0 means no limit; before Python 3.10.7 there is none, and nothing to read it by
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    if absent:
        monkeypatch.delattr(sys, "get_int_max_str_digits")
    try:
        code = cli.main(["polynomiality", "--mu", "[1]", "--n", "1000000000", "--kmax", "650"])
        counts = json.loads(capsys.readouterr().out)["counts"]
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == cli.REFUTED
    assert counts == [math.comb(10**9 + k - 1, k) for k in range(651)]


@pytest.mark.parametrize("command", sorted(FORMATS))
def test_format_choices(command):
    parser = cli.build_parser()
    accepted = set()
    for fmt in ("json", "csv", "pretty"):
        try:
            parser.parse_args([command, "--format", fmt, "--help"])
        except SystemExit as exc:
            if exc.code == 0:
                accepted.add(fmt)
    assert accepted == FORMATS[command]


class TestConfigEcho:
    def test_json_outputs_carry_config(self):
        result = run_cli(["verify", "--mu", "[1]", "--nu", "[]", "--n", "2", "--count", "6"])
        payload = json.loads(result.stdout)
        assert payload["config"]["command"] == "verify"
        assert payload["config"]["mu"] == "[1]"
        assert payload["config"]["count"] == 6

    def test_text_outputs_carry_config_line(self):
        result = run_cli(["schur", "--outer", "[1]", "--n", "2"])
        assert result.stdout.startswith("# command=schur")

    def test_csv_header_row_present(self):
        result = run_cli(["roots", "--mu", "[1]", "--n", "2", "--xi-radius", "1", "--kmax", "2"])
        lines = result.stdout.splitlines()
        assert lines[0].startswith("# command=roots")
        assert lines[1] == "k,root_index,re,im,modulus,deviation"


class TestStaircaseInvocation:
    def test_all_moduli_on_unit_circle(self):
        # the staircase family spelled with its trailing zero
        result = run_cli(
            ["roots", "--mu", "[2,1,0]", "--n", "3", "--xi-radius", "1", "--kmax", "8"]
        )
        assert result.returncode == 0
        rows = [line.split(",") for line in result.stdout.splitlines()[2:]]
        assert len(rows) == sum(2 * k for k in range(1, 9))
        assert all(abs(float(row[4]) - 1.0) < 1e-6 for row in rows)
