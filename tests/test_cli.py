"""Golden-file coverage for every CLI subcommand, plus the exit-code contract.

Each golden run is executed twice to pin byte-identical determinism.
"""
import json
import math
import pathlib
import subprocess
import sys

import pytest

from schurrec import cli
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
    ("kostka.txt", ["kostka", "--outer", "[2,1]", "--weight", "[1,1,1]"], 0),
    ("m_basis.json", ["m-basis", "--outer", "[2,1]", "--n", "3"], 0),
    ("conjecture.json", ["conjecture", "--mu", "[2,1]", "--nu", "[]", "--n", "3", "--seed", "3"], 0),
    # two rows that share no column: 6 of the 12 stated roots are minimal, so
    # the certificate of REFUTED-MINIMALITY, exit 2
    ("conjecture_refuted.json", ["conjecture", "--mu", "[4,2]", "--nu", "[2]", "--n", "3", "--seed", "1"], 2),
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
    (["roots", "--mu", "[1]", "--n", "2", "--xi-radius", "1", "--kmax", "100000"], "kmax=100000 is refused: term 100000 has 100000 nonempty columns"),
    # 32 disjoint boxes over 4 letters: 2^64 fillings, refused before any table or tableau
    (
        ["verify", "--kappa", str(list(range(32, 0, -1))), "--lambda", str(list(range(31, 0, -1))), "--mu", "[]", "--n", "4"],
        f"{1 << 64} fillings reach the int64 limit {1 << 63}",
    ),
]


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "schurrec.cli", *args],
        capture_output=True,
        text=True,
    )


@pytest.mark.parametrize("golden,args,code", CASES, ids=[c[0] for c in CASES])
def test_golden(golden, args, code):
    expected = (GOLDEN / golden).read_text()
    first = run_cli(args)
    second = run_cli(args)
    assert first.returncode == code, first.stderr
    assert first.stdout == expected
    assert second.stdout == first.stdout  # byte-identical reruns


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
