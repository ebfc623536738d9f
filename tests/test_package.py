"""The public API of `import schurrec`, and which imports load numpy.

The tableau side and the table-free CLI commands start without numpy; the
engine (`recurrence`, `asymptotics`) loads it.  Each probe runs in a fresh
interpreter, so that nothing this test process imported leaks into it.
"""
import importlib
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import schurrec
from schurrec import (
    CharPoly,
    InvalidFamilyError,
    MultiPoly,
    Partition,
    SkewShape,
    Tableau,
    build_sequence,
    char_poly,
    iter_tableaux,
    kostka,
    limit_experiment,
    polynomiality_check,
    scale,
    stretch_positivity_check,
    verify_certificate,
)
from test_cli import CASES, GOLDEN

ROOT = pathlib.Path(__file__).resolve().parent.parent

SUBMODULES = ["asymptotics", "partitions", "polynomials", "recurrence", "tableaux"]

# Every public name by the module that defines it.
DEFINED = {
    "partitions": [
        "IntVector", "Partition", "add", "contains", "dominates", "format_partition", "parse_partition",
        "partitions_up_to", "scale", "sort_decreasing", "stretch_condition", "subtract",
    ],
    "tableaux": [
        "ColumnView", "SkewShape", "Tableau", "column_factors", "column_tableau", "columns", "decompose",
        "empty_tableau", "enumerate_tableaux", "insert", "is_valid_ssyt", "iter_tableaux", "sits_inside",
        "stabilization_index", "weight",
    ],
    "polynomials": [
        "CharPoly", "MultiPoly", "char_poly", "complete_homogeneous", "eval_all_ones", "monomial_symmetric",
        "skew_schur", "skew_schur_jacobi_trudi", "weight_monomial",
    ],
    "kostka": [
        "PolynomialityReport", "first_tableau_of_weight", "kostka", "m_basis_reconstruction",
        "polynomiality_check", "schur_in_m_basis", "stretch_positivity_check",
    ],
    "recurrence": [
        "ConjectureReport", "InvalidFamilyError", "MinimalReport", "SchurSequence", "VerifyResult",
        "berlekamp_massey", "build_sequence", "conjecture_check", "conjectured_weights", "minimal_report",
        "verify_certificate", "verify_recurrence",
    ],
    "asymptotics": [
        "ComplexPoly", "DegenerateSpecialization", "ExperimentResult", "RootCloud", "RootConvergenceError",
        "clouds_to_csv", "find_roots", "limit_experiment", "specialize",
    ],
}
PUBLIC = sorted(SUBMODULES + [name for names in DEFINED.values() for name in names])

TABLE_FREE = {"tableaux", "schur", "insert", "char-poly", "kostka", "m-basis", "polynomiality"}
TABLE_FREE_CASES = [(golden, args) for golden, args, _ in CASES if args[0] in TABLE_FREE]

# cli.main on the argv that follows the code, exiting with its code
RUN_CLI = "import sys\nfrom schurrec import cli\nsys.exit(cli.main(sys.argv[1:]))"


def fresh(code: str, *argv: str, tmp_path) -> tuple[int, str, bool]:
    """Run code in a fresh interpreter: its exit code, its standard output
    and whether numpy was loaded when it finished."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    report = "import atexit, sys\natexit.register(lambda: print('numpy' in sys.modules))\n"
    result = subprocess.run(
        [sys.executable, "-c", report + code, *argv], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    out, _, flag = result.stdout.rstrip("\n").rpartition("\n")
    assert flag in ("True", "False"), result.stderr
    return result.returncode, out + "\n" if out else "", flag == "True"


def P(*parts):
    return Partition(parts)


def _h_family():
    """k -> h_k in two letters, from index 0."""
    return build_sequence(P(), P(), P(1), P(), 2)


# (the refused call, the exception it raises, the whole message)
REFUSALS = [
    pytest.param(
        lambda: verify_certificate(_h_family(), char_poly(P(1), P(), 2), 0, 0), ValueError,
        "count must be positive", id="verify_certificate count=0",
    ),
    pytest.param(
        lambda: kostka(SkewShape([1]), [2, -1]), ValueError, "weight must be nonnegative, got (2, -1)",
        id="kostka negative weight",
    ),
    pytest.param(
        lambda: stretch_positivity_check(SkewShape([1]), [1], 0), ValueError, "stretch factor k must be positive",
        id="stretch_positivity_check k=0",
    ),
    pytest.param(
        lambda: polynomiality_check(P(1), P(2), 2, 3), ValueError, "mu must contain nu",
        id="polynomiality_check mu not containing nu",
    ),
    pytest.param(lambda: char_poly(P(1), P(2), 2), ValueError, "mu must contain nu", id="char_poly mu not containing nu"),
    pytest.param(
        lambda: build_sequence(P(), P(), P(1), P(2), 2), InvalidFamilyError, "mu=[1] does not contain nu=[2]",
        id="build_sequence mu not containing nu",
    ),
    pytest.param(lambda: scale(-1, P(1)), ValueError, "scale factor must be nonnegative", id="scale by -1"),
    pytest.param(lambda: MultiPoly(0), ValueError, "nvars must be positive", id="MultiPoly nvars=0"),
    pytest.param(
        lambda: MultiPoly(2, {(1,): 1}), ValueError, "bad exponent vector (1,) for nvars=2",
        id="MultiPoly exponent length",
    ),
    pytest.param(
        lambda: MultiPoly.one(2).eval((1,)), ValueError, "point length must equal nvars", id="MultiPoly.eval point length",
    ),
    pytest.param(
        lambda: Tableau(SkewShape([1]), [[1]], 0), ValueError, "alphabet bound n must be positive", id="Tableau n=0",
    ),
    pytest.param(
        lambda: Tableau(SkewShape([1]), [[1], [1]], 2), ValueError, "expected 1 rows, got 2", id="Tableau row count",
    ),
    pytest.param(
        lambda: Tableau(SkewShape([2]), [[1]], 2), ValueError, "row 0: expected 2 entries, got 1",
        id="Tableau row length",
    ),
    pytest.param(
        lambda: Tableau(SkewShape([2], [1]), [[1]], 2).entry(0, 0), IndexError, "(0,0) is not an ordinary box",
        id="Tableau.entry off the shape",
    ),
    pytest.param(
        lambda: iter_tableaux(SkewShape([1]), 2, weight_cap=[1]), ValueError, "weight_cap must have length n",
        id="iter_tableaux weight_cap length",
    ),
    pytest.param(lambda: P(1)[-1], IndexError, "negative part index", id="Partition[-1]"),
    pytest.param(
        lambda: limit_experiment(_h_family(), [1.0], 0), ValueError, "kmax must be at least 1",
        id="limit_experiment kmax=0",
    ),
]


@pytest.mark.parametrize("call,error,message", REFUSALS)
def test_library_refusal(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert info.type is error and str(info.value) == message


class TestProtocols:
    SAMPLES = [
        P(2, 1),
        SkewShape([2, 1], [1]),
        Tableau(SkewShape([2, 1], [1]), [[1], [2]], 2),
        MultiPoly.monomial((1, 0)),
        CharPoly([(1, 0)], 2),
    ]

    @pytest.mark.parametrize("value", SAMPLES, ids=lambda v: type(v).__name__)
    def test_foreign_type_is_unequal(self, value):
        assert value != "foreign" and not value == (1, 0)

    def test_equal_multipolys_hash_equal(self):
        a, b = MultiPoly.monomial((1, 0)), MultiPoly(2, {(1, 0): 1, (0, 1): 0})
        assert a == b and a is not b and hash(a) == hash(b)

    def test_reprs(self):
        shape = SkewShape([2, 1], [1])
        assert repr(shape) == "SkewShape([2,1], [1])"
        assert repr(Tableau(shape, [[1], [2]], 2)) == "Tableau(SkewShape([2,1], [1]), [[1], [2]], n=2)"

    def test_shape_diagram(self):
        assert SkewShape([2, 1], [1]).to_ascii() == "■ .\n."

    def test_tableau_json_round_trip(self):
        t = Tableau(SkewShape([3, 1], [1]), [[1, 2], [2]], 2)
        assert t.to_json() == '{"outer":[3,1],"inner":[1],"n":2,"rows":[[1,2],[2]]}'
        assert Tableau.from_json(t.to_json()) == t


class TestNumpyBoundary:
    @pytest.mark.parametrize("module", ["schurrec", "schurrec.cli"])
    def test_tableau_side_imports_without_numpy(self, module, tmp_path):
        code, _, numpy = fresh(f"import {module}", tmp_path=tmp_path)
        assert code == 0 and not numpy

    @pytest.mark.parametrize("golden,args", TABLE_FREE_CASES, ids=[c[0] for c in TABLE_FREE_CASES])
    def test_table_free_command_runs_without_numpy(self, golden, args, tmp_path):
        code, out, numpy = fresh(RUN_CLI, *args, tmp_path=tmp_path)
        assert code == 0
        assert out == (GOLDEN / golden).read_text()
        assert not numpy

    def test_only_the_table_engine_imports_numpy(self):
        # _dense owns the table layout and the int64 policy
        sources = sorted((ROOT / "src" / "schurrec").glob("*.py"))
        importers = [p.name for p in sources if re.search(r"^(import|from) numpy", p.read_text(), re.M)]
        assert importers == ["_dense.py"]

    def test_recurrence_loads_numpy_at_import(self, tmp_path):
        # the engine pays numpy before its first computation, not inside it
        code, _, numpy = fresh("import schurrec.recurrence", tmp_path=tmp_path)
        assert code == 0 and numpy

    def test_table_command_loads_numpy(self, tmp_path):
        args = ["verify", "--mu", "[1]", "--nu", "[]", "--n", "2", "--count", "6"]
        code, out, numpy = fresh(RUN_CLI, *args, tmp_path=tmp_path)
        assert code == 0
        assert out == (GOLDEN / "verify.json").read_text()
        assert numpy


class TestPublicApi:
    def test_all_is_the_public_names(self):
        assert len(PUBLIC) == 69
        assert schurrec.__all__ == PUBLIC

    @pytest.mark.parametrize("home", sorted(DEFINED))
    def test_names_are_their_modules_objects(self, home):
        module = importlib.import_module(f"schurrec.{home}")
        for name in DEFINED[home]:
            assert getattr(schurrec, name) is getattr(module, name), name

    def test_recurrence_reexports_chi(self):
        # recurrence.CharPoly and recurrence.char_poly stay the polynomials objects
        from schurrec import polynomials, recurrence

        assert recurrence.CharPoly is polynomials.CharPoly and recurrence.char_poly is polynomials.char_poly

    def test_dense_keeps_the_traced_counts(self):
        # bench/spans.py wraps both under _dense; they stay the polynomials objects
        from schurrec import _dense, polynomials

        assert _dense.ssyt_count is polynomials.ssyt_count and _dense.schur_int_eval is polynomials.schur_int_eval

    def test_submodules(self):
        for name in SUBMODULES:
            assert getattr(schurrec, name) is importlib.import_module(f"schurrec.{name}")

    def test_dir_lists_every_name_before_any_engine_import(self, tmp_path):
        code, out, numpy = fresh("import json, schurrec\nprint(json.dumps(dir(schurrec)))", tmp_path=tmp_path)
        assert code == 0 and not numpy
        assert set(PUBLIC) <= set(json.loads(out))

    def test_star_import_binds_every_name(self, tmp_path):
        probe = "import json\nfrom schurrec import *\nprint(json.dumps(sorted(n for n in dir() if n[0] != '_')))"
        code, out, _ = fresh(probe, tmp_path=tmp_path)
        assert code == 0
        assert set(PUBLIC) <= set(json.loads(out))

    def test_unknown_attribute_is_named(self):
        with pytest.raises(AttributeError, match="'no_such_name'"):
            schurrec.no_such_name
