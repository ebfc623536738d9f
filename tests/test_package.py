"""The public API of `import schurrec`, and what its imports load.

The tableau side and the table-free CLI commands start without numpy and
without `dataclasses` (nor the `inspect` it imports); the engine
(`recurrence`, `asymptotics`) loads numpy.  Each probe runs in a fresh
interpreter, so that nothing this test process imported leaks into it.
"""
import copy
import importlib
import json
import math
import os
import pathlib
import pickle
import re
import subprocess
import sys

import pytest

import schurrec
from schurrec import (
    CharPoly,
    ColumnView,
    InvalidFamilyError,
    MultiPoly,
    Partition,
    PolynomialityReport,
    SkewShape,
    Tableau,
    build_sequence,
    char_poly,
    enumerate_tableaux,
    iter_tableaux,
    kostka,
    limit_experiment,
    polynomiality_check,
    polynomials,
    scale,
    schur_in_m_basis,
    skew_schur,
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
# the modules the tableau side does not load: numpy, and dataclasses with inspect
HEAVY = ("dataclasses", "inspect", "numpy")


def fresh(code: str, *argv: str, tmp_path) -> tuple[int, str, list[str]]:
    """Run code in a fresh interpreter: its exit code, its standard output
    and which of HEAVY were loaded when it finished."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    heavy = f"json.dumps([m for m in {HEAVY} if m in sys.modules])"
    report = f"import atexit, json, sys\natexit.register(lambda: print({heavy}))\n"
    result = subprocess.run(
        [sys.executable, "-c", report + code, *argv], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    out, _, loaded = result.stdout.rstrip("\n").rpartition("\n")
    assert loaded.startswith("["), result.stderr
    return result.returncode, out + "\n" if out else "", json.loads(loaded)


def P(*parts):
    return Partition(parts)


def _h_family():
    """k -> h_k in two letters, from index 0."""
    return build_sequence(P(), P(), P(1), P(), 2)


def _walk_refusal(boxes: int) -> str:
    """The refusal of a walk over the one-row shape [boxes] in 1..boxes:
    C(2 boxes - 1, boxes) fillings, boxes + boxes entries each."""
    size = math.comb(2 * boxes - 1, boxes) * 2 * boxes
    return (
        f"the walk over the fillings of [{boxes}]/[] with entries in 1..{boxes} is refused: "
        f"its predicted size {size} is over the window limit {polynomials._WINDOW_LIMIT}"
    )


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
        lambda: ColumnView(1, 1, 3, (1, 2)), ValueError, "entry count does not match the row interval",
        id="ColumnView row interval",
    ),
    # C(199, 99) fillings: each walk is refused before its first one
    pytest.param(lambda: skew_schur(SkewShape([100]), 100), ValueError, _walk_refusal(100), id="skew_schur walk"),
    pytest.param(lambda: char_poly(P(100), P(), 100), ValueError, _walk_refusal(100), id="char_poly walk"),
    pytest.param(
        lambda: enumerate_tableaux(SkewShape([100]), 100), ValueError, _walk_refusal(100), id="enumerate_tableaux walk",
    ),
    # its Kostka walks are pruned by weight: only the weight's length n is bounded
    pytest.param(
        lambda: schur_in_m_basis(SkewShape([1]), polynomials._WINDOW_LIMIT + 1), ValueError,
        f"each Kostka walk's weight of length n={polynomials._WINDOW_LIMIT + 1} is refused: its predicted size "
        f"{polynomials._WINDOW_LIMIT + 1} is over the window limit {polynomials._WINDOW_LIMIT}",
        id="schur_in_m_basis n",
    ),
    # C(27, 14) fillings times 28 is the first one-row walk over the limit
    pytest.param(
        lambda: polynomials._refuse_walk(SkewShape([14]), 14), ValueError, _walk_refusal(14), id="walk of [14]",
    ),
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


@pytest.mark.parametrize("boxes", [12, 13])
def test_walk_under_the_window_limit_is_admitted(boxes):
    # schur --outer [12] --n 12 still runs; the guard alone is checked here
    polynomials._refuse_walk(SkewShape([boxes]), boxes)


class TestProtocols:
    SAMPLES = [
        P(2, 1),
        SkewShape([2, 1], [1]),
        Tableau(SkewShape([2, 1], [1]), [[1], [2]], 2),
        MultiPoly.monomial((1, 0)),
        CharPoly([(1, 0)], 2),
        ColumnView(1, 1, 2, (1, 2)),
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

    def test_column_view_is_a_frozen_value(self):
        view = ColumnView(col_index=1, first_row=1, last_row=2, entries=(1, 2))
        assert view == ColumnView(1, 1, 2, (1, 2)) and view != ColumnView(2, 1, 2, (1, 2))
        assert view != (1, 1, 2, (1, 2))
        assert hash(view) == hash((1, 1, 2, (1, 2)))
        assert repr(view) == "ColumnView(col_index=1, first_row=1, last_row=2, entries=(1, 2))"
        with pytest.raises(AttributeError, match="^cannot assign to field 'entries'$"):
            view.entries = (1, 3)
        with pytest.raises(AttributeError, match="^cannot delete field 'col_index'$"):
            del view.col_index
        assert (view.col_index, view.first_row, view.last_row, view.entries) == (1, 1, 2, (1, 2))

    @pytest.mark.parametrize(
        "value", [ColumnView(1, 1, 2, (1, 2)), polynomiality_check(P(1), P(), 2, 3)], ids=lambda v: type(v).__name__
    )
    def test_records_copy_and_pickle(self, value):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value and type(twin) is type(value) and repr(twin) == repr(value)

    @pytest.mark.parametrize(
        "args,fields",
        [
            (
                (P(1), P(), 2, 4),
                {
                    "counts": [1, 2, 3, 4, 5], "degree": 1, "vanish_order": 2, "verdict": "POLYNOMIAL(degree=1)",
                    "newton_coefficients": [1, 1],
                },
            ),
            (
                (P(2, 1), P(1), 3, 2),
                {
                    "counts": [1, 9, 36], "degree": None, "vanish_order": None, "verdict": "INCONCLUSIVE",
                    "newton_coefficients": None,
                },
            ),
        ],
        ids=["POLYNOMIAL", "INCONCLUSIVE"],
    )
    def test_polynomiality_report(self, args, fields):
        report = polynomiality_check(*args)
        assert report == PolynomialityReport(**fields) == PolynomialityReport(*fields.values())
        assert report != polynomiality_check(P(1), P(), 2, 3)
        assert repr(report) == "PolynomialityReport(" + ", ".join(f"{k}={v!r}" for k, v in fields.items()) + ")"
        # the JSON keys keep the field order
        assert list(report.to_json_obj().items()) == list(fields.items())

    def test_shape_diagram(self):
        assert SkewShape([2, 1], [1]).to_ascii() == "■ .\n."

    def test_tableau_json_round_trip(self):
        t = Tableau(SkewShape([3, 1], [1]), [[1, 2], [2]], 2)
        assert t.to_json() == '{"outer":[3,1],"inner":[1],"n":2,"rows":[[1,2],[2]]}'
        assert Tableau.from_json(t.to_json()) == t


class TestNumpyBoundary:
    """The import budget: the tableau side loads none of HEAVY, the engine numpy."""

    @pytest.mark.parametrize("module", ["schurrec", "schurrec.cli"])
    def test_tableau_side_imports_without_numpy(self, module, tmp_path):
        code, _, loaded = fresh(f"import {module}", tmp_path=tmp_path)
        assert code == 0 and loaded == []

    @pytest.mark.parametrize("golden,args", TABLE_FREE_CASES, ids=[c[0] for c in TABLE_FREE_CASES])
    def test_table_free_command_runs_without_numpy(self, golden, args, tmp_path):
        # tableaux.json is cli.main(["tableaux", "--outer", "[2,1]", "--n", "2"])
        code, out, loaded = fresh(RUN_CLI, *args, tmp_path=tmp_path)
        assert code == 0
        assert out == (GOLDEN / golden).read_text()
        assert loaded == []

    def test_only_the_table_engine_imports_numpy(self):
        # _dense owns the table layout and the int64 policy
        sources = sorted((ROOT / "src" / "schurrec").glob("*.py"))
        importers = [p.name for p in sources if re.search(r"^(import|from) numpy", p.read_text(), re.M)]
        assert importers == ["_dense.py"]

    def test_only_the_engine_imports_dataclasses(self):
        # bench/selftest.py calls dataclasses.replace on their reports
        sources = sorted((ROOT / "src" / "schurrec").glob("*.py"))
        importers = [p.name for p in sources if re.search(r"^(import|from) dataclasses", p.read_text(), re.M)]
        assert importers == ["asymptotics.py", "recurrence.py"]

    def test_recurrence_loads_numpy_at_import(self, tmp_path):
        # the engine pays numpy before its first computation, not inside it
        code, _, loaded = fresh("import schurrec.recurrence", tmp_path=tmp_path)
        assert code == 0 and "numpy" in loaded

    def test_table_command_loads_numpy(self, tmp_path):
        args = ["verify", "--mu", "[1]", "--nu", "[]", "--n", "2", "--count", "6"]
        code, out, loaded = fresh(RUN_CLI, *args, tmp_path=tmp_path)
        assert code == 0
        assert out == (GOLDEN / "verify.json").read_text()
        assert "numpy" in loaded


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
        code, out, loaded = fresh("import json, schurrec\nprint(json.dumps(dir(schurrec)))", tmp_path=tmp_path)
        assert code == 0 and loaded == []
        assert set(PUBLIC) <= set(json.loads(out))

    def test_star_import_binds_every_name(self, tmp_path):
        probe = "import json\nfrom schurrec import *\nprint(json.dumps(sorted(n for n in dir() if n[0] != '_')))"
        code, out, _ = fresh(probe, tmp_path=tmp_path)
        assert code == 0
        assert set(PUBLIC) <= set(json.loads(out))

    def test_unknown_attribute_is_named(self):
        with pytest.raises(AttributeError, match="'no_such_name'"):
            schurrec.no_such_name
