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
        "first_tableau_of_weight", "kostka", "m_basis_reconstruction", "schur_in_m_basis",
        "stretch_positivity_check",
    ],
    "recurrence": [
        "ConjectureReport", "InvalidFamilyError", "MinimalReport", "PolynomialityReport", "SchurSequence",
        "VerifyResult", "berlekamp_massey", "build_sequence", "conjecture_check", "conjectured_weights",
        "minimal_report", "polynomiality_check", "verify_certificate", "verify_recurrence",
    ],
    "asymptotics": [
        "ComplexPoly", "DegenerateSpecialization", "ExperimentResult", "RootCloud", "RootConvergenceError",
        "clouds_to_csv", "find_roots", "limit_experiment", "specialize",
    ],
}
PUBLIC = sorted(SUBMODULES + [name for names in DEFINED.values() for name in names])

TABLE_FREE = {"tableaux", "schur", "insert", "char-poly", "kostka", "m-basis"}
TABLE_FREE_CASES = [(golden, args) for golden, args in CASES if args[0] in TABLE_FREE]

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
