"""Import hygiene of the package, checked with the standard library only:
no module imports a name it never uses, and the CLI starts without
`dataclasses` and `inspect`, which would add a dozen stdlib modules to
every job's start-up.  The package exports its names lazily, the CLI reads
the library only as `cm.<name>` with the name in `curvemoduli.__all__`,
and a CLI job loads only the library modules its handler reads, no
`argparse` unless it asks for help or has to be told what is wrong with
its argv, no `fractions` unless it computes over QQ, and no `json` unless
it reads a `--job` file: the CLI writes its reports itself."""

import ast
import importlib
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import curvemoduli

SRC = Path(__file__).resolve().parents[1] / "src"
# __init__.py imports names to re-export them
MODULES = [p for p in sorted((SRC / "curvemoduli").glob("*.py")) if p.name != "__init__.py"]


def unused_imports(source):
    """Names a module imports but never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_sees_an_unused_name():
    source = "import json\nfrom math import comb, gcd\nfrom . import ringcore as rc\ngcd(json.dumps(1), 2)\n"
    assert unused_imports(source) == ["comb", "rc"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # -S: modules that site-packages' .pth files import are not the package's
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import curvemoduli.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def loaded_after(code, *argv):
    """The `curvemoduli.*` submodules and the watched stdlib modules that a
    fresh `-S` interpreter holds after running `code` (lines)."""
    code = ("import sys\nsys.path.insert(0, sys.argv[1])\n" + code + "\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('curvemoduli.')"
            " or m in ('fractions', 'decimal', 'argparse', 'json'))))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(SRC), *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_cli_import_and_parser_load_no_library_module():
    # only building the parser imports argparse; neither loads json
    assert loaded_after("import curvemoduli.cli") == {"curvemoduli.cli"}
    assert loaded_after("import curvemoduli.cli as c; c.build_parser()") == {
        "curvemoduli.cli", "argparse"}


def test_package_import_loads_no_submodule():
    assert loaded_after("import curvemoduli") == set()


# one small valid job per group of subcommands, and the library modules its
# handler loads (with their own imports)
TRUNCTOWER = {"trunctower", "idealcalc", "ringcore"}
JOB_MODULES = [
    (["hilbert", "--ideal", "x1^2 - x2^3", "--level", "5"], {"idealcalc", "ringcore"}),
    (["tn", "--ideal", "x2^2 - x1^3", "--n", "5", "--e0", "2"], TRUNCTOWER),
    (["admissible", "--b", "3", "--e0", "3"], TRUNCTOWER),
    (["param", "--level", "4", "--branch", "t^2,t^3", "--precision", "12"],
     {"branches", "idealcalc", "ringcore"}),
    (["semigroup", "--gens", "3,4,5"], {"branches", "idealcalc", "ringcore"}),
    (["colon", "--ideal", "x1^3", "--K", "x1", "--K", "x2", "--level", "4"],
     {"deform", "idealcalc", "ringcore"}),
    (["specialize", "--class", "L + 1", "--q", "2"], {"motivic", "ringcore"}),
]


@pytest.mark.parametrize("argv, modules", JOB_MODULES, ids=[argv[0] for argv, _ in JOB_MODULES])
def test_a_job_loads_only_its_handlers_modules(argv, modules):
    loaded = loaded_after("import curvemoduli.cli as c; assert c.main(sys.argv[2:]) == 0", *argv)
    assert {m for m in loaded if m.startswith("curvemoduli.")} == {
        "curvemoduli.cli", *("curvemoduli." + m for m in modules)}
    assert "argparse" not in loaded


# rational arithmetic (`fractions`, and `decimal` with it) is loaded only by
# a job that builds QQ or parses a '/'
RATIONAL_FREE_JOBS = [
    ["enumerate", "--e0", "2", "--n", "4", "--q", "3"],
    ["hilbert", "--field", "32003", "--ideal", "x1^2 - x2^3", "--level", "5"],
    ["param", "--field", "32003", "--level", "4", "--branch", "t^2,t^3", "--precision", "12"],
    ["tn", "--field", "101", "--ideal", "x2^2 - x1^3", "--n", "5", "--e0", "2"],
    ["admissible", "--b", "3", "--e0", "3"],
    ["semigroup", "--gens", "3,4,5"],
]
RATIONAL_JOBS = [
    ["hilbert", "--ideal", "x1^2 - x2^3", "--level", "5"],
    ["specialize", "--class", "L + 1", "--q", "2"],
]
RUN_JOB = "import curvemoduli.cli as c; assert c.main(sys.argv[2:]) == 0"


@pytest.mark.parametrize("argv", RATIONAL_FREE_JOBS, ids=[argv[0] for argv in RATIONAL_FREE_JOBS])
def test_a_job_over_gf_p_or_ints_loads_no_rational_arithmetic(argv):
    assert not {"fractions", "decimal"} & loaded_after(RUN_JOB, *argv)


@pytest.mark.parametrize("argv", RATIONAL_JOBS, ids=["hilbert-rational", "specialize"])
def test_a_job_over_qq_loads_fractions(argv):
    assert "fractions" in loaded_after(RUN_JOB, *argv)


# every job above, each writing its report
REPORTING_JOBS = [argv for argv, _ in JOB_MODULES] + RATIONAL_FREE_JOBS + RATIONAL_JOBS


@pytest.mark.parametrize("argv", REPORTING_JOBS,
                         ids=[f"{argv[0]}-{i}" for i, argv in enumerate(REPORTING_JOBS)])
def test_a_job_writes_its_report_without_json(argv):
    assert "json" not in loaded_after(RUN_JOB, *argv)


def test_a_job_file_loads_json(tmp_path):
    job = tmp_path / "param.json"
    job.write_text('{"branches": [["t^2", "t^3"]], "precision": 12}')
    assert "json" in loaded_after(RUN_JOB, "param", "--level", "4", "--job", str(job))


def test_a_fraction_made_before_any_rational_field_reduces_mod_p():
    # the cold path: GF(7) and a Fraction, then a QQ unpickled in this process
    code = ("from fractions import Fraction\nimport pickle\n"
            "import curvemoduli.ringcore as rc\n"
            "f = rc.GF(7)\n"
            "assert f.of(Fraction(3, 2)) == 5\n"
            "try:\n    f.of(Fraction(1, 7))\n"
            "except ZeroDivisionError as exc:\n    assert str(exc) == 'denominator divisible by 7'\n"
            "else:\n    raise AssertionError('no ZeroDivisionError')\n"
            "assert not {'QQ', 'Fraction'} & set(vars(rc))\n"
            "q = pickle.loads(bytes.fromhex(sys.argv[2]))\n"
            "assert q.of(3) == Fraction(3) and q.one() == 1 and repr(q) == 'QQ'")
    from curvemoduli.ringcore import QQ

    loaded_after(code, pickle.dumps(QQ).hex())


def test_qq_is_one_object_by_every_route():
    from curvemoduli import ringcore
    from curvemoduli.ringcore import QQ

    assert ringcore.QQ is QQ is curvemoduli.QQ
    with pytest.raises(AttributeError, match="has no attribute 'ZZ'"):
        ringcore.ZZ


@pytest.mark.parametrize("argv", [["--help"], ["semigroup", "--gens", "3,4", "--bogus"]],
                         ids=["help", "unknown-flag"])
def test_help_and_usage_errors_load_argparse(argv):
    code = ("import curvemoduli.cli as c\n"
            "try:\n    c.main(sys.argv[2:])\nexcept SystemExit as exc:\n    assert exc.code in (0, 2)\n"
            "else:\n    raise AssertionError('no usage exit')")
    assert "argparse" in loaded_after(code, *argv)


CLI = SRC / "curvemoduli" / "cli.py"


def reads_outside_the_public_api(source):
    """How a module reads the package other than by `import curvemoduli as
    cm` and `cm.<name>` with `name` in `curvemoduli.__all__`, sorted: every
    relative import, every other import of curvemoduli, every `cm.<name>`
    of another name (a private one, a submodule) and every bare `cm`."""
    tree = ast.parse(source)
    found = set()
    read_off = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("curvemoduli")):
            found.add(ast.unparse(node))
        elif isinstance(node, ast.Import) and any(
                a.name.startswith("curvemoduli") and (a.name, a.asname) != ("curvemoduli", "cm")
                for a in node.names):
            found.add(ast.unparse(node))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "cm" and node.attr not in curvemoduli.__all__):
            found.add(f"cm.{node.attr}")
        elif isinstance(node, ast.Name) and node.id == "cm" and id(node) not in read_off:
            found.add("cm")
    return sorted(found)


def test_cli_reads_the_library_only_through_the_public_api():
    source = CLI.read_text()
    top = [node for node in ast.parse(source).body if isinstance(node, ast.Import)]
    assert any((a.name, a.asname) == ("curvemoduli", "cm") for node in top for a in node.names)
    assert reads_outside_the_public_api(source) == []


@pytest.mark.parametrize("planted, found", [
    ("cm._substitution(p, 4)", ["cm._substitution"]),
    ("cm.idealcalc.hilbert_data", ["cm.idealcalc"]),
    ("getattr(cm, 'hilbert_data')", ["cm"]),
], ids=["private", "submodule", "bare"])
def test_a_planted_read_is_seen(planted, found):
    source = CLI.read_text() + f"\n\ndef planted(p):\n    return {planted}\n"
    assert reads_outside_the_public_api(source) == found


@pytest.mark.parametrize("planted", [
    "from . import ringcore as rc",
    "from .ringcore import QQ",
    "from curvemoduli import ringcore",
    "import curvemoduli.ringcore as rc",
    "import curvemoduli",
], ids=["relative", "relative-name", "absolute-from", "submodule", "unaliased"])
def test_a_planted_import_is_seen(planted):
    source = CLI.read_text() + f"\n\ndef planted():\n    {planted}\n"
    assert reads_outside_the_public_api(source) == [planted]


class TestLazyPackageExports:
    """`import curvemoduli` defers its submodules; the exported names are
    still the submodules' own objects."""

    def test_every_name_is_the_submodules_object(self):
        assert len(curvemoduli.__all__) == 67
        for name, module in curvemoduli._EXPORTS.items():
            assert getattr(curvemoduli, name) is getattr(
                importlib.import_module("curvemoduli." + module), name), name

    def test_dir_and_all_list_every_name(self):
        assert set(curvemoduli.__all__) == set(curvemoduli._EXPORTS)
        assert set(curvemoduli.__all__) <= set(dir(curvemoduli))

    def test_an_unknown_name_is_an_attribute_error_naming_it(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            curvemoduli.no_such_name

    def test_a_submodule_is_imported_by_name(self):
        from curvemoduli import idealcalc

        assert idealcalc is sys.modules["curvemoduli.idealcalc"]
        assert idealcalc.hilbert_data is curvemoduli.hilbert_data

