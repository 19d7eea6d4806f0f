"""Import hygiene of the package, checked with the standard library only:
no module imports a name it never uses, and the CLI starts without
`dataclasses` and `inspect`, which would add a dozen stdlib modules to
every job's start-up.  The package exports its names lazily, and a CLI job
loads only the library modules its handler reads, and no `argparse` unless
it asks for help or has to be told what is wrong with its argv."""

import ast
import importlib
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
            " or m in ('fractions', 'decimal', 'argparse'))))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(SRC), *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_cli_import_and_parser_load_no_library_module():
    # only building the parser imports argparse
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


@pytest.mark.parametrize("argv", [["--help"], ["semigroup", "--gens", "3,4", "--bogus"]],
                         ids=["help", "unknown-flag"])
def test_help_and_usage_errors_load_argparse(argv):
    code = ("import curvemoduli.cli as c\n"
            "try:\n    c.main(sys.argv[2:])\nexcept SystemExit as exc:\n    assert exc.code in (0, 2)\n"
            "else:\n    raise AssertionError('no usage exit')")
    assert "argparse" in loaded_after(code, *argv)


CLI = SRC / "curvemoduli" / "cli.py"
ALIASES = {"br", "df", "ic", "mv", "rc", "tt"}


def test_each_cli_function_imports_the_library_modules_it_reads():
    tree = ast.parse(CLI.read_text())
    assert not [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level]
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef):
            read = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)} & ALIASES
            imported = {a.asname for node in fn.body if isinstance(node, ast.ImportFrom)
                        for a in node.names}
            assert imported == read, fn.name


class TestLazyPackageExports:
    """`import curvemoduli` defers its submodules; the exported names are
    still the submodules' own objects."""

    def test_every_name_is_the_submodules_object(self):
        assert len(curvemoduli.__all__) == 64
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


def private_library_reads(source):
    """The `_`-prefixed names a module reads from the package's other
    modules, as `alias._name`: attributes of a module bound by a relative
    import, and names a relative import binds directly, sorted."""
    tree = ast.parse(source)
    modules, reads = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for a in node.names:
                if node.module is None:
                    modules.add(a.asname or a.name)
                elif a.name.startswith("_"):
                    reads.add(f"{node.module}.{a.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            reads.add(f"{node.value.id}.{node.attr}")
    return sorted(reads)


def test_checker_sees_a_private_library_read():
    source = ("import os\nfrom .ringcore import _TOKEN, QQ\n"
              "def f():\n    from . import branches as br\n"
              "    br._Substitution(1, 2)\n    br.semigroup([2])\n    os._exit(0)\n")
    assert private_library_reads(source) == ["br._Substitution", "ringcore._TOKEN"]


def test_cli_reads_only_the_public_library_api():
    assert private_library_reads(CLI.read_text()) == []
