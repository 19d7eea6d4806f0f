"""Import hygiene of the package, checked with the standard library only:
no module imports a name it never uses, and the CLI starts without
`dataclasses` and `inspect`, which would add a dozen stdlib modules to
every job's start-up."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

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
