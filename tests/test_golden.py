"""Golden CLI reports: fixed commands whose stdout, stderr and exit code
must stay byte-identical across refactors.

The commands and their recorded reports live in golden_reports.json.  After
a change that alters a report on purpose, re-record them with
`PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""

import contextlib
import io
import json
import pathlib

import pytest

from curvemoduli.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden_reports.json")
CASES = json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", CASES, ids=[f"{i:02d}-{c['argv'][0]}" for i, c in enumerate(CASES)])
def test_report_is_unchanged(case, capsys):
    code = main(list(case["argv"]))
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (case["exit_code"], case["stdout"], case["stderr"])


def record(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "exit_code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump([record(c["argv"]) for c in CASES], fh, indent=1)
        fh.write("\n")
