"""Golden CLI reports: fixed commands whose stdout, stderr and exit code
must stay byte-identical across refactors.

The commands and their recorded reports live in golden_reports.json.  They
cover every subcommand, every `--help`, and argparse's usage errors, which
end in SystemExit; its code is compared like a returned exit code.  Help is
wrapped at COLUMNS=80, where Python 3.10-3.12 print it identically.  After
a change that alters a report on purpose, re-record them with
`PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""

import contextlib
import io
import json
import os
import pathlib

import pytest

from curvemoduli.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden_reports.json")
CASES = json.loads(GOLDEN.read_text())


def _run(argv):
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("case", CASES, ids=[f"{i:02d}-{(c['argv'] or ['none'])[0]}"
                                             for i, c in enumerate(CASES)])
def test_report_is_unchanged(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code = _run(case["argv"])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (case["exit_code"], case["stdout"], case["stderr"])


def record(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = _run(argv)
    return {"argv": argv, "exit_code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    with open(GOLDEN, "w") as fh:
        json.dump([record(c["argv"]) for c in CASES], fh, indent=1)
        fh.write("\n")
