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
import hashlib
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


# SHA-256 of the stdout of `enumerate --e0 E --n N --q Q`, plain and with
# --table, for the four slowest cells (e0, q, n) of the benchmark's
# enumeration jobs, with 1053, 192, 448 and 324 members; the enumerations
# among the reports above have at most 150
HEAVY_ENUMERATE = {
    (2, 3, 5): ("df356b732e17369498c03b1cb50b3b399316863c6f38d5e52ae9d0f4336821d4",
                "85308d3e3da25252eefdf61b14dee2c30135566a63d1543ca64c88546af5a52e"),
    (1, 2, 8): ("3a5af3bc1129eaea40b9024865958cf8ea53eb7f8801270a639dabbaf4653458",
                "cd83ecaa676653902c97960cf73096395a85b52bff3b26d462cca5971c7a2c00"),
    (2, 2, 6): ("f35dcb3e6e9ca0d764447ba54f82c6e92b0119daf5d0fce08dc04626b2bb89e7",
                "be86f8c5d575cdeca79637d1d7893edbfc625e9306e0107fa9e2eb7f7ad8cd82"),
    (1, 3, 6): ("1a06e74867205d5a711c672287817c3167d69ceb0acecac77e3bca9609ac4adf",
                "1301c0aa2e6d0d98fcc098051d47d95b13f6cea472ad61b5cf4452c9e91e4a45"),
}


@pytest.mark.parametrize("cell", list(HEAVY_ENUMERATE), ids=str)
def test_heavy_enumerate_report_is_unchanged(cell, capsys):
    e0, q, n = cell
    argv = ["enumerate", "--e0", str(e0), "--n", str(n), "--q", str(q)]
    for extra, want in zip(([], ["--table"]), HEAVY_ENUMERATE[cell]):
        assert _run(argv + extra) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == want


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
