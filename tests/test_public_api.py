"""A library caller needs only `import curvemoduli as cm`: the names it
reads a result with are exported next to the functions that return it."""

import json

import pytest

import curvemoduli as cm
from curvemoduli.cli import main


def test_a_divergent_intersection_reads_as_the_exported_sentinel():
    x2 = cm.IdealPresentation.parse(["x2"], 2, cm.QQ, 8)
    assert cm.intersection_number(x2, x2, 8) == cm.INTERSECTION_DIVERGENT


def test_an_enumerated_member_prints_as_in_the_cli_report(capsys):
    field = cm.GF(3)
    res = cm.enumerate_xi(2, 2, 5, field)
    table = cm.monomial_table(2, 5)
    member = [table.row_str(row, field) for row in res.ideals[-1]]
    assert main(["enumerate", "--e0", "2", "--n", "5", "--q", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["ideals"][-1] == member


def test_the_level_checks_name_their_bounds():
    with pytest.raises(cm.LevelError, match=r"^level must be >= 1, got 0$"):
        cm.check_level(0)
    with pytest.raises(cm.LevelError, match=r"^colon level must be >= 2$"):
        cm.check_colon_level(1)
