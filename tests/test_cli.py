import atexit
import builtins
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from curvemoduli import branches as br
from curvemoduli import cli
from curvemoduli.cli import DEFAULT_LEVEL, build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"


def run_process(*argv, prefix=(), code="from curvemoduli.cli import run; run()"):
    """A CLI job in its own process, entered through `cli.run` as the
    installed script does; `prefix` is Python run before it.  Its stdout
    is buffered, as a user's is by default."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    script = "\n".join([*prefix, "import sys", f"sys.argv[1:] = {list(argv)!r}", code])
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out.strip().startswith("{") else out, err


class TestHilbert:
    def test_triple_line(self, capsys):
        code, payload, _ = run_json(
            capsys, "hilbert", "--ideal", "x1^3", "--N", "2", "--level", "8"
        )
        assert code == 0
        assert payload["e0"] == 3 and payload["e1"] == 3
        assert payload["status"] == "ok"
        assert payload["values"] == [1, 3, 6, 9, 12, 15, 18, 21]

    def test_embedded_input_reparses_to_same_job(self, capsys):
        code, payload, _ = run_json(
            capsys, "hilbert", "--ideal", "x1^3+ 0*x2 + x2^4", "--N", "2", "--level", "8"
        )
        assert code == 0
        again_args = ["hilbert", "--N", str(payload["input"]["N"]),
                      "--level", str(payload["input"]["level"])]
        for g in payload["input"]["ideal"]:
            again_args += ["--ideal", g]
        code2, payload2, _ = run_json(capsys, *again_args)
        assert code2 == 0 and payload2 == payload

    def test_not_stabilized_exit_code(self, capsys):
        code, payload, _ = run_json(
            capsys, "hilbert", "--ideal", "x1^2 + x2^3", "--N", "3", "--level", "3"
        )
        assert code == 3
        assert payload["status"] in ("not_stabilized", "dim_ge_2")

    def test_table_mode(self, capsys):
        code, out, _ = run(
            capsys, "hilbert", "--ideal", "x1^3", "--level", "6", "--table"
        )
        assert code == 0
        assert out.splitlines()[0].startswith("t ")

    def test_table_is_refused_where_there_is_no_table(self, capsys):
        # only hilbert, param, normflat and enumerate write a table
        with pytest.raises(SystemExit) as exc:
            main(["nu", "--ideal", "x1^2", "--level", "5", "--table"])
        out = capsys.readouterr()
        assert (exc.value.code, out.out) == (2, "")
        assert out.err.endswith("error: unrecognized arguments: --table\n")

    def test_parse_error_exit_two(self, capsys):
        code, _, err = run(capsys, "hilbert", "--ideal", "x9", "--N", "2", "--level", "5")
        assert code == 2
        assert "out of range" in err


    @pytest.mark.parametrize("ideal,position", [("1/7*x1^2", 0), ("x2 - 2/14*x1^2", 5)])
    def test_denominator_divisible_by_the_characteristic(self, capsys, ideal, position):
        code, out, err = run(capsys, "hilbert", "--field", "7", "--ideal", ideal, "--level", "5")
        assert (code, out) == (2, "")
        assert err == f"error: denominator divisible by 7 (at position {position})\n"

    def test_large_prime_field(self, capsys):
        # 2^61 - 1 is proven prime at once; 2^89 - 1, prime too, lies past
        # the bound below which the primality test is exact
        code, payload, _ = run_json(capsys, "hilbert", "--N", "2", "--field", str(2 ** 61 - 1),
                                    "--level", "4", "--ideal", "x1^2")
        assert code == 0 and payload["input"]["field"] == f"GF({2 ** 61 - 1})"
        assert payload["values"] == [1, 3, 5, 7]
        code, out, err = run(capsys, "hilbert", "--field", str(2 ** 89 - 1), "--ideal", "x1^2",
                             "--level", "4")
        assert (code, out) == (2, "")
        assert err.startswith("error: characteristic must be below 3317044064679887385961981")

    @pytest.mark.parametrize("n_vars", [2, 3])
    def test_zero_dimensional_exit_code(self, capsys, n_vars):
        argv = ["hilbert", "--N", str(n_vars), "--level", "6"]
        for i in range(1, n_vars + 1):
            argv += ["--ideal", f"x{i}^2"]
        code, payload, _ = run_json(capsys, *argv)
        assert code == 3
        assert payload["status"] == "dim_0"
        assert (payload["e0"], payload["e1"], payload["stab_index"]) == (None, None, None)
        assert "intro_form" not in payload and "tail_form" not in payload


class TestDeterminism:
    def test_byte_identical_reports(self, capsys):
        outs = []
        for _ in range(2):
            _, out, _ = run(
                capsys, "hilbert", "--ideal", "x2^2 - x1^3", "--level", "7"
            )
            outs.append(out)
        assert outs[0] == outs[1]
        outs = []
        for _ in range(2):
            _, out, _ = run(capsys, "enumerate", "--e0", "1", "--n", "3", "--q", "2")
            outs.append(out)
        assert outs[0] == outs[1]


class TestSubcommands:
    def test_initial(self, capsys):
        code, payload, _ = run_json(
            capsys, "initial", "--N", "3", "--level", "8",
            "--ideal", "x3^2", "--ideal", "x2*x3", "--ideal", "x1^4*x2",
        )
        assert code == 0
        assert payload["vstar"] == [2, 2, 5] and payload["nu"] == 3

    def test_stdbasis(self, capsys):
        code, payload, _ = run_json(
            capsys, "stdbasis", "--level", "8",
            "--ideal", "x1^2 - x2^3", "--ideal", "x1*x2^2",
        )
        assert code == 0
        assert payload["standard_basis"] is False
        assert payload["failing_degree"] == 5
        assert payload["missing_initial_form"] == "x2^5"

    def test_nu(self, capsys):
        code, payload, _ = run_json(
            capsys, "nu", "--level", "7", "--ideal", "x1^2", "--ideal", "x1^2 + x2^3"
        )
        assert code == 0 and payload["nu"] == 2

    def test_gamma_finite_and_divergent(self, capsys):
        code, payload, _ = run_json(
            capsys, "gamma", "--ideal", "x2", "--other", "x2 - x1^2", "--n-max", "8"
        )
        assert code == 0 and payload["gamma"] == 2
        code, payload, _ = run_json(
            capsys, "gamma", "--ideal", "x2", "--other", "x2", "--n-max", "8"
        )
        assert code == 3 and payload["gamma"] == "infinity"

    def test_tn_and_shape_and_jtilde(self, capsys):
        code, payload, _ = run_json(
            capsys, "tn", "--ideal", "x1^3", "--n", "6", "--e0", "3"
        )
        assert code == 0 and payload["member"] is True and payload["L"] == "x1 + x2"
        code, payload, _ = run_json(
            capsys, "shape", "--ideal", "x1^3", "--n", "7", "--e0", "3"
        )
        assert code == 0 and payload["ok"] is True
        code, payload, _ = run_json(
            capsys, "jtilde", "--ideal", "x1^2 + x2^3", "--n", "8", "--e0", "2"
        )
        assert code == 0 and payload["generators"] == ["x1^2"]

    def test_tn_over_a_small_field(self, capsys):
        # F_3 has fewer than the 4 scalars of the moment curve at e0 = 3
        code, payload, _ = run_json(
            capsys, "tn", "--field", "3", "--N", "2", "--n", "6", "--e0", "3",
            "--ideal", "x1^3 + x2^3"
        )
        assert code == 0 and payload["member"] is True and payload["L"] == "x1"
        code, payload, _ = run_json(
            capsys, "tn", "--field", "2", "--n", "5", "--e0", "3", "--ideal", "x1^2*x2 + x1*x2^2"
        )
        assert code == 0 and payload["member"] is False
        assert "only the F_2-rational forms were scanned" in payload["detail"]

    def test_admissible(self, capsys):
        code, payload, _ = run_json(capsys, "admissible", "--b", "3", "--e0", "3")
        assert code == 0 and payload["rho0"] == 2 and payload["rho1"] == 2
        code, payload, _ = run_json(
            capsys, "admissible", "--b", "2", "--e0", "4", "--e1", "6"
        )
        assert code == 0 and payload["admissible"] is True
        # embedding dimension 1 is the smooth curve, whose e0 is 1
        assert run_json(capsys, "admissible", "--b", "1", "--e0", "3", "--e1", "0")[:2] == (
            0, {"admissible": False, "b": 1, "e0": 3, "e1": 0})

    def test_a_report_int_too_long_to_print_is_one_error_line(self, capsys):
        # rho1 has about 4400 digits, past the int-to-str limit: the report
        # cannot be written, so nothing of it reaches stdout
        code, out, err = run(capsys, "admissible", "--b", "2", "--e0", "9" * 2200)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "4300" in err

    def test_stratum(self, capsys):
        code, payload, _ = run_json(
            capsys, "stratum", "--ideal", "x2^2 - x1^3", "--level", "6",
            "--F", "1,3,5,7,9,11", "--r", "1",
        )
        assert code == 0 and payload["member"] is True

    @pytest.mark.parametrize("r", ["0", "-1"])
    def test_stratum_rejects_r_below_one(self, capsys, r):
        # it was read as r = 1 and answered "member": true
        assert run(capsys, "stratum", "--ideal", "x1", "--F", "1,2", "--r", r) == (
            2, "", f"error: r must be >= 1, got {r}\n")

    @pytest.mark.parametrize("argv, message", [
        (["jtilde", "--ideal", "x1^4", "--n", "5", "--e0", "2"],
         "no minimal generators of degree <= e0 below the level"),
        (["stratum", "--ideal", "x1", "--ideal", "x2", "--level", "6", "--F", "1,1", "--r", "1"],
         "the ideal is zero-dimensional: it cuts out no curve"),
        (["stratum", "--N", "3", "--level", "3", "--ideal", "x1*x2", "--ideal", "x1*x3",
          "--ideal", "x2*x3", "--F", "1,4,7,10", "--r", "1"],
         "level 3 too low to see t = 3"),
        # the cusp has multiplicity 2: a deformation of it at e0 = 3 is refused
        (["deform", "--N", "2", "--level", "6", "--e0", "3", "--base", "x2^2 - x1^3",
          "--perturb", "x1^2"],
         "base has multiplicity 2, not e0 = 3"),
    ], ids=["jtilde-no-generator", "stratum-dim-0", "stratum-level-below-window",
            "deform-e0-not-the-base-multiplicity"])
    def test_a_domain_error_is_one_error_line(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_superficial(self, capsys):
        code, payload, _ = run_json(
            capsys, "superficial", "--ideal", "x1^3", "--L", "x2", "--e0", "3"
        )
        assert code == 0
        assert payload["superficial_and_cm"] is True and payload["length_with_L"] == 3

    def test_superficial_rejects_unit_or_zero_form(self, capsys):
        code, out, err = run(
            capsys, "superficial", "--ideal", "x1^3", "--L", "1 + x1", "--e0", "3"
        )
        assert (code, out) == (2, "")
        assert err == "error: generator x1 + 1 is a unit: order must be >= 1\n"
        code, out, err = run(
            capsys, "superficial", "--ideal", "x1^3", "--L", "x1^9", "--e0", "3", "--level", "4"
        )
        assert (code, out, err) == (2, "", "error: zero generator\n")

    def test_superficial_never_extends_precision(self, capsys):
        # the test runs at level e0+1; terms of degree >= --level are unknown
        code, out, err = run(
            capsys, "superficial", "--ideal", "x1^2 - x2^3", "--L", "x1", "--e0", "3",
            "--level", "3",
        )
        assert (code, out, err) == (2, "", "error: cannot extend precision from 3 to 4\n")

    def test_cells(self, capsys):
        code, payload, _ = run_json(
            capsys, "cells", "--ideal", "x1^2", "--n", "5", "--e0", "2",
            "--i", "1,2,3", "--j", "4,5", "--q", "1",
        )
        assert code == 0 and payload["member"] is True

    @pytest.mark.parametrize("e0, q, n", [(1, 2, 6), (2, 2, 5), (2, 3, 4)], ids=str)
    def test_enumerate_prints_each_shared_row_once(self, capsys, monkeypatch, e0, q, n):
        # siblings share their prefix's rows; the report writes each row
        # object once and repeats its text wherever a member holds it
        from curvemoduli import ringcore as rc
        from curvemoduli import trunctower as tt

        printed, row_str = [], rc.MonomialTable.row_str

        def counted(self, row, field):
            printed.append(id(row))
            return row_str(self, row, field)

        monkeypatch.setattr(rc.MonomialTable, "row_str", counted)
        code, report, _ = run_json(capsys, "enumerate", "--e0", str(e0), "--n", str(n), "--q", str(q))
        ideals = tt.enumerate_xi(2, e0, n, rc.GF(q)).ideals
        rows = sum(len(J) for J in ideals)
        assert code == 0 and report["count"] == len(ideals)
        assert sum(len(J) for J in report["ideals"]) == rows
        assert len(printed) == len(set(printed)) < rows

    def test_enumerate(self, capsys):
        code, payload, _ = run_json(
            capsys, "enumerate", "--e0", "1", "--n", "3", "--q", "2"
        )
        assert code == 0 and payload["count"] == 6
        assert len(payload["ideals"]) == 6
        code, out, _ = run(
            capsys, "enumerate", "--e0", "1", "--n", "3", "--q", "2", "--table"
        )
        assert out.strip().splitlines()[-1] == "count: 6"

    def test_param(self, capsys):
        code, payload, _ = run_json(
            capsys, "param", "--branch", "t^2,t^3", "--precision", "18", "--level", "6"
        )
        assert code == 0
        assert payload["values"] == [1, 3, 5, 7, 9, 11]
        assert payload["e0"] == 2 and payload["e1"] == 1

    def test_param_job_file(self, capsys, tmp_path):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({
            "branches": [["t^6", "t^7", "t^10", "t^15"]],
            "precision": 75,
        }))
        code, payload, _ = run_json(
            capsys, "param", "--job", str(job), "--N", "4", "--level", "5"
        )
        assert code == 0 and payload["e0"] == 6

    def test_semigroup(self, capsys):
        code, payload, _ = run_json(capsys, "semigroup", "--gens", "6,7,10,15")
        assert code == 0
        assert payload["delta"] == 8 and payload["mu_one_branch"] == 16

    def test_normflat(self, capsys):
        code, payload, _ = run_json(
            capsys, "normflat", "--N", "3", "--level", "5", "--precision", "60",
            "--fiber", "t^7,t^8,t^9", "--fiber", "t^7,t^8,t^10",
        )
        assert code == 0
        assert payload["hilbert_function_constant"] is False

    def test_deform_flags_and_job(self, capsys, tmp_path):
        code, payload, _ = run_json(
            capsys, "deform", "--base", "x1^3", "--perturb", "x1",
            "--e0", "3", "--level", "8",
        )
        assert code == 0
        assert payload["verdict"] == "not a family"
        assert payload["flat_at_e0_plus_1"] is False
        job = tmp_path / "deform.json"
        job.write_text(json.dumps({
            "base": ["x1^3"], "perturbations": ["x2^3"], "e0": 3, "level": 8,
        }))
        code, payload, _ = run_json(capsys, "deform", "--job", str(job))
        assert code == 0 and payload["family"] is True

    def test_colon(self, capsys):
        code, payload, _ = run_json(
            capsys, "colon", "--ideal", "x1^3", "--K", "x1", "--K", "x2", "--level", "4"
        )
        assert code == 0 and payload["dimension"] == 4

    @pytest.mark.parametrize("level", ["1", "0", "-1"])
    @pytest.mark.parametrize("ideal, other", [("x1^3", "x1"), ("x1", "x2")],
                             ids=["high-order-first", "linear-first"])
    def test_colon_level_below_2_is_named_before_parsing(self, capsys, level, ideal, other):
        # either generator would be zero at that level; the level is the error
        assert run(capsys, "colon", "--level", level, "--ideal", ideal, "--K", other) == (
            2, "", "error: colon level must be >= 2\n")

    def test_determinantal(self, capsys):
        code, payload, _ = run_json(
            capsys, "determinantal", "--N", "3", "--level", "9",
            "--matrix", "x3,0;x1^4,x3;0,x2",
        )
        assert code == 0
        assert sorted(payload["minors"]) == ["x1^4*x2", "x2*x3", "x3^2"]

    def test_mps(self, capsys):
        code, payload, _ = run_json(
            capsys, "mps", "--class0", "1", "--n0", "3", "--N", "3", "--e0", "1",
            "--expand", "5",
        )
        assert code == 0
        assert payload["expansion"] == ["0", "0", "0", "L^6", "L^8", "L^10"]

    def test_volume(self, capsys):
        code, payload, _ = run_json(capsys, "volume", "--terms", "0:1;2:L")
        assert code == 0
        assert payload["partial_sum"] == "1 + L^-1"

    def test_specialize(self, capsys):
        code, payload, _ = run_json(capsys, "specialize", "--class", "L^2 - 1", "--q", "3")
        assert code == 0 and payload["value"] == "8"

    @pytest.mark.parametrize("argv", [
        ["mps", "--class0", "L -", "--n0", "1", "--N", "2", "--e0", "1"],
        ["specialize", "--class", "2*", "--q", "3"],
        ["volume", "--terms", "0:--L"],
    ], ids=["mps", "specialize", "volume"])
    def test_malformed_class_is_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: expected ") and err.count("\n") == 1

    def test_param_rejects_a_component_count_other_than_n(self, capsys):
        code, out, err = run(capsys, "param", "--N", "5", "--branch", "t^2,t^3",
                             "--precision", "20", "--level", "6")
        assert (code, out, err) == (2, "", "error: --N 5 but the branches have 2 components\n")
        code, payload, _ = run_json(capsys, "param", "--N", "2", "--branch", "t^2,t^3",
                                    "--precision", "20", "--level", "6")
        assert code == 0 and payload["e0"] == 2

    def test_normflat_branch_fiber_needs_precision(self, capsys):
        code, out, err = run(capsys, "normflat", "--fiber", "t^2,t^3")
        assert (code, out, err) == (2, "", "error: normflat --fiber needs --precision\n")

    def test_mps_rejects_negative_expansion(self, capsys):
        code, out, err = run(
            capsys, "mps", "--class0", "1", "--n0", "3", "--N", "2", "--e0", "2", "--expand", "-1"
        )
        assert (code, out) == (2, "")
        assert err == "error: expansion order must be >= 0, got -1\n"

    @pytest.mark.parametrize("argv", [
        ["enumerate", "--e0", "0", "--n", "3", "--q", "2"],
        ["enumerate", "--e0", "-1", "--n", "3", "--q", "2"],
        ["tn", "--ideal", "x2^2 - x1^3", "--n", "5", "--e0", "0"],
        ["shape", "--ideal", "x2^2 - x1^3", "--n", "5", "--e0", "0"],
        ["jtilde", "--ideal", "x2^2 - x1^3", "--n", "5", "--e0", "0"],
        ["superficial", "--ideal", "x2^2 - x1^3", "--L", "x1", "--e0", "0"],
        ["mps", "--class0", "1", "--n0", "1", "--N", "2", "--e0", "0"],
        # e0 is checked before the cell's indices are read against it
        ["cells", "--n", "5", "--e0", "0", "--ideal", "x1^2", "--i", "1", "--j", "2", "--q", "0"],
    ], ids=["enumerate-0", "enumerate-minus-1", "tn", "shape", "jtilde", "superficial", "mps",
            "cells"])
    def test_multiplicity_below_one_is_rejected(self, capsys, argv):
        assert run(capsys, *argv) == (2, "", "error: e0 must be >= 1\n")

    @pytest.mark.parametrize("argv, message", [
        (["enumerate", "--e0", "2", "--n", "4", "--q", "0"], "GF(p) needs a prime p, got 0"),
        (["enumerate", "--e0", "2", "--n", "4", "--q", "1"],
         "characteristic must be 0 or prime, got 1"),
        (["enumerate", "--e0", "2", "--n", "4", "--q", "4"],
         "characteristic must be 0 or prime, got 4"),
        (["hilbert", "--field", "0", "--ideal", "x1^2", "--level", "4"],
         "GF(p) needs a prime p, got 0"),
        (["hilbert", "--field", "Q", "--ideal", "x1^2", "--level", "4"],
         "--field expects 'rational' or a prime, got 'Q'"),
        (["hilbert", "--field", "rationals", "--ideal", "x1^2", "--level", "4"],
         "--field expects 'rational' or a prime, got 'rationals'"),
    ], ids=["q-0", "q-1", "q-4", "field-0", "field-Q", "field-rationals"])
    def test_a_field_outside_the_domain_is_refused(self, capsys, argv, message):
        # --field is 'rational' or a prime, and --q a prime: QQ is not F_q
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", ["tn", "shape", "jtilde"])
    def test_level_below_the_tn_window_is_rejected(self, capsys, command):
        # at n = e0+1 the window e0+1 .. n-1 is empty: no vacuous verdict
        code, out, err = run(capsys, command, "--ideal", "x1^3 + x2^4", "--n", "4", "--e0", "3")
        assert (code, out, err) == (2, "", "error: T_n needs n >= e0+2 = 5, got 4\n")

    @pytest.mark.parametrize("argv", [
        ["hilbert", "--ideal", "x1", "--level", "0"],
        ["nu", "--ideal", "x1", "--level", "-2"],
        ["gamma", "--ideal", "x1", "--other", "x2", "--n-max", "0"],
        ["tn", "--ideal", "x1^2", "--e0", "1", "--n", "0"],
        ["normflat", "--fiber-ideal", "x1^2", "--level", "0"],
        ["normflat", "--fiber", "t^2,t^3", "--precision", "10", "--level", "0"],
        ["stratum", "--ideal", "x1^2", "--F", "1,2", "--r", "1", "--level", "0"],
        ["param", "--branch", "t^2,t^3", "--precision", "40", "--level", "0"],
        ["param", "--branch", "t^2,t^3", "--precision", "40", "--level", "-1"],
        ["determinantal", "--matrix", "x1;x2", "--level", "0"],
    ], ids=["hilbert", "nu", "gamma", "tn", "normflat-ideal", "normflat-branch", "stratum",
            "param-0", "param-minus-1", "determinantal"])
    def test_level_below_one_is_rejected_by_name(self, capsys, argv):
        # the level is the last argument
        assert run(capsys, *argv) == (2, "", f"error: level must be >= 1, got {argv[-1]}\n")

    def test_param_below_the_analysis_level(self, capsys):
        code, out, err = run(capsys, "param", "--branch", "t^2,t^3", "--precision", "40",
                             "--level", "2")
        assert (code, out, err) == (2, "", "error: need level >= 3 to analyze, got 2\n")

    def test_mps_rejects_an_empty_ambient(self, capsys):
        code, out, err = run(capsys, "mps", "--class0", "1", "--n0", "1", "--N", "0", "--e0", "2")
        assert (code, out, err) == (2, "", "error: N must be >= 1\n")

    @pytest.mark.parametrize("argv", [
        ["hilbert", "--N", "0", "--level", "4", "--ideal", "x1"],
        ["nu", "--N", "0", "--level", "4", "--ideal", "2"],
        ["hilbert", "--N", "-1", "--level", "4", "--ideal", "x1"],
        ["gamma", "--N", "0", "--ideal", "x1", "--other", "x2"],
        ["tn", "--N", "0", "--n", "6", "--e0", "2", "--ideal", "x1^2"],
        ["determinantal", "--N", "0", "--level", "4", "--matrix", "x1;x2"],
    ], ids=["hilbert", "nu-unit", "hilbert-minus-1", "gamma", "tn", "determinantal"])
    def test_an_empty_ambient_is_rejected_before_any_parse(self, capsys, argv):
        # N is checked before any generator is read, so neither the index
        # of x1 nor the unit 2 is what the error names
        assert run(capsys, *argv) == (2, "", "error: N must be >= 1\n")

    def test_nu_with_exponents_past_255(self, capsys):
        # the span at level 300 holds exponents up to 299: packed monomial
        # keys in base 300 add without a carry, where one byte per exponent
        # would carry
        code, payload, _ = run_json(capsys, "nu", "--N", "2", "--level", "300",
                                    "--ideal", "x1^2 + x2^3", "--ideal", "x1*x2^2")
        assert (code, payload["nu"]) == (0, 2)

    def test_volume_rejects_a_repeated_index(self, capsys):
        code, out, err = run(capsys, "volume", "--terms", "1:L;2:1;01:L")
        assert (code, out, err) == (2, "", "error: term index s = 1 given twice\n")

    @pytest.mark.parametrize("argv,message", [
        (["hilbert", "--field", "abc", "--ideal", "x1"],
         "--field expects 'rational' or a prime, got 'abc'"),
        (["semigroup", "--gens", "2,x"], "--gens expects comma-separated integers, got '2,x'"),
        (["cells", "--ideal", "x1^2", "--n", "4", "--e0", "1", "--i", "1,a", "--j", "2",
          "--q", "0"], "--i expects comma-separated integers, got '1,a'"),
        (["cells", "--ideal", "x1^2", "--n", "4", "--e0", "1", "--i", "1", "--j", "2,a",
          "--q", "0"], "--j expects comma-separated integers, got '2,a'"),
        (["stratum", "--ideal", "x1^2", "--F", "1,a", "--r", "1"],
         "--F expects comma-separated integers, got '1,a'"),
        (["volume", "--terms", "L"], "--terms expects s:class pairs with an integer s, got 'L'"),
        (["volume", "--terms", "0:1;x:L"],
         "--terms expects s:class pairs with an integer s, got 'x:L'"),
        # a generator that the level cuts to zero is named with the level
        (["hilbert", "--ideal", "x1^2", "--ideal", "x2^9", "--level", "8"],
         "generator x2^9 is zero modulo M^8"),
        (["tn", "--ideal", "x2^2 - x1^3", "--ideal", "x1^7", "--n", "6", "--e0", "2"],
         "generator x1^7 is zero modulo M^6"),
        (["gamma", "--ideal", "x1", "--other", "x2", "--n-max", "1"],
         "generator x1 is zero modulo M^1"),
    ], ids=["field", "gens", "cells-i", "cells-j", "stratum-F", "volume-no-colon",
            "volume-index", "hilbert-cut-generator", "tn-cut-generator", "gamma-cut-generator"])
    def test_malformed_list_flag_is_named(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_normflat_rejects_fibers_in_different_ambients(self, capsys):
        code, out, err = run(capsys, "normflat", "--fiber", "t^2,t^3,t^4", "--precision", "20",
                             "--level", "5", "--fiber-ideal", "x1^2")
        assert (code, out, err) == (2, "", "error: fibers disagree on ambient or field\n")

    def test_param_builds_one_substitution(self, capsys, monkeypatch):
        built = []
        init = br._Substitution.__init__

        def counting_init(self, param, level):
            built.append(level)
            init(self, param, level)

        monkeypatch.setattr(br._Substitution, "__init__", counting_init)
        code, payload, _ = run_json(
            capsys, "param", "--N", "3", "--level", "8", "--branch", "t^3,t^4,t^5",
            "--precision", "40",
        )
        assert code == 0 and payload["kernel_generators"]
        assert built == [8]

    def test_level_default_is_eight_whatever_the_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("CURVEMODULI_LEVEL", "5")
        code, payload, _ = run_json(capsys, "hilbert", "--ideal", "x1^3")
        assert code == 0 and payload["input"]["level"] == DEFAULT_LEVEL == 8

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["curvemoduli", "admissible", "--b", "3", "--e0", "3"])
        code = main()
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and (payload["rho0"], payload["rho1"]) == (2, 2)

    def test_one_command_parser_keeps_the_full_usage(self):
        full, one = build_parser(), build_parser(["hilbert"])
        assert one.format_usage() == full.format_usage()
        hilbert = ["hilbert", "--ideal", "x1^3"]
        assert vars(one.parse_args(hilbert)) == vars(full.parse_args(hilbert))

    def test_budget_exit_code(self, capsys):
        code, payload, _ = run_json(
            capsys, "enumerate", "--e0", "4", "--n", "12", "--q", "3"
        )
        assert code == 3

    @pytest.mark.parametrize("n_vars", ["1", "3"])
    def test_enumerate_outside_the_plane_is_a_precondition_error(self, capsys, n_vars):
        # no level helps, so this is not the retry-at-a-higher-level exit 3
        code, out, err = run(capsys, "enumerate", "--N", n_vars, "--e0", "1", "--n", "3", "--q", "2")
        assert (code, out) == (2, "")
        assert err == "error: exhaustive search implemented for the plane only\n"

    @pytest.mark.parametrize("argv, message", [
        (["--N", "2", "--e0", "2", "--n", "3", "--q", "2", "--e1", "5"], "T_n needs n >= e0+2 = 4, got 3"),
        (["--N", "3", "--e0", "2", "--n", "5", "--q", "2", "--e1", "99"],
         "exhaustive search implemented for the plane only"),
    ], ids=["level", "plane"])
    def test_enumerate_domain_is_checked_before_e1(self, capsys, argv, message):
        # an e1 the plane cannot have is answered with count 0 only inside
        # the domain: a level below e0+2 or N != 2 is an error whatever e1
        assert run(capsys, "enumerate", *argv) == (2, "", f"error: {message}\n")


class TestJobFiles:
    """`--job` input, run as a user runs it: with ResourceWarning as an
    error, a handle freed while the job runs shows on stderr.  A job ends
    without the interpreter's teardown, so a handle kept until the end
    would not: `test_every_file_opened_is_closed` checks that in process."""

    def cli(self, *argv):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        return subprocess.run(
            [sys.executable, "-W", "error::ResourceWarning", "-m", "curvemoduli.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )

    def write(self, tmp_path, job):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(job))
        return str(path)

    def test_param_job_closes_its_file(self, tmp_path):
        job = self.write(tmp_path, {"branches": [["t^2", "t^3"]], "precision": 24})
        proc = self.cli("param", "--job", job, "--level", "8")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["kernel_generators"][0] == "-x1^3 + x2^2"

    def test_deform_job_closes_its_file(self, tmp_path):
        job = self.write(tmp_path, {"base": ["x1^3"], "perturbations": ["x1"], "e0": 3, "level": 8})
        proc = self.cli("deform", "--job", job)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["family"] is False

    @pytest.mark.parametrize("command,job", [
        ("param", {"branches": [["t^2", "t^3"]], "precision": 24}),
        ("deform", {"base": ["x1^3"], "perturbations": ["x1"], "e0": 3, "level": 8}),
    ], ids=["param", "deform"])
    def test_every_file_opened_is_closed(self, capsys, monkeypatch, tmp_path, command, job):
        opened = []

        def spy(*args, **kwargs):
            handle = real_open(*args, **kwargs)
            opened.append(handle)
            return handle

        real_open = builtins.open
        monkeypatch.setattr(builtins, "open", spy)
        path = self.write(tmp_path, job)
        assert main([command, "--job", path]) == 0
        assert path in [handle.name for handle in opened]
        assert all(handle.closed for handle in opened)
        assert json.loads(capsys.readouterr().out)

    def test_missing_job_file(self, tmp_path):
        proc = self.cli("param", "--job", str(tmp_path / "absent.json"))
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: cannot read job file") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("command,job", [
        ("param", {"precision": 24}),
        ("deform", {"base": ["x1^3"], "e0": 3, "level": 8}),
    ])
    def test_job_without_a_key(self, tmp_path, command, job):
        proc = self.cli(command, "--job", self.write(tmp_path, job))
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: job file") and proc.stderr.count("\n") == 1

    CUSP = {"branches": [["t^2", "t^3"]], "precision": 9}
    DEFORM = {"base": ["x1^3"], "perturbations": ["x1"], "e0": 3, "level": 8}

    @pytest.mark.parametrize("command,job,message", [
        ("param", {**CUSP, "precision": "9"}, 'precision expects an integer, got "9"'),
        ("param", {**CUSP, "precision": True}, "precision expects an integer, got true"),
        ("param", {**CUSP, "branches": [[2, 3]]},
         "branches expects a list of lists of strings, got [[2, 3]]"),
        ("param", {**CUSP, "branches": "t^2,t^3"},
         'branches expects a list of lists of strings, got "t^2,t^3"'),
        ("deform", {**DEFORM, "level": "8"}, 'level expects an integer, got "8"'),
        ("deform", {**DEFORM, "e0": "3"}, 'e0 expects an integer, got "3"'),
        ("deform", {**DEFORM, "base": "x1^3"}, 'base expects a list of strings, got "x1^3"'),
        ("deform", {**DEFORM, "perturbations": [1]},
         "perturbations expects a list of strings, got [1]"),
    ], ids=["precision-string", "precision-bool", "branches-numbers", "branches-string",
            "level-string", "e0-string", "base-string", "perturbations-numbers"])
    def test_job_value_of_another_shape(self, tmp_path, command, job, message):
        # a value is never coerced: it must have its key's shape
        path = self.write(tmp_path, job)
        proc = self.cli(command, "--level", "3", "--job", path)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: job file {path}: {message}\n"

    def test_job_file_that_is_not_json(self, tmp_path):
        path = tmp_path / "job.json"
        path.write_text("branches: t^2,t^3\n")
        proc = self.cli("param", "--level", "3", "--job", str(path))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            f"error: job file {path} is not JSON: Expecting value: line 1 column 1 (char 0)\n")

    @pytest.mark.parametrize("text, message", [
        ("branches: t^2,t^3\n", " is not JSON: Expecting value: line 1 column 1 (char 0)"),
        (json.dumps({"branches": "t^2", "precision": 10}),
         ': branches expects a list of lists of strings, got "t^2"'),
    ], ids=["not-json", "branches-string"])
    def test_a_malformed_job_is_refused_in_process(self, capsys, tmp_path, text, message):
        # the same refusals as above, through `main` in this process
        path = tmp_path / "job.json"
        path.write_text(text)
        assert run(capsys, "param", "--job", str(path)) == (
            2, "", f"error: job file {path}{message}\n")

    @pytest.mark.parametrize("argv", [
        ["param", "--level", "8"],
        ["param", "--branch", "t^2,t^3"],
        ["deform", "--base", "x1^3", "--perturb", "x1"],
    ])
    def test_neither_flags_nor_job(self, argv):
        proc = self.cli(*argv)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith(f"error: {argv[0]} needs --job or all of")
        assert proc.stderr.count("\n") == 1


class Stream(io.StringIO):
    """A standard stream that logs its flushes into `steps`, and can fail
    them with `error`."""

    def __init__(self, name, steps, error=None):
        super().__init__()
        self.name, self.steps, self.error = name, steps, error

    def flush(self):
        self.steps.append(("flush", self.name, self.getvalue()))
        if self.error:
            raise self.error


class TestRun:
    """`cli.run` ends the process after `main`, the atexit callbacks and
    the flush of both streams.  In process, `os._exit` and
    `atexit._run_exitfuncs` only log their calls: the real ones would end
    pytest or run its own exit callbacks.  The streams are replaced in the
    test body, since pytest's capture sets them again after set-up."""

    @pytest.fixture
    def steps(self, monkeypatch):
        steps = []
        monkeypatch.setattr(os, "_exit", lambda code: steps.append(("exit", code)))
        monkeypatch.setattr(atexit, "_run_exitfuncs", lambda: steps.append(("atexit",)))
        return steps

    @staticmethod
    def streams(monkeypatch, steps, error=None):
        monkeypatch.setattr(sys, "stdout", Stream("stdout", steps, error))
        monkeypatch.setattr(sys, "stderr", Stream("stderr", steps))

    @pytest.mark.parametrize("argv,code,out,err", [
        (["semigroup", "--gens", "3,4"], 0,
         '{"conductor": 6, "delta": 3, "gaps": [1, 2, 5], "generators": [3, 4], '
         '"mu_one_branch": 6}\n', ""),
        (["semigroup", "--gens", "x"], 2, "",
         "error: --gens expects comma-separated integers, got 'x'\n"),
        (["gamma", "--ideal", "x2", "--other", "x2", "--n-max", "8"], 3,
         '{"divergent_at": 8, "gamma": "infinity"}\n', ""),
    ], ids=["ok", "precondition", "soft"])
    def test_exit_after_callbacks_and_flushes(self, monkeypatch, steps, argv, code, out, err):
        monkeypatch.setattr(sys, "argv", ["curvemoduli", *argv])
        self.streams(monkeypatch, steps)
        cli.run()
        assert steps == [("atexit",), ("flush", "stdout", out), ("flush", "stderr", err),
                         ("exit", code)]

    def test_failed_flush_exits_the_usual_way(self, monkeypatch, steps):
        self.streams(monkeypatch, steps, BrokenPipeError(32, "pipe"))
        monkeypatch.setattr(sys, "argv", ["curvemoduli", "gamma", "--ideal", "x2", "--other", "x2"])
        with pytest.raises(SystemExit) as exc:
            cli.run()
        assert exc.value.code == 3
        assert ("exit", 3) not in steps and steps[-1][:2] == ("flush", "stdout")

    def test_main_never_ends_the_process(self, monkeypatch, steps):
        self.streams(monkeypatch, steps)
        for argv in (["semigroup", "--gens", "3,4"], ["semigroup", "--gens", "x"]):
            assert main(argv) in (0, 2)
        assert steps == []

    def test_soft_outcome_exits_three_with_its_report(self):
        proc = run_process("gamma", "--ideal", "x2", "--other", "x2", "--n-max", "8")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            3, '{"divergent_at": 8, "gamma": "infinity"}\n', "")

    def test_unknown_flag_exits_two_with_the_usage(self, capsys):
        # the bytes argparse prints for main in process
        argv = ["semigroup", "--gens", "3,4", "--bogus"]
        with pytest.raises(SystemExit):
            main(argv)
        usage = capsys.readouterr().err
        assert usage.startswith("usage: curvemoduli")
        assert usage.endswith("error: unrecognized arguments: --bogus\n")
        proc = run_process(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", usage)

    def test_registered_exit_callback_runs_before_the_flush(self):
        # its line is buffered behind the report and still reaches the pipe
        proc = run_process("semigroup", "--gens", "3,4",
                           prefix=["import atexit", "atexit.register(print, 'callback ran')"])
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.splitlines()[1:] == ["callback ran"]

    def test_closed_pipe_is_reported_as_before(self):
        # the interpreter's own message and exit code for an unflushable
        # stdout; a buffered stdout, so that the write waits for the flush
        r, w = os.pipe()
        os.close(r)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("PYTHONUNBUFFERED", None)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "curvemoduli.cli", "semigroup", "--gens", "3,4"],
                env=env, stdout=w, stderr=subprocess.PIPE, text=True, timeout=120)
        finally:
            os.close(w)
        assert proc.returncode == 120
        assert proc.stderr.endswith("BrokenPipeError: [Errno 32] Broken pipe\n")
