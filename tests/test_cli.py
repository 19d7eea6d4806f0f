import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from curvemoduli import branches as br
from curvemoduli.cli import DEFAULT_LEVEL, build_parser, main


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

    def test_parse_error_exit_two(self, capsys):
        code, _, err = run(capsys, "hilbert", "--ideal", "x9", "--N", "2", "--level", "5")
        assert code == 2
        assert "out of range" in err


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

    def test_admissible(self, capsys):
        code, payload, _ = run_json(capsys, "admissible", "--b", "3", "--e0", "3")
        assert code == 0 and payload["rho0"] == 2 and payload["rho1"] == 2
        code, payload, _ = run_json(
            capsys, "admissible", "--b", "2", "--e0", "4", "--e1", "6"
        )
        assert code == 0 and payload["admissible"] is True

    def test_stratum(self, capsys):
        code, payload, _ = run_json(
            capsys, "stratum", "--ideal", "x2^2 - x1^3", "--level", "6",
            "--F", "1,3,5,7,9,11", "--r", "1",
        )
        assert code == 0 and payload["member"] is True

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

    def test_cells(self, capsys):
        code, payload, _ = run_json(
            capsys, "cells", "--ideal", "x1^2", "--n", "5", "--e0", "2",
            "--i", "1,2,3", "--j", "4,5", "--q", "1",
        )
        assert code == 0 and payload["member"] is True

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
        ["superficial", "--ideal", "x2^2 - x1^3", "--L", "x1", "--e0", "0"],
        ["mps", "--class0", "1", "--n0", "1", "--N", "2", "--e0", "0"],
    ], ids=["enumerate-0", "enumerate-minus-1", "tn", "shape", "superficial", "mps"])
    def test_multiplicity_below_one_is_rejected(self, capsys, argv):
        assert run(capsys, *argv) == (2, "", "error: e0 must be >= 1\n")

    def test_mps_rejects_an_empty_ambient(self, capsys):
        code, out, err = run(capsys, "mps", "--class0", "1", "--n0", "1", "--N", "0", "--e0", "2")
        assert (code, out, err) == (2, "", "error: N must be >= 1\n")

    def test_volume_rejects_a_repeated_index(self, capsys):
        code, out, err = run(capsys, "volume", "--terms", "1:L;2:1;01:L")
        assert (code, out, err) == (2, "", "error: term index s = 1 given twice\n")

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


class TestJobFiles:
    """`--job` input, run as a user runs it: with ResourceWarning as an
    error, a leaked file handle shows on stderr."""

    SRC = Path(__file__).resolve().parents[1] / "src"

    def cli(self, *argv):
        env = dict(os.environ, PYTHONPATH=str(self.SRC))
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
