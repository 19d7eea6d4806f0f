"""Tests of the benchmark itself: python3 -m pytest -q bench

They spawn real CLI children with the benchmark's pinned environment, so
every check is exercised on genuine reports before it is trusted to reject
corrupted ones.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import run
import tracing
import workloads


def _cli(argv):
    proc = subprocess.run(run.cli_cmd(argv), env=run.child_env(), cwd=run.ROOT,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generation_is_deterministic_per_seed(name):
    a = workloads.generate(name, 7, rounds=3)
    assert a == workloads.generate(name, 7, rounds=3)
    assert workloads.fingerprint(a) == workloads.fingerprint(workloads.generate(name, 7, rounds=3))
    assert workloads.fingerprint(a) != workloads.fingerprint(workloads.generate(name, 8, rounds=3))


def test_rounds_have_a_fixed_mix_of_kinds():
    for name in workloads.WORKLOADS:
        kinds = [sorted(j["expect"]["kind"] for j in r) for r in workloads.generate(name, 3, rounds=4)]
        assert all(k == kinds[0] for k in kinds), name


# one corruption per report kind: (report key, function of the old value)
CORRUPT = {
    "ci_hilbert": ("values", lambda v: v[:-1] + [v[-1] + 1]),
    "ci_initial": ("slice_dims", lambda v: v[:-1] + [v[-1] + 1]),
    "ci_stdbasis": ("standard_basis", lambda v: False),
    "ci_nu": ("nu", lambda v: v + 1),
    "semigroup_hilbert": ("values", lambda v: v[:-1] + [v[-1] + 1]),
    "enumerate": ("count", lambda v: 0),
    "param": ("values", lambda v: v[:-1] + [v[-1] - 1]),
    "semigroup": ("delta", lambda v: v + 1),
    "admissible": ("rho1", lambda v: v + 1),
    "mps": ("expansion", lambda v: v[:-1] + ["L"]),
    "volume": ("tail_norm_bound", lambda v: "1/3"),
    "specialize": ("value", lambda v: str(int(v.split("/")[0]) + 1)),
    "colon": ("dimension", lambda v: v + 1),
    "deform": ("family", lambda v: not v),
    "plane_hilbert": ("values", lambda v: v[:-1] + [v[-1] + 1]),
    "plane_tn": ("iso_range", lambda v: v[:-1]),
    "plane_shape": ("vstar", lambda v: v + [v[-1] + 1]),
    "plane_jtilde": ("verified", lambda v: False),
}


def _sample_jobs():
    """One small job of every kind, taken from the generated workloads."""
    jobs = {}
    for name in ("cli_mixed", "enum_fq", "spans_n3"):
        for job in workloads.generate(name, 5, rounds=2)[0]:
            if job["expect"].get("e1") is None:  # admissible: the range form
                jobs.setdefault(job["expect"]["kind"], job)
    argv = jobs["semigroup_hilbert"]["argv"]
    argv[argv.index("--level") + 1] = "12"  # keep the test quick
    jobs["semigroup_hilbert"]["expect"]["level"] = 12
    for kind in ("ci_hilbert", "ci_initial", "ci_stdbasis", "ci_nu"):
        argv, expect = jobs[kind]["argv"], jobs[kind]["expect"]
        argv[argv.index("--level") + 1] = "9"
        expect["level"] = 9
    enum = {"argv": ["enumerate", "--N", "2", "--e0", "2", "--n", "4", "--q", "2"],
            "expect": {"kind": "enumerate", "e0": 2, "q": 2, "n": 4}}
    jobs["enumerate"] = enum
    return jobs


SAMPLES = _sample_jobs()


def test_every_kind_is_sampled():
    assert set(SAMPLES) == set(CORRUPT)


@pytest.mark.parametrize("kind", sorted(CORRUPT))
def test_check_accepts_real_output_and_rejects_a_corruption(kind):
    job = SAMPLES[kind]
    code, out = _cli(job["argv"])
    assert checks.check(job["expect"], code, out, {}) == [], (job["argv"], out)
    report = json.loads(out)
    key, corrupt = CORRUPT[kind]
    bad = copy.deepcopy(report)
    bad[key] = corrupt(report[key])
    assert checks.check(job["expect"], code, json.dumps(bad), {}), (kind, key)
    assert checks.check(job["expect"], 1 - min(code, 1), out, {}), "wrong exit code accepted"


def test_enumerate_pair_ratio_is_checked():
    expect = {"kind": "enumerate", "e0": 1, "q": 2, "n": 4}
    report = {"count": 12, "n": 4, "e0": 1, "q": 2, "ideals": [[str(i)] for i in range(12)]}
    assert checks.check(expect, 0, json.dumps(report), {("enumerate", 1, 2, 3): 6}) == []
    assert checks.check(expect, 0, json.dumps(report), {("enumerate", 1, 2, 3): 5})


def test_known_enumerate_defect_is_probed_outside_the_timed_rounds():
    (job,) = workloads.KNOWN_DEFECT_PROBES["enum_fq"]
    assert job["expect"]["e0"] == 3
    assert all(j["expect"]["e0"] < 3 for r in workloads.generate("enum_fq", 9, rounds=4) for j in r)
    code, out = _cli(job["argv"])
    problems = checks.check(job["expect"], code, out, {})
    assert problems and run.known_cause(job["expect"], problems)
    (probe,) = run.probe_known_defects("enum_fq", run.child_env())
    assert probe["present"] and probe["known_cause"]


def test_hilbert_series_closed_forms():
    assert checks.ci_graded(2, 2, 6) == [1, 3, 4, 4, 4, 4]
    assert checks.ci_graded(2, 3, 7) == [1, 3, 5, 6, 6, 6, 6]
    assert checks.valuation_h1([3, 4, 5], 4) == [1, 4, 7, 10, 13]
    assert checks.plane_h1(2, 5) == [1, 3, 5, 7, 9]


def test_parse_class_round_trips_printed_classes():
    assert checks.parse_class("3*L^2 - L + 1 - 2*L^-1") == {2: 3, 1: -1, 0: 1, -1: -2}
    assert checks.parse_class("-L^-3") == {-3: -1}
    assert checks.parse_class("0") == {}


def test_tail_has_ten_jobs_beyond_it():
    value, pct, beyond = run.tail([float(i) for i in range(40)])
    assert (value, beyond) == (29.0, 10) and pct == 75.0


def test_scales_follow_the_nearby_reference_jobs():
    refs = [run.REFERENCE_S] * 6 + [2 * run.REFERENCE_S] * 6
    factors = run.scales(refs)
    assert factors[0] == 1.0 and factors[-1] == 0.5
    assert run.scales([run.REFERENCE_S / 2]) == [2.0]


def test_self_times_sum_to_the_root_span():
    tracer = tracing.Tracer()

    def leaf(n):
        return sum(range(n))

    wrapped_leaf = tracer.wrap("leaf", leaf)

    def middle():
        return [wrapped_leaf(1000) for _ in range(3)]

    tracer.wrap("root", tracer.wrap("middle", middle))()
    path = os.path.join(run.BUILD, "test-synthetic.trace")
    os.makedirs(run.BUILD, exist_ok=True)
    tracer.write(path)
    trace = tracing.read(path)
    selfs = tracing.self_times(trace)
    root = trace["ends"][0] - trace["starts"][0]
    assert sum(selfs) == root and min(selfs) >= 0
    assert tracing.summarize(trace)["leaf"]["calls"] == 3
    assert tracing.child_calls(trace, "middle", "leaf") == 3


def test_traced_entry_records_a_job():
    path = os.path.join(run.BUILD, "test-job.trace")
    os.makedirs(run.BUILD, exist_ok=True)
    argv = ["tn", "--N", "2", "--n", "5", "--e0", "2", "--ideal", "x1^2 + x2^3"]
    proc = subprocess.run([sys.executable, os.path.join(run.HERE, "trace_entry.py"), path, *argv],
                          env=run.child_env(), cwd=run.ROOT, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0 and json.loads(proc.stdout)["member"] is True
    trace = tracing.read(path)
    assert trace["open"] == 0 and trace["names"][trace["name_ids"][0]] == "cli.main"
    selfs = tracing.self_times(trace)
    assert sum(selfs) == trace["ends"][0] - trace["starts"][0]
    summary = tracing.summarize(trace)
    for name in ("trunctower.tn_membership", "idealcalc.degree_spans", "ringcore.echelon_add.qq",
                 "ringcore.poly_init", "ringcore.parse_poly"):
        assert summary[name]["calls"] >= 1, name
    assert trace["counters"]["ringcore.monomial_table.calls"] >= 1


def test_refuses_to_run_without_the_program():
    bare = os.path.join(run.BUILD, "test-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli_mixed",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout == ""
