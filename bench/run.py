"""curvemoduli benchmark: CLI batch jobs, timed as a user runs them.

    python3 bench/run.py --workload spans_n3 --seed 1 --seconds 30 --trace 0

One client runs one `python -m curvemoduli.cli` child at a time (a closed
loop) through whole rounds of its workload, as many as took --seconds at
the seed commit (so both sides of a comparison run the same jobs), checks
every exit code and report with `checks.py`, and prints a detail line and
then one JSON result line.  --trace 0 reports the end-to-end metrics;
--trace 1 runs every job once through `trace_entry.py` and once plainly,
and reports the per-layer metrics and the tracing overhead.  Jobs with a
known defect at the seed commit are not in the timed rounds; they run once,
untimed, and the details say whether the defect is still present.

Children get a pinned environment: PYTHONPATH=src, PYTHONHASHSEED=0, no
CURVEMODULI_LEVEL (every level is passed explicitly), and a bytecode cache
under .bench_build/ that set-up warms, so no __pycache__ lands in src/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SPAWNS = 9
JOB_TIMEOUT_S = 120
SETUP_CODE = "import curvemoduli.cli as c; c.build_parser()"
REFERENCE_JOB = os.path.join(HERE, "reference_job.py")
# median wall time of reference_job.py on the 2-CPU x86-64 KVM guest with
# CPython 3.11 that defined the benchmark, in a quiet period
REFERENCE_S = 0.085
REFERENCE_WINDOW = 5
REFERENCE_EVERY_S = 0.25  # job wall time after which a reference job runs


def child_env():
    return {
        "PATH": os.environ.get("PATH", os.defpath),
        "PYTHONPATH": SRC,
        "PYTHONPYCACHEPREFIX": os.path.join(BUILD, "pycache"),
        "PYTHONHASHSEED": "0",
    }


def git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def source_sha():
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "curvemoduli")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def spawn(cmd, env):
    """Run one child to completion: (returncode, stdout, wall_s, cpu_s)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=JOB_TIMEOUT_S)
        code, out = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        code, out = None, ""
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return code, out, wall, cpu


def set_up(run):
    """Warm the bytecode cache, then time job-shaped start-ups, each
    followed by a reference job: (start-up walls, their scale factors)."""
    os.makedirs(os.path.join(BUILD, "trace"), exist_ok=True)
    warm = [sys.executable, "-c", SETUP_CODE + "; import curvemoduli"]
    if spawn(warm, run.env)[0] != 0:
        raise RuntimeError("curvemoduli.cli does not import")
    walls, refs = [], []
    for _ in range(SETUP_SPAWNS):
        walls.append(spawn([sys.executable, "-c", SETUP_CODE], run.env)[2])
        refs.append(run.reference())
    return walls, scales(refs)


def scales(refs):
    """Machine-speed factor at each reference job: REFERENCE_S over the
    median of the REFERENCE_WINDOW reference walls nearest to it.  A job
    takes the factor of the first reference job run after it."""
    window = min(REFERENCE_WINDOW, len(refs))
    out = []
    for i in range(len(refs)):
        lo = max(0, min(i - window // 2, len(refs) - window))
        out.append(REFERENCE_S / statistics.median(refs[lo:lo + window]))
    return out


def tail(walls):
    """The highest percentile with at least ten jobs beyond it:
    (value, percentile, jobs beyond)."""
    ordered = sorted(walls)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - k - 1


def known_cause(expect, problems):
    if expect["kind"] == "enumerate" and expect["e0"] >= 3 and any("count 0" in p for p in problems):
        return ("enumerate_xi compares H1(t) with e0(t+1)-e1 also for t < e0-1,"
                " so no e0 >= 3 candidate passes its Hilbert filter")
    return None


def probe_known_defects(workload, env):
    """Run the workload's known-defect probes once, untimed and outside
    `attempted`: whether each defect is still present, and why."""
    found = []
    for job in workloads.KNOWN_DEFECT_PROBES.get(workload, []):
        code, out, _, _ = spawn(cli_cmd(job["argv"]), env)
        problems = checks.check(job["expect"], code, out, {})
        found.append({"argv": job["argv"], "present": bool(problems), "problems": problems[:3],
                      "known_cause": known_cause(job["expect"], problems)})
    return found


class Run:
    """Closed-loop execution of whole rounds, with checked results."""

    def __init__(self, rounds, env):
        self.rounds, self.env = rounds, env
        self.memo = {}
        self.attempted = 0
        self.failures = []

    def reference(self):
        code, _, wall, _ = spawn([sys.executable, REFERENCE_JOB], self.env)
        if code != 0:
            raise RuntimeError("the reference job failed")
        return wall

    def execute(self, cmd, job):
        code, out, wall, cpu = spawn(cmd, self.env)
        problems = checks.check(job["expect"], code, out, self.memo)
        self.attempted += 1
        if problems:
            self.failures.append({"argv": job["argv"], "problems": problems[:3],
                                  "known_cause": known_cause(job["expect"], problems)})
        return wall, cpu

    def loop(self, per_job):
        t0 = time.perf_counter()
        for jobs in self.rounds:
            for job in jobs:
                per_job(job)
        return len(self.rounds), time.perf_counter() - t0


def cli_cmd(argv):
    return [sys.executable, "-m", "curvemoduli.cli", *argv]


def end_to_end(run, setup):
    walls, cpus, refs, ref_of_job = [], [], [], []
    since_reference = 0.0

    def per_job(job):
        nonlocal since_reference
        wall, cpu = run.execute(cli_cmd(job["argv"]), job)
        walls.append(wall)
        cpus.append(cpu)
        ref_of_job.append(len(refs))
        since_reference += wall
        if since_reference >= REFERENCE_EVERY_S:
            refs.append(run.reference())
            since_reference = 0.0

    rounds, elapsed = run.loop(per_job)
    if ref_of_job[-1] == len(refs):
        refs.append(run.reference())
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    factors = [scales(refs)[j] for j in ref_of_job]
    setup_walls, setup_factors = setup

    def summary(walls, cpus):
        tail_s, pct, beyond = tail(walls)
        return {
            "jobs_per_s": len(walls) / sum(walls),
            "job_p50_s": statistics.median(walls),
            "job_tail_s": tail_s,
            "cpu_s_per_job": sum(cpus) / len(cpus),
        }, pct, beyond

    raw, pct, beyond = summary(walls, cpus)
    raw["setup_s"] = statistics.median(setup_walls)
    scaled, _, _ = summary([w * f for w, f in zip(walls, factors)],
                           [c * f for c, f in zip(cpus, factors)])
    scaled["setup_s"] = statistics.median(w * f for w, f in zip(setup_walls, setup_factors))
    metrics = {name: (value, "1/s" if name == "jobs_per_s" else "s") for name, value in scaled.items()}
    metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
    detail = {"rounds": rounds, "jobs": len(walls), "elapsed_s": elapsed,
              "job_tail_percentile": pct, "jobs_beyond_tail": beyond, "unscaled": raw,
              "reference_median_s": statistics.median(refs),
              "machine_scale": {"min": min(factors), "max": max(factors)}}
    return metrics, detail


def per_layer(run):
    traced_walls, plain_walls, main_ns = [], [], []
    agg, counters = {}, {}
    imports = []

    def per_job(job):
        path = os.path.join(BUILD, "trace", "job.trace")
        if os.path.exists(path):
            os.remove(path)
        cmd = [sys.executable, os.path.join(HERE, "trace_entry.py"), path, *job["argv"]]
        wall, _ = run.execute(cmd, job)
        plain_wall, _ = run.execute(cli_cmd(job["argv"]), job)
        if not os.path.exists(path):
            return  # the job timed out; run.execute counted it as failed
        trace = tracing.read(path)
        if trace["open"]:
            raise RuntimeError(f"trace of {job['argv']} ended with open spans")
        summary = tracing.summarize(trace)
        traced_walls.append(wall)
        plain_walls.append(plain_wall)
        imports.append(trace["import_ns"])
        main_ns.append(summary.get("cli.main", {}).get("total_ns", 0))
        for name, row in summary.items():
            acc = agg.setdefault(name, {"calls": 0, "self_ns": 0, "total_ns": 0})
            for key in acc:
                acc[key] += row[key]
        for key, n in trace["counters"].items():
            counters[key] = counters.get(key, 0) + n
        counters["enumerate_xi.candidates"] = counters.get("enumerate_xi.candidates", 0) + \
            tracing.child_calls(trace, "trunctower.enumerate_xi", "trunctower.tn_membership")

    rounds, elapsed = run.loop(per_job)
    jobs = len(traced_walls)
    wall_ns = sum(traced_walls) * 1e9

    def row(name):
        return agg.get(name, {"calls": 0, "self_ns": 0, "total_ns": 0})

    def per_job_s(*names):
        return sum(row(n)["self_ns"] for n in names) / 1e9 / jobs

    def per_job_calls(*names):
        return sum(row(n)["calls"] for n in names) / jobs

    def ratio(num, den):
        return num / den if den else 0.0

    add_names = ("ringcore.echelon_add.qq", "ringcore.echelon_add.gf")
    poly_names = ("ringcore.poly_init", "ringcore.mul_monomial", "ringcore.poly_mul",
                  "ringcore.parse_poly", "ringcore.poly_str")
    adds = per_job_calls(*add_names) * jobs
    table_calls = counters.get("ringcore.monomial_table.calls", 0)
    candidates = counters.get("enumerate_xi.candidates", 0)
    metrics = {
        "ringcore.echelon_add.calls": (per_job_calls(*add_names), "calls/job"),
        "ringcore.echelon_add.useful_ratio": (ratio(counters.get("ringcore.echelon_add.useful", 0), adds), "ratio"),
        "ringcore.echelon_add.input_nnz": (ratio(counters.get("ringcore.echelon_add.input_nnz", 0), adds), "nnz"),
        "ringcore.echelon_add.qq.self_s": (per_job_s("ringcore.echelon_add.qq"), "s/job"),
        "ringcore.echelon_add.gf.self_s": (per_job_s("ringcore.echelon_add.gf"), "s/job"),
        "ringcore.echelon_reduce.calls": (per_job_calls("ringcore.echelon_reduce"), "calls/job"),
        "ringcore.echelon_reduce.self_s": (per_job_s("ringcore.echelon_reduce"), "s/job"),
        "ringcore.echelon.share": (per_job_s(*add_names, "ringcore.echelon_reduce") * jobs * 1e9 / wall_ns, "ratio"),
        "ringcore.polys.share": (per_job_s(*poly_names) * jobs * 1e9 / wall_ns, "ratio"),
        "ringcore.monomial_table.builds": (counters.get("ringcore.monomial_table.builds", 0) / jobs, "builds/job"),
        "ringcore.monomial_table.hit_ratio": (
            ratio(table_calls - counters.get("ringcore.monomial_table.builds", 0), table_calls), "ratio"),
        "idealcalc.degree_spans.rank_sum": (counters.get("idealcalc.degree_spans.rank_sum", 0) / jobs, "rank/job"),
        "trunctower.enumerate_xi.candidates": (candidates / jobs, "candidates/job"),
        "trunctower.enumerate_xi.member_ratio": (
            ratio(counters.get("trunctower.enumerate_xi.members", 0), candidates), "ratio"),
        "cli.import_s": (sum(imports) / 1e9 / jobs, "s/job"),
        "cli.startup_share": (1.0 - sum(main_ns) / wall_ns, "ratio"),
        "trace.overhead_frac": (sum(traced_walls) / sum(plain_walls) - 1.0, "ratio"),
    }
    for name in poly_names[:3] + ("ringcore.poly_str", "idealcalc.degree_spans", "trunctower.tn_membership",
                                 "branches.substitution", "deform.colon"):
        metrics[name + ".calls"] = (per_job_calls(name), "calls/job")
    for name in poly_names + (
            "idealcalc.degree_spans", "idealcalc.initial_ideal", "idealcalc.standard_basis_check",
            "idealcalc.min_generators", "trunctower.tn_membership", "trunctower.enumerate_xi",
            "branches.substitution", "branches.hilbert_from_param", "branches.ideal_from_param",
            "deform.colon", "deform.flatness_direct", "motivic.expand", "motivic.parse_motivic",
            "cli.main"):
        metrics[name + ".self_s"] = (per_job_s(name), "s/job")
    detail = {"rounds": rounds, "jobs": jobs, "elapsed_s": elapsed}
    return metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "curvemoduli", "cli.py")):
        sys.stderr.write(f"error: no curvemoduli sources under {SRC}\n")
        return 2
    count = workloads.rounds_for(args.workload, args.seconds)
    if args.trace:
        count = max(1, count // 2)  # every traced job also runs plainly
    run = Run(workloads.generate(args.workload, args.seed, count), child_env())
    setup = set_up(run)
    if args.trace:
        metrics, detail = per_layer(run)
    else:
        metrics, detail = end_to_end(run, setup)

    detail.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "inputs_sha256": workloads.fingerprint(run.rounds),
        "attempted": run.attempted, "failed": len(run.failures),
        "failed_frac": len(run.failures) / run.attempted,
        "failures": run.failures[:20],
        "known_defects": probe_known_defects(args.workload, run.env),
        "environment": {
            "python": sys.version.split()[0], "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "git_sha": git_sha(), "source_sha256": source_sha(), "child_env": run.env,
        },
    })
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    out = os.path.join(BUILD, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1, sort_keys=True)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
