"""Byte-for-byte differential of the CLI between this tree and a revision.

    python tools/differential.py REV

Lists every job of `bench.workloads.generate(workload, seed, rounds=2)` for
the three benchmark workloads and seeds 1-3, runs each as
`python -m curvemoduli.cli ARGV` once on this tree's `src/` and once on
REV's, and prints each job whose stdout, stderr or exit code differs.  REV
is checked out by `git archive` into a temporary directory (its committed
files only, and nothing is registered in the repository), which is removed
at the end.  Exits 0 when every job is byte-identical, 1 otherwise.

Children get the bench's pinned environment: PYTHONPATH pointing at the
tree's src, PYTHONHASHSEED=0, and a bytecode cache in the temporary
directory.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from collections import namedtuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("spans_n3", "enum_fq", "cli_mixed")
SEEDS = (1, 2, 3)
ROUNDS = 2
JOB_TIMEOUT_S = 120  # as in bench/run.py

# what a job leaves for comparison: exit code, and stdout and stderr as bytes
Outcome = namedtuple("Outcome", "code stdout stderr")


def _first_difference(a, b):
    """Index of the first item where two sequences differ (the shorter
    length when one is a prefix of the other)."""
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def differences(ours, theirs):
    """The fields in which two outcomes of one job differ, each with the
    first line and byte where it differs and up to 60 bytes of both sides
    from shortly before it; [] when they are byte-identical."""
    out = []
    if ours.code != theirs.code:
        out.append(f"exit code {ours.code} != {theirs.code}")
    for field in ("stdout", "stderr"):
        a = getattr(ours, field).splitlines(keepends=True)
        b = getattr(theirs, field).splitlines(keepends=True)
        if a == b:
            continue
        i = _first_difference(a, b)
        line_a = a[i] if i < len(a) else b""
        line_b = b[i] if i < len(b) else b""
        k = _first_difference(line_a, line_b)
        lo = max(0, k - 20)
        out.append(f"{field} line {i + 1}, byte {k + 1}: "
                   f"{line_a[lo:lo + 60]!r} != {line_b[lo:lo + 60]!r}")
    return out


def jobs():
    """(workload, seed, argv) for every job, in generation order."""
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import workloads

    for workload in WORKLOADS:
        for seed in SEEDS:
            for round_ in workloads.generate(workload, seed, rounds=ROUNDS):
                for job in round_:
                    yield workload, seed, job["argv"]


def run(tree, argv, pycache):
    env = {
        "PATH": os.environ.get("PATH", os.defpath),
        "PYTHONPATH": os.path.join(tree, "src"),
        "PYTHONPYCACHEPREFIX": pycache,
        "PYTHONHASHSEED": "0",
    }
    proc = subprocess.run([sys.executable, "-m", "curvemoduli.cli", *argv], env=env, cwd=tree,
                          capture_output=True, timeout=JOB_TIMEOUT_S)
    return Outcome(proc.returncode, proc.stdout, proc.stderr)


def check_out(rev, dest):
    """Extract the committed tree of `rev` into `dest`."""
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", "--format=tar", rev],
                               stdout=subprocess.PIPE)
    try:
        subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    finally:
        archive.stdout.close()
        if archive.wait():
            raise RuntimeError(f"git archive {rev} failed")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare this tree with")
    args = parser.parse_args(argv)
    total = differing = 0
    with tempfile.TemporaryDirectory(prefix="curvemoduli-differential-") as tmp:
        other = os.path.join(tmp, "tree")
        os.mkdir(other)
        check_out(args.rev, other)
        pycache = os.path.join(tmp, "pycache")
        for workload, seed, job in jobs():
            total += 1
            found = differences(run(ROOT, job, pycache), run(other, job, pycache))
            if found:
                differing += 1
                print(f"{workload} seed {seed}: {' '.join(job)}")
                for line in found:
                    print(f"    {line}")
    print(f"{total} jobs, {differing} differ from {args.rev}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
