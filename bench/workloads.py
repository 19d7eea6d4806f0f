"""Seeded job lists for the three benchmark workloads.

A job is a dict with the CLI arguments (`argv`, everything after
`python -m curvemoduli.cli`) and the parameters its checker needs
(`expect`).  Jobs come in rounds; a run executes whole rounds in order, so
every run measures the same mix of job kinds.  Everything that drives a
job's cost (command, field, level, term supports) is fixed per round slot;
the seed draws coefficients, small inputs, grid subsets within cost
tiers, and the job order.  That keeps the cost of a round nearly
independent of the seed while the inputs themselves change with it.

This module uses only the standard library and never imports curvemoduli.
"""

from __future__ import annotations

import hashlib
import json
import random
from math import gcd

MAX_ROUNDS = 40  # cap on the rounds of one run
GF_P = 32003

# ---------------------------------------------------------------------------
# Formatting in the CLI's polynomial language.


def mono_str(m):
    """Exponent tuple -> 'x1^2*x3' (the constant monomial is '1')."""
    parts = [f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(m) if e]
    return "*".join(parts) or "1"


def poly_text(terms):
    """[(coeff, exponent tuple), ...] -> '3*x1^2 - x2*x3', first term positive."""
    out = []
    for i, (c, m) in enumerate(terms):
        body = mono_str(m) if abs(c) == 1 else f"{abs(c)}*{mono_str(m)}"
        if i == 0:
            out.append(("-" if c < 0 else "") + body)
        else:
            out.append((" - " if c < 0 else " + ") + body)
    return "".join(out)


def _coeff(rng):
    return rng.randint(1, 9) * rng.choice((1, -1))


# ---------------------------------------------------------------------------
# spans_n3: N = 3 complete intersections f = x1^a + x3*h + tail,
# g = x2^b + x3*k + tail.  Their initial forms reduce to x1^a, x2^b modulo
# x3, so they form a regular sequence for every coefficient draw and the
# Hilbert function is that of (1-T^a)(1-T^b)/(1-T)^3.  The slot table fixes
# the supports and levels: span cost depends far more on the support than
# on the coefficients, and a random support would make a round's cost vary
# tenfold between seeds.

# (a, b) -> field -> [(x3*h monomial, x3*k monomial, f tail, g tail, level)],
# one slot per command of CI_COMMANDS
CI_SLOTS = {
    (2, 2): {
        "rational": [
            ((1, 0, 1), (0, 1, 1), [(4, 0, 0)], [(0, 2, 2)], 14),
            ((1, 0, 1), (1, 0, 1), [(4, 0, 0)], [(0, 4, 0)], 13),
            ((0, 0, 2), (1, 0, 1), [(1, 1, 2)], [(2, 0, 1)], 13),
            ((0, 0, 2), (0, 1, 1), [(3, 0, 0)], [(4, 0, 0)], 12),
        ],
        "gf": [
            ((1, 0, 1), (1, 0, 1), [(4, 0, 0), (2, 0, 2)], [(0, 4, 0)], 17),
            ((1, 0, 1), (0, 1, 1), [(4, 0, 0), (3, 0, 0)], [(0, 2, 2)], 16),
            ((1, 0, 1), (0, 0, 2), [(3, 0, 1), (1, 0, 2)], [(3, 0, 0)], 15),
            ((0, 0, 2), (1, 0, 1), [(1, 1, 2)], [(2, 0, 1), (0, 3, 0)], 15),
        ],
    },
    (2, 3): {
        "rational": [
            ((1, 0, 1), (0, 0, 3), [(3, 0, 1)], [(3, 0, 1)], 15),
            ((1, 0, 1), (0, 2, 1), [(3, 1, 0)], [(0, 5, 0)], 14),
            ((1, 0, 1), (2, 0, 1), [(2, 0, 1)], [(4, 0, 0)], 13),
            ((1, 0, 1), (2, 0, 1), [(2, 2, 0)], [(3, 0, 1)], 12),
        ],
        "gf": [
            ((1, 0, 1), (0, 0, 3), [(3, 0, 1), (1, 0, 2)], [(3, 0, 1)], 18),
            ((1, 0, 1), (0, 2, 1), [(3, 1, 0), (0, 3, 1)], [(0, 5, 0)], 16),
            ((1, 0, 1), (2, 0, 1), [(2, 0, 1)], [(4, 0, 0), (1, 2, 1)], 16),
            ((0, 0, 2), (1, 0, 2), [(3, 0, 0)], [(0, 4, 0), (4, 0, 0)], 15),
        ],
    },
}
CI_COMMANDS = ("hilbert", "initial", "stdbasis", "nu")

# the <3,4,5> monomial space curve, x = (t^3, t^4, t^5)
CURVE_345 = ["x1^3 - x2*x3", "x2^2 - x1*x3", "x3^2 - x1^2*x2"]
CURVE_345_LEVELS = {"rational": 20, "gf": 22}


def _field_arg(field):
    return "rational" if field == "rational" else str(GF_P)


def _ci_job(rng, command, a, b, field, slot):
    hm, km, ftail, gtail, level = slot
    f = [(1, (a, 0, 0)), (_coeff(rng), hm)] + [(_coeff(rng), m) for m in ftail]
    g = [(1, (0, b, 0)), (_coeff(rng), km)] + [(_coeff(rng), m) for m in gtail]
    argv = [command, "--N", "3", "--field", _field_arg(field), "--level", str(level),
            "--ideal", poly_text(f), "--ideal", poly_text(g)]
    return {"argv": argv, "expect": {"kind": "ci_" + command, "a": a, "b": b, "level": level}}


def spans_n3_round(rng):
    jobs = []
    for (a, b), by_field in CI_SLOTS.items():
        for field, slots in by_field.items():
            for command, slot in zip(CI_COMMANDS, slots):
                jobs.append(_ci_job(rng, command, a, b, field, slot))
    for field, level in CURVE_345_LEVELS.items():
        argv = ["hilbert", "--N", "3", "--field", _field_arg(field), "--level", str(level)]
        for g in CURVE_345:
            argv += ["--ideal", g]
        jobs.append({"argv": argv,
                     "expect": {"kind": "semigroup_hilbert", "gens": [3, 4, 5], "level": level}})
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# enum_fq: exhaustive enumeration over F_q in (n, n+1) pairs.  Grid cells
# sit in cost tiers and a round takes a fixed number from each tier, so the
# seed picks the subset without moving a round's cost much.  e0 = 3 is not
# in the grid: at the seed commit every e0 = 3 enumeration returns count 0
# (enumerate_xi applies its H1 filter also at t < e0 - 1), so it runs as a
# known-defect probe beside the timed rounds instead (KNOWN_DEFECT_PROBES).

ENUM_TIERS = [
    # (cells (e0, q, n) for the pair n, n+1; cells drawn per round)
    ([(1, 2, 5), (1, 3, 4), (1, 5, 3), (2, 2, 4)], 2),
    ([(1, 2, 7), (1, 3, 5), (2, 2, 5)], 2),
    ([(2, 3, 4)], 1),
]


def enumerate_job(e0, q, n):
    argv = ["enumerate", "--N", "2", "--e0", str(e0), "--n", str(n), "--q", str(q)]
    return {"argv": argv, "expect": {"kind": "enumerate", "e0": e0, "q": q, "n": n}}


def enum_fq_round(rng):
    pairs = []
    for cells, take in ENUM_TIERS:
        pairs.extend(rng.sample(cells, take))
    rng.shuffle(pairs)
    return [enumerate_job(e0, q, level) for e0, q, n in pairs for level in (n, n + 1)]


# ---------------------------------------------------------------------------
# cli_mixed: about thirty short jobs of every other kind, dominated by
# interpreter start-up.


def _random_semigroup(rng):
    while True:
        a = rng.randint(3, 6)
        b = rng.randint(a + 1, a + 4)
        c = rng.randint(b + 1, b + 4)
        if gcd(gcd(a, b), c) == 1 and c % a and c % b and b % a:
            return [a, b, c]


def _plane_curve(rng, e0):
    """x1^e0 + c*x2^(e0+k) + a random higher tail: order e0, in-form x1^e0."""
    terms = [(1, (e0, 0)), (_coeff(rng), (0, e0 + rng.randint(1, 2)))]
    d = e0 + 1
    i = rng.randint(1, d - 1)
    terms.append((_coeff(rng), (i, d - i)))
    return poly_text(terms)


def _motivic_text(rng, lo=-1, hi=3, nterms=3):
    exps = sorted(rng.sample(range(lo, hi + 1), nterms), reverse=True)
    pieces = []
    for i, e in enumerate(exps):
        c = _coeff(rng)
        body = "1" if e == 0 else ("L" if e == 1 else f"L^{e}")
        if abs(c) != 1:
            body = f"{abs(c)}*{body}" if e else str(abs(c))
        pieces.append((("-" if c < 0 else "") if i == 0 else (" - " if c < 0 else " + ")) + body)
    return "".join(pieces)


def _monomial_ideal(rng, n_vars, degrees, count):
    monos = set()
    while len(monos) < count:
        d = rng.choice(degrees)
        m = [0] * n_vars
        for _ in range(d):
            m[rng.randrange(n_vars)] += 1
        monos.add(tuple(m))
    return sorted(monos)


def cli_mixed_round(rng):
    jobs = []
    for _ in range(4):
        gens = _random_semigroup(rng)
        level = rng.randint(6, 8)
        field = rng.choice(["rational", str(GF_P)])
        argv = ["param", "--N", "3", "--field", field, "--level", str(level),
                "--branch", ",".join(f"t^{g}" for g in gens),
                "--precision", str(level * max(gens))]
        jobs.append({"argv": argv,
                     "expect": {"kind": "param", "gens": gens, "level": level}})
    for _ in range(3):
        gens = _random_semigroup(rng)
        jobs.append({"argv": ["semigroup", "--gens", ",".join(map(str, gens))],
                     "expect": {"kind": "semigroup", "gens": gens}})
    for i in range(3):
        e0 = rng.randint(3, 9)
        b = rng.randint(2, min(e0, 4))
        argv = ["admissible", "--b", str(b), "--e0", str(e0)]
        expect = {"kind": "admissible", "b": b, "e0": e0, "e1": None}
        if i == 2:
            e1 = rng.randint(0, e0 * (e0 - 1) // 2)
            argv += ["--e1", str(e1)]
            expect["e1"] = e1
        jobs.append({"argv": argv, "expect": expect})
    for _ in range(3):
        text = _motivic_text(rng)
        n0, n_vars, e0 = rng.randint(1, 3), rng.randint(2, 3), rng.randint(1, 4)
        expand = rng.randint(5, 9)
        argv = ["mps", "--class0", text, "--n0", str(n0), "--N", str(n_vars),
                "--e0", str(e0), "--expand", str(expand)]
        jobs.append({"argv": argv, "expect": {"kind": "mps", "class0": text, "n0": n0,
                                              "N": n_vars, "e0": e0, "expand": expand}})
    for _ in range(2):
        terms = {}
        for s in rng.sample(range(0, 6), 3):
            terms[s] = _motivic_text(rng, lo=0, hi=3, nterms=2)
        spec = ";".join(f"{s}:{cls}" for s, cls in sorted(terms.items()))
        jobs.append({"argv": ["volume", "--terms", spec],
                     "expect": {"kind": "volume", "terms": {str(s): c for s, c in terms.items()}}})
    for _ in range(2):
        text = _motivic_text(rng)
        q = rng.choice([2, 3, 4, 5, 7, 8, 9])
        jobs.append({"argv": ["specialize", "--class", text, "--q", str(q)],
                     "expect": {"kind": "specialize", "class": text, "q": q}})
    for _ in range(4):
        e0 = rng.randint(2, 5)
        level = rng.randint(7, 10)
        field = rng.choice(["rational", str(GF_P)])
        argv = ["hilbert", "--N", "2", "--field", field, "--level", str(level),
                "--ideal", _plane_curve(rng, e0)]
        jobs.append({"argv": argv, "expect": {"kind": "plane_hilbert", "e0": e0, "level": level}})
    for _ in range(3):
        e0 = rng.randint(2, 3)
        base = _plane_curve(rng, e0)
        order = rng.randint(1, e0)
        pert = poly_text([(_coeff(rng), (order - i, i)) for i in rng.sample(range(order + 1), 1)]
                         + [(_coeff(rng), (0, e0 + 1))])
        argv = ["deform", "--N", "2", "--field", rng.choice(["rational", str(GF_P)]),
                "--level", str(e0 + 2), "--e0", str(e0), "--base", base, "--perturb", pert]
        jobs.append({"argv": argv, "expect": {"kind": "deform"}})
    for _ in range(3):
        n_vars = rng.randint(2, 3)
        level = rng.randint(4, 6)
        ideal = _monomial_ideal(rng, n_vars, [2, 3], rng.randint(2, 3))
        other = _monomial_ideal(rng, n_vars, [1, 2], rng.randint(1, 2))
        argv = ["colon", "--N", str(n_vars), "--level", str(level)]
        for m in ideal:
            argv += ["--ideal", mono_str(m)]
        for m in other:
            argv += ["--K", mono_str(m)]
        jobs.append({"argv": argv, "expect": {"kind": "colon", "N": n_vars, "level": level,
                                              "ideal": ideal, "K": other}})
    for command in ("tn", "shape", "jtilde"):
        for _ in range(2):
            e0 = rng.randint(2, 3)
            n = e0 + rng.randint(2, 3)
            argv = [command, "--N", "2", "--field", rng.choice(["rational", "101"]),
                    "--n", str(n), "--e0", str(e0), "--ideal", _plane_curve(rng, e0)]
            jobs.append({"argv": argv, "expect": {"kind": "plane_" + command, "e0": e0, "n": n}})
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "spans_n3": spans_n3_round,
    "enum_fq": enum_fq_round,
    "cli_mixed": cli_mixed_round,
}

# jobs that fail at the seed commit for a known cause, run once per run
# outside the timed rounds: their outcome is reported in the details and
# counts neither as attempted nor as failed, so the timed workload holds
# only jobs that succeed while the defect stays visible
KNOWN_DEFECT_PROBES = {
    "enum_fq": [enumerate_job(3, 2, 5)],
}

# seconds per round: a run of S seconds executes S / ROUND_SECONDS rounds,
# a number fixed by S alone, so that a faster program runs the same jobs in
# less time.  Set so that S = 30 gives enough jobs for steady medians and
# tails (spans_n3 54, enum_fq 70, cli_mixed 165); at the seed commit such a
# run takes 30-45 s of wall time on the 2-CPU machine that defined the
# benchmark, reference jobs and set-up included
ROUND_SECONDS = {"spans_n3": 11.0, "enum_fq": 4.3, "cli_mixed": 6.0}


def rounds_for(workload, seconds):
    return min(MAX_ROUNDS, max(1, round(seconds / ROUND_SECONDS[workload])))


def generate(workload, seed, rounds):
    """The first `rounds` job rounds of a workload for a seed: same seed,
    same jobs."""
    make_round = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    return [make_round(rng) for _ in range(rounds)]


def fingerprint(rounds):
    """sha256 of the job list, so that two runs can show identical inputs."""
    blob = json.dumps(rounds, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
