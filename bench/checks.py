"""Independent output checks for the benchmark jobs.

Every expected value is recomputed here from the job's parameters with
closed forms or direct counts (Hilbert series of a regular sequence,
semigroup valuation counts, monomial colon ideals, Laurent polynomial
arithmetic); nothing here imports curvemoduli.  `check` returns a list of
problems, empty when the job's exit code and report are right.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import accumulate
from math import comb

from workloads import mono_str

# ---------------------------------------------------------------------------
# Hilbert functions.


def ci_graded(a, b, level):
    """Coefficients of (1-T^a)(1-T^b)/(1-T)^3 for degrees 0..level-1."""
    num = {0: 1}
    for d in (a, b):
        nxt = dict(num)
        for e, c in num.items():
            nxt[e + d] = nxt.get(e + d, 0) - c
        num = nxt
    return [sum(c * comb(t - e + 2, 2) for e, c in num.items() if e <= t) for t in range(level)]


def semigroup_members(gens, bound):
    member = [False] * (bound + 1)
    member[0] = True
    for v in range(1, bound + 1):
        member[v] = any(g <= v and member[v - g] for g in gens)
    return member


def semigroup_data(gens):
    """(gaps, conductor) of <gens>, generators coprime."""
    m, bound = min(gens), 2 * max(gens) * max(gens)
    member = semigroup_members(gens, bound)
    gaps = [v for v in range(bound + 1) if not member[v]]
    if bound - (gaps[-1] if gaps else 0) < m:
        raise ValueError(f"bound {bound} too small for {gens}")
    return gaps, (gaps[-1] + 1 if gaps else 0)


def valuation_h1(gens, t_max):
    """H1(0..t_max) of the monomial curve <gens>: the semigroup elements
    that are not a sum of t+1 nonzero elements."""
    _, conductor = semigroup_data(gens)
    bound = (t_max + 1) * min(gens) + conductor + max(gens)
    member = semigroup_members(gens, bound)
    sums = {v for v in range(1, bound + 1) if member[v]}
    out = []
    for _ in range(t_max + 1):
        out.append(sum(1 for v in range(bound + 1) if member[v] and v not in sums))
        sums = {s + g for s in sums for g in gens if s + g <= bound}
    return out


def plane_h1(e0, level):
    """H1 of a plane curve of order e0: C(t+2,2) - C(t-e0+2,2)."""
    return [comb(t + 2, 2) - (comb(t - e0 + 2, 2) if t >= e0 else 0) for t in range(level)]


def _hilbert_problems(rep, values, want_status="ok"):
    problems = []
    if rep.get("values") != values:
        problems.append(f"H1 {rep.get('values')} != expected {values}")
    graded = [values[0]] + [values[t] - values[t - 1] for t in range(1, len(values))]
    if rep.get("graded") != graded:
        problems.append(f"graded {rep.get('graded')} != expected {graded}")
    if rep.get("status") != want_status:
        problems.append(f"status {rep.get('status')!r} != {want_status!r}")
    elif want_status == "ok":
        n, e0 = len(values), graded[-1]
        if rep.get("e0") != e0 or rep.get("e1") != e0 * n - values[-1]:
            problems.append(f"(e0, e1) = ({rep.get('e0')}, {rep.get('e1')}),"
                            f" expected ({e0}, {e0 * n - values[-1]})")
    return problems


# ---------------------------------------------------------------------------
# Laurent polynomials in L, as printed by the CLI.


def parse_class(text):
    """'3*L^2 - L + 1 - L^-1' -> {2: 3, 1: -1, 0: 1, -1: -1}."""
    s = text.replace(" ", "").replace("^-", "^~")
    if s == "0":
        return {}
    out = {}
    for sign, body in re.findall(r"([+-]?)([^+-]+)", s):
        m = re.fullmatch(r"(?:(\d+)\*?)?(L(?:\^(~?\d+))?)?", body)
        if not m or not (m.group(1) or m.group(2)):
            raise ValueError(f"cannot parse class {text!r}")
        coeff = int(m.group(1)) if m.group(1) else 1
        exp = 0
        if m.group(2):
            exp = int(m.group(3).replace("~", "-")) if m.group(3) else 1
        out[exp] = out.get(exp, 0) + (-coeff if sign == "-" else coeff)
    return {e: c for e, c in out.items() if c}


def shift(cls, k):
    return {e + k: c for e, c in cls.items()}


# ---------------------------------------------------------------------------
# Per-kind checks.  Each takes the expectation and the parsed report.


def _check_ci(expect, rep):
    a, b, level = expect["a"], expect["b"], expect["level"]
    graded = ci_graded(a, b, level)
    kind = expect["kind"]
    if kind == "ci_hilbert":
        return _hilbert_problems(rep, list(accumulate(graded)))
    vstar = sorted([a, b])
    problems = []
    if kind == "ci_initial":
        dims = [comb(d + 2, 2) - graded[d] for d in range(level)]
        if rep.get("slice_dims") != dims:
            problems.append(f"slice_dims {rep.get('slice_dims')} != {dims}")
        counts = {str(d): len(ps) for d, ps in rep.get("min_generators", {}).items()}
        want = {str(d): vstar.count(d) for d in vstar}
        if counts != want:
            problems.append(f"minimal generator degrees {counts} != {want}")
    if kind in ("ci_initial", "ci_stdbasis") and rep.get("vstar") != vstar:
        problems.append(f"vstar {rep.get('vstar')} != {vstar}")
    if kind in ("ci_initial", "ci_nu") and rep.get("nu") != 2:
        problems.append(f"nu {rep.get('nu')} != 2")
    if kind == "ci_stdbasis" and (rep.get("standard_basis") is not True
                                  or rep.get("failing_degree") is not None):
        problems.append("generators not reported as a standard basis")
    return problems


def _check_enumerate(expect, rep, memo):
    e0, q, n = expect["e0"], expect["q"], expect["n"]
    problems = []
    count, ideals = rep.get("count"), rep.get("ideals", [])
    if (rep.get("n"), rep.get("e0"), rep.get("q")) != (n, e0, q):
        problems.append("report echoes the wrong (n, e0, q)")
    if count != len(ideals):
        problems.append(f"count {count} != {len(ideals)} ideals listed")
    if len({tuple(g) for g in ideals}) != len(ideals):
        problems.append("an ideal is listed twice")
    if not isinstance(count, int) or count < 1:
        # x1^e0 + M^n always lies in T_n, so the count is never 0
        problems.append(f"count {count} < 1 (x1^{e0} + M^{n} is always a member)")
    if e0 <= 2:
        # every binary form of degree <= 2 misses some F_q-rational linear
        # factor, so each projective initial form contributes q^(e0(n-e0-1))
        want = (q ** (e0 + 1) - 1) // (q - 1) * q ** (e0 * (n - e0 - 1))
        if count != want:
            problems.append(f"count {count} != {want}")
    prev = memo.get(("enumerate", e0, q, n - 1))
    if prev is not None and count != q ** e0 * prev:
        problems.append(f"count {count} != q^e0 * count(n-1) = {q ** e0 * prev}")
    memo[("enumerate", e0, q, n)] = count
    return problems


def _check_param(expect, rep):
    values = valuation_h1(expect["gens"], expect["level"] - 1)
    graded = [values[0]] + [values[t] - values[t - 1] for t in range(1, len(values))]
    status = "ok" if graded[-1] == graded[-2] else "not_stabilized"
    problems = _hilbert_problems(rep, values, status)
    if rep.get("branch_count") != 1 or not rep.get("kernel_generators"):
        problems.append("missing branch count or kernel generators")
    return problems


def _check_semigroup(expect, rep):
    gaps, conductor = semigroup_data(expect["gens"])
    want = {"generators": sorted(expect["gens"]), "gaps": gaps, "delta": len(gaps),
            "conductor": conductor, "mu_one_branch": 2 * len(gaps)}
    return [f"{k} {rep.get(k)} != {v}" for k, v in want.items() if rep.get(k) != v]


def admissible_range(b, e0):
    """(r, rho0, rho1): r pinned by C(b+r-1, r) <= e0 < C(b+r, r+1)."""
    r = 0
    while not comb(b + r - 1, r) <= e0 < comb(b + r, r + 1):
        r += 1
    return r, (r + 1) * e0 - comb(r + b, r), e0 * (e0 - 1) // 2 - (b - 1) * (b - 2) // 2


def _check_admissible(expect, rep):
    b, e0, e1 = expect["b"], expect["e0"], expect["e1"]
    r, rho0, rho1 = admissible_range(b, e0)
    if e1 is not None:
        want = rho0 <= e1 <= rho1
        return [] if rep.get("admissible") is want else [f"admissible {rep.get('admissible')} != {want}"]
    got = (rep.get("r"), rep.get("rho0"), rep.get("rho1"))
    return [] if got == (r, rho0, rho1) else [f"(r, rho0, rho1) {got} != {(r, rho0, rho1)}"]


def _check_mps(expect, rep):
    c = (expect["N"] - 1) * expect["e0"]
    class0 = parse_class(expect["class0"])
    want = [shift(class0, c * k) if k >= expect["n0"] else {} for k in range(expect["expand"] + 1)]
    got = [parse_class(t) for t in rep.get("expansion", [])]
    problems = [] if rep.get("c") == c else [f"c {rep.get('c')} != {c}"]
    if got != want:
        problems.append(f"expansion {rep.get('expansion')} != class0 * L^(c k) for k >= n0")
    return problems


def _check_volume(expect, rep):
    total, top = {}, 0
    for s, text in expect["terms"].items():
        cls = parse_class(text)
        top = max([top] + list(cls))
        for e, c in shift(cls, -int(s)).items():
            total[e] = total.get(e, 0) + c
    total = {e: c for e, c in total.items() if c}
    bound = Fraction(2) ** -(max(int(s) for s in expect["terms"]) + 1 - top)
    problems = []
    if parse_class(rep.get("partial_sum", "")) != total:
        problems.append(f"partial sum {rep.get('partial_sum')!r} is wrong")
    if rep.get("tail_norm_bound") != str(bound):
        problems.append(f"tail bound {rep.get('tail_norm_bound')} != {bound}")
    return problems


def _check_specialize(expect, rep):
    q = expect["q"]
    value = sum(c * Fraction(q) ** e for e, c in parse_class(expect["class"]).items())
    want = str(value.numerator) if value.denominator == 1 else str(value)
    return [] if rep.get("value") == want else [f"value {rep.get('value')} != {want}"]


def _check_colon(expect, rep):
    level, ideal, other = expect["level"], expect["ideal"], expect["K"]

    def in_ideal(m):
        return sum(m) >= level or any(all(x >= y for x, y in zip(m, g)) for g in ideal)

    n_vars = expect["N"]
    monos = [m for m in _all_monomials(n_vars, level - 1)
             if all(in_ideal(tuple(x + y for x, y in zip(m, k))) for k in other)]
    want = sorted(mono_str(m) for m in monos)
    problems = []
    if rep.get("dimension") != len(monos):
        problems.append(f"dimension {rep.get('dimension')} != {len(monos)}")
    if sorted(rep.get("basis", [])) != want:
        problems.append(f"basis {rep.get('basis')} != monomials {want}")
    return problems


def _all_monomials(n_vars, max_deg):
    if n_vars == 1:
        return [(d,) for d in range(max_deg + 1)]
    return [(e,) + rest for e in range(max_deg + 1) for rest in _all_monomials(n_vars - 1, max_deg - e)]


def _check_plane(expect, rep):
    e0, n, kind = expect["e0"], expect.get("n"), expect["kind"]
    if kind == "plane_hilbert":
        return _hilbert_problems(rep, plane_h1(e0, expect["level"]))
    if kind == "plane_tn":
        want = {"member": True, "length_with_L": e0, "iso_range": list(range(e0 - 1, n - 1)),
                "e0": e0, "level": n}
    elif kind == "plane_shape":
        want = {"ok": True, "vstar": [e0], "forbidden_degrees": [], "slice_identity_ok": True}
    else:
        want = {"verified": True, "slice_match": True, "multiplicity_ok": True}
        if len(rep.get("generators", [])) != 1:
            return [f"generators {rep.get('generators')} are not the single form x1^{e0}"]
    return [f"{k} {rep.get(k)} != {v}" for k, v in want.items() if rep.get(k) != v]


def _check_deform(expect, rep):
    fam, flat = rep.get("family"), rep.get("flat_at_e0_plus_1")
    if not isinstance(fam, bool) or fam != flat:
        return [f"colon verdict {fam} != flatness verdict {flat}"]
    if rep.get("per_generator_colon_membership") != [fam]:
        return ["per-generator verdicts disagree with the family verdict"]
    return []


_PLAIN = {
    "param": _check_param, "semigroup": _check_semigroup, "admissible": _check_admissible,
    "mps": _check_mps, "volume": _check_volume, "specialize": _check_specialize,
    "colon": _check_colon, "deform": _check_deform,
}


def expected_exit(expect):
    """Exit code the CLI must return: 3 only for a Hilbert report that has
    not stabilized."""
    if expect["kind"] == "param":
        values = valuation_h1(expect["gens"], expect["level"] - 1)
        return 0 if values[-1] - values[-2] == values[-2] - values[-3] else 3
    return 0


def check(expect, returncode, stdout, memo):
    """Problems with one job's result; `memo` carries counts between jobs."""
    want_rc = expected_exit(expect)
    if returncode != want_rc:
        return [f"exit code {returncode} != {want_rc}"]
    try:
        rep = json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return ["report is not a JSON object"]
    kind = expect["kind"]
    if kind.startswith("ci_"):
        return _check_ci(expect, rep)
    if kind == "semigroup_hilbert":
        return _hilbert_problems(rep, valuation_h1(expect["gens"], expect["level"] - 1))
    if kind == "enumerate":
        return _check_enumerate(expect, rep, memo)
    if kind.startswith("plane_"):
        return _check_plane(expect, rep)
    return _PLAIN[kind](expect, rep)
