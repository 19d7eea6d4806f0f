"""Batch command-line front end.

Every subcommand reads its inputs from flags (or a JSON job file where
noted), dispatches to the library, and prints one deterministic JSON report
to stdout (or an aligned table with --table where a table makes sense).
Exit codes: 0 success, 2 precondition or parse errors, 3 soft outcomes
(not stabilized, search budget exceeded, divergent intersection) that a
script can retry at a higher level, and zero-dimensional input ("dim_0").

The environment variable CURVEMODULI_LEVEL supplies the default working
level when --level is omitted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import branches as br
from . import deform as df
from . import idealcalc as ic
from . import motivic as mv
from . import ringcore as rc
from . import trunctower as tt

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_SOFT = 3


def _field(spec):
    if spec in ("rational", "rationals", "0", "Q"):
        return rc.QQ
    return rc.GF(int(spec))


def _default_level():
    return int(os.environ.get("CURVEMODULI_LEVEL", "8"))


def _emit(payload, table_lines=None, as_table=False):
    if as_table and table_lines is not None:
        sys.stdout.write("\n".join(table_lines) + "\n")
    else:
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _read_job(path, keys):
    """The values of `keys` in a JSON job file; a file that cannot be read
    or lacks a key is a precondition error."""
    try:
        with open(path) as fh:
            job = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read job file {path}: {exc.strerror}") from None
    missing = [k for k in keys if not isinstance(job, dict) or k not in job]
    if missing:
        raise ValueError(f"job file {path} lacks {', '.join(missing)}")
    return [job[k] for k in keys]


def _require(args, *flags):
    """Without --job, every listed flag must be given."""
    if any(getattr(args, f) is None for f in flags):
        names = ", ".join("--" + f for f in flags)
        raise ValueError(f"{args.command} needs --job or all of {names}")


def _gens_json(ideal):
    return [rc.poly_str(g) for g in ideal.generators]


def _hilbert_table(hd):
    ts = list(range(len(hd.values)))
    w = max(len(str(v)) for v in hd.values + ts) + 1
    lines = [
        "t  " + "".join(f"{t:>{w}}" for t in ts),
        "H1 " + "".join(f"{v:>{w}}" for v in hd.values),
        "H0 " + "".join(f"{v:>{w}}" for v in hd.graded),
        f"status: {hd.status}  e0: {hd.e0}  e1: {hd.e1}  stab_index: {hd.stab_index}",
    ]
    return lines


def cmd_hilbert(args):
    field = _field(args.field)
    ideal = ic.IdealPresentation.parse(args.ideal, args.N, field, args.level)
    hd = ic.hilbert_data(ideal, args.level)
    payload = hd.to_json()
    payload["input"] = {"ideal": _gens_json(ideal), "N": args.N, "level": args.level,
                        "field": str(field)}
    forms = hd.polynomial_forms()
    if forms:
        payload.update(forms)
    _emit(payload, _hilbert_table(hd), args.table)
    return EXIT_OK if hd.status == "ok" else EXIT_SOFT


def cmd_initial(args):
    field = _field(args.field)
    ideal = ic.IdealPresentation.parse(args.ideal, args.N, field, args.level)
    data = ic.initial_ideal(ideal, args.level)
    payload = {
        "vstar": data.vstar,
        "nu": data.nu,
        "slice_dims": data.slice_dims(),
        "min_generators": {
            str(d): [rc.poly_str(p) for p in polys]
            for d, polys in sorted(data.min_generators.items())
        },
        "input": {"ideal": _gens_json(ideal), "N": args.N, "level": args.level},
    }
    _emit(payload)
    return EXIT_OK


def cmd_stdbasis(args):
    field = _field(args.field)
    ideal = ic.IdealPresentation.parse(args.ideal, args.N, field, args.level)
    rep = ic.standard_basis_check(ideal, args.level)
    payload = {
        "standard_basis": rep.ok,
        "failing_degree": rep.failing_degree,
        "missing_initial_form": rc.poly_str(rep.missing_initial_form) if rep.missing_initial_form else None,
        "vstar": rep.vstar,
    }
    _emit(payload)
    return EXIT_OK


def cmd_nu(args):
    field = _field(args.field)
    ideal = ic.IdealPresentation.parse(args.ideal, args.N, field, args.level)
    _emit({"nu": ic.min_generators(ideal, args.level), "level": args.level})
    return EXIT_OK


def cmd_gamma(args):
    field = _field(args.field)
    ideal = ic.IdealPresentation.parse(args.ideal, args.N, field, args.n_max)
    other = ic.IdealPresentation.parse(args.other, args.N, field, args.n_max)
    value = ic.intersection_number(ideal, other, args.n_max)
    if value == ic.INTERSECTION_DIVERGENT:
        _emit({"gamma": "infinity", "divergent_at": args.n_max})
        return EXIT_SOFT
    _emit({"gamma": value})
    return EXIT_OK


def cmd_tn(args):
    field = _field(args.field)
    ideal = ic.IdealPresentation.parse(args.ideal, args.N, field, args.n)
    res = tt.tn_membership(ideal, args.n, args.e0)
    if isinstance(res, tt.TnFailure):
        _emit(res.to_json())
    else:
        payload = res.to_json()
        payload["member"] = True
        _emit(payload)
    return EXIT_OK


def cmd_shape(args):
    field = _field(args.field)
    ideal = ic.IdealPresentation.parse(args.ideal, args.N, field, args.n)
    rep = tt.shape_check(ideal, args.n, args.e0)
    _emit({
        "ok": rep.ok,
        "vstar": rep.vstar,
        "forbidden_degrees": rep.forbidden_degrees,
        "slice_identity_ok": rep.slice_identity_ok,
    })
    return EXIT_OK


def cmd_jtilde(args):
    field = _field(args.field)
    ideal = ic.IdealPresentation.parse(args.ideal, args.N, field, args.n)
    res = tt.jtilde(ideal, args.n, args.e0)
    _emit({
        "generators": _gens_json(res.ideal),
        "verified": res.verified,
        "slice_match": res.slice_match,
        "multiplicity_ok": res.multiplicity_ok,
    })
    return EXIT_OK if res.verified else EXIT_SOFT


def cmd_admissible(args):
    if args.e1 is not None:
        _emit({"admissible": tt.admissible(args.b, args.e0, args.e1),
               "b": args.b, "e0": args.e0, "e1": args.e1})
        return EXIT_OK
    rng = tt.admissible_range(args.b, args.e0)
    _emit({"b": rng.b, "e0": rng.e0, "r": rng.r, "rho0": rng.rho0, "rho1": rng.rho1})
    return EXIT_OK


def cmd_stratum(args):
    field = _field(args.field)
    ideal = ic.IdealPresentation.parse(args.ideal, args.N, field, args.level)
    F = [int(x) for x in args.F.split(",")]
    ok, mismatch = tt.hilbert_stratum_check(ideal, F, args.r, args.level)
    _emit({"member": ok, "first_mismatch_t": mismatch})
    return EXIT_OK


def cmd_superficial(args):
    field = _field(args.field)
    level = max(args.level, args.e0 + 1)
    ideal = ic.IdealPresentation.parse(args.ideal, args.N, field, level)
    L = rc.parse_poly(args.L, args.N, field, level)
    ok, cert = tt.cm_superficial_test(ideal, L, args.e0)
    payload = cert.to_json()
    payload["superficial_and_cm"] = ok
    _emit(payload)
    return EXIT_OK


def cmd_cells(args):
    field = _field(args.field)
    ideal = ic.IdealPresentation.parse(args.ideal, args.N, field, args.n)
    cell = tt.CellIndex(
        [int(x) for x in args.i.split(",")],
        [int(x) for x in args.j.split(",")],
        args.q,
    )
    member = tt.cell_membership(ideal, args.n, cell, args.e0)
    _emit({"member": member})
    return EXIT_OK


def cmd_enumerate(args):
    field = _field(str(args.q))
    try:
        res = tt.enumerate_xi(args.N, args.e0, args.n, field, e1=args.e1)
    except tt.BudgetExceededError as exc:
        _emit({"error": str(exc), "budget_exceeded": True})
        return EXIT_SOFT
    if args.table:
        lines = ["; ".join(_gens_json(J)) for J in res.ideals] + [f"count: {res.count}"]
        _emit(None, lines, as_table=True)
    else:
        _emit({"count": res.count, "n": res.n, "e0": res.e0, "e1": res.e1, "q": res.q,
               "ideals": [_gens_json(J) for J in res.ideals]})
    return EXIT_OK


def cmd_param(args):
    field = _field(args.field)
    if args.job:
        branch_texts, precision = _read_job(args.job, ["branches", "precision"])
    else:
        _require(args, "branch", "precision")
        branch_texts = [b.split(",") for b in args.branch]
        precision = args.precision
    param = br.Parametrization.parse(branch_texts, precision, field)
    hd = br.hilbert_from_param(param, args.level)
    ideal = br.ideal_from_param(param, args.level)
    payload = hd.to_json()
    payload["kernel_generators"] = _gens_json(ideal)
    payload["branch_count"] = param.r
    _emit(payload, _hilbert_table(hd), args.table)
    return EXIT_OK if hd.status == "ok" else EXIT_SOFT


def cmd_semigroup(args):
    gens = [int(x) for x in args.gens.split(",")]
    sg = br.semigroup(gens)
    _emit({
        "generators": sg.generators,
        "delta": sg.delta,
        "gaps": sg.gaps,
        "conductor": sg.conductor,
        "mu_one_branch": br.milnor(sg.delta, 1),
    })
    return EXIT_OK


def cmd_normflat(args):
    field = _field(args.field)
    fibers = []
    for b in args.fiber or []:
        fibers.append(br.Parametrization.parse([b.split(",")], args.precision, field))
    for texts in args.fiber_ideal or []:
        fibers.append(ic.IdealPresentation.parse(texts.split(";"), args.N, field, args.level))
    rep = br.normally_flat_fiber_compare(fibers, args.level)
    lines = []
    for i, hd in enumerate(rep.hilbert):
        lines.append(f"fiber {i}: H1 = {hd.values}")
    lines.append(
        "verdict: Hilbert-function-constant" if rep.constant
        else f"verdict: mismatch at fiber {rep.first_mismatch[0]}, t = {rep.first_mismatch[1]}"
    )
    _emit(rep.to_json(), lines, args.table)
    return EXIT_OK


def cmd_deform(args):
    field = _field(args.field)
    if args.job:
        base_texts, pert_texts, e0, level = _read_job(
            args.job, ["base", "perturbations", "e0", "level"])
    else:
        _require(args, "base", "perturb", "e0")
        base_texts, pert_texts = args.base, args.perturb
        e0, level = args.e0, args.level
    base = ic.IdealPresentation.parse(base_texts, args.N, field, level)
    perts = [rc.parse_poly(t, args.N, field, level) if t.strip() not in ("", "0")
             else rc.TruncatedPoly.zero(args.N, field, level) for t in pert_texts]
    d = df.FirstOrderDeformation(base, perts, e0)
    fam, verdicts = df.is_family_first_order(d)
    flat, dims = df.flatness_direct(d, e0 + 1)
    _emit({
        "family": fam,
        "per_generator_colon_membership": verdicts,
        "flat_at_e0_plus_1": flat,
        "dimensions": dims,
        "verdict": "family (first order)" if fam else "not a family",
    })
    return EXIT_OK


def cmd_colon(args):
    field = _field(args.field)
    ideal = ic.IdealPresentation.parse(args.ideal, args.N, field, max(args.level, 2))
    other = ic.IdealPresentation.parse(args.K, args.N, field, max(args.level, 2))
    cs = df.colon(ideal, other, args.level)
    _emit({
        "dimension": cs.dimension,
        "level": cs.level,
        "basis": [rc.poly_str(p) for p in cs.basis],
    })
    return EXIT_OK


def cmd_determinantal(args):
    field = _field(args.field)
    rows = []
    for row_text in args.matrix.split(";"):
        row = []
        for entry in row_text.split(","):
            entry = entry.strip()
            if entry in ("0", ""):
                row.append(rc.TruncatedPoly.zero(args.N, field, args.level))
            else:
                row.append(rc.parse_poly(entry, args.N, field, args.level))
        rows.append(row)
    ideal = df.determinantal_ideal(rows)
    _emit({"minors": _gens_json(ideal)})
    return EXIT_OK


def cmd_mps(args):
    ctx = mv.MeasureContext(args.N, args.e0)
    class0 = mv.parse_motivic(args.class0)
    series = mv.mps(class0, args.n0, ctx)
    coeffs = series.expand(args.expand)
    _emit({
        "series": str(series),
        "rational": series.to_json(),
        "expansion": [str(c) for c in coeffs],
        "c": ctx.c,
    })
    return EXIT_OK


def cmd_volume(args):
    terms = {}
    for piece in args.terms.split(";"):
        s, cls = piece.split(":", 1)
        terms[int(s)] = mv.parse_motivic(cls)
    total, bound = mv.volume_partial(terms)
    _emit({
        "partial_sum": str(total),
        "tail_norm_bound": str(bound),
    })
    return EXIT_OK


def cmd_specialize(args):
    cls = mv.parse_motivic(getattr(args, "class"))
    value = cls.specialize(args.q)
    _emit({"value": str(value)})
    return EXIT_OK


def build_parser():
    top = argparse.ArgumentParser(
        prog="curvemoduli",
        description="Exact finite-level invariants of embedded curve singularities.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, level=True, n=False, e0=False):
        p.add_argument("--N", type=int, default=2, help="ambient variable count")
        p.add_argument("--field", default="rational", help="'rational' or a prime p")
        p.add_argument("--table", action="store_true", help="aligned table output")
        if level:
            p.add_argument("--level", type=int, default=_default_level())
        if n:
            p.add_argument("--n", type=int, required=True, help="truncation level n")
        if e0:
            p.add_argument("--e0", type=int, required=True)

    p = sub.add_parser("hilbert", help="Hilbert-Samuel data of R/(I+M^level)")
    common(p)
    p.add_argument("--ideal", action="append", required=True)
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("initial", help="initial ideal slices, v*, and nu")
    common(p)
    p.add_argument("--ideal", action="append", required=True)
    p.set_defaults(func=cmd_initial)

    p = sub.add_parser("stdbasis", help="standard-basis check up to the level")
    common(p)
    p.add_argument("--ideal", action="append", required=True)
    p.set_defaults(func=cmd_stdbasis)

    p = sub.add_parser("nu", help="minimal generator count at the level")
    common(p)
    p.add_argument("--ideal", action="append", required=True)
    p.set_defaults(func=cmd_nu)

    p = sub.add_parser("gamma", help="intersection number dim R/(I+X)")
    common(p, level=False)
    p.add_argument("--ideal", action="append", required=True)
    p.add_argument("--other", action="append", required=True)
    p.add_argument("--n-max", type=int, default=_default_level(), dest="n_max")
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("tn", help="T_n membership with superficial certificate")
    common(p, level=False, n=True, e0=True)
    p.add_argument("--ideal", action="append", required=True)
    p.set_defaults(func=cmd_tn)

    p = sub.add_parser("shape", help="generator-degree gap check for J*")
    common(p, level=False, n=True, e0=True)
    p.add_argument("--ideal", action="append", required=True)
    p.set_defaults(func=cmd_shape)

    p = sub.add_parser("jtilde", help="degree <= e0 part of the initial ideal")
    common(p, level=False, n=True, e0=True)
    p.add_argument("--ideal", action="append", required=True)
    p.set_defaults(func=cmd_jtilde)

    p = sub.add_parser("admissible", help="admissible (b, e0, e1) ranges")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--e0", type=int, required=True)
    p.add_argument("--e1", type=int, default=None)
    p.set_defaults(func=cmd_admissible)

    p = sub.add_parser("stratum", help="Hilbert stratum membership")
    common(p)
    p.add_argument("--ideal", action="append", required=True)
    p.add_argument("--F", required=True, help="comma-separated H1 values")
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=cmd_stratum)

    p = sub.add_parser("superficial", help="CM + superficial test for a form L")
    common(p, e0=True)
    p.add_argument("--ideal", action="append", required=True)
    p.add_argument("--L", required=True)
    p.set_defaults(func=cmd_superficial)

    p = sub.add_parser("cells", help="Grassmannian cell membership")
    common(p, level=False, n=True, e0=True)
    p.add_argument("--ideal", action="append", required=True)
    p.add_argument("--i", required=True, help="comma-separated 1-based monomial indices")
    p.add_argument("--j", required=True, help="comma-separated 1-based monomial indices")
    p.add_argument("--q", type=int, required=True, help="candidate form index (0-based)")
    p.set_defaults(func=cmd_cells)

    p = sub.add_parser("enumerate", help="exhaustive T_n enumeration over F_q")
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--e0", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--e1", type=int, default=None)
    p.add_argument("--table", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("param", help="Hilbert data and ideal from a parametrization")
    common(p)
    p.add_argument("--branch", action="append", help="comma-separated components in t")
    p.add_argument("--precision", type=int, default=None)
    p.add_argument("--job", default=None, help="JSON file {branches, precision}")
    p.set_defaults(func=cmd_param)

    p = sub.add_parser("semigroup", help="numerical semigroup gaps and delta")
    p.add_argument("--gens", required=True, help="comma-separated generators")
    p.set_defaults(func=cmd_semigroup)

    p = sub.add_parser("normflat", help="fiberwise Hilbert-function comparison")
    common(p)
    p.add_argument("--fiber", action="append", help="branch components in t")
    p.add_argument("--fiber-ideal", action="append", dest="fiber_ideal",
                   help="semicolon-separated generators")
    p.add_argument("--precision", type=int, default=None)
    p.set_defaults(func=cmd_normflat)

    p = sub.add_parser("deform", help="first-order deformation family check")
    common(p, e0=False)
    p.add_argument("--base", action="append")
    p.add_argument("--perturb", action="append")
    p.add_argument("--e0", type=int)
    p.add_argument("--job", default=None,
                   help="JSON file {base, perturbations, e0, level}")
    p.set_defaults(func=cmd_deform)

    p = sub.add_parser("colon", help="colon space (I+M^a : K+M^a)")
    common(p)
    p.add_argument("--ideal", action="append", required=True)
    p.add_argument("--K", action="append", required=True)
    p.set_defaults(func=cmd_colon)

    p = sub.add_parser("determinantal", help="maximal minors of an a x (a-1) matrix")
    common(p)
    p.add_argument("--matrix", required=True,
                   help="rows separated by ';', entries by ','")
    p.set_defaults(func=cmd_determinantal)

    p = sub.add_parser("mps", help="motivic Poincare series and expansion")
    p.add_argument("--class0", required=True, help="Laurent polynomial in L")
    p.add_argument("--n0", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--e0", type=int, required=True)
    p.add_argument("--expand", type=int, default=8)
    p.set_defaults(func=cmd_mps)

    p = sub.add_parser("volume", help="partial motivic volume with tail bound")
    p.add_argument("--terms", required=True, help="s:class pairs separated by ';'")
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("specialize", help="point-count specialization L -> q")
    p.add_argument("--class", required=True, dest="class")
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=cmd_specialize)

    return top


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (rc.ParseError, rc.LevelError, rc.FieldTooSmallError,
            br.PrecisionError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PRECONDITION
    except tt.BudgetExceededError as exc:
        sys.stderr.write(f"budget: {exc}\n")
        return EXIT_SOFT


if __name__ == "__main__":
    sys.exit(main())
