"""Batch command-line front end.

Every subcommand reads its inputs from flags (or a JSON job file where
noted), dispatches to the library, and prints one deterministic JSON report
to stdout (or an aligned table with --table where a table makes sense).
Exit codes: 0 success, 2 precondition or parse errors, 3 soft outcomes
(not stabilized, search budget exceeded, divergent intersection) that a
script can retry at a higher level, and zero-dimensional input ("dim_0").

The subcommands are the entries of one table, COMMANDS: name, help line,
handler and flags.  Flags that several subcommands take are defined once
and shared.  Where --level or --n-max is omitted it is DEFAULT_LEVEL.

`main` reads a well-formed job straight off that table: a command name,
then exact `--flag value` pairs and switches of that command, each value
nonempty, not starting with '-' and accepted by its flag's type, and every
required flag given.  Any other argv (help, an `=` form, an abbreviation, an
unknown, missing or malformed flag, a value starting with '-') goes to
argparse, which alone prints help, usage and errors: `main` then builds
the parser of the chosen subcommand only, and only then imports argparse.
Both reads give the same namespace for every argv the direct read accepts.

No library module is imported at module level: each handler (and each
helper that reads one) imports the modules it uses, so a job loads only
those, and `import curvemoduli.cli` with `build_parser()` loads none.

A process runs one job through `run`, which ends it as soon as `main` has
returned, the `atexit` callbacks have run and stdout and stderr are
flushed, without tearing the interpreter down.  Nothing is lost by that:
the CLI opens files only under `with`, starts no threads and registers no
`atexit` callbacks of its own, so the report and stderr are all a job
leaves behind.
"""

import atexit
import json
import os
import sys
from types import SimpleNamespace

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_SOFT = 3
DEFAULT_LEVEL = 8


def _read(flag, expected, convert, text):
    """convert(text), where a ValueError becomes a precondition error that
    names the flag and quotes its value."""
    try:
        return convert(text)
    except ValueError:
        raise ValueError(f"{flag} expects {expected}, got {text!r}") from None


def _ints(text):
    return [int(x) for x in text.split(",")]


def _term(piece):
    s, cls = piece.split(":", 1)
    return int(s), cls


def _field(spec):
    from . import ringcore as rc

    if spec in ("rational", "rationals", "0", "Q"):
        return rc.QQ
    return rc.GF(_read("--field", "'rational' or a prime", int, spec))


def _ideal(args, texts, level):
    """The ideal generated by `texts` in --N variables over --field."""
    from . import idealcalc as ic

    return ic.IdealPresentation.parse(texts, args.N, _field(args.field), level)


def _poly(args, text, field, level):
    """A polynomial in --N variables; a blank entry is zero."""
    from . import ringcore as rc

    if not text.strip():
        return rc.TruncatedPoly.zero(args.N, field, level)
    return rc.parse_poly(text, args.N, field, level)


def _emit(payload, table_lines=None, as_table=False):
    if as_table and table_lines is not None:
        sys.stdout.write("\n".join(table_lines) + "\n")
    else:
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _is_texts(value):
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


# what each key of a job file holds: (its description, its test); a bool is
# not an integer
INTEGER = ("an integer", lambda value: isinstance(value, int) and not isinstance(value, bool))
TEXTS = ("a list of strings", _is_texts)
BRANCHES = ("a list of lists of strings",
            lambda value: isinstance(value, list) and all(map(_is_texts, value)))


def _read_job(path, shapes):
    """The values of the keys of `shapes` ({key: shape}) in a JSON job file.
    A file that cannot be read, is not JSON, lacks a key or holds a value
    of another shape is a precondition error that names the file."""
    try:
        with open(path) as fh:
            job = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read job file {path}: {exc.strerror}") from None
    except ValueError as exc:  # not JSON, or not text
        raise ValueError(f"job file {path} is not JSON: {exc}") from None
    missing = [k for k in shapes if not isinstance(job, dict) or k not in job]
    if missing:
        raise ValueError(f"job file {path} lacks {', '.join(missing)}")
    for key, (expected, fits) in shapes.items():
        if not fits(job[key]):
            raise ValueError(
                f"job file {path}: {key} expects {expected}, got {json.dumps(job[key])}")
    return [job[k] for k in shapes]


def _require(args, *flags):
    """Without --job, every listed flag must be given."""
    if any(getattr(args, f) is None for f in flags):
        names = ", ".join("--" + f for f in flags)
        raise ValueError(f"{args.command} needs --job or all of {names}")


def _gens_json(ideal):
    from . import ringcore as rc

    return [rc.poly_str(g) for g in ideal.generators]


def _hilbert_table(hd):
    ts = list(range(len(hd.values)))
    w = max(len(str(v)) for v in hd.values + ts) + 1
    return [
        "t  " + "".join(f"{t:>{w}}" for t in ts),
        "H1 " + "".join(f"{v:>{w}}" for v in hd.values),
        "H0 " + "".join(f"{v:>{w}}" for v in hd.graded),
        f"status: {hd.status}  e0: {hd.e0}  e1: {hd.e1}  stab_index: {hd.stab_index}",
    ]


def cmd_hilbert(args):
    from . import idealcalc as ic

    ideal = _ideal(args, args.ideal, args.level)
    hd = ic.hilbert_data(ideal, args.level)
    payload = hd.to_json()
    payload["input"] = {"ideal": _gens_json(ideal), "N": args.N, "level": args.level,
                        "field": str(ideal.field)}
    forms = hd.polynomial_forms()
    if forms:
        payload.update(forms)
    _emit(payload, _hilbert_table(hd), args.table)
    return EXIT_OK if hd.status == "ok" else EXIT_SOFT


def cmd_initial(args):
    from . import idealcalc as ic
    from . import ringcore as rc

    ideal = _ideal(args, args.ideal, args.level)
    data = ic.initial_ideal(ideal, args.level)
    payload = {
        "vstar": data.vstar,
        "nu": data.nu,
        "slice_dims": data.slice_dims,
        "min_generators": {
            str(d): [rc.poly_str(p) for p in polys]
            for d, polys in sorted(data.min_generators.items())
        },
        "input": {"ideal": _gens_json(ideal), "N": args.N, "level": args.level},
    }
    _emit(payload)
    return EXIT_OK


def cmd_stdbasis(args):
    from . import idealcalc as ic
    from . import ringcore as rc

    ideal = _ideal(args, args.ideal, args.level)
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
    from . import idealcalc as ic

    ideal = _ideal(args, args.ideal, args.level)
    _emit({"nu": ic.min_generators(ideal, args.level), "level": args.level})
    return EXIT_OK


def cmd_gamma(args):
    from . import idealcalc as ic

    ideal = _ideal(args, args.ideal, args.n_max)
    other = _ideal(args, args.other, args.n_max)
    value = ic.intersection_number(ideal, other, args.n_max)
    if value == ic.INTERSECTION_DIVERGENT:
        _emit({"gamma": "infinity", "divergent_at": args.n_max})
        return EXIT_SOFT
    _emit({"gamma": value})
    return EXIT_OK


def cmd_tn(args):
    from . import trunctower as tt

    ideal = _ideal(args, args.ideal, args.n)
    res = tt.tn_membership(ideal, args.n, args.e0)
    payload = res.to_json()
    if not isinstance(res, tt.TnFailure):
        payload["member"] = True
    _emit(payload)
    return EXIT_OK


def cmd_shape(args):
    from . import trunctower as tt

    ideal = _ideal(args, args.ideal, args.n)
    rep = tt.shape_check(ideal, args.n, args.e0)
    _emit({
        "ok": rep.ok,
        "vstar": rep.vstar,
        "forbidden_degrees": rep.forbidden_degrees,
        "slice_identity_ok": rep.slice_identity_ok,
    })
    return EXIT_OK


def cmd_jtilde(args):
    from . import trunctower as tt

    ideal = _ideal(args, args.ideal, args.n)
    res = tt.jtilde(ideal, args.n, args.e0)
    _emit({
        "generators": _gens_json(res.ideal),
        "verified": res.verified,
        "slice_match": res.slice_match,
        "multiplicity_ok": res.multiplicity_ok,
    })
    return EXIT_OK if res.verified else EXIT_SOFT


def cmd_admissible(args):
    from . import trunctower as tt

    if args.e1 is not None:
        _emit({"admissible": tt.admissible(args.b, args.e0, args.e1),
               "b": args.b, "e0": args.e0, "e1": args.e1})
        return EXIT_OK
    rng = tt.admissible_range(args.b, args.e0)
    _emit({"b": rng.b, "e0": rng.e0, "r": rng.r, "rho0": rng.rho0, "rho1": rng.rho1})
    return EXIT_OK


def cmd_stratum(args):
    from . import trunctower as tt

    ideal = _ideal(args, args.ideal, args.level)
    F = _read("--F", "comma-separated integers", _ints, args.F)
    ok, mismatch = tt.hilbert_stratum_check(ideal, F, args.r, args.level)
    _emit({"member": ok, "first_mismatch_t": mismatch})
    return EXIT_OK


def cmd_superficial(args):
    from . import ringcore as rc
    from . import trunctower as tt

    ideal = _ideal(args, args.ideal, args.level)
    L = rc.parse_poly(args.L, args.N, ideal.field, args.level)
    ok, cert = tt.cm_superficial_test(ideal, L, args.e0)
    payload = cert.to_json()
    payload["superficial_and_cm"] = ok
    _emit(payload)
    return EXIT_OK


def cmd_cells(args):
    from . import trunctower as tt

    ideal = _ideal(args, args.ideal, args.n)
    cell = tt.CellIndex(
        _read("--i", "comma-separated integers", _ints, args.i),
        _read("--j", "comma-separated integers", _ints, args.j),
        args.q,
    )
    member = tt.cell_membership(ideal, args.n, cell, args.e0)
    _emit({"member": member})
    return EXIT_OK


def cmd_enumerate(args):
    from . import ringcore as rc
    from . import trunctower as tt

    field = _field(str(args.q))
    try:
        res = tt.enumerate_xi(args.N, args.e0, args.n, field, e1=args.e1)
    except tt.BudgetExceededError as exc:
        _emit({"error": str(exc), "budget_exceeded": True})
        return EXIT_SOFT
    # siblings share their prefix's generator objects: format each once
    text = {}

    def gens(J):
        out = []
        for g in J.generators:
            s = text.get(id(g))
            if s is None:
                s = text[id(g)] = rc.poly_str(g)
            out.append(s)
        return out

    if args.table:
        lines = ["; ".join(gens(J)) for J in res.ideals] + [f"count: {res.count}"]
        _emit(None, lines, as_table=True)
    else:
        _emit({"count": res.count, "n": res.n, "e0": res.e0, "e1": res.e1, "q": res.q,
               "ideals": [gens(J) for J in res.ideals]})
    return EXIT_OK


def cmd_param(args):
    from . import branches as br

    field = _field(args.field)
    if args.job:
        branch_texts, precision = _read_job(args.job, {"branches": BRANCHES, "precision": INTEGER})
    else:
        _require(args, "branch", "precision")
        branch_texts = [b.split(",") for b in args.branch]
        precision = args.precision
    param = br.Parametrization.parse(branch_texts, precision, field)
    if args.N is not None and args.N != param.n_vars:
        raise ValueError(f"--N {args.N} but the branches have {param.n_vars} components")
    hd = br.hilbert_from_param(param, args.level)
    ideal = br.ideal_from_param(param, args.level)
    payload = hd.to_json()
    payload["kernel_generators"] = _gens_json(ideal)
    payload["branch_count"] = param.r
    _emit(payload, _hilbert_table(hd), args.table)
    return EXIT_OK if hd.status == "ok" else EXIT_SOFT


def cmd_semigroup(args):
    from . import branches as br

    gens = _read("--gens", "comma-separated integers", _ints, args.gens)
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
    from . import branches as br
    from . import idealcalc as ic

    field = _field(args.field)
    if args.fiber and args.precision is None:
        raise ValueError("normflat --fiber needs --precision")
    fibers = [br.Parametrization.parse([b.split(",")], args.precision, field)
              for b in args.fiber or []]
    fibers += [ic.IdealPresentation.parse(texts.split(";"), args.N, field, args.level)
               for texts in args.fiber_ideal or []]
    rep = br.normally_flat_fiber_compare(fibers, args.level)
    lines = [f"fiber {i}: H1 = {hd.values}" for i, hd in enumerate(rep.hilbert)]
    lines.append(
        "verdict: Hilbert-function-constant" if rep.constant
        else f"verdict: mismatch at fiber {rep.first_mismatch[0]}, t = {rep.first_mismatch[1]}"
    )
    _emit(rep.to_json(), lines, args.table)
    return EXIT_OK


def cmd_deform(args):
    from . import deform as df
    from . import idealcalc as ic

    field = _field(args.field)
    if args.job:
        base_texts, pert_texts, e0, level = _read_job(
            args.job, {"base": TEXTS, "perturbations": TEXTS, "e0": INTEGER, "level": INTEGER})
    else:
        _require(args, "base", "perturb", "e0")
        base_texts, pert_texts = args.base, args.perturb
        e0, level = args.e0, args.level
    base = ic.IdealPresentation.parse(base_texts, args.N, field, level)
    perts = [_poly(args, t, field, level) for t in pert_texts]
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
    from . import deform as df
    from . import ringcore as rc

    ideal = _ideal(args, args.ideal, max(args.level, 2))
    other = _ideal(args, args.K, max(args.level, 2))
    cs = df.colon(ideal, other, args.level)
    _emit({
        "dimension": cs.dimension,
        "level": cs.level,
        "basis": [rc.poly_str(p) for p in cs.basis],
    })
    return EXIT_OK


def cmd_determinantal(args):
    from . import deform as df
    from . import idealcalc as ic

    field = _field(args.field)
    ic.check_level(args.level)
    rows = [[_poly(args, entry, field, args.level) for entry in row.split(",")]
            for row in args.matrix.split(";")]
    ideal = df.determinantal_ideal(rows)
    _emit({"minors": _gens_json(ideal)})
    return EXIT_OK


def cmd_mps(args):
    from . import motivic as mv

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
    from . import motivic as mv

    terms = {}
    for piece in args.terms.split(";"):
        s, cls = _read("--terms", "s:class pairs with an integer s", _term, piece)
        if s in terms:
            raise ValueError(f"term index s = {s} given twice")
        terms[s] = mv.parse_motivic(cls)
    total, bound = mv.volume_partial(terms)
    _emit({
        "partial_sum": str(total),
        "tail_norm_bound": str(bound),
    })
    return EXIT_OK


def cmd_specialize(args):
    from . import motivic as mv

    cls = mv.parse_motivic(getattr(args, "class"))
    value = cls.specialize(args.q)
    _emit({"value": str(value)})
    return EXIT_OK


def _flag(name, **settings):
    return name, settings


def _like(flag, **changes):
    """A shared flag with some settings changed (help=None: no help line)."""
    name, settings = flag
    return name, {**settings, **changes}


N = _flag("--N", type=int, default=2, help="ambient variable count")
FIELD = _flag("--field", default="rational", help="'rational' or a prime p")
TABLE = _flag("--table", action="store_true", help="aligned table output")
LEVEL = _flag("--level", type=int, default=DEFAULT_LEVEL)
TRUNC_N = _flag("--n", type=int, required=True, help="truncation level n")
E0 = _flag("--e0", type=int, required=True)
E1 = _flag("--e1", type=int, default=None)
Q = _flag("--q", type=int, required=True)
IDEAL = _flag("--ideal", action="append", required=True)
PRECISION = _flag("--precision", type=int, default=None)
AT_LEVEL = (N, FIELD, TABLE, LEVEL)
AT_N = (N, FIELD, TABLE, TRUNC_N, E0, IDEAL)

# name -> (help line, handler, flags in the order --help lists them)
COMMANDS = {
    "hilbert": ("Hilbert-Samuel data of R/(I+M^level)", cmd_hilbert, (*AT_LEVEL, IDEAL)),
    "initial": ("initial ideal slices, v*, and nu", cmd_initial, (*AT_LEVEL, IDEAL)),
    "stdbasis": ("standard-basis check up to the level", cmd_stdbasis, (*AT_LEVEL, IDEAL)),
    "nu": ("minimal generator count at the level", cmd_nu, (*AT_LEVEL, IDEAL)),
    "gamma": ("intersection number dim R/(I+X)", cmd_gamma, (
        N, FIELD, TABLE, IDEAL,
        _flag("--other", action="append", required=True),
        _flag("--n-max", type=int, default=DEFAULT_LEVEL))),
    "tn": ("T_n membership with superficial certificate", cmd_tn, AT_N),
    "shape": ("generator-degree gap check for J*", cmd_shape, AT_N),
    "jtilde": ("degree <= e0 part of the initial ideal", cmd_jtilde, AT_N),
    "admissible": ("admissible (b, e0, e1) ranges", cmd_admissible, (
        _flag("--b", type=int, required=True), E0, E1)),
    "stratum": ("Hilbert stratum membership", cmd_stratum, (
        *AT_LEVEL, IDEAL,
        _flag("--F", required=True, help="comma-separated H1 values"),
        _flag("--r", type=int, required=True))),
    "superficial": ("CM + superficial test for a form L", cmd_superficial, (
        *AT_LEVEL, E0, IDEAL, _flag("--L", required=True))),
    "cells": ("Grassmannian cell membership", cmd_cells, (
        *AT_N,
        _flag("--i", required=True, help="comma-separated 1-based monomial indices"),
        _flag("--j", required=True, help="comma-separated 1-based monomial indices"),
        _like(Q, help="candidate form index (0-based)"))),
    "enumerate": ("exhaustive T_n enumeration over F_q", cmd_enumerate, (
        _like(N, help=None), E0, _like(TRUNC_N, help=None), Q, E1, _like(TABLE, help=None))),
    "param": ("Hilbert data and ideal from a parametrization", cmd_param, (
        _like(N, default=None), FIELD, TABLE, LEVEL,
        _flag("--branch", action="append", help="comma-separated components in t"),
        PRECISION,
        _flag("--job", default=None, help="JSON file {branches, precision}"))),
    "semigroup": ("numerical semigroup gaps and delta", cmd_semigroup, (
        _flag("--gens", required=True, help="comma-separated generators"),)),
    "normflat": ("fiberwise Hilbert-function comparison", cmd_normflat, (
        *AT_LEVEL,
        _flag("--fiber", action="append", help="branch components in t"),
        _flag("--fiber-ideal", action="append", help="semicolon-separated generators"),
        PRECISION)),
    "deform": ("first-order deformation family check", cmd_deform, (
        *AT_LEVEL,
        _flag("--base", action="append"),
        _flag("--perturb", action="append"),
        _like(E0, required=False),
        _flag("--job", default=None, help="JSON file {base, perturbations, e0, level}"))),
    "colon": ("colon space (I+M^a : K+M^a)", cmd_colon, (
        *AT_LEVEL, IDEAL, _flag("--K", action="append", required=True))),
    "determinantal": ("maximal minors of an a x (a-1) matrix", cmd_determinantal, (
        *AT_LEVEL,
        _flag("--matrix", required=True, help="rows separated by ';', entries by ','"))),
    "mps": ("motivic Poincare series and expansion", cmd_mps, (
        _flag("--class0", required=True, help="Laurent polynomial in L"),
        _flag("--n0", type=int, required=True),
        _like(N, required=True, help=None),
        E0,
        _flag("--expand", type=int, default=8))),
    "volume": ("partial motivic volume with tail bound", cmd_volume, (
        _flag("--terms", required=True, help="s:class pairs separated by ';'"),)),
    "specialize": ("point-count specialization L -> q", cmd_specialize, (
        _flag("--class", required=True), Q)),
}


def build_parser(names=COMMANDS):
    """The parser of the named subcommands, by default all of them.  Usage
    lines list every name either way."""
    import argparse

    top = argparse.ArgumentParser(
        prog="curvemoduli",
        description="Exact finite-level invariants of embedded curve singularities.",
    )
    # a metavar would also rename "command" in the errors for a missing or
    # unknown command, which only the full parser reports
    every = None if len(names) == len(COMMANDS) else "{" + ",".join(COMMANDS) + "}"
    sub = top.add_subparsers(dest="command", required=True, metavar=every)
    for name in names:
        help_line, _, flags = COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        for flag, settings in flags:
            p.add_argument(flag, **settings)
    return top


def _read_argv(argv):
    """The namespace argparse gives a well-formed job's argv, read off
    COMMANDS: a command name, then exact `--flag value` pairs (a switch
    alone) with each value nonempty, not starting with '-' and accepted by
    the flag's type; a repeated flag keeps its last value, an append flag
    collects them.  None for any other argv, and where a required flag is
    missing."""
    if not argv or argv[0] not in COMMANDS:
        return None
    flags = dict(COMMANDS[argv[0]][2])
    given = {}
    words = iter(argv[1:])
    for flag in words:
        settings = flags.get(flag)
        if settings is None:
            return None
        action = settings.get("action")
        if action == "store_true":
            given[flag] = True
            continue
        text = next(words, "")
        if not text or text.startswith("-"):
            return None
        try:
            value = settings.get("type", str)(text)
        except ValueError:
            return None
        if action == "append":
            given.setdefault(flag, []).append(value)
        else:
            given[flag] = value
    args = {"command": argv[0]}
    for flag, settings in flags.items():
        if flag not in given and settings.get("required"):
            return None
        default = False if settings.get("action") == "store_true" else settings.get("default")
        args[flag[2:].replace("-", "_")] = given.get(flag, default)
    return SimpleNamespace(**args)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv)
    if args is None:
        # top-level help and an unknown command list every subcommand: build all
        chosen = argv[:1] if argv and argv[0] in COMMANDS else COMMANDS
        args = build_parser(chosen).parse_args(argv)
    try:
        return COMMANDS[args.command][1](args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PRECONDITION


def run():
    """The process entry point of `python -m curvemoduli.cli` and of the
    installed `curvemoduli` script: run `main`, then end the process with
    its exit code.

    The steps after `main` are those of the interpreter's own shutdown, in
    its order: the `atexit` callbacks (a `.pth` file may register one),
    then stdout and stderr are flushed.  Then `os._exit` skips the
    teardown of every module and object, a fixed cost of several
    milliseconds per job; that is safe because the CLI holds no open file,
    thread or exit callback of its own once `main` returns.  A flush that
    fails (say, a closed pipe) falls back to `sys.exit`, which reports it
    as the interpreter always has.  An exception from `main`, argparse's
    exits included, leaves the process the usual way.
    """
    code = main()
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
