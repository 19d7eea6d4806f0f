"""Batch command-line front end.

Every subcommand's handler reads its inputs from flags (or a JSON job file
where noted), dispatches to the library, and returns (exit code, report):
the report is a dict, or with --table, where a table makes sense, the lines
of an aligned table.  `main` alone writes a report to stdout, as one
deterministic JSON line or as the table's lines.  This module alone knows
the report keys: the library returns records, and each handler builds its
dict from them, the shapes several handlers share by `_hilbert_report` and
`_certificate_report`; a new key (a certainty or stats field) goes here.
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

Every library name is read off the package's lazy exports as `cm.<name>`
(`cm` is `curvemoduli`, whose `_EXPORTS` table alone knows the submodule
that defines a name): the first read of a name loads that submodule, so a
job loads only the modules its handler reads, and `import curvemoduli.cli`
with `build_parser()` loads none.  Rational arithmetic (`fractions`) comes with the first field over QQ or
the first '/' parsed, so a job on ints only (`enumerate`, `admissible`,
`semigroup`) or over `--field p` without a '/' never loads it.  Reports
are written by `_json`, byte for byte as `json.dumps(report,
sort_keys=True)`, with strings quoted by `encode_basestring_ascii` of
CPython's C module `_json`, the function `json`'s encoder wraps; importing
it loads no `json` package, so only a job that reads a `--job` file does.

A process runs one job through `run`, which ends it as soon as `main` has
returned, the `atexit` callbacks have run and stdout and stderr are
flushed, without tearing the interpreter down.  Nothing is lost by that:
the CLI opens files only under `with`, starts no threads and registers no
`atexit` callbacks of its own, so the report and stderr are all a job
leaves behind.
"""

import atexit
import os
import sys
from types import SimpleNamespace

from _json import encode_basestring_ascii as _quote

import curvemoduli as cm

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
    """--field's value: 'rational' is QQ, and anything else must be a prime,
    which `GF` checks."""
    if spec == "rational":
        return cm.QQ
    return cm.GF(_read("--field", "'rational' or a prime", int, spec))


def _ideal(args, texts, level):
    """The ideal generated by `texts` in --N variables over --field."""
    return cm.IdealPresentation.parse(texts, args.N, _field(args.field), level)


def _poly(args, text, field, level):
    """A polynomial in --N variables; a blank entry is zero."""
    if not text.strip():
        return cm.TruncatedPoly.zero(args.N, field, level)
    return cm.parse_poly(text, args.N, field, level)


def _json(value):
    """`value` as `json.dumps(value, sort_keys=True)` writes it.  It accepts
    None, bools, ints, strs, and lists, tuples and dicts of these with str
    keys; any other value or key is a TypeError.  An int too long for `repr`
    raises json's ValueError."""
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, (list, tuple)):
        try:  # strings only: one join, which is tested once
            text = '", "'.join(value)
        except TypeError:
            pass
        else:
            if (value and text.isascii() and text.isprintable() and "\\" not in text
                    and text.count('"') == 2 * len(value) - 2):
                return '["' + text + '"]'
        return "[" + ", ".join(map(_json, value)) + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
        items = sorted(value.items())
        return "{" + ", ".join(_quote(k) + ": " + _json(v) for k, v in items) + "}"
    raise TypeError(f"a report cannot hold {type(value).__name__}")


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
    import json

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
    return [cm.poly_str(g) for g in ideal.generators]


def _hilbert_report(hd):
    return {"values": hd.values, "graded": hd.graded, "e0": hd.e0, "e1": hd.e1,
            "stab_index": hd.stab_index, "status": hd.status}


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
    ideal = _ideal(args, args.ideal, args.level)
    hd = cm.hilbert_data(ideal, args.level)
    code = EXIT_OK if hd.status == "ok" else EXIT_SOFT
    if args.table:
        return code, _hilbert_table(hd)
    report = _hilbert_report(hd)
    report["input"] = {"ideal": _gens_json(ideal), "N": args.N, "level": args.level,
                       "field": str(ideal.field)}
    if hd.status == "ok":
        # the tail form H1(t) = e0*(t+1) - e1, and the other display form e0*T - e1
        report["tail_form"] = f"{hd.e0}*(T+1) - {hd.e1}"
        report["intro_form"] = f"{hd.e0}*T - {hd.e1}"
    return code, report


def cmd_initial(args):
    ideal = _ideal(args, args.ideal, args.level)
    data = cm.initial_ideal(ideal, args.level)
    return EXIT_OK, {
        "vstar": data.vstar,
        "nu": data.nu,
        "slice_dims": data.slice_dims,
        "min_generators": {
            str(d): [cm.poly_str(p) for p in polys]
            for d, polys in sorted(data.min_generators.items())
        },
        "input": {"ideal": _gens_json(ideal), "N": args.N, "level": args.level},
    }


def cmd_stdbasis(args):
    ideal = _ideal(args, args.ideal, args.level)
    rep = cm.standard_basis_check(ideal, args.level)
    return EXIT_OK, {
        "standard_basis": rep.ok,
        "failing_degree": rep.failing_degree,
        "missing_initial_form": cm.poly_str(rep.missing_initial_form) if rep.missing_initial_form else None,
        "vstar": rep.vstar,
    }


def cmd_nu(args):
    ideal = _ideal(args, args.ideal, args.level)
    return EXIT_OK, {"nu": cm.min_generators(ideal, args.level), "level": args.level}


def cmd_gamma(args):
    ideal = _ideal(args, args.ideal, args.n_max)
    other = _ideal(args, args.other, args.n_max)
    value = cm.intersection_number(ideal, other, args.n_max)
    if value == cm.INTERSECTION_DIVERGENT:
        return EXIT_SOFT, {"gamma": "infinity", "divergent_at": args.n_max}
    return EXIT_OK, {"gamma": value}


def _certificate_report(cert):
    return {"L": cm.poly_str(cert.L), "length_with_L": cert.length_with_L,
            "iso_range": cert.iso_range, "e0": cert.e0, "level": cert.level}


def cmd_tn(args):
    ideal = _ideal(args, args.ideal, args.n)
    res = cm.tn_membership(ideal, args.n, args.e0)
    if not res:
        return EXIT_OK, {"member": False, "condition": res.condition, "degree": res.degree,
                         "detail": res.detail}
    return EXIT_OK, {**_certificate_report(res), "member": True}


def cmd_shape(args):
    ideal = _ideal(args, args.ideal, args.n)
    rep = cm.shape_check(ideal, args.n, args.e0)
    return EXIT_OK, {
        "ok": rep.ok,
        "vstar": rep.vstar,
        "forbidden_degrees": rep.forbidden_degrees,
        "slice_identity_ok": rep.slice_identity_ok,
    }


def cmd_jtilde(args):
    ideal = _ideal(args, args.ideal, args.n)
    res = cm.jtilde(ideal, args.n, args.e0)
    return (EXIT_OK if res.verified else EXIT_SOFT), {
        "generators": _gens_json(res.ideal),
        "verified": res.verified,
        "slice_match": res.slice_match,
        "multiplicity_ok": res.multiplicity_ok,
    }


def cmd_admissible(args):
    if args.e1 is not None:
        return EXIT_OK, {"admissible": cm.admissible(args.b, args.e0, args.e1),
                         "b": args.b, "e0": args.e0, "e1": args.e1}
    rng = cm.admissible_range(args.b, args.e0)
    return EXIT_OK, {"b": rng.b, "e0": rng.e0, "r": rng.r, "rho0": rng.rho0, "rho1": rng.rho1}


def cmd_stratum(args):
    ideal = _ideal(args, args.ideal, args.level)
    F = _read("--F", "comma-separated integers", _ints, args.F)
    ok, mismatch = cm.hilbert_stratum_check(ideal, F, args.r, args.level)
    return EXIT_OK, {"member": ok, "first_mismatch_t": mismatch}


def cmd_superficial(args):
    ideal = _ideal(args, args.ideal, args.level)
    L = cm.parse_poly(args.L, args.N, ideal.field, args.level)
    ok, cert = cm.cm_superficial_test(ideal, L, args.e0)
    return EXIT_OK, {**_certificate_report(cert), "superficial_and_cm": ok}


def cmd_cells(args):
    ideal = _ideal(args, args.ideal, args.n)
    cell = cm.CellIndex(
        _read("--i", "comma-separated integers", _ints, args.i),
        _read("--j", "comma-separated integers", _ints, args.j),
        args.q,
    )
    return EXIT_OK, {"member": cm.cell_membership(ideal, args.n, cell, args.e0)}


def cmd_enumerate(args):
    field = cm.GF(args.q)
    try:
        res = cm.enumerate_xi(args.N, args.e0, args.n, field, e1=args.e1)
    except cm.BudgetExceededError as exc:
        return EXIT_SOFT, {"error": str(exc), "budget_exceeded": True}
    # siblings share their prefix's rows: format each once
    table, text = cm.monomial_table(args.N, res.n), {}

    def gens(rows):
        out = []
        for row in rows:
            s = text.get(id(row))
            if s is None:
                s = text[id(row)] = table.row_str(row, field)
            out.append(s)
        return out

    if args.table:
        return EXIT_OK, ["; ".join(gens(J)) for J in res.ideals] + [f"count: {res.count}"]
    return EXIT_OK, {"count": res.count, "n": res.n, "e0": res.e0, "e1": res.e1, "q": res.q,
                     "ideals": [gens(J) for J in res.ideals]}


def cmd_param(args):
    field = _field(args.field)
    if args.job:
        branch_texts, precision = _read_job(args.job, {"branches": BRANCHES, "precision": INTEGER})
    else:
        _require(args, "branch", "precision")
        branch_texts = [b.split(",") for b in args.branch]
        precision = args.precision
    param = cm.Parametrization.parse(branch_texts, precision, field)
    if args.N is not None and args.N != param.n_vars:
        raise ValueError(f"--N {args.N} but the branches have {param.n_vars} components")
    hd = cm.hilbert_from_param(param, args.level)
    code = EXIT_OK if hd.status == "ok" else EXIT_SOFT
    if args.table:
        return code, _hilbert_table(hd)
    ideal = cm.ideal_from_param(param, args.level)
    return code, {**_hilbert_report(hd), "kernel_generators": _gens_json(ideal),
                  "branch_count": param.r}


def cmd_semigroup(args):
    gens = _read("--gens", "comma-separated integers", _ints, args.gens)
    sg = cm.semigroup(gens)
    return EXIT_OK, {
        "generators": sg.generators,
        "delta": sg.delta,
        "gaps": sg.gaps,
        "conductor": sg.conductor,
        "mu_one_branch": cm.milnor(sg.delta, 1),
    }


def cmd_normflat(args):
    field = _field(args.field)
    if args.fiber and args.precision is None:
        raise ValueError("normflat --fiber needs --precision")
    fibers = [cm.Parametrization.parse([b.split(",")], args.precision, field)
              for b in args.fiber or []]
    fibers += [cm.IdealPresentation.parse(texts.split(";"), args.N, field, args.level)
               for texts in args.fiber_ideal or []]
    rep = cm.normally_flat_fiber_compare(fibers, args.level)
    if not args.table:
        return EXIT_OK, {
            "fibers": [_hilbert_report(hd) for hd in rep.hilbert],
            "hilbert_function_constant": rep.constant,
            "first_mismatch": rep.first_mismatch,
            "polynomials_agree": rep.polynomials_agree,
        }
    lines = [f"fiber {i}: H1 = {hd.values}" for i, hd in enumerate(rep.hilbert)]
    lines.append(
        "verdict: Hilbert-function-constant" if rep.constant
        else f"verdict: mismatch at fiber {rep.first_mismatch[0]}, t = {rep.first_mismatch[1]}"
    )
    return EXIT_OK, lines


def cmd_deform(args):
    field = _field(args.field)
    if args.job:
        base_texts, pert_texts, e0, level = _read_job(
            args.job, {"base": TEXTS, "perturbations": TEXTS, "e0": INTEGER, "level": INTEGER})
    else:
        _require(args, "base", "perturb", "e0")
        base_texts, pert_texts = args.base, args.perturb
        e0, level = args.e0, args.level
    base = cm.IdealPresentation.parse(base_texts, args.N, field, level)
    perts = [_poly(args, t, field, level) for t in pert_texts]
    d = cm.FirstOrderDeformation(base, perts, e0)
    fam, verdicts = cm.is_family_first_order(d)
    flat, dims = cm.flatness_direct(d, e0 + 1)
    return EXIT_OK, {
        "family": fam,
        "per_generator_colon_membership": verdicts,
        "flat_at_e0_plus_1": flat,
        "dimensions": dims,
        "verdict": "family (first order)" if fam else "not a family",
    }


def cmd_colon(args):
    cm.check_colon_level(args.level)
    ideal = _ideal(args, args.ideal, args.level)
    other = _ideal(args, args.K, args.level)
    cs = cm.colon(ideal, other, args.level)
    return EXIT_OK, {
        "dimension": cs.dimension,
        "level": cs.level,
        "basis": [cm.poly_str(p) for p in cs.basis],
    }


def cmd_determinantal(args):
    field = _field(args.field)
    cm.check_level(args.level)
    rows = [[_poly(args, entry, field, args.level) for entry in row.split(",")]
            for row in args.matrix.split(";")]
    return EXIT_OK, {"minors": _gens_json(cm.determinantal_ideal(rows))}


def cmd_mps(args):
    ctx = cm.MeasureContext(args.N, args.e0)
    class0 = cm.parse_motivic(args.class0)
    series = cm.mps(class0, args.n0, ctx)
    coeffs = series.expand(args.expand)
    return EXIT_OK, {
        "series": str(series),
        "rational": {
            "numerator": {str(i): str(c) for i, c in series.numerator.items()},
            "denominator": series.denominator,
        },
        "expansion": [str(c) for c in coeffs],
        "c": ctx.c,
    }


def cmd_volume(args):
    terms = {}
    for piece in args.terms.split(";"):
        s, cls = _read("--terms", "s:class pairs with an integer s", _term, piece)
        if s in terms:
            raise ValueError(f"term index s = {s} given twice")
        terms[s] = cm.parse_motivic(cls)
    total, bound = cm.volume_partial(terms)
    return EXIT_OK, {"partial_sum": str(total), "tail_norm_bound": str(bound)}


def cmd_specialize(args):
    cls = cm.parse_motivic(getattr(args, "class"))
    return EXIT_OK, {"value": str(cls.specialize(args.q))}


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
AT_LEVEL = (N, FIELD, LEVEL)
AT_N = (N, FIELD, TRUNC_N, E0, IDEAL)

# name -> (help line, handler, flags in the order --help lists them)
COMMANDS = {
    "hilbert": ("Hilbert-Samuel data of R/(I+M^level)", cmd_hilbert, (N, FIELD, TABLE, LEVEL, IDEAL)),
    "initial": ("initial ideal slices, v*, and nu", cmd_initial, (*AT_LEVEL, IDEAL)),
    "stdbasis": ("standard-basis check up to the level", cmd_stdbasis, (*AT_LEVEL, IDEAL)),
    "nu": ("minimal generator count at the level", cmd_nu, (*AT_LEVEL, IDEAL)),
    "gamma": ("intersection number dim R/(I+X)", cmd_gamma, (
        N, FIELD, IDEAL,
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
        N, FIELD, TABLE, LEVEL,
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
        code, report = COMMANDS[args.command][1](args)
        # a --table report is its lines, any other a dict; an int too long
        # to print is json's ValueError, so it too is one error line
        sys.stdout.write((_json(report) if isinstance(report, dict) else "\n".join(report)) + "\n")
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PRECONDITION
    return code


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
