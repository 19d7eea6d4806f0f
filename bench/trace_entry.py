"""Traced CLI job: python bench/trace_entry.py TRACE_FILE ARGV...

Runs `curvemoduli.cli.main(ARGV)` exactly as `python -m curvemoduli.cli
ARGV` would, after wrapping the library's layer entry points from the
outside so that each call records a span.  A name bound in several
modules (trunctower imports DegreeSpans itself; enumerate_xi finds
tn_membership as a module global) is replaced in every curvemoduli
namespace that binds it.  The spans and counters are written to TRACE_FILE
when the job ends, whatever its exit code.
"""

from __future__ import annotations

import sys
from time import perf_counter_ns

import tracing

# span names that reduce() calls are folded into: an insert's own reduction
# is part of the insert, and contains() is a read like a direct reduce()
_READ_OWNERS = ("ringcore.echelon_add.qq", "ringcore.echelon_add.gf", "ringcore.echelon_reduce")


def _rebind(function, wrapper):
    """Replace `function` by `wrapper` in every curvemoduli module namespace."""
    for name, module in list(sys.modules.items()):
        if name != "curvemoduli" and not name.startswith("curvemoduli."):
            continue
        for attr, value in list(vars(module).items()):
            if value is function:
                setattr(module, attr, wrapper)


def install(tracer):
    from curvemoduli import branches as br
    from curvemoduli import deform as df
    from curvemoduli import idealcalc as ic
    from curvemoduli import motivic as mv
    from curvemoduli import ringcore as rc
    from curvemoduli import trunctower as tt

    for name, fn in {
        "ringcore.parse_poly": rc.parse_poly,
        "ringcore.poly_str": rc.poly_str,
        "idealcalc.initial_ideal": ic.initial_ideal,
        "idealcalc.standard_basis_check": ic.standard_basis_check,
        "idealcalc.min_generators": ic.min_generators,
        "trunctower.tn_membership": tt.tn_membership,
        "branches.hilbert_from_param": br.hilbert_from_param,
        "branches.ideal_from_param": br.ideal_from_param,
        "deform.colon": df.colon,
        "deform.flatness_direct": df.flatness_direct,
        "motivic.parse_motivic": mv.parse_motivic,
    }.items():
        _rebind(fn, tracer.wrap(name, fn))

    for name, (cls, attr) in {
        "ringcore.poly_init": (rc.TruncatedPoly, "__init__"),
        "ringcore.mul_monomial": (rc.TruncatedPoly, "mul_monomial"),
        "ringcore.poly_mul": (rc.TruncatedPoly, "__mul__"),
        "branches.substitution": (br._Substitution, "__init__"),
        "motivic.expand": (mv.RationalSeries, "expand"),
    }.items():
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr)))

    call_in_span = tracer.span_caller()
    count = tracer.count

    add = rc.Echelon.add
    add_qq = tracer.name_id("ringcore.echelon_add.qq")
    add_gf = tracer.name_id("ringcore.echelon_add.gf")

    def traced_add(self, vec):
        grew = call_in_span(add_qq if self.field.char == 0 else add_gf, add, self, vec)
        count("ringcore.echelon_add.useful", grew)
        count("ringcore.echelon_add.input_nnz", len(vec))
        return grew

    reduce_, contains = rc.Echelon.reduce, rc.Echelon.contains
    read_id = tracer.name_id("ringcore.echelon_reduce")
    owners = {tracer.name_id(n) for n in _READ_OWNERS}

    def traced_reduce(self, vec):
        if tracer.current_name_id() in owners:
            return reduce_(self, vec)
        return call_in_span(read_id, reduce_, self, vec)

    def traced_contains(self, vec):
        return call_in_span(read_id, contains, self, vec)

    rc.Echelon.add, rc.Echelon.reduce, rc.Echelon.contains = traced_add, traced_reduce, traced_contains

    spans_init = ic.DegreeSpans.__init__
    spans_id = tracer.name_id("idealcalc.degree_spans")

    def traced_spans_init(self, ideal, level):
        call_in_span(spans_id, spans_init, self, ideal, level)
        count("idealcalc.degree_spans.rank_sum", self.ech.rank)

    ic.DegreeSpans.__init__ = traced_spans_init

    enumerate_xi = tt.enumerate_xi
    enum_id = tracer.name_id("trunctower.enumerate_xi")

    def traced_enumerate_xi(*args, **kwargs):
        res = call_in_span(enum_id, enumerate_xi, *args, **kwargs)
        count("trunctower.enumerate_xi.members", res.count)
        return res

    _rebind(enumerate_xi, traced_enumerate_xi)

    monomial_table, table_init = rc.monomial_table, rc.MonomialTable.__init__

    def counted_monomial_table(n_vars, level):
        count("ringcore.monomial_table.calls")
        return monomial_table(n_vars, level)

    def counted_table_init(self, n_vars, level):
        count("ringcore.monomial_table.builds")
        table_init(self, n_vars, level)

    _rebind(monomial_table, counted_monomial_table)
    rc.MonomialTable.__init__ = counted_table_init


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter_ns()
    import curvemoduli.cli as cli
    import_ns = perf_counter_ns() - t0
    tracer = tracing.Tracer()
    install(tracer)
    code = 1
    try:
        code = tracer.wrap("cli.main", cli.main)(argv)
    finally:
        sys.stdout.flush()
        tracer.write(out_path, import_ns=import_ns)
    return code


if __name__ == "__main__":
    sys.exit(main())
