"""Result records are named tuples: immutable, with the field names that
reports, demos and the benchmark read."""

import pytest

from curvemoduli.branches import FiberCompareReport, SemigroupData
from curvemoduli.deform import ColonSpace
from curvemoduli.idealcalc import HilbertData, InitialIdealData, StandardBasisReport
from curvemoduli.motivic import MeasureContext
from curvemoduli.trunctower import (
    AdmissibleRange,
    CellIndex,
    EnumerationResult,
    JtildeResult,
    ShapeReport,
    SuperficialCertificate,
    TnFailure,
)

FIELDS = {
    HilbertData: "values graded e0 e1 stab_index status level",
    InitialIdealData: "slice_dims vstar nu min_generators level",
    StandardBasisReport: "ok failing_degree missing_initial_form vstar",
    SuperficialCertificate: "L length_with_L iso_range e0 level",
    TnFailure: "condition degree detail",
    ShapeReport: "ok vstar forbidden_degrees slice_identity_ok",
    JtildeResult: "ideal verified slice_match multiplicity_ok hilbert",
    AdmissibleRange: "b e0 r rho0 rho1",
    CellIndex: "i_indices j_indices q",
    EnumerationResult: "count ideals n e0 e1 q",
    SemigroupData: "generators gaps delta conductor",
    FiberCompareReport: "hilbert constant first_mismatch polynomials_agree",
    ColonSpace: "level basis dimension echelon table",
    MeasureContext: "n_vars e0",
}


@pytest.mark.parametrize("record", FIELDS, ids=lambda r: r.__name__)
def test_fields_are_named_and_read_only(record):
    assert record._fields == tuple(FIELDS[record].split())
    value = record._make(range(len(record._fields)))
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    with pytest.raises(AttributeError):
        value.extra = None


@pytest.mark.parametrize("record", [StandardBasisReport, ShapeReport], ids=lambda r: r.__name__)
@pytest.mark.parametrize("ok", [True, False])
def test_a_verdict_is_true_exactly_when_ok(record, ok):
    assert bool(record(ok, *[None] * (len(record._fields) - 1))) is ok


def test_repr_names_the_record_and_its_fields():
    assert repr(TnFailure(2, 1, "slice")) == "TnFailure(condition=2, degree=1, detail='slice')"
    assert repr(AdmissibleRange(3, 3, 1, 2, 2)) == "AdmissibleRange(b=3, e0=3, r=1, rho0=2, rho1=2)"
