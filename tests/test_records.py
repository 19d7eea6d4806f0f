"""Result records are named tuples: immutable, with the field names that
reports, demos and the benchmark read."""

import pytest

from curvemoduli.branches import FiberCompareReport, SemigroupData
from curvemoduli.deform import ColonSpace, FiberwiseReport
from curvemoduli.idealcalc import HilbertData, InitialIdealData, StandardBasisReport
from curvemoduli.motivic import MeasureContext
from curvemoduli.ringcore import DegreeSlice
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
    DegreeSlice: "degree basis dimension",
    HilbertData: "values graded e0 e1 stab_index status level",
    InitialIdealData: "slices vstar nu min_generators level",
    StandardBasisReport: "ok failing_degree missing_initial_form vstar",
    SuperficialCertificate: "L length_with_L iso_range e0 level",
    TnFailure: "condition degree detail",
    ShapeReport: "ok vstar forbidden_degrees slice_identity_ok",
    JtildeResult: "ideal verified slice_match multiplicity_ok hilbert",
    AdmissibleRange: "b e0 r rho0 rho1",
    CellIndex: "i_indices j_indices q",
    EnumerationResult: "count ideals n e0 e1 q",
    SemigroupData: "generators elements gaps delta conductor bound",
    FiberCompareReport: "hilbert constant first_mismatch polynomials_agree",
    ColonSpace: "level basis dimension echelon table",
    FiberwiseReport: "samples hilbert constant first_mismatch",
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


def test_repr_names_the_record_and_its_fields():
    assert repr(TnFailure(2, 1, "slice")) == "TnFailure(condition=2, degree=1, detail='slice')"
    assert repr(AdmissibleRange(3, 3, 1, 2, 2)) == "AdmissibleRange(b=3, e0=3, r=1, rho0=2, rho1=2)"
