"""curvemoduli: exact finite-level invariants of embedded curve singularities.

Hilbert-Samuel data, truncation-set membership, admissibility of Hilbert
polynomials, superficial/Cohen-Macaulay tests, first-order deformation
checks, branch semigroup invariants, and rational motivic Poincare series,
all in exact arithmetic with independent brute-force oracles in the test
suite.
"""

__version__ = "0.1.0"

from .ringcore import (
    QQ,
    GF,
    Field,
    LevelError,
    ParseError,
    TruncatedPoly,
    initial_form,
    parse_poly,
    poly_str,
)
from .idealcalc import (
    DegreeSpans,
    HilbertData,
    IdealPresentation,
    InitialIdealData,
    hilbert_data,
    initial_ideal,
    intersection_number,
    min_generators,
    standard_basis_check,
)
from .trunctower import (
    AdmissibleRange,
    BudgetExceededError,
    CellIndex,
    SuperficialCertificate,
    TnFailure,
    admissible,
    admissible_polys,
    admissible_range,
    candidate_forms,
    cell_membership,
    cm_superficial_test,
    enumerate_xi,
    hilbert_stratum_check,
    jtilde,
    shape_check,
    tn_membership,
)
from .branches import (
    Branch,
    Parametrization,
    PrecisionError,
    SemigroupData,
    delta_from_param,
    hilbert_from_param,
    ideal_from_param,
    is_rigid_known,
    milnor,
    normally_flat_fiber_compare,
    semigroup,
    valuation_h1,
)
from .deform import (
    ColonSpace,
    DualPoly,
    FirstOrderDeformation,
    cm_colon_identity,
    colon,
    determinantal_ideal,
    determinantal_minors,
    fiberwise_family_check,
    flatness_direct,
    ideal_plus_power,
    is_family_first_order,
)
from .motivic import (
    MeasureContext,
    MotivicClass,
    RationalSeries,
    fit_class_from_counts,
    measure_of_level,
    mps,
    parse_motivic,
    volume_partial,
)
