"""curvemoduli: exact finite-level invariants of embedded curve singularities.

Hilbert-Samuel data, truncation-set membership, admissibility of Hilbert
polynomials, superficial/Cohen-Macaulay tests, first-order deformation
checks, branch semigroup invariants, and rational motivic Poincare series,
all in exact arithmetic with independent brute-force oracles in the test
suite.

The names below are exported lazily (PEP 562): `import curvemoduli` loads
no submodule, and the first access to a name imports the one submodule
that defines it, so a CLI job pays only for the modules its handler uses.
The CLI reads every library name here, as `cm.<name>`, so this table is
the one place that knows which submodule defines a name.
"""

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "QQ", "GF", "Field", "LevelError", "ParseError", "TruncatedPoly",
        "initial_form", "monomial_table", "parse_poly", "poly_str"), "ringcore"),
    **dict.fromkeys((
        "INTERSECTION_DIVERGENT", "DegreeSpans", "HilbertData", "IdealPresentation",
        "InitialIdealData", "check_level", "hilbert_data", "initial_ideal",
        "intersection_number", "min_generators", "standard_basis_check"), "idealcalc"),
    **dict.fromkeys((
        "AdmissibleRange", "BudgetExceededError", "CellIndex", "SuperficialCertificate",
        "TnFailure", "admissible", "admissible_polys", "admissible_range",
        "candidate_forms", "cell_membership", "cm_superficial_test", "enumerate_xi",
        "hilbert_stratum_check", "jtilde", "shape_check", "tn_membership"), "trunctower"),
    **dict.fromkeys((
        "Branch", "Parametrization", "PrecisionError", "SemigroupData",
        "delta_from_param", "hilbert_from_param", "ideal_from_param", "milnor",
        "normally_flat_fiber_compare", "semigroup", "valuation_h1"), "branches"),
    **dict.fromkeys((
        "ColonSpace", "DualPoly", "FirstOrderDeformation", "check_colon_level",
        "cm_colon_identity", "colon", "determinantal_ideal", "determinantal_minors",
        "flatness_direct", "ideal_plus_power", "is_family_first_order"), "deform"),
    **dict.fromkeys((
        "MeasureContext", "MotivicClass", "RationalSeries", "fit_class_from_counts",
        "measure_of_level", "mps", "parse_motivic", "volume_partial"), "motivic"),
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    """Import the submodule that defines `name` and cache the value here.
    Any other name, a submodule's included, is not found, so that
    `from curvemoduli import idealcalc` falls back to importing it."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
