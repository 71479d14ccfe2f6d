"""Exact-arithmetic toolkit for weighted difference algebras on N ∪ {∞}.

The algebra attached to a positive weight sequence consists of the
continuous functions whose weighted sum of consecutive differences
converges, normed by the uniform norm plus that sum.  This package
represents weight sequences and elements symbolically, computes norms and
truncation residuals exactly (or as certified rational intervals), selects
approximate-identity subsequences, and classifies the regularity properties
the weights decide.
"""

from types import ModuleType as _Module

from .algebra import (
    DEFAULT_HORIZON,
    INFINITY,
    ClosedSet,
    DyadicDecay,
    Element,
    EventuallyConstant,
    IdealSpec,
    NormResult,
    ONE,
    RuleBased,
    ZERO,
    element_from_obj,
    element_to_obj,
)
from .approx_identity import (
    AiSelection,
    DEFAULT_SELECTION_COUNT,
    DiagnosticRow,
    diagnostics_to_csv,
    ditkin_approximation,
    prefix_indicator,
    residual_diagnostics,
    residual_norm,
    residual_oracle,
    select_ai_subsequence,
)
from .classifier import (
    PropertyReport,
    REPRO_CHECKS,
    RelativeUnitWitness,
    dyadic_counterexample,
    property_report,
    relative_unit_witness,
    repro_checks,
    unbounded_nondivergent_family,
)
from .errors import (
    DitkinError,
    DivergentVariationError,
    HorizonExhausted,
    InvalidExcludedSet,
    MissingTailBound,
    NotDivergentError,
    NotInMInfinityError,
    SchemaError,
    UndecidableMembership,
    UnsupportedOperandKind,
)
from .weights import (
    Constant,
    Interleave,
    Linear,
    PrefixOverride,
    TailInf,
    WeightClassification,
    WeightFamily,
    format_rational,
    parse_rational,
    weight_family_from_obj,
)

__version__ = "0.1.0"

# the public names are every name imported above, less the submodules
__all__ = sorted(n for n, v in globals().items() if not (n.startswith("_") or isinstance(v, _Module)))
