"""Regularity classification of the algebra attached to a weight family.

Which regularity properties hold is decided entirely by the exact weight
classification: the strong Ditkin property, a bounded approximate identity
in the ideal at ∞, and pointwise-bounded relative units are all equivalent
to the weights not diverging to infinity, while a uniform (point-free)
relative-unit bound is equivalent to the weights being bounded, with bound
2*sup + 1.  The report carries machine-checkable witnesses on both sides:
a norm-bounded truncation subsequence when one exists, and points where the
local identity's norm exceeds successive thresholds when no uniform bound
can exist.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .algebra import (
    ClosedSet,
    DyadicDecay,
    Element,
    EventuallyConstant,
    INFINITY,
)
from .approx_identity import (
    AiSelection,
    DEFAULT_SELECTION_COUNT,
    prefix_indicator,
    residual_norm,
    select_ai_subsequence,
)
from .errors import DitkinError, InvalidExcludedSet, NotDivergentError, SchemaError
from .weights import (
    Constant,
    Interleave,
    Linear,
    Record,
    WeightClassification,
    WeightFamily,
    format_rational,
    frozen,
    of_type,
    optional,
    rational,
)

# what each report field rests on, in the report's key order; "established" fields
# hold for every family in this class and are recorded rather than recomputed
CITATIONS = {
    "ditkin": "established: every algebra in this family satisfies Ditkin's condition",
    "strongly_regular": "established: Ditkin's condition implies strong regularity",
    "spectral_synthesis": "established: on this one-point compactification, Ditkin algebras have spectral synthesis",
    "separable": "established: every algebra in this family is separable",
    "strong_ditkin": "computed: equivalent to the weights not diverging to infinity",
    "m_infinity_has_bai": (
        "computed: the ideal at infinity has a bounded approximate identity "
        "exactly when the weight liminf is finite"
    ),
    "bru_bade": (
        "computed: pointwise-bounded relative units exist exactly when the weight liminf is finite"
    ),
    "bru_dales": (
        "computed: a uniform relative-unit bound exists exactly when the weights are bounded"
    ),
    "dales_bound": "computed: 2 * sup + 1 bounds every relative-unit witness when the weights are bounded",
    "bade_witness": (
        "computed: truncation subsequence with norms 1 + alpha_n bounded by 1 + liminf + slack"
    ),
    "unboundedness_witness": (
        "computed: the identity of the ideal at n has norm at least alpha_n, "
        "so unbounded weights defeat any uniform bound"
    ),
}
PROPERTIES = tuple(CITATIONS)[:8]  # the report's truth values


@frozen
class PropertyReport(Record):
    """Truth values plus witnesses for the regularity properties."""

    classification: WeightClassification
    bade_witness: AiSelection | None
    unboundedness_witness: tuple[tuple[int, Fraction], ...] | None

    # not annotated, so not fields: four hold for every family, the classification decides the rest
    ditkin = strongly_regular = spectral_synthesis = separable = True
    strong_ditkin = m_infinity_has_bai = bru_bade = property(lambda self: self.classification.liminf_finite)
    bru_dales = property(lambda self: self.classification.bounded)
    dales_bound = property(lambda self: None if self.classification.sup is None else 2 * self.classification.sup + 1)
    citations = CITATIONS
    fields = *CITATIONS, "classification", "citations"
    convert = {"unboundedness_witness": optional(lambda points: tuple((n, rational(a)) for n, a in points))}


def property_report(w: WeightFamily) -> PropertyReport:
    cls = of_type(w, WeightFamily, "weights").classify()
    return PropertyReport(
        cls,
        select_ai_subsequence(w, DEFAULT_SELECTION_COUNT) if cls.liminf_finite else None,
        None if cls.bounded else _unboundedness_points(w, DEFAULT_SELECTION_COUNT),
    )


def _unboundedness_points(w: WeightFamily, count: int) -> tuple[tuple[int, Fraction], ...]:
    n = 1  # search i starts at point i - 1, since each alpha_j before it is <= 2^(i-1); each exists: w is unbounded
    points = [n := w.first_above(Fraction(1 << i), n) for i in range(count)]
    return tuple((n, w.at(n)) for n in points)


@frozen
class RelativeUnitWitness(Record):
    """An element of the local vanishing ideal that is 1 on the excluded set."""

    point: object
    excluded_set_max: int
    element: Element
    norm: Fraction
    fields = "point", "excluded_set_max", "element", "norm"
    convert = {"norm": rational}


def relative_unit_witness(w: WeightFamily, point, excluded: ClosedSet) -> RelativeUnitWitness:
    """A relative unit at `point` for the compact set `excluded`, with its
    exact norm.

    At ∞ the witness is the cheapest truncation indicator covering the set:
    the earliest index at or past max(excluded) attaining the tail infimum.
    At a finite point x it is 1 - delta_x, the identity of the vanishing
    ideal at x, whose norm is 1 + alpha_{x-1} + alpha_x (1 + alpha_1 when
    x = 1).
    """
    w, excluded = of_type(w, WeightFamily, "weights"), of_type(excluded, ClosedSet, "excluded set")
    if point is INFINITY:
        if excluded.with_infinity:
            raise InvalidExcludedSet("a compact set excluded at infinity must stay inside N")
        base = max(excluded.max_finite, 1)
        k = w.tail_infimum(base).attained_at
        return RelativeUnitWitness(INFINITY, excluded.max_finite, prefix_indicator(k), 1 + w.at(k))

    x = operator.index(point)
    if x < 1:
        raise InvalidExcludedSet("points of N start at 1")
    if excluded.contains(x):
        raise InvalidExcludedSet(f"the excluded set must not contain the point {x}")
    element = EventuallyConstant.from_runs(((1, x - 1), (0, 1)) if x > 1 else ((0, 1),), 1)
    norm = 1 + (w.at(x - 1) if x > 1 else 0) + w.at(x)
    return RelativeUnitWitness(point=x, excluded_set_max=excluded.max_finite, element=element, norm=norm)


def dyadic_counterexample() -> tuple[WeightFamily, Element]:
    """The built-in pair for which the full truncation sequence fails to be
    an approximate identity: weights 1 on odd indices and n/2 on even ones,
    against the dyadic staircase."""
    w = Interleave((Linear(Fraction(0), Fraction(1, 2)), Constant(Fraction(1))))
    return w, DyadicDecay()


def unbounded_nondivergent_family(divergent_part: WeightFamily, bounded_value: Fraction) -> WeightFamily:
    """Interleave a constant with a divergent family: unbounded weights whose
    liminf stays finite, so the algebra is strong Ditkin without a uniform
    relative-unit bound."""
    if of_type(divergent_part, WeightFamily, "divergent part").classify().liminf is not None:
        raise NotDivergentError("the growing part must diverge to infinity")
    return Interleave((Constant(bounded_value), divergent_part))


# The golden exact values of the built-in counterexample.  Each check's items
# yield (at, ok, expected, computed) for the dyadic staircase f under weights w,
# with computed a Fraction.
def _jump_terms(w: WeightFamily, f: Element):
    for k in range(1, 21):
        j = (1 << k) - 1
        expected, computed = Fraction(1, 1 << (k + 1)), w.at(j) * abs(f.at(j + 1) - f.at(j))
        yield f"k={k}", computed == expected, format_rational(expected), computed


def _self_terms(w: WeightFamily, f: Element):
    for k in range(1, 21):
        computed = w.at(1 << k) * f.at(1 << k)
        yield f"k={k}", computed == Fraction(1, 4), "1/4", computed


def _residual_bounds(w: WeightFamily, f: Element):
    for m in range(1, 13):
        lo = residual_norm(f, w, 1 << m).lo
        yield f"m={m}", lo >= Fraction(1, 4), ">= 1/4", lo


def _staircase_norm(w: WeightFamily, f: Element):
    res = f.norm(w)  # exact on this tier, so lo is the value
    yield "norm", res.is_exact and res.lo == 1, "1", res.lo


REPRO_CHECKS = (
    ("jump terms alpha_{2^k-1} * |f(2^k) - f(2^k-1)| = 2^{-k-1}, k=1..20", _jump_terms),
    ("self terms alpha_{2^k} * f(2^k) = 1/4, k=1..20", _self_terms),
    ("residual at k = 2^m has certified lower bound >= 1/4, m=1..12", _residual_bounds),
    ("norm of the dyadic staircase is exactly 1", _staircase_norm),
)


def repro_checks(w: WeightFamily) -> list[dict]:
    """Run every check in REPRO_CHECKS on the dyadic staircase under w.

    Each result lists the failing items; an evaluation error ends its check
    with an "evaluation" entry, and the remaining checks still run.  A
    SchemaError (an input too large to handle) propagates.
    """
    w, f = of_type(w, WeightFamily, "weights"), dyadic_counterexample()[1]
    checks = []
    for name, items in REPRO_CHECKS:
        failures = []
        try:
            for at, ok, expected, computed in items(w, f):
                if not ok:
                    failures.append({"at": at, "expected": expected, "computed": format_rational(computed)})
        except SchemaError:
            raise  # an input too large to handle or print is not a failed check
        except DitkinError as exc:
            failures.append({"at": "evaluation", "error": str(exc)})
        checks.append({"name": name, "pass": not failures, "failures": failures})
    return checks
