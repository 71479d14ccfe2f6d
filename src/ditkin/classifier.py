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
    element_to_obj,
    format_point,
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
    WeightClassification,
    WeightFamily,
    format_rational,
    frozen,
)

# what each report field rests on; "established" fields hold for every family
# in this class and are recorded rather than recomputed
CITATIONS = {
    "ditkin": "established: every algebra in this family satisfies Ditkin's condition",
    "strongly_regular": "established: Ditkin's condition implies strong regularity",
    "spectral_synthesis": (
        "established: on this one-point compactification, Ditkin algebras have spectral synthesis"
    ),
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


# the report's truth values, in output order
PROPERTIES = ("ditkin", "strongly_regular", "spectral_synthesis", "separable",
              "strong_ditkin", "m_infinity_has_bai", "bru_bade", "bru_dales")


@frozen
class PropertyReport:
    """Truth values plus witnesses for the regularity properties."""

    classification: WeightClassification
    ditkin: bool
    strongly_regular: bool
    spectral_synthesis: bool
    separable: bool
    strong_ditkin: bool
    m_infinity_has_bai: bool
    bru_bade: bool
    bru_dales: bool
    dales_bound: Fraction | None
    bade_witness: AiSelection | None
    unboundedness_witness: tuple[tuple[int, Fraction], ...] | None

    def to_obj(self) -> dict:
        return {
            **{name: getattr(self, name) for name in PROPERTIES},
            "dales_bound": (
                format_rational(self.dales_bound) if self.dales_bound is not None else None
            ),
            "bade_witness": self.bade_witness.to_obj() if self.bade_witness else None,
            "unboundedness_witness": (
                [[n, format_rational(a)] for n, a in self.unboundedness_witness]
                if self.unboundedness_witness is not None
                else None
            ),
            "classification": self.classification.to_obj(),
            "citations": dict(CITATIONS),
        }


def property_report(w: WeightFamily) -> PropertyReport:
    cls = w.classify()
    liminf_finite, bounded = cls.liminf_finite, cls.bounded
    return PropertyReport(
        classification=cls,
        ditkin=True,
        strongly_regular=True,
        spectral_synthesis=True,
        separable=True,
        strong_ditkin=liminf_finite,
        m_infinity_has_bai=liminf_finite,
        bru_bade=liminf_finite,
        bru_dales=bounded,
        dales_bound=(2 * cls.sup + 1) if bounded else None,
        bade_witness=select_ai_subsequence(w, DEFAULT_SELECTION_COUNT) if liminf_finite else None,
        unboundedness_witness=None if bounded else _unboundedness_points(w, DEFAULT_SELECTION_COUNT),
    )


def _unboundedness_points(
    w: WeightFamily, count: int
) -> tuple[tuple[int, Fraction], ...]:
    rows = []
    for i in range(count):
        threshold = Fraction(1 << i)
        n = w.first_above(threshold)  # exists: w is unbounded
        rows.append((n, w.at(n)))
    return tuple(rows)


@frozen
class RelativeUnitWitness:
    """An element of the local vanishing ideal that is 1 on the excluded set."""

    point: object
    excluded_set_max: int
    element: Element
    norm: Fraction

    def to_obj(self) -> dict:
        return {
            "point": format_point(self.point),
            "excluded_set_max": self.excluded_set_max,
            "element": element_to_obj(self.element),
            "norm": format_rational(self.norm),
        }


def relative_unit_witness(
    w: WeightFamily, point, excluded: ClosedSet
) -> RelativeUnitWitness:
    """A relative unit at `point` for the compact set `excluded`, with its
    exact norm.

    At ∞ the witness is the cheapest truncation indicator covering the set:
    the earliest index at or past max(excluded) attaining the tail infimum.
    At a finite point x it is 1 - delta_x, the identity of the vanishing
    ideal at x, whose norm is 1 + alpha_{x-1} + alpha_x (1 + alpha_1 when
    x = 1).
    """
    if point is INFINITY:
        if excluded.with_infinity:
            raise InvalidExcludedSet(
                "a compact set excluded at infinity must stay inside N"
            )
        base = max(excluded.max_finite, 1)
        k = w.tail_infimum(base).attained_at
        return RelativeUnitWitness(
            point=INFINITY,
            excluded_set_max=excluded.max_finite,
            element=prefix_indicator(k),
            norm=1 + w.at(k),
        )

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


def unbounded_nondivergent_family(
    divergent_part: WeightFamily, bounded_value: Fraction
) -> WeightFamily:
    """Interleave a constant with a divergent family: unbounded weights whose
    liminf stays finite, so the algebra is strong Ditkin without a uniform
    relative-unit bound."""
    if divergent_part.classify().liminf is not None:
        raise NotDivergentError("the growing part must diverge to infinity")
    return Interleave((Constant(Fraction(bounded_value)), divergent_part))


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
    _, f = dyadic_counterexample()
    checks = []
    for name, items in REPRO_CHECKS:
        failures = []
        try:
            for at, ok, expected, computed in items(w, f):
                if not ok:
                    failures.append(
                        {"at": at, "expected": expected, "computed": format_rational(computed)}
                    )
        except SchemaError:
            raise  # an input too large to handle or print is not a failed check
        except DitkinError as exc:
            failures.append({"at": "evaluation", "error": str(exc)})
        checks.append({"name": name, "pass": not failures, "failures": failures})
    return checks
