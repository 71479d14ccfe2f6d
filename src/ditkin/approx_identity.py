"""Truncation units, residual norms, and approximate-identity selection.

The indicator of {1..k} is the canonical candidate approximate identity for
the ideal of functions vanishing at ∞.  The residual ||f - e_k f|| splits
exactly into three nonnegative pieces: the uniform norm of the truncated
tail, the weighted jump sum beyond k, and the boundary term
alpha_k * |f(k+1)|.  This module computes those residuals from the two tail
functionals every element tier provides, samples them as diagnostic tables,
and selects index subsequences whose residuals provably vanish: either the
indices on the weight arms attaining a finite liminf (giving a norm-bounded
selection), or the indices attaining their own running tail infimum (which
always exist once the weights diverge).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import groupby, islice

from .algebra import (
    DEFAULT_HORIZON,
    Element,
    EventuallyConstant,
    NormResult,
    format_rational,
)
from .errors import HorizonExhausted, NotInMInfinityError
from .weights import WeightFamily, frozen, natural

DEFAULT_SELECTION_COUNT = 8
MAX_SELECTION_COUNT = 1 << 16  # the CLI's budget on --count
DEFAULT_SEARCH_BOUND = 1 << 40

KIND_BOUNDED_BAI = "bounded_bai"
KIND_RUNNING_MIN = "running_min"


@frozen
class AiSelection:
    """A selected subsequence of truncation indices with their exact norms.

    norms[i] = 1 + alpha_{indices[i]}.  For bounded_bai selections, liminf
    and slack record the threshold liminf + slack that every selected weight
    satisfies, so max(norms) <= 1 + liminf + slack holds exactly.
    """

    kind: str
    indices: tuple[int, ...]
    norms: tuple[Fraction, ...]
    liminf: Fraction | None = None
    slack: Fraction | None = None

    def to_obj(self) -> dict:
        obj: dict = {
            "kind": self.kind,
            "indices": list(self.indices),
            "norms": [format_rational(v) for v in self.norms],
        }
        if self.liminf is not None:
            obj["liminf"] = format_rational(self.liminf)
        if self.slack is not None:
            obj["slack"] = format_rational(self.slack)
        return obj


@frozen
class DiagnosticRow:
    """Residual and boundary quantities sampled at one truncation index."""

    index: int
    residual: NormResult
    alpha_next: Fraction  # alpha_{n_k} * |f(n_k + 1)|
    alpha_self: Fraction  # alpha_{n_k} * |f(n_k)|

    def to_obj(self) -> dict:
        return {
            "n_k": self.index,
            "residual": self.residual.to_obj(),
            "alpha_next": format_rational(self.alpha_next),
            "alpha_self": format_rational(self.alpha_self),
        }


def diagnostics_to_csv(rows: list[DiagnosticRow]) -> str:
    import csv  # here, so that only `residuals --format csv` loads it
    import io
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["n_k", "residual_lo", "residual_hi", "alpha_next", "alpha_self"])
    for row in rows:
        writer.writerow(
            [
                row.index,
                format_rational(row.residual.lo),
                format_rational(row.residual.hi),
                format_rational(row.alpha_next),
                format_rational(row.alpha_self),
            ]
        )
    return out.getvalue()


def prefix_indicator(k: int) -> EventuallyConstant:
    """The indicator of {1, ..., k}: ones up to k, zero beyond and at ∞."""
    return EventuallyConstant.from_runs(((1, natural(k)),))


def _require_vanishes_at_infinity(f: Element) -> None:
    if f.limit != 0:
        raise NotInMInfinityError("the element must vanish at infinity")


def residual_norm(f: Element, w: WeightFamily, k: int, horizon: int = DEFAULT_HORIZON) -> NormResult:
    """||f - e_k f|| split into its three exact pieces: the tail sup and the
    tail variation from k+1 on, plus the boundary term alpha_k * |f(k+1)|.

    Exact for the eventually-constant and dyadic tiers; a certified interval
    for rule-based elements, which scan the window [k+1, k+h+1] and certify
    the tail from k+h+2 on.
    """
    k = natural(k)
    _require_vanishes_at_infinity(f)
    end = k + horizon + 1
    body = f.tail_sup(k + 1, end, horizon) + f.tail_variation(w, k + 1, end, horizon)
    # the boundary term comes last, so a rule-based f(k+1) is read from the memo
    third = w.at(k) * abs(f.at(k + 1))
    return NormResult(body.lo + third, body.hi + third, body.horizon)


def residual_oracle(f: EventuallyConstant, w: WeightFamily, k: int) -> NormResult:
    """The same residual through the generic algebra path: ||f - e_k * f||.

    Independent of residual_norm's term-wise evaluation; the two must agree
    exactly on the exact tier.  The path needs pointwise arithmetic, so any
    other tier raises UnsupportedOperandKind.
    """
    _require_vanishes_at_infinity(f)
    return (f - prefix_indicator(k) * f).norm(w)


def residual_diagnostics(
    f: Element, w: WeightFamily, indices: list[int], horizon: int = DEFAULT_HORIZON
) -> list[DiagnosticRow]:
    """Sample the residual and the two boundary quantities at given indices."""
    _require_vanishes_at_infinity(f)
    return [  # the residual first, so that f.at reads a rule-based f's memo
        DiagnosticRow(n, residual_norm(f, w, n, horizon), w.at(n) * abs(f.at(n + 1)), w.at(n) * abs(f.at(n)))
        for n in indices
    ]


def select_ai_subsequence(
    w: WeightFamily, count: int, slack: Fraction | None = None
) -> AiSelection:
    """The first count indices of `w.selected_indices(1, slack)`, an
    approximate identity for the ideal at ∞: kind running_min for divergent
    weights, else the norm-bounded kind bounded_bai."""
    count = natural(count, "count must be >= 1")
    indices = tuple(islice(w.selected_indices(1, slack), count))
    den, scaled = w.scaled_at(indices)
    norms = tuple(Fraction(den + v, den) for v in scaled)
    cls = w.classify()
    if cls.liminf is None:
        return AiSelection(kind=KIND_RUNNING_MIN, indices=indices, norms=norms)
    if slack is None:
        slack = Fraction(0) if cls.sup is None else cls.sup - cls.liminf
    return AiSelection(
        kind=KIND_BOUNDED_BAI, indices=indices, norms=norms, liminf=cls.liminf, slack=Fraction(slack)
    )


def ditkin_approximation(
    f: Element,
    w: WeightFamily,
    tol: Fraction,
    horizon: int = DEFAULT_HORIZON,
    search_bound: int = DEFAULT_SEARCH_BOUND,
) -> tuple[int, NormResult]:
    """A truncation index k with certified residual ||f - e_k f|| <= tol.

    The factor e_k * f always lies in the product of the two ideals at ∞, so
    the pair (k, residual) witnesses the factor approximation.  On a tier with
    a support the support index already gives f = e_k f and residual zero.
    Elsewhere, candidate indices are drawn from the selected
    subsequence at doubling thresholds until the residual's certified upper
    bound meets tol.
    """
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    _require_vanishes_at_infinity(f)

    if f.support is not None:
        k = max(f.support, 1)
        return k, residual_norm(f, w, k, horizon)

    thresholds = (1 << i for i in range(max(operator.index(search_bound), 0).bit_length()))
    for k, _ in groupby(next(w.selected_indices(t)) for t in thresholds):
        res = residual_norm(f, w, k, horizon)
        if res.hi <= tol:
            return k, res
    raise HorizonExhausted(
        f"no selected index up to {search_bound} certifies a residual <= {tol}"
    )
