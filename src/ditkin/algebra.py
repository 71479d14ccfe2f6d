"""Functions on the one-point compactification of the naturals, with norms.

An element is a continuous function on N ∪ {∞} represented in one of three
tiers: eventually constant (the exact tier, closed under pointwise algebra),
the built-in dyadic staircase (exact norms via geometric closed forms), or
rule-based (exact pointwise values plus certified tail bounds, yielding
rational interval results).  The norm is the uniform norm plus the weighted
sum of consecutive differences; every result is an exact rational or a
certified rational interval, never a float.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable

from .errors import (
    MissingTailBound,
    SchemaError,
    UndecidableMembership,
    UnsupportedOperandKind,
)
from .weights import (
    Constant,
    WeightFamily,
    dyadic_jump_tail,
    echo,
    format_rational,
    parse_rational,
)

DEFAULT_HORIZON = 1 << 16


class _Infinity:
    """The added point of the compactification; a singleton sentinel."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITY"


INFINITY = _Infinity()


def parse_point(obj: object, path: str = "point") -> int | _Infinity:
    """A point of N ∪ {∞} from JSON: a positive integer or the string "inf"."""
    if isinstance(obj, bool):
        raise SchemaError(f"{path}: expected a natural number or \"inf\"")
    if isinstance(obj, int):
        if obj < 1:
            raise SchemaError(f"{path}: naturals start at 1, got {echo(obj)}")
        return obj
    if isinstance(obj, str) and obj.strip().lower() in {"inf", "infinity", "∞"}:
        return INFINITY
    raise SchemaError(f"{path}: expected a natural number or \"inf\", got {echo(obj)}")


def format_point(p: int | _Infinity) -> object:
    return "inf" if p is INFINITY else p


@dataclass(frozen=True)
class NormResult:
    """An exact rational norm value, or a certified interval [lo, hi].

    Exact results behave as the degenerate interval [v, v]; intervals record
    the scan horizon that produced them.
    """

    lo: Fraction
    hi: Fraction
    horizon: int | None = None

    def __post_init__(self):
        lo, hi = Fraction(self.lo), Fraction(self.hi)
        if lo > hi:
            raise ValueError("interval endpoints out of order")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def exact(cls, value) -> "NormResult":
        v = Fraction(value)
        return cls(v, v, None)

    @classmethod
    def bounds(cls, lo, hi, horizon: int) -> "NormResult":
        return cls(Fraction(lo), Fraction(hi), horizon)

    @property
    def is_exact(self) -> bool:
        return self.horizon is None and self.lo == self.hi

    @property
    def value(self) -> Fraction:
        if not self.is_exact:
            raise ValueError("not an exact result")
        return self.lo

    def __add__(self, other: "NormResult") -> "NormResult":
        if self.is_exact and other.is_exact:
            return NormResult.exact(self.lo + other.lo)
        horizons = [h for h in (self.horizon, other.horizon) if h is not None]
        return NormResult(self.lo + other.lo, self.hi + other.hi, max(horizons))

    def __str__(self) -> str:
        if self.is_exact:
            return format_rational(self.lo)
        return f"[{format_rational(self.lo)}, {format_rational(self.hi)}] (horizon {self.horizon})"

    def to_obj(self) -> dict:
        if self.is_exact:
            return {"exact": format_rational(self.lo)}
        return {
            "lo": format_rational(self.lo),
            "hi": format_rational(self.hi),
            "horizon": self.horizon,
        }


@dataclass(frozen=True)
class ClosedSet:
    """A representable closed subset of N ∪ {∞}.

    Every point of N is isolated, so the closed sets we can name are finite
    subsets of N, optionally together with ∞.
    """

    points: tuple[int, ...] = ()
    with_infinity: bool = False

    def __post_init__(self):
        pts = tuple(sorted(set(int(p) for p in self.points)))
        if any(p < 1 for p in pts):
            raise ValueError("closed-set points must be naturals >= 1")
        object.__setattr__(self, "points", pts)

    def contains(self, p) -> bool:
        if p is INFINITY:
            return self.with_infinity
        return p in self.points

    @property
    def max_finite(self) -> int:
        """Largest finite point, or 0 when there is none."""
        return self.points[-1] if self.points else 0


def closed_set_from_obj(obj: object, path: str = "excluded") -> ClosedSet:
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object")
    pts = obj.get("points", [])
    if not isinstance(pts, list) or not all(isinstance(p, int) and not isinstance(p, bool) for p in pts):
        raise SchemaError(f"{path}.points: expected a list of naturals")
    with_infinity = obj.get("with_infinity", False)
    if not isinstance(with_infinity, bool):
        raise SchemaError(f"{path}.with_infinity: expected true or false")
    try:
        return ClosedSet(tuple(pts), with_infinity)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class IdealSpec:
    """One of the vanishing ideals attached to a closed set.

    neighbourhood=False is the ideal of functions vanishing on the set;
    neighbourhood=True asks for vanishing on a neighbourhood of it.  At
    isolated points the two coincide; at ∞ a neighbourhood is cofinite, so
    the neighbourhood ideal consists of the eventually-zero functions.
    """

    zero_set: ClosedSet
    neighbourhood: bool

    @classmethod
    def m_at(cls, point) -> "IdealSpec":
        return cls(_singleton(point), neighbourhood=False)

    @classmethod
    def j_at(cls, point) -> "IdealSpec":
        return cls(_singleton(point), neighbourhood=True)

    @classmethod
    def i_of(cls, zero_set: ClosedSet) -> "IdealSpec":
        return cls(zero_set, neighbourhood=False)

    @classmethod
    def j_of(cls, zero_set: ClosedSet) -> "IdealSpec":
        return cls(zero_set, neighbourhood=True)


def _singleton(point) -> ClosedSet:
    if point is INFINITY:
        return ClosedSet((), with_infinity=True)
    return ClosedSet((int(point),), with_infinity=False)


class Element:
    """A continuous function on N ∪ {∞}; see the concrete tiers below."""

    def at(self, p) -> Fraction:
        raise NotImplementedError

    def limit_value(self) -> Fraction:
        return self.at(INFINITY)

    def scale(self, c) -> "Element":
        raise NotImplementedError

    # The two tail functionals every tier provides.  Only the rule-based tier
    # reads the window [start, end], certifies the rest from end + 1 on and
    # labels its interval with horizon; the exact tiers ignore both.
    def tail_sup(self, start: int, end: int, horizon: int) -> NormResult:
        """sup |f(j)| over j >= start, the limit f(∞) included."""
        raise NotImplementedError

    def tail_variation(self, w: WeightFamily, start: int, end: int, horizon: int) -> NormResult:
        """Sum of alpha_j * |f(j+1) - f(j)| over j >= start."""
        raise NotImplementedError

    # norms scan the window [1, h]
    def sup_norm(self, horizon: int | None = None) -> NormResult:
        h = DEFAULT_HORIZON if horizon is None else horizon
        return self.tail_sup(1, h, h)

    def weighted_variation(self, w: WeightFamily, horizon: int | None = None) -> NormResult:
        h = DEFAULT_HORIZON if horizon is None else horizon
        return self.tail_variation(w, 1, h, h)

    def norm(self, w: WeightFamily, horizon: int | None = None) -> NormResult:
        return self.sup_norm(horizon) + self.weighted_variation(w, horizon)

    def in_ideal(self, spec: IdealSpec) -> bool:
        raise UndecidableMembership(
            "membership is only decidable for eventually-constant and dyadic elements"
        )

    def _binary(self, other, op) -> "EventuallyConstant":
        if not (isinstance(self, EventuallyConstant) and isinstance(other, EventuallyConstant)):
            raise UnsupportedOperandKind(
                "pointwise arithmetic is closed only on eventually-constant elements"
            )
        n = max(len(self.prefix), len(other.prefix))
        values = [op(self.at(j), other.at(j)) for j in range(1, n + 1)]
        return EventuallyConstant(tuple(values), op(self.tail, other.tail))

    def __add__(self, other):
        return self._binary(other, lambda x, y: x + y)

    def __sub__(self, other):
        return self._binary(other, lambda x, y: x - y)

    def __mul__(self, other):
        if isinstance(other, Element):
            return self._binary(other, lambda x, y: x * y)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)


@dataclass(frozen=True)
class EventuallyConstant(Element):
    """f(n) = prefix[n-1] up to the prefix length, then a constant tail.

    The canonical form trims trailing prefix entries equal to the tail, so
    structural equality coincides with pointwise equality.
    """

    prefix: tuple[Fraction, ...] = ()
    tail: Fraction = Fraction(0)

    def __post_init__(self):
        pre = tuple(v if type(v) is Fraction else Fraction(v) for v in self.prefix)
        t = self.tail if type(self.tail) is Fraction else Fraction(self.tail)
        while pre and pre[-1] == t:
            pre = pre[:-1]
        object.__setattr__(self, "prefix", pre)
        object.__setattr__(self, "tail", t)

    def at(self, p) -> Fraction:
        if p is INFINITY:
            return self.tail
        n = int(p)
        if n < 1:
            raise ValueError("points of N start at 1")
        if n <= len(self.prefix):
            return self.prefix[n - 1]
        return self.tail

    @property
    def support(self) -> int:
        """Largest n with f(n) != 0 (0 for the zero element); needs tail 0."""
        if self.tail != 0:
            raise ValueError("support is only defined for eventually-zero elements")
        return len(self.prefix)

    def scale(self, c) -> "EventuallyConstant":
        c = Fraction(c)
        return EventuallyConstant(tuple(c * v for v in self.prefix), c * self.tail)

    @functools.cached_property
    def _sups(self) -> list[Fraction]:
        # _sups[i] = sup |f(j)| over j > len(prefix) - i.  Cached in the
        # instance dict, the memo takes no part in __eq__, __hash__ or __repr__.
        return list(accumulate(map(abs, reversed(self.prefix)), max, initial=abs(self.tail)))

    @functools.cached_property
    def _sums(self) -> dict[WeightFamily, list[Fraction]]:
        return {}  # per weight family, the partial jump sums over the prefix

    def tail_sup(self, start: int, end: int, horizon: int) -> NormResult:
        return NormResult.exact(self._sups[max(len(self._sups) - start, 0)])

    def tail_variation(self, w: WeightFamily, start: int, end: int, horizon: int) -> NormResult:
        # every jump sits inside the prefix
        if not self.prefix:  # also keeps the shared ZERO and ONE free of memo entries
            return NormResult.exact(0)
        sums = self._sums.get(w)
        if sums is None:
            n = len(self.prefix)
            jumps = (w.at(j) * abs(self.at(j + 1) - self.at(j)) for j in range(1, n + 1))
            sums = self._sums[w] = list(accumulate(jumps, initial=Fraction(0)))
        return NormResult.exact(sums[-1] - sums[min(start, len(sums)) - 1])

    def in_ideal(self, spec: IdealSpec) -> bool:
        for p in spec.zero_set.points:
            if self.at(p) != 0:
                return False
        if spec.zero_set.with_infinity and self.tail != 0:
            return False
        # a neighbourhood of ∞ is cofinite, so the J-condition there asks for
        # an eventually-zero function, which for this tier is again tail == 0
        return True


ZERO = EventuallyConstant((), Fraction(0))
ONE = EventuallyConstant((), Fraction(1))


@dataclass(frozen=True)
class DyadicDecay(Element):
    """The staircase f(j) = c * 2^{-k} on the block 2^{k-1} <= j < 2^k, f(∞) = 0.

    Its jumps sit exactly at the block edges j = 2^k - 1, which makes every
    weighted-variation quantity a finite combination of geometric series;
    the nonzero coefficient c scales them all by |c|, so every multiple of
    the staircase stays exact.
    """

    coefficient: Fraction = Fraction(1)

    def __post_init__(self):
        c = Fraction(self.coefficient)
        if c == 0:
            raise ValueError("the staircase coefficient must be nonzero")
        object.__setattr__(self, "coefficient", c)

    def at(self, p) -> Fraction:
        if p is INFINITY:
            return Fraction(0)
        n = int(p)
        if n < 1:
            raise ValueError("points of N start at 1")
        return self.coefficient / (1 << n.bit_length())

    def scale(self, c) -> Element:
        c = Fraction(c)
        return ZERO if c == 0 else DyadicDecay(self.coefficient * c)

    def tail_sup(self, start: int, end: int, horizon: int) -> NormResult:
        # |f| is nonincreasing, so the first value is the sup
        return NormResult.exact(abs(self.at(start)))

    def tail_variation(self, w: WeightFamily, start: int, end: int, horizon: int) -> NormResult:
        return NormResult.exact(abs(self.coefficient) * dyadic_jump_tail(w, start))

    def in_ideal(self, spec: IdealSpec) -> bool:
        if spec.zero_set.points:
            return False  # strictly positive on all of N
        if spec.zero_set.with_infinity and spec.neighbourhood:
            return False  # vanishes at ∞ but is never eventually zero
        return True


class RuleBased(Element):
    """Interval-tier element: exact pointwise values plus certified tails.

    value_at(n) must return the exact rational f(n); limit is f(∞).
    tail_variation_bound(start, weights) returns an upper bound for the
    weighted jump sum from `start` on, or None when it cannot certify one for
    that family.  Bounds must shrink consistently under refinement:
    bound(s) >= (exact partial sum from s to t-1) + bound(t); exact tails and
    geometric envelopes satisfy this.  An unweighted certificate (for the
    constant-1 family) is mandatory — it is what bounds the values themselves
    near ∞ — and is checked at construction.
    """

    def __init__(
        self,
        value_at: Callable[[int], Fraction],
        limit,
        tail_variation_bound: Callable[[int, WeightFamily], Fraction | None],
    ):
        self._value_at = value_at
        self.limit = Fraction(limit)
        self._tail_bound = tail_variation_bound
        # memo grown to the largest index scanned: f(1..m), |f(1..m)| and, per
        # family, the partial sums S[i] = sum_{j<=i} alpha_j * |f(j+1) - f(j)|
        self._values: list[Fraction] = []
        self._abs: list[Fraction] = []
        self._sums: dict[WeightFamily, list[Fraction]] = {}
        if self._tail_bound(1, _UNIT_WEIGHTS) is None:
            raise MissingTailBound(
                "rule-based elements must certify an unweighted variation tail"
            )

    def at(self, p) -> Fraction:
        if p is INFINITY:
            return self.limit
        n = int(p)
        if n < 1:
            raise ValueError("points of N start at 1")
        if n <= len(self._values):
            return self._values[n - 1]
        return Fraction(self._value_at(n))

    def _scan_to(self, m: int) -> None:
        for n in range(len(self._values) + 1, m + 1):
            v = Fraction(self._value_at(n))
            self._values.append(v)
            self._abs.append(v if v >= 0 else -v)

    def tail_sup(self, start: int, end: int, horizon: int) -> NormResult:
        self._scan_to(end)
        lo = max(abs(self.limit), max(self._abs[start - 1 : end], default=0))
        # beyond the scan, |f(j)| <= |limit| + (unweighted variation tail)
        hi = max(lo, abs(self.limit) + self.tail_bound(end + 1, _UNIT_WEIGHTS))
        return NormResult.bounds(lo, hi, horizon)

    def tail_variation(self, w: WeightFamily, start: int, end: int, horizon: int) -> NormResult:
        # the window is the exact difference S[end] - S[start-1] of two memo sums
        self._scan_to(end + 1)
        sums, v = self._sums.setdefault(w, [Fraction(0)]), self._values
        for j in range(len(sums), end + 1):
            sums.append(sums[-1] + w.at(j) * abs(v[j] - v[j - 1]))
        lo = sums[end] - sums[start - 1]
        return NormResult.bounds(lo, lo + self.tail_bound(end + 1, w), horizon)

    def tail_bound(self, start: int, w: WeightFamily) -> Fraction:
        b = self._tail_bound(start, w)
        if b is None:
            raise MissingTailBound(
                "no certified variation tail for this weight family"
            )
        return Fraction(b)

    def scale(self, c) -> Element:
        c = Fraction(c)
        if c == 0:
            return ZERO
        inner_value, inner_bound, limit = self._value_at, self._tail_bound, self.limit

        def bound(start: int, w: WeightFamily) -> Fraction | None:
            b = inner_bound(start, w)
            return None if b is None else abs(c) * b

        return RuleBased(lambda n: c * inner_value(n), c * limit, bound)


_UNIT_WEIGHTS = Constant(Fraction(1))


def element_to_obj(f: Element) -> dict:
    if isinstance(f, EventuallyConstant):
        return {
            "kind": "eventually_constant",
            "prefix": [format_rational(v) for v in f.prefix],
            "tail": format_rational(f.tail),
        }
    if isinstance(f, DyadicDecay) and f.coefficient == 1:
        return {"kind": "dyadic_decay"}
    raise SchemaError("only exact elements and the unit staircase have a serialized form")


def element_from_obj(obj: object, path: str = "element") -> Element:
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind == "eventually_constant":
        pre_obj = obj.get("prefix", [])
        if not isinstance(pre_obj, list):
            raise SchemaError(f"{path}.prefix: expected a list")
        pre = tuple(parse_rational(v, f"{path}.prefix[{i}]") for i, v in enumerate(pre_obj))
        tail = parse_rational(obj.get("tail", "0"), f"{path}.tail")
        return EventuallyConstant(pre, tail)
    if kind == "dyadic_decay":
        return DyadicDecay()
    raise SchemaError(
        f"{path}.kind: unknown tag {echo(kind)} (expected eventually_constant or dyadic_decay)"
    )
