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

import bisect
import functools
import math
import operator
from fractions import Fraction
from itertools import accumulate, chain, compress, groupby, islice, repeat
from typing import Callable, Iterable, Sequence

from .errors import (
    MissingTailBound,
    SchemaError,
    UndecidableMembership,
    UnsupportedOperandKind,
)
from .weights import (
    Constant,
    Record,
    WeightFamily,
    _checked,
    dyadic_jump_tail,
    echo,
    format_rational,
    frozen,
    json_form,
    natural,
    of_type,
    optional,
    parse_ratio,
    rational,
)

DEFAULT_HORIZON = 1 << 16
MAX_RUNS = 1 << 16  # the JSON budget of an element's runs, and the longest prefix it writes out


class _Infinity(Record):
    """The added point of the compactification; a singleton sentinel, written as "inf"."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITY"

    def to_obj(self) -> str:
        return "inf"


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


def check_horizon(h) -> int:
    """h as a scan horizon, the same on every tier: 0 is the empty window, below it a ValueError."""
    if (h := operator.index(h)) < 0:
        raise ValueError("horizon must be >= 0")
    return h


@frozen
class NormResult(Record):
    """An exact rational norm value, or a certified interval [lo, hi].

    Exact results behave as the degenerate interval [v, v]; intervals record
    the scan horizon that produced them.
    """

    lo: Fraction
    hi: Fraction
    horizon: int | None = None
    fields = "lo", "hi", "horizon"  # an interval's JSON form; an exact result writes {"exact": value}
    convert = {"lo": rational, "hi": rational, "horizon": optional(check_horizon)}

    def _check(self):
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    @classmethod
    def exact(cls, value) -> "NormResult":
        return cls(value, value)

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
        return NormResult(self.lo + other.lo, self.hi + other.hi, max(horizons, default=None))

    def __str__(self) -> str:
        if self.is_exact:
            return format_rational(self.lo)
        return f"[{format_rational(self.lo)}, {format_rational(self.hi)}] (horizon {self.horizon})"

    def to_obj(self) -> dict:
        return {"exact": format_rational(self.lo)} if self.is_exact else super().to_obj()


@frozen
class ClosedSet:
    """A representable closed subset of N ∪ {∞}.

    Every point of N is isolated, so the closed sets we can name are finite
    subsets of N, optionally together with ∞.
    """

    points: tuple[int, ...] = ()
    with_infinity: bool = False
    convert = {
        "points": lambda points: tuple(sorted({natural(p, "closed-set points must be naturals >= 1") for p in points})),
        "with_infinity": lambda x: of_type(x, bool, "with_infinity"),
    }

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
    return _checked(ClosedSet, (tuple(pts), with_infinity), path)


@frozen
class IdealSpec:
    """One of the vanishing ideals attached to a closed set.

    neighbourhood=False is the ideal of functions vanishing on the set;
    neighbourhood=True asks for vanishing on a neighbourhood of it.  At
    isolated points the two coincide; at ∞ a neighbourhood is cofinite, so
    the neighbourhood ideal consists of the eventually-zero functions.
    """

    zero_set: ClosedSet
    neighbourhood: bool
    convert = {"zero_set": lambda x: of_type(x, ClosedSet, "zero set"),
               "neighbourhood": lambda x: of_type(x, bool, "neighbourhood")}

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
    return ClosedSet((point,), with_infinity=False)


class Element(Record):
    """A continuous function on N ∪ {∞}; see the concrete tiers below.  A tier supplies _at(n) for a checked n,
    the limit f(∞), scale and the two tail functionals, and may supply support.  element_to_obj writes it."""

    support = None  # no support known; not annotated, so that no frozen tier takes it for a field

    def at(self, p) -> Fraction:
        """f(p) for an integer point p >= 1, or the limit at INFINITY; the one check of a point."""
        if p is INFINITY:
            return self.limit
        return self._at(natural(p, "points of N start at 1"))

    def _at(self, n: int) -> Fraction:
        raise NotImplementedError

    def scale(self, c) -> "Element":
        raise NotImplementedError

    # The two tail functionals every tier provides.  Only the rule-based tier
    # reads the window [start, end], certifies the rest from end + 1 on and
    # labels its interval with horizon; the exact tiers check start alone.
    def tail_sup(self, start: int, end: int, horizon: int) -> NormResult:
        """sup |f(j)| over j >= start, the limit f(∞) included."""
        raise NotImplementedError

    def tail_variation(self, w: WeightFamily, start: int, end: int, horizon: int) -> NormResult:
        """Sum of alpha_j * |f(j+1) - f(j)| over j >= start."""
        raise NotImplementedError

    # norms scan the window [1, h]
    def sup_norm(self, horizon: int = DEFAULT_HORIZON) -> NormResult:
        return self.tail_sup(1, h := check_horizon(horizon), h)

    def weighted_variation(self, w: WeightFamily, horizon: int = DEFAULT_HORIZON) -> NormResult:
        return self.tail_variation(of_type(w, WeightFamily, "weights"), 1, h := check_horizon(horizon), h)

    def norm(self, w: WeightFamily, horizon: int = DEFAULT_HORIZON) -> NormResult:
        return self.sup_norm(horizon) + self.weighted_variation(w, horizon)

    def in_ideal(self, spec: IdealSpec) -> bool:
        """Whether f lies in the ideal: f vanishes at every point of the zero
        set, ∞ included (limit 0).  A neighbourhood of ∞ is cofinite, so the
        J-condition there also asks for an eventually-zero f (a support)."""
        zs = of_type(spec, IdealSpec, "ideal spec").zero_set
        if any(self.at(p) != 0 for p in zs.points):
            return False
        if not zs.with_infinity:
            return True
        return self.limit == 0 and (not spec.neighbourhood or self.support is not None)

    def to_obj(self) -> dict:
        return element_to_obj(self)

    def _pointwise(self, other, op) -> "EventuallyConstant":
        raise UnsupportedOperandKind(
            "pointwise arithmetic is closed only on eventually-constant elements"
        )

    def __add__(self, other):
        return self._pointwise(other, operator.add)

    def __sub__(self, other):
        return self._pointwise(other, operator.sub)

    def __mul__(self, other):
        if isinstance(other, Element):
            return self._pointwise(other, operator.mul)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)


@frozen
class EventuallyConstant(Element):
    """f(n) = prefix[n-1] up to the prefix length, then a constant tail.

    Stored in scaled integers and runs: a common denominator D, the run ends
    e_1 < ... < e_r, one numerator per run (f = nums[i]/D on the indices
    (e_{i-1}, e_i]) and the tail numerator.  The form is canonical (D and
    the numerators share no factor, adjacent runs differ, the last run
    differs from the tail), so structural equality coincides with pointwise
    equality, and time and memory follow the runs, not the largest index.
    """

    den: int
    ends: tuple[int, ...]
    nums: tuple[int, ...]
    tail_num: int

    def __init__(self, prefix=(), tail=Fraction(0)):
        self._set_runs(((v, len(list(g))) for v, g in groupby(prefix)), tail)

    @classmethod
    def from_runs(cls, runs, tail=Fraction(0)) -> "EventuallyConstant":
        """The value v on each run (v, length) in turn, then the tail."""
        return object.__new__(cls)._set_runs(runs, tail)

    @classmethod
    def _of(cls, den: int, ends, nums, tail: int) -> "EventuallyConstant":
        return object.__new__(cls)._set(den, ends, nums, tail)

    def _set_runs(self, runs, tail) -> "EventuallyConstant":
        runs = [(rational(v), natural(n, "run lengths must be >= 1")) for v, n in runs]
        t = rational(tail)
        den = math.lcm(t.denominator, *{v.denominator for v, _ in runs})
        nums = [v.numerator * (den // v.denominator) for v, _ in runs]
        return self._set(den, accumulate(n for _, n in runs), nums, t.numerator * (den // t.denominator))

    def _set(self, den: int, ends, nums, tail: int) -> "EventuallyConstant":
        # a run is kept iff it differs from the next run (or the tail): that
        # merges equal neighbours into their last run and drops tail runs
        keep = list(map(operator.ne, nums, chain(islice(nums, 1, None), (tail,))))
        nums = list(compress(nums, keep))
        g = math.gcd(den, tail, *nums)
        if g > 1:
            den, tail, nums = den // g, tail // g, [x // g for x in nums]
        self.__dict__.update(den=den, ends=tuple(compress(ends, keep)), nums=tuple(nums), tail_num=tail)
        return self

    @property
    def runs(self) -> tuple[tuple[Fraction, int], ...]:
        """The canonical (value, length) runs before the tail."""
        starts = (0,) + self.ends
        return tuple(
            (Fraction(x, self.den), e - s) for x, s, e in zip(self.nums, starts, self.ends)
        )

    @property
    def prefix(self) -> tuple[Fraction, ...]:
        return tuple(v for v, n in self.runs for _ in range(n))

    @property
    def tail(self) -> Fraction:
        return Fraction(self.tail_num, self.den)

    limit = tail

    def _at(self, n: int) -> Fraction:
        i = bisect.bisect_left(self.ends, n)
        return Fraction(self.nums[i] if i < len(self.nums) else self.tail_num, self.den)

    @property
    def support(self) -> int | None:
        """Largest n with f(n) != 0 (0 for the zero element); None for a nonzero tail."""
        if self.tail_num != 0:
            return None
        return self.ends[-1] if self.ends else 0

    def scale(self, c) -> "EventuallyConstant":
        c = rational(c, "scale factor")
        p = c.numerator
        return self._of(self.den * c.denominator, self.ends, [p * x for x in self.nums], p * self.tail_num)

    def _pointwise(self, other, op) -> "EventuallyConstant":
        if not isinstance(other, EventuallyConstant):
            return super()._pointwise(other, op)
        if op is operator.mul:  # zero past the least support s of the factors: each operand stops at the run holding s
            den, a, b = self.den * other.den, 1, 1
            s = min((x for x in (self.support, other.support) if x is not None), default=None)
        else:
            den, s = math.lcm(self.den, other.den), None
            a, b = den // self.den, den // other.den
        cut = (e if s is None else e[: bisect.bisect_left(e, s) + 1] for e in (self.ends, other.ends))
        short, long = sorted(cut, key=lambda e: e[-1:])  # only the ends of the operand that ends later
        i = bisect.bisect_right(long, short[-1]) if short else 0  # up to the other's last end need a sort
        ends = sorted(set(long[:i]).union(short)) + list(long[i:])
        vals = list(map(op, self._on(ends, a), other._on(ends, b)))
        return self._of(den, ends, vals[:-1], vals[-1])

    def _on(self, ends: Sequence[int], c: int) -> Sequence[int]:
        """c times the numerator on each run of `ends`, and then c times the numerator past its last
        end: `ends` refines a leading part of the run ends, or all of them and goes on past the last."""
        m = bisect.bisect_right(self.ends, ends[-1]) if ends else 0  # the own ends up to the last of ends
        vals = self.nums[: m + 1] if m < len(self.nums) else self.nums + (self.tail_num,)
        if len(ends) > m:  # ends splits a run or goes past the own ends: count the own ends before each end,
            cut = bisect.bisect_right(ends, self.ends[-1]) if self.ends else 0  # not bisect, and only up to the last:
            counts = accumulate(map(set(self.ends[:m]).__contains__, islice(ends, cut)), initial=0)
            vals = [*map(vals.__getitem__, counts), *repeat(self.tail_num, len(ends) - cut)]  # past it, the tail
        return vals if c == 1 else [c * x for x in vals]

    @functools.cached_property
    def _sup(self) -> int:  # max |numerator|, the tail included; in the instance dict, out of ==, hash and repr
        return max(max(self.nums, default=0), -min(self.nums, default=0), abs(self.tail_num))

    @functools.cached_property
    def _sups(self) -> list[int]:  # _sups[b]: the same from block b of _BLOCK runs on, built on a start past run 0
        blocks = (self.nums[k : k + _BLOCK] for k in range(0, len(self.nums), _BLOCK))  # one max and one min each
        return list(accumulate(reversed([max(max(x), -min(x)) for x in blocks]), max, initial=abs(self.tail_num)))[::-1]

    @functools.cached_property
    def _sums(self) -> dict[int, tuple[WeightFamily, int, list[int]]]:
        # per weight family, keyed by id(w) as in RuleBased: w, D_w and the prefix sums of the scaled jumps
        # D_w * alpha_e * |nums[i+1] - nums[i]| at the run ends e; the jumps from run i on sum to sums[-1] - sums[i]
        return {}

    def tail_sup(self, start: int, end: int, horizon: int) -> NormResult:
        i = bisect.bisect_left(self.ends, natural(start, "start must be >= 1"))  # the run holding start
        j = -(-i // _BLOCK)  # the first block at or past run i: the runs from i up to it are read one by one
        sup = max([self._sups[j], *map(abs, self.nums[i : j * _BLOCK])]) if i else self._sup
        return NormResult.exact(Fraction(sup, self.den))

    def tail_variation(self, w: WeightFamily, start: int, end: int, horizon: int) -> NormResult:
        # every jump sits at a run end
        start, w = natural(start, "start must be >= 1"), of_type(w, WeightFamily, "weights")
        if not self.ends:  # also keeps the shared ZERO and ONE free of memo entries
            return NormResult.exact(0)
        memo = self._sums.get(id(w))
        if memo is None:
            dw, alphas = w.scaled_at(self.ends)
            nxt = self.nums[1:] + (self.tail_num,)
            jumps = [a * abs(y - x) for a, x, y in zip(alphas, self.nums, nxt)]
            memo = self._sums[id(w)] = w, dw, list(accumulate(jumps, initial=0))
        _, dw, sums = memo
        i = bisect.bisect_left(self.ends, start)  # the first jump at or past start
        return NormResult.exact(Fraction(sums[-1] - sums[i], self.den * dw))


ZERO = EventuallyConstant((), Fraction(0))
ONE = EventuallyConstant((), Fraction(1))


@frozen
class DyadicDecay(Element):
    """The staircase f(j) = c * 2^{-k} on the block 2^{k-1} <= j < 2^k, f(∞) = 0.

    Its jumps sit exactly at the block edges j = 2^k - 1, which makes every
    weighted-variation quantity a finite combination of geometric series;
    the nonzero coefficient c scales them all by |c|, so every multiple of
    the staircase stays exact.
    """

    coefficient: Fraction = Fraction(1)
    limit = Fraction(0)
    convert = {"coefficient": rational}

    def _check(self):
        if self.coefficient == 0:
            raise ValueError("the staircase coefficient must be nonzero")

    def _at(self, n: int) -> Fraction:
        return self.coefficient / (1 << n.bit_length())

    def scale(self, c) -> Element:
        c = rational(c, "scale factor")
        return ZERO if c == 0 else DyadicDecay(self.coefficient * c)

    def tail_sup(self, start: int, end: int, horizon: int) -> NormResult:
        # |f| is nonincreasing, so the first value is the sup
        return NormResult.exact(abs(self._at(natural(start, "start must be >= 1"))))

    def tail_variation(self, w: WeightFamily, start: int, end: int, horizon: int) -> NormResult:
        return NormResult.exact(abs(self.coefficient) * dyadic_jump_tail(w, start))


class RuleBased(Element):
    """Interval-tier element: exact pointwise values plus certified tails.

    value_at(n) must return the exact rational f(n); limit is f(∞).
    tail_variation_bound(start, weights) returns an upper bound for the
    weighted jump sum from `start` on, or None when it cannot certify one for
    that family.  Bounds must shrink consistently under refinement:
    bound(s) >= (exact partial sum from s to t-1) + bound(t); exact tails and
    geometric envelopes satisfy this.  An unweighted certificate (for the
    constant-1 family) is mandatory — it is what bounds the values themselves
    near ∞ — and is checked at construction.  A callback value that is not an
    int or a Fraction raises TypeError when it is read.
    """

    def __init__(
        self,
        value_at: Callable[[int], Fraction],
        limit,
        tail_variation_bound: Callable[[int, WeightFamily], Fraction | None],
    ):
        self._value_at = value_at
        self.limit = rational(limit)
        self._tail_bound = tail_variation_bound
        # memo grown to the largest index scanned: the signed numerators and denominators of f(1..m),
        # max |f| = |p|/q as (|p|, q) per full block of _BLOCK indices and, per family,
        # S[i] = sum_{j<=i} alpha_j * |f(j+1) - f(j)|; sups cross-multiply, sums add only nonzero jumps
        self._nums: list[int] = []
        self._dens: list[int] = []
        self._blocks: list[tuple[int, int]] = []
        self._sums: dict[int, tuple[WeightFamily, list[Fraction]]] = {}
        if self._tail_bound(1, _UNIT_WEIGHTS) is None:
            raise MissingTailBound(
                "rule-based elements must certify an unweighted variation tail"
            )

    def _at(self, n: int) -> Fraction:
        if n <= len(self._nums):
            return Fraction(self._nums[n - 1], self._dens[n - 1])
        return rational(self._value_at(n), "value_at(n)")

    def _scan_to(self, m: int) -> None:
        nums, dens = self._nums, self._dens
        for n in range(len(nums) + 1, m + 1):
            v = rational(self._value_at(n), "value_at(n)")
            nums.append(v.numerator)
            dens.append(v.denominator)
            if n % _BLOCK == 0:
                self._blocks.append(_max_ratio(zip(nums[n - _BLOCK :], dens[n - _BLOCK :])))

    def tail_sup(self, start: int, end: int, horizon: int) -> NormResult:
        _check_window(start, end)
        self._scan_to(end)
        # |f(start..end)| is a partial head block, the full blocks [i, j) and a partial tail block
        i = min(end, -(-(start - 1) // _BLOCK) * _BLOCK)
        j = max(i, end // _BLOCK * _BLOCK)
        nums, dens = self._nums, self._dens
        head, tail = zip(nums[start - 1 : i], dens[start - 1 : i]), zip(nums[j:end], dens[j:end])
        lo = max(abs(self.limit), Fraction(*_max_ratio(chain(head, self._blocks[i // _BLOCK : j // _BLOCK], tail))))
        # beyond the scan, |f(j)| <= |limit| + (unweighted variation tail)
        hi = max(lo, abs(self.limit) + self.tail_bound(end + 1, _UNIT_WEIGHTS))
        return NormResult(lo, hi, horizon)

    def tail_variation(self, w: WeightFamily, start: int, end: int, horizon: int) -> NormResult:
        # the window is the exact difference S[end] - S[start-1] of two memo sums
        _check_window(start, end)
        w = of_type(w, WeightFamily, "weights")
        self._scan_to(end + 1)
        # keyed by id(w), which the entry keeps alive: hashing a family walks its tree
        _, sums = self._sums.setdefault(id(w), (w, [Fraction(0)]))
        nums, dens, n = self._nums, self._dens, len(sums)
        # the jumps j in [n, end] with f(j + 1) != f(j): its numerator or its denominator moves
        moved = map(operator.ne, zip(nums[n - 1 : end], dens[n - 1 : end]), zip(nums[n : end + 1], dens[n : end + 1]))
        for j in compress(range(n, end + 1), moved):
            sums.extend(repeat(sums[-1], j - len(sums)))  # zero jumps repeat the last sum
            p0, q0, p1, q1 = nums[j - 1], dens[j - 1], nums[j], dens[j]
            sums.append(sums[-1] + w.at(j) * Fraction(abs(p1 * q0 - p0 * q1), q1 * q0))
        sums.extend(repeat(sums[-1], end + 1 - len(sums)))
        lo = sums[end] - sums[start - 1]
        return NormResult(lo, lo + self.tail_bound(end + 1, w), horizon)

    def in_ideal(self, spec: IdealSpec) -> bool:
        raise UndecidableMembership(
            "membership is only decidable for eventually-constant and dyadic elements"
        )

    def tail_bound(self, start: int, w: WeightFamily) -> Fraction:
        b = self._tail_bound(start, w)
        if b is None:
            raise MissingTailBound(
                "no certified variation tail for this weight family"
            )
        return rational(b, "tail_variation_bound(start, weights)")

    def scale(self, c) -> Element:
        c = rational(c, "scale factor")
        if c == 0:
            return ZERO
        inner_value, inner_bound, limit = self._value_at, self._tail_bound, self.limit

        def bound(start: int, w: WeightFamily) -> Fraction | None:
            b = inner_bound(start, w)
            return None if b is None else abs(c) * b

        return RuleBased(lambda n: c * inner_value(n), c * limit, bound)


def _max_ratio(pairs: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """(|p|, q) of the largest |p|/q among pairs (p, q) with q >= 1, (0, 1) for none: one cross-multiplication each."""
    bp, bq = 0, 1
    for p, q in pairs:
        if abs(p) * bq > bp * q:
            bp, bq = abs(p), q
    return bp, bq


def _check_window(start: int, end: int) -> None:
    if not 1 <= start <= end + 1:  # start == end + 1 is the empty window of horizon 0
        raise ValueError(f"window [{start}, {end}]: need 1 <= start <= end + 1")


_UNIT_WEIGHTS = Constant(Fraction(1))
_BLOCK = 32  # indices per block maximum in the rule-based memo, and runs per block in the exact tier


def element_to_obj(f: Element) -> dict:
    if isinstance(f, EventuallyConstant):
        if len(f.ends) > MAX_RUNS:  # element_from_obj reads at most MAX_RUNS runs
            raise SchemaError(f"an element of {len(f.ends)} runs has no serialized form: the cap is {MAX_RUNS} runs")
        body = {"prefix": f.prefix} if (f.ends or (0,))[-1] <= MAX_RUNS else {"runs": f.runs}
        return json_form({"kind": "eventually_constant", **body, "tail": f.tail})
    if isinstance(f, DyadicDecay) and f.coefficient == 1:
        return {"kind": "dyadic_decay"}
    raise SchemaError("only exact elements and the unit staircase have a serialized form")


def element_from_obj(obj: object, path: str = "element") -> Element:
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind == "eventually_constant":
        if "runs" in obj:
            if "prefix" in obj:
                raise SchemaError(f"{path}.runs: give either prefix or runs, not both")
            values, ends = _runs_from_obj(obj["runs"], f"{path}.runs")
            field = f"{path}.runs[", "][0]"
        else:
            values = obj.get("prefix", [])
            if not isinstance(values, list):
                raise SchemaError(f"{path}.prefix: expected a list")
            ends, field = range(1, len(values) + 1), (f"{path}.prefix[", "]")
        # strings alone are keys: 1, True and 1.0 are equal keys but not equal values here
        keys = dict.fromkeys(values) if set(map(type, values)) <= {str} else values
        try:
            ratios = list(map(parse_ratio, keys))
        except SchemaError:  # name the field, field[0] + index + field[1], only once a value is rejected
            ratios = [parse_ratio(v, f"{field[0]}{i}{field[1]}") for i, v in enumerate(values)]
        tp, tq = parse_ratio(obj.get("tail", "0"), f"{path}.tail")
        den = math.lcm(tq, *{q for _, q in ratios})
        nums = [p * (den // q) for p, q in ratios]
        if len(keys) < len(values):  # some string repeats: each value reads its distinct string's numerator
            nums = list(map(dict(zip(keys, nums)).__getitem__, values))
        return EventuallyConstant._of(den, ends, nums, tp * (den // tq))
    if kind == "dyadic_decay":
        return DyadicDecay()
    raise SchemaError(
        f"{path}.kind: unknown tag {echo(kind)} (expected eventually_constant or dyadic_decay)"
    )


def _runs_from_obj(obj: object, path: str) -> tuple[list[object], list[int]]:
    if not isinstance(obj, list) or len(obj) > MAX_RUNS:
        raise SchemaError(f"{path}: expected a list of at most {MAX_RUNS} runs")
    for i, run in enumerate(obj):
        if not (isinstance(run, list) and len(run) == 2 and type(run[1]) is int and run[1] >= 1):
            raise SchemaError(f"{path}[{i}]: expected a [value, length] pair, the length a positive integer")
    return [v for v, _ in obj], list(accumulate(n for _, n in obj))
