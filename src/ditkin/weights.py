"""Symbolic weight sequences with exactly decidable tail behaviour.

A weight family is a strictly positive rational sequence built from a small
closed grammar: constants, affine ramps ``a + b*n``, interleavings that pick
a sub-rule by residue class, and finite prefix overrides.  The grammar is
closed under flattening into an *eventual form*: beyond a start index the
sequence is an interleaving of affine arms with nonnegative slope, one arm
per residue class modulo a fixed modulus.  That normal form is what turns
the asymptotic questions needed downstream (tail infimum, supremum, liminf,
monotonicity) into finite exact computations on rationals, instead of
numeric estimates with error terms.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import DivergentVariationError, SchemaError

MAX_FAMILY_DEPTH = 64  # nesting budget of a parsed weight family
MAX_ARMS = 1 << 16  # budget of the eventual form: arms = lcm of the interleave moduli

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(value: object, path: str = "value") -> Fraction:
    """Parse an exact rational from a JSON scalar: "p/q", an integer string, or an int.

    Floats would silently break exactness, so they are rejected, as are
    decimal, exponent ("1e5000" would expand to a huge integer) and
    digit-separator strings.
    """
    if isinstance(value, bool) or isinstance(value, float):
        raise SchemaError(f"{path}: expected an exact rational such as \"3/4\", got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        try:
            if _RATIONAL.fullmatch(text):
                return Fraction(text)
        except (ValueError, ZeroDivisionError):  # past the int digit limit, or "p/0"
            pass
        raise SchemaError(f"{path}: not a rational 'p/q' string: {echo(value)}")
    raise SchemaError(f"{path}: expected an exact rational, got {type(value).__name__}")


def echo(value: object) -> str:
    """`repr(value)` for an error message, cut after 40 characters (of a
    string before quoting) and then followed by the full length, so that a
    rejected input keeps the message one short line."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= 40:
        return repr(value)
    shown = repr(text[:40]) if isinstance(value, str) else text[:40]
    return f"{shown}... ({len(text)} characters)"


def format_rational(q: Fraction) -> str:
    """Lowest-terms string form, "p/q" or "p".  Every printed rational comes
    through here; one past the int-to-str digit limit is a SchemaError."""
    try:
        return str(q)
    except ValueError as exc:
        raise SchemaError(f"a result has more than {sys.get_int_max_str_digits()} digits") from exc


@dataclass(frozen=True)
class TailInf:
    """Exact infimum of the weight tail {alpha_j : j >= at_index}.

    attained_at is the smallest index realising the infimum.  Every arm of
    the grammar has nonnegative slope, so the infimum is always attained.
    """

    at_index: int
    value: Fraction
    attained_at: int


@dataclass(frozen=True)
class WeightClassification:
    """Exact asymptotic classification of a weight family.

    sup is None when the sequence is unbounded; liminf is None when the
    sequence diverges to infinity.
    """

    sup: Fraction | None
    liminf: Fraction | None
    nondecreasing: bool
    diverges_to_infinity: bool

    @property
    def bounded(self) -> bool:
        return self.sup is not None

    @property
    def liminf_finite(self) -> bool:
        return self.liminf is not None

    def to_obj(self) -> dict:
        return {
            "bounded": self.bounded,
            "sup": format_rational(self.sup) if self.sup is not None else None,
            "liminf_finite": self.liminf_finite,
            "liminf": format_rational(self.liminf) if self.liminf is not None else None,
            "nondecreasing": self.nondecreasing,
            "diverges_to_infinity": self.diverges_to_infinity,
        }


@dataclass(frozen=True)
class EventualForm:
    """Normal form valid for n >= start: alpha_n = arms[n % modulus] at n.

    Each arm is an (offset, slope) pair with slope >= 0, so the restriction
    of the sequence to any residue class is eventually nondecreasing.
    """

    start: int
    modulus: int
    arms: tuple[tuple[Fraction, Fraction], ...]

    def arm(self, n: int) -> tuple[Fraction, Fraction]:
        return self.arms[n % self.modulus]

    def value_at(self, n: int) -> Fraction:
        a, b = self.arm(n)
        return a + b * n

    def first_in_class(self, residue: int, at_or_after: int) -> int:
        """Smallest n >= at_or_after with n % modulus == residue."""
        return at_or_after + ((residue - at_or_after) % self.modulus)


class WeightFamily:
    """Base class of the weight grammar; concrete families below.  Only this
    module reads the eventual form: every index search is a method here."""

    def at(self, n: int) -> Fraction:
        """Exact value of alpha_n for n >= 1."""
        raise NotImplementedError

    def _flatten(self) -> EventualForm:
        raise NotImplementedError

    def to_obj(self) -> dict:
        raise NotImplementedError

    @functools.cached_property
    def _form(self) -> EventualForm:
        # one cache lookup per object: the lookup hashes the whole family tree.
        # Cached in the instance dict, it takes no part in __eq__ or __hash__.
        return eventual_form(self)

    def _first(self, at_or_after: int, hit, arm_first) -> int | None:
        """Smallest n >= at_or_after with hit(alpha_n), or None when there is none.

        Below the eventual start hit tests each value.  Past it, arm_first(a,
        b, n0) takes an arm a + b*n and its first index n0 in range, and gives
        the point from which the arm qualifies (None if never); the arm's
        answer is its first index from there.  Arms are visited in the order
        of n0, so the search stops at the first n0 past the best answer.
        """
        ef = self._form
        for j in range(at_or_after, ef.start):
            if hit(self.at(j)):
                return j
        base, best = max(at_or_after, ef.start), math.inf
        for n0 in range(base, base + ef.modulus):
            if n0 >= best:
                break
            m = arm_first(*ef.arm(n0), n0)
            if m is not None:
                best = min(best, ef.first_in_class(n0 % ef.modulus, m))
        return None if best == math.inf else best

    def first_above(self, t: Fraction, at_or_after: int = 1) -> int | None:
        """Smallest n >= at_or_after with alpha_n > t; None when the weights stay <= t."""

        def arm_first(a, b, n0):
            if b == 0:
                return n0 if a > t else None
            # a + b*n > t from n = floor((t - a)/b) + 1 on
            return max(n0, (t - a) // b + 1)

        return self._first(at_or_after, lambda v: v > t, arm_first)

    def first_at_most(self, t: Fraction, at_or_after: int) -> int | None:
        """Smallest n >= at_or_after with alpha_n <= t, or None."""
        # arms are nondecreasing, so an arm qualifies at its first index or never
        return self._first(
            at_or_after, lambda v: v <= t, lambda a, b, n0: n0 if a + b * n0 <= t else None
        )

    def first_attaining(self, level: Fraction, at_or_after: int) -> int | None:
        """Smallest n >= at_or_after with alpha_n == level below the eventual
        start, or on a constant arm at that level past it; None if there is none."""
        return self._first(
            at_or_after,
            lambda v: v == level,
            lambda a, b, n0: n0 if b == 0 and a == level else None,
        )

    def tail_infimum(self, n: int) -> TailInf:
        """Exact inf{alpha_j : j >= n} with the earliest attaining index."""
        if n < 1:
            raise ValueError("index must be >= 1")
        ef = self._form
        lo = max(n, ef.start)
        best: tuple[Fraction, int] | None = None
        for j in range(n, lo):
            v = self.at(j)
            if best is None or (v, j) < best:
                best = (v, j)
        for r in range(ef.modulus):
            j = ef.first_in_class(r, lo)
            # slope >= 0, so the arm's minimum over its progression sits at
            # its first index; for slope 0 that is also the earliest attainer.
            v = ef.value_at(j)
            if best is None or (v, j) < best:
                best = (v, j)
        assert best is not None
        return TailInf(at_index=n, value=best[0], attained_at=best[1])

    def classify(self) -> WeightClassification:
        """Exact boundedness / liminf / monotonicity classification."""
        ef = self._form
        prefix_vals = [self.at(j) for j in range(1, ef.start)]

        if any(b > 0 for _, b in ef.arms):
            sup = None
        else:
            sup = max(prefix_vals + [a for a, _ in ef.arms])

        constant_offsets = [a for a, b in ef.arms if b == 0]
        liminf = min(constant_offsets) if constant_offsets else None

        nondecreasing = all(
            self.at(j + 1) >= self.at(j) for j in range(1, ef.start)
        )
        if nondecreasing:
            for r in range(ef.modulus):
                a1, b1 = ef.arms[r]
                a2, b2 = ef.arms[(r + 1) % ef.modulus]
                # successor gap D(n) = alpha_{n+1} - alpha_n is affine in n on
                # the class n = r (mod M); slope sigma decides the far tail and
                # the first class member decides the near end.
                sigma = b2 - b1
                if sigma < 0:
                    nondecreasing = False
                    break
                n_r = ef.first_in_class(r, ef.start)
                if a2 + b2 * (n_r + 1) < a1 + b1 * n_r:
                    nondecreasing = False
                    break

        return WeightClassification(
            sup=sup,
            liminf=liminf,
            nondecreasing=nondecreasing,
            diverges_to_infinity=liminf is None,
        )


@functools.lru_cache(maxsize=256)
def eventual_form(w: WeightFamily) -> EventualForm:
    return w._flatten()


def dyadic_jump_tail(w: WeightFamily, start: int) -> Fraction:
    """Exact sum of alpha_j * |Δf(j)| over the dyadic jumps j = 2^k - 1 >= start.

    Each jump contributes alpha_{2^k-1} * 2^{-(k+1)}.  Beyond the weight
    family's eventual form, the residue of 2^k - 1 evolves by r -> 2r + 1
    (mod M), so the weights met by the jumps are eventually periodic: the sum
    is a finite part plus a geometric series, both exact.  Raises
    DivergentVariationError when a growing arm recurs in the cycle, in which
    case the series has no finite value at all.
    """
    if start < 1:
        raise ValueError("start must be >= 1")
    ef = w._form
    k = 1
    while (1 << k) - 1 < start:
        k += 1
    total = Fraction(0)
    while (1 << k) - 1 < ef.start:
        total += w.at((1 << k) - 1) * Fraction(1, 1 << (k + 1))
        k += 1
    seen: dict[int, tuple[int, Fraction]] = {}
    r = ((1 << k) - 1) % ef.modulus
    while r not in seen:
        seen[r] = (k, total)
        a, b = ef.arms[r]
        total += (a + b * ((1 << k) - 1)) * Fraction(1, 1 << (k + 1))
        k += 1
        r = (2 * r + 1) % ef.modulus
    k1, total_at_entry = seen[r]
    cycle_states = [s for s, (ks, _) in seen.items() if ks >= k1]
    if any(ef.arms[s][1] > 0 for s in cycle_states):
        raise DivergentVariationError(
            "weighted variation of the dyadic element diverges for this family: "
            "a growing arm recurs on the jump indices"
        )
    period = k - k1
    one_cycle = total - total_at_entry
    # sum over all repetitions of the cycle: one_cycle / (1 - 2^{-period})
    scale = Fraction(1 << period, (1 << period) - 1)
    return total_at_entry + one_cycle * scale


@dataclass(frozen=True)
class Constant(WeightFamily):
    value: Fraction

    def __post_init__(self):
        v = Fraction(self.value)
        if v <= 0:
            raise ValueError("constant weight must be positive")
        object.__setattr__(self, "value", v)

    def at(self, n: int) -> Fraction:
        if n < 1:
            raise ValueError("index must be >= 1")
        return self.value

    def _flatten(self) -> EventualForm:
        return EventualForm(start=1, modulus=1, arms=((self.value, Fraction(0)),))

    def to_obj(self) -> dict:
        return {"family": "constant", "value": format_rational(self.value)}


@dataclass(frozen=True)
class Linear(WeightFamily):
    """alpha_n = offset + slope * n with offset, slope >= 0, not both zero."""

    offset: Fraction
    slope: Fraction

    def __post_init__(self):
        a, b = Fraction(self.offset), Fraction(self.slope)
        if a < 0 or b < 0 or (a == 0 and b == 0):
            raise ValueError("linear weights need offset >= 0, slope >= 0, not both zero")
        object.__setattr__(self, "offset", a)
        object.__setattr__(self, "slope", b)

    def at(self, n: int) -> Fraction:
        if n < 1:
            raise ValueError("index must be >= 1")
        return self.offset + self.slope * n

    def _flatten(self) -> EventualForm:
        return EventualForm(start=1, modulus=1, arms=((self.offset, self.slope),))

    def to_obj(self) -> dict:
        return {
            "family": "linear",
            "offset": format_rational(self.offset),
            "slope": format_rational(self.slope),
        }


@dataclass(frozen=True)
class Interleave(WeightFamily):
    """alpha_n = parts[n % modulus] evaluated at n (global index, not sub-index)."""

    parts: tuple[WeightFamily, ...]

    def __post_init__(self):
        parts = tuple(self.parts)
        if len(parts) < 2:
            raise ValueError("interleave needs modulus >= 2")
        if not all(isinstance(p, WeightFamily) for p in parts):
            raise ValueError("interleave parts must be weight families")
        object.__setattr__(self, "parts", parts)

    @property
    def modulus(self) -> int:
        return len(self.parts)

    def at(self, n: int) -> Fraction:
        if n < 1:
            raise ValueError("index must be >= 1")
        return self.parts[n % self.modulus].at(n)

    def _flatten(self) -> EventualForm:
        inner = [eventual_form(p) for p in self.parts]
        modulus = self.modulus
        for form in inner:
            modulus = math.lcm(modulus, form.modulus)
        if modulus > MAX_ARMS:
            raise SchemaError(
                f"interleave: the eventual form would need {modulus} arms, over the cap of {MAX_ARMS}"
            )
        start = max([1] + [form.start for form in inner])
        arms = []
        for r in range(modulus):
            form = inner[r % self.modulus]
            arms.append(form.arms[r % form.modulus])
        return EventualForm(start=start, modulus=modulus, arms=tuple(arms))

    def to_obj(self) -> dict:
        return {
            "family": "interleave",
            "modulus": self.modulus,
            "parts": [p.to_obj() for p in self.parts],
        }


@dataclass(frozen=True)
class PrefixOverride(WeightFamily):
    """Explicit first values, then the tail rule evaluated at the global index."""

    prefix: tuple[Fraction, ...]
    tail: WeightFamily

    def __post_init__(self):
        pre = tuple(Fraction(v) for v in self.prefix)
        if any(v <= 0 for v in pre):
            raise ValueError("prefix weights must be positive")
        if not isinstance(self.tail, WeightFamily):
            raise ValueError("prefix tail must be a weight family")
        object.__setattr__(self, "prefix", pre)

    def at(self, n: int) -> Fraction:
        if n < 1:
            raise ValueError("index must be >= 1")
        if n <= len(self.prefix):
            return self.prefix[n - 1]
        return self.tail.at(n)

    def _flatten(self) -> EventualForm:
        form = eventual_form(self.tail)
        return EventualForm(
            start=max(form.start, len(self.prefix) + 1),
            modulus=form.modulus,
            arms=form.arms,
        )

    def to_obj(self) -> dict:
        return {
            "family": "prefix",
            "prefix": [format_rational(v) for v in self.prefix],
            "tail": self.tail.to_obj(),
        }


def weight_family_from_obj(obj: object, path: str = "weights", depth: int = 0) -> WeightFamily:
    """Parse a weight family from its JSON object form, with field-level errors."""
    if depth > MAX_FAMILY_DEPTH:
        raise SchemaError(f"{path}: weight family nested deeper than {MAX_FAMILY_DEPTH} levels")
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object, got {type(obj).__name__}")
    tag = obj.get("family")
    if tag == "constant":
        value = parse_rational(_require(obj, "value", path), f"{path}.value")
        return _checked(Constant, (value,), path)
    if tag == "linear":
        a = parse_rational(_require(obj, "offset", path), f"{path}.offset")
        b = parse_rational(_require(obj, "slope", path), f"{path}.slope")
        return _checked(Linear, (a, b), path)
    if tag == "interleave":
        parts_obj = _require(obj, "parts", path)
        if not isinstance(parts_obj, list):
            raise SchemaError(f"{path}.parts: expected a list")
        parts = tuple(
            weight_family_from_obj(p, f"{path}.parts[{i}]", depth + 1)
            for i, p in enumerate(parts_obj)
        )
        if "modulus" in obj and obj["modulus"] != len(parts):
            raise SchemaError(
                f"{path}.modulus: {echo(obj['modulus'])} does not match {len(parts)} parts"
            )
        return _checked(Interleave, (parts,), path)
    if tag == "prefix":
        pre_obj = _require(obj, "prefix", path)
        if not isinstance(pre_obj, list):
            raise SchemaError(f"{path}.prefix: expected a list")
        pre = tuple(
            parse_rational(v, f"{path}.prefix[{i}]") for i, v in enumerate(pre_obj)
        )
        tail = weight_family_from_obj(_require(obj, "tail", path), f"{path}.tail", depth + 1)
        return _checked(PrefixOverride, (pre, tail), path)
    raise SchemaError(
        f"{path}.family: unknown tag {echo(tag)} (expected constant, linear, interleave, or prefix)"
    )


def _require(obj: dict, key: str, path: str) -> object:
    if key not in obj:
        raise SchemaError(f"{path}.{key}: missing required field")
    return obj[key]


def _checked(cls, args, path: str) -> WeightFamily:
    try:
        return cls(*args)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
