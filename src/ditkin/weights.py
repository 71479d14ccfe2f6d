"""Symbolic weight sequences with exactly decidable tail behaviour.

A weight family is a strictly positive rational sequence built from a small
closed grammar: constants, affine ramps ``a + b*n``, interleavings that pick
a sub-rule by residue class, and finite prefix overrides.  Beyond a start
index every member flattens into a *leaf form*: one affine leaf with
nonnegative slope per reachable grammar leaf, on a residue class found by
the Chinese remainder theorem.  That normal form, whose size follows the
input, turns the asymptotic questions needed downstream (tail infimum,
supremum, liminf, monotonicity, the dyadic jump sum) into finite exact
computations on rationals, instead of numeric estimates with error terms.
The dense *eventual form*, one arm per residue modulo the lcm of all
interleave part counts, is kept as an independent oracle.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import math
import re
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import DivergentVariationError, SchemaError

MAX_FAMILY_DEPTH = 64  # nesting budget of a parsed weight family
MAX_ARMS = 1 << 16  # budget of a leaf modulus, and of the dense form's arms (lcm of all moduli)

_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


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
            m = _RATIONAL.fullmatch(text)
            if m:
                return Fraction(int(m[1]), int(m[2] or 1))
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
    """Dense normal form valid for n >= start: alpha_n = arms[n % modulus] at n.

    Each arm is an (offset, slope) pair with slope >= 0.  Its size is the
    lcm of the interleave part counts, exponential in the input, so no query
    reads it: it is the oracle that the leaf form is checked against.
    """

    start: int
    modulus: int
    arms: tuple[tuple[Fraction, Fraction], ...]

    def arm(self, n: int) -> tuple[Fraction, Fraction]:
        return self.arms[n % self.modulus]


@dataclass(frozen=True)
class LeafForm:
    """Sparse normal form valid for n >= start: alpha_n = offset + slope*n
    on the leaf (residue, modulus, offset, slope) whose class holds n.

    The leaves' classes partition the integers, every class is met by the
    sequence, and every slope is >= 0; the start is the dense form's start.
    """

    start: int
    leaves: tuple[tuple[int, int, Fraction, Fraction], ...]

    @functools.cached_property
    def by_modulus(self) -> dict[int, list[tuple[int, Fraction, Fraction]]]:
        """The leaves (residue, offset, slope) of each modulus, by residue."""
        groups: dict[int, list] = {}
        for r, m, a, b in sorted(self.leaves):  # (r, m) is unique: no offsets compared
            groups.setdefault(m, []).append((r, a, b))
        return groups


class WeightFamily:
    """Base class of the weight grammar; concrete families below.  Only this
    module reads a normal form: every index search is a method here.  Each
    family caches its leaf form (`_leaves`), its scaled integer leaves
    (`_scaled`) and classification per object, in the instance dict, so
    they take no part in __eq__ or __hash__."""

    def at(self, n: int) -> Fraction:
        """Exact value of alpha_n for n >= 1."""
        raise NotImplementedError

    def _flatten(self) -> EventualForm:
        return EventualForm(1, 1, (self._arm,))  # a grammar leaf: one arm, every index

    @functools.cached_property
    def _leaves(self) -> LeafForm:
        return LeafForm(1, ((0, 1, *self._arm),))

    def to_obj(self) -> dict:
        raise NotImplementedError

    def _first(self, at_or_after: int, hit, arm_first) -> int | None:
        """Smallest n >= at_or_after with hit(alpha_n), or None when there is none.

        Below the start of the leaf form hit tests each value.  Past it,
        arm_first(a, b, n0) takes a leaf a + b*n and its first index n0 in
        range, and gives the point from which the leaf qualifies (None if
        never); the leaf's answer is its first index from there.  Leaves are
        visited in the order of n0, so the search stops at the first n0 past
        the best answer.
        """
        form = self._leaves
        for j in range(at_or_after, form.start):
            if hit(self.at(j)):
                return j
        base, best = max(at_or_after, form.start), math.inf
        groups = [_by_first_index(mu, group, base) for mu, group in form.by_modulus.items()]
        for n0, m, a, b in heapq.merge(*groups) if len(groups) > 1 else groups[0]:
            if n0 >= best:
                break
            n = arm_first(a, b, n0)
            if n is not None:
                best = min(best, n + (n0 - n) % m)
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
        # leaves are nondecreasing, so a leaf qualifies at its first index or never
        return self._first(
            at_or_after, lambda v: v <= t, lambda a, b, n0: n0 if a + b * n0 <= t else None
        )

    def first_attaining(self, level: Fraction, at_or_after: int) -> int | None:
        """Smallest n >= at_or_after with alpha_n == level below the leaf form's
        start, or on a constant leaf at that level past it; None if there is none."""
        return self._first(
            at_or_after,
            lambda v: v == level,
            lambda a, b, n0: n0 if b == 0 and a == level else None,
        )

    def scaled_at(self, indices) -> tuple[int, list[int]]:
        """(D_w, [D_w * alpha_n for n in indices]) over one common denominator
        D_w of the family.  Past the leaf form's start each value is read
        from the scaled leaf holding n, so the cost follows the leaves and
        the number of indices, not the size of an index."""
        den, head, classes = self._scaled
        out = []
        for n in indices:
            if n < 1:
                raise ValueError("index must be >= 1")
            if n <= len(head):
                out.append(head[n - 1])
                continue
            for mu, leaves in classes:
                if n % mu in leaves:
                    a, b = leaves[n % mu]
                    out.append(a + b * n)
                    break
        return den, out

    @functools.cached_property
    def _scaled(self) -> tuple[int, list[int], list[tuple[int, dict[int, tuple[int, int]]]]]:
        # D_w, the scaled values before the start, and per modulus the scaled
        # leaves (offset, slope) by residue
        form = self._leaves
        head = [self.at(j) for j in range(1, form.start)]
        den = math.lcm(*{q.denominator for q in head}, *{q.denominator for *_, a, b in form.leaves for q in (a, b)})
        groups = form.by_modulus.items()
        classes = [(mu, {r: (int(a * den), int(b * den)) for r, a, b in g}) for mu, g in groups]
        return den, [int(q * den) for q in head], classes

    def tail_infimum(self, n: int) -> TailInf:
        """Exact inf{alpha_j : j >= n} with the earliest attaining index."""
        if n < 1:
            raise ValueError("index must be >= 1")
        form = self._leaves
        lo = max(n, form.start)
        candidates = [(self.at(j), j) for j in range(n, lo)]
        for r, m, a, b in form.leaves:
            j = lo + (r - lo) % m  # slope >= 0: the leaf's least value comes first here
            candidates.append((a + b * j, j))
        value, j = min(candidates)
        return TailInf(at_index=n, value=value, attained_at=j)

    def classify(self) -> WeightClassification:
        """Exact boundedness / liminf / monotonicity classification."""
        return self._classification

    @functools.cached_property
    def _classification(self) -> WeightClassification:
        form = self._leaves
        prefix_vals = [self.at(j) for j in range(1, form.start)]
        offsets = [a for _, _, a, _ in form.leaves]
        slopes = [b for *_, b in form.leaves]
        sup = None if any(slopes) else max(prefix_vals + offsets)
        liminf = min((a for a, b in zip(offsets, slopes) if not b), default=None)
        nondecreasing = (
            all(self.at(j + 1) >= self.at(j) for j in range(1, form.start))
            # with mixed slopes some step around the cycle of residues lowers it
            and slopes.count(slopes[0]) == len(slopes)
            and _steps_nondecreasing(form, slopes[0])
        )
        return WeightClassification(
            sup=sup, liminf=liminf, nondecreasing=nondecreasing, diverges_to_infinity=liminf is None
        )


def _by_first_index(mu: int, group: list, base: int):
    """The leaves (n0, mu, a, b) of one modulus, in the order of their first
    index n0 >= base; group is that modulus's leaves sorted by residue."""
    i = bisect.bisect_left(group, (base % mu,))  # (x,) sorts before every (x, a, b)
    for k in range(i, i + len(group)):
        r, a, b = group[k % len(group)]
        yield base + (r - base) % mu, mu, a, b


def _steps_nondecreasing(form: LeafForm, b: Fraction) -> bool:
    """Whether alpha_{n+1} >= alpha_n past the start when every leaf has slope b.

    With n on leaf A and n+1 on leaf B the step a_B + b - a_A does not
    depend on n, and such an n exists iff r_A + 1 = r_B (mod gcd(m_A, m_B)).
    So A is compared, per modulus mu, with the least a_B + b over the leaves
    B of modulus mu in that residue class mod gcd(m_A, mu).
    """
    tables: dict[tuple[int, int], dict[int, Fraction]] = {}
    for r, m, a, _ in form.leaves:
        for mu, members in form.by_modulus.items():
            g = math.gcd(m, mu)
            if (mu, g) not in tables:
                table = tables[mu, g] = {}
                for rb, ab, _ in members:
                    table[rb % g] = min(ab, table.get(rb % g, ab))
            least = tables[mu, g].get((r + 1) % g)
            # b >= 0, so a > least is tested first to skip most additions
            if least is not None and a > least and a > least + b:
                return False
    return True


@functools.lru_cache(maxsize=256)
def eventual_form(w: WeightFamily) -> EventualForm:
    return w._flatten()


def dyadic_jump_tail(w: WeightFamily, start: int) -> Fraction:
    """Exact sum of alpha_j * |Δf(j)| over the dyadic jumps j = 2^k - 1 >= start.

    Each jump contributes alpha_{2^k-1} * 2^{-(k+1)}.  Past the start of the
    leaf form, the residue of 2^k - 1 modulo a leaf modulus mu evolves by
    x -> 2x + 1 (mod mu), so it is eventually periodic: each leaf of modulus
    mu is met finitely often before the cycle and, if on it, once per turn
    of the cycle, a geometric series.  Both parts are exact.  Raises
    DivergentVariationError when a growing leaf recurs in the cycle, in
    which case the series has no finite value at all.
    """
    if start < 1:
        raise ValueError("start must be >= 1")
    form = w._leaves
    k = 1
    while (1 << k) - 1 < start:
        k += 1
    total = Fraction(0)
    while (1 << k) - 1 < form.start:
        total += w.at((1 << k) - 1) * Fraction(1, 1 << (k + 1))
        k += 1
    for mu, group in form.by_modulus.items():
        seen: dict[int, int] = {}  # residue of 2^j - 1 -> j
        x, j = ((1 << k) - 1) % mu, k
        while x not in seen:
            seen[x] = j
            x, j = (2 * x + 1) % mu, j + 1
        k1, top, period = seen[x], j, j - seen[x]
        # hits before the cycle, and on one turn of it, as multiples of 2^{-(top+1)}
        once, turn = Fraction(0), Fraction(0)
        for r, a, b in group:
            j = seen.get(r)
            if j is None:
                continue
            if j < k1:
                once += (a + b * ((1 << j) - 1)) * (1 << (top - j))
            elif b > 0:
                raise DivergentVariationError(
                    "weighted variation of the dyadic element diverges for this family: "
                    "a growing arm recurs on the jump indices"
                )
            else:
                turn += a * (1 << (top - j))
        # every turn of the cycle: turn / (1 - 2^{-period})
        total += (once + turn * Fraction(1 << period, (1 << period) - 1)) / (1 << (top + 1))
    return total


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

    @property
    def _arm(self) -> tuple[Fraction, Fraction]:
        return self.value, Fraction(0)

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

    @property
    def _arm(self) -> tuple[Fraction, Fraction]:
        return self.offset, self.slope

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
        modulus = math.lcm(self.modulus, *(form.modulus for form in inner))
        if modulus > MAX_ARMS:
            raise SchemaError(
                f"interleave: the eventual form would need {modulus} arms, over the cap of {MAX_ARMS}"
            )
        arms: list = [None] * modulus
        for i, form in enumerate(inner):
            # on the class r = i (mod M), r % form.modulus repeats every `period` steps
            period = form.modulus // math.gcd(self.modulus, form.modulus)
            cycle = [form.arm(i + self.modulus * t) for t in range(period)]
            arms[i :: self.modulus] = cycle * (modulus // self.modulus // period)
        return EventualForm(max(form.start for form in inner), modulus, tuple(arms))

    @functools.cached_property
    def _leaves(self) -> LeafForm:
        M, leaves = self.modulus, []
        for i, part in enumerate(self.parts):
            for r, m, a, b in part._leaves.leaves:
                # n = i (mod M) and n = r (mod m) meet iff i = r (mod gcd)
                g = math.gcd(M, m)
                if (i - r) % g:
                    continue
                lcm = M // g * m
                if lcm > MAX_ARMS:
                    raise SchemaError(
                        f"interleave: a leaf would need modulus {lcm}, over the cap of {MAX_ARMS}"
                    )
                t = (r - i) // g * pow(M // g, -1, m // g) % (m // g)  # n = i + M*t
                leaves.append((i + M * t, lcm, a, b))
        return LeafForm(max(p._leaves.start for p in self.parts), tuple(leaves))

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
        return replace(form, start=max(form.start, len(self.prefix) + 1))

    @functools.cached_property
    def _leaves(self) -> LeafForm:
        form = self.tail._leaves
        return replace(form, start=max(form.start, len(self.prefix) + 1))

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
