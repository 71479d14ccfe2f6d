"""Symbolic weight sequences with exactly decidable tail behaviour.

A weight family is a strictly positive rational sequence built from a small
closed grammar: constants, affine ramps ``a + b*n``, interleavings that pick
a sub-rule by residue class, and finite prefix overrides.  Beyond a start
index every member flattens into a *leaf form*: one affine leaf with
nonnegative slope per reachable grammar leaf, on a residue class found by
the Chinese remainder theorem, in integers over one denominator.  That
normal form, whose size follows the input, turns the asymptotic questions
needed downstream (tail infimum, supremum, liminf, monotonicity, the dyadic
jump sum) into finite exact integer computations, not numeric estimates.
The dense *eventual form*, one arm per residue modulo the lcm of all
interleave part counts, is kept as an independent oracle.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
import re
import sys
from collections.abc import Iterator
from fractions import Fraction
from itertools import count, pairwise

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
    return Fraction(*parse_ratio(value, path))


def parse_ratio(value: object, path: str = "value") -> tuple[int, int]:
    """The same rational as parse_rational, as an unreduced pair (p, q), q > 0."""
    if isinstance(value, str):
        m = _RATIONAL.fullmatch(value.strip())
        try:
            if m and (q := int(m[2] or 1)):  # not "p/0"
                return int(m[1]), q
        except ValueError:  # past the int digit limit
            pass
        raise SchemaError(f"{path}: not a rational 'p/q' string: {echo(value)}")
    if isinstance(value, bool) or isinstance(value, float):
        raise SchemaError(f"{path}: expected an exact rational such as \"3/4\", got {value!r}")
    if isinstance(value, int):
        return value, 1
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


def frozen(cls):
    """`dataclass(frozen=True)` without generated code: the fields are the annotated names down the MRO, a class
    attribute so named a default.  Every __init__ but EventuallyConstant's stores them by object.__setattr__."""
    names = tuple(dict.fromkeys(n for c in reversed(cls.__mro__) for n in c.__dict__.get("__annotations__", ())))
    defaults, fields = {n: getattr(cls, n) for n in names if hasattr(cls, n)}, operator.attrgetter(*names)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):  # positional construction skips the binding
            given = {**defaults, **dict(zip(names, args)), **kwargs}
            if len(args) > len(names) or given.keys() != set(names) or kwargs.keys() & names[: len(args)]:
                raise TypeError(f"{cls.__name__}() takes the fields {', '.join(names)}")
            args = map(given.get, names)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def immutable(self, name, *value):
        raise AttributeError(f"{cls.__name__} is immutable: cannot set or delete {name!r}")

    cls.__init__ = cls.__dict__.get("__init__", __init__)
    cls.__eq__ = lambda self, other: fields(self) == fields(other) if type(other) is type(self) else NotImplemented
    cls.__hash__ = lambda self: hash(fields(self))
    cls.__repr__ = lambda self: f"{cls.__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"
    cls.__setattr__ = cls.__delattr__ = immutable
    return cls


def format_rational(q: Fraction) -> str:
    """Lowest-terms string form, "p/q" or "p".  Every printed rational comes
    through here; one past the int-to-str digit limit is a SchemaError."""
    try:
        return str(q)
    except ValueError as exc:
        raise SchemaError(f"a result has more than {sys.get_int_max_str_digits()} digits") from exc


@frozen
class TailInf:
    """Exact infimum of the weight tail {alpha_j : j >= at_index}.

    attained_at is the smallest index realising the infimum.  Every arm of
    the grammar has nonnegative slope, so the infimum is always attained.
    """

    at_index: int
    value: Fraction
    attained_at: int


@frozen
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


@frozen
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


@frozen
class LeafForm:
    """Sparse normal form in integers over one denominator den = D_w:
    D_w * alpha_n is head[n - 1] before start, and offset + slope*n past it
    on the leaf (residue, modulus, offset, slope) whose class holds n.

    The leaves' classes partition the integers, every class is met by the
    sequence, and every slope is >= 0; the start is the dense form's start.
    """

    start: int
    den: int
    head: tuple[int, ...]
    leaves: tuple[tuple[int, int, int, int], ...]

    @functools.cached_property
    def by_modulus(self) -> dict[int, dict[int, tuple[int, int]]]:
        """The leaves (offset, slope) of each modulus, by residue."""
        groups: dict[int, dict] = {}
        for r, m, a, b in self.leaves:
            groups.setdefault(m, {})[r] = a, b
        return groups

    @functools.cached_property
    def _residues(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:  # (m, offsets, slopes) by residue
        ((m, group),) = self.by_modulus.items()
        return (m, *zip(*map(group.get, range(m))))

    def values(self, indices) -> list[int]:
        """[D_w * alpha_n for n in indices], n >= 1, past the start from the leaf holding n."""
        start, head, groups = self.start, self.head, self.by_modulus
        if len(groups) == 1:  # the leaves of one modulus m cover every residue: read two lists
            m, a, b = self._residues
            # past the start a non-integer n fails as a list index, a[n % m]
            return [a[r := n % m] + b[r] * n if n >= start else head[natural(n) - 1] for n in indices]
        out, groups = [], tuple(groups.items())
        for n in map(natural, indices):
            if n < start:
                out.append(head[n - 1])
                continue
            for m, group in groups:
                if leaf := group.get(n % m):
                    out.append(leaf[0] + leaf[1] * n)
                    break
        return out


def natural(n, message: str = "index must be >= 1") -> int:
    """n as an int, for an index, start, count or run length: TypeError for a
    non-integer, ValueError(message) below 1.  Every such argument comes through here."""
    if (n := operator.index(n)) < 1:
        raise ValueError(message)
    return n


class WeightFamily:
    """Base class of the weight grammar; concrete families below.  Only this
    module reads a normal form: every index search is a method here.  Each
    family caches its integer leaf form (`_leaves`) and classification per
    object, in the instance dict, so they take no part in __eq__ or __hash__."""

    def at(self, n: int) -> Fraction:
        """Exact value of alpha_n for an integer n >= 1; the one check of an index."""
        return self._at(natural(n))

    def _at(self, n: int) -> Fraction:  # alpha_n for a checked n
        raise NotImplementedError

    def _flatten(self) -> EventualForm:
        return EventualForm(1, 1, (self._arm,))  # a grammar leaf: one arm, every index

    @functools.cached_property
    def _leaves(self) -> LeafForm:
        a, b = self._arm
        den = math.lcm(a.denominator, b.denominator)
        return LeafForm(1, den, (), ((0, 1, int(a * den), int(b * den)),))

    def to_obj(self) -> dict:
        raise NotImplementedError

    def _hits(self, at_or_after: int, t: Fraction, op) -> Iterator[int]:
        """Every n >= at_or_after with op(alpha_n, t), in increasing order, for op one
        of operator.gt, le and eq (past the leaf form's start, eq on constant leaves
        only).  With p/q = D_w * t a value before the start is tested alone, and a
        leaf past it passes on a progression up to or from where a + b*n crosses p/q."""
        form, at_or_after = self._leaves, natural(at_or_after)
        if not isinstance(t, (int, Fraction)):  # a float level would lose exactness
            raise TypeError(f"level must be an int or a Fraction, got {type(t).__name__}")
        p, q = t.numerator * form.den, t.denominator
        yield from (j for j, v in enumerate(form.values(range(at_or_after, form.start)), at_or_after) if op(q * v, p))
        base, heap = max(at_or_after, form.start), []
        for r, m, a, b in form.leaves:
            if b and op is not operator.eq:  # a growing leaf is <= t up to n = floor((p - q*a)/(q*b))
                cut = (p - q * a) // (q * b)
                first, last = (cut + 1, math.inf) if op is operator.gt else (1, cut)
            elif not b and op(q * a, p):
                first, last = 1, math.inf
            else:
                continue
            n = max(base, first)
            heap.append((n + (r - n) % m, m, last))
        heapq.heapify(heap)  # (next index, modulus, last index) per passing leaf
        while heap:
            n, m, last = heapq.heappop(heap)
            if n <= last:
                yield n
                heapq.heappush(heap, (n + m, m, last))

    def first_above(self, t: Fraction, at_or_after: int = 1) -> int | None:
        """Smallest n >= at_or_after with alpha_n > t; None when the weights stay <= t."""
        return next(self._hits(at_or_after, t, operator.gt), None)

    def first_at_most(self, t: Fraction, at_or_after: int) -> int | None:
        """Smallest n >= at_or_after with alpha_n <= t, or None."""
        return next(self._hits(at_or_after, t, operator.le), None)

    def first_attaining(self, level: Fraction, at_or_after: int) -> int | None:
        """Smallest n >= at_or_after with alpha_n == level below the leaf form's
        start, or on a constant leaf at that level past it; None if there is none."""
        return next(self._hits(at_or_after, level, operator.eq), None)

    def selected_indices(self, at_or_after: int = 1, slack: Fraction | None = None) -> Iterator[int]:
        """The truncation indices of the approximate identity at ∞ from at_or_after
        on, increasing and without end, k of them in O((leaves + k) log leaves):
        for divergent weights the attainers of their own running tail infimum;
        for a finite liminf every index of bounded weights, else the liminf's
        attainers, or with a slack >= 0 each n with alpha_n <= liminf + slack."""
        at_or_after = natural(at_or_after)
        if slack is not None and not isinstance(slack, (int, Fraction)):
            raise TypeError(f"slack must be an int or a Fraction, got {type(slack).__name__}")
        if slack is not None and slack < 0:
            raise ValueError("slack must be >= 0")
        cls = self.classify()
        if cls.liminf is None:
            return (j for _, j in self._running_minima(at_or_after))
        if slack is not None:
            return self._hits(at_or_after, cls.liminf + slack, operator.le)
        if cls.sup is not None:
            return count(at_or_after)  # bounded weights: the whole sequence is norm bounded
        return self._hits(at_or_after, cls.liminf, operator.eq)

    def scaled_at(self, indices) -> tuple[int, list[int]]:
        """(D_w, [D_w * alpha_n for n in indices]), at a cost that follows the leaves."""
        return self._leaves.den, self._leaves.values(indices)

    def tail_infimum(self, n: int) -> TailInf:
        """Exact inf{alpha_j : j >= n} with the earliest attaining index."""
        n = natural(n)
        value, k = next(self._running_minima(n))
        return TailInf(n, Fraction(value, self._leaves.den), k)

    def _running_minima(self, at_or_after: int) -> Iterator[tuple[int, int]]:
        """(D_w * alpha_k, k) for each k >= at_or_after attaining inf{alpha_j : j >= k},
        in increasing order.  A heap holds (scaled value, index, leaf) per value
        below the start (leaf -1) and per leaf; a leaf at an index already passed
        moves to its first index from lo, one past the last k.  Leaf values
        only grow, so the top entry at or past lo is the least, and ties go to
        the smaller index."""
        form, lo = self._leaves, at_or_after
        heap = [(v, j, -1) for j, v in enumerate(form.values(range(lo, form.start)), lo)]
        base = max(lo, form.start)
        for i, (r, m, a, b) in enumerate(form.leaves):
            n = base + (r - base) % m
            heap.append((a + b * n, n, i))
        heapq.heapify(heap)
        while True:
            value, n, i = heap[0]
            if n >= lo:
                yield value, n
                lo = n + 1
            elif i < 0:
                heapq.heappop(heap)
            else:
                r, m, a, b = form.leaves[i]
                n = lo + (r - lo) % m
                heapq.heapreplace(heap, (a + b * n, n, i))

    def classify(self) -> WeightClassification:
        """Exact boundedness / liminf / monotonicity classification."""
        return self._classification

    @functools.cached_property
    def _classification(self) -> WeightClassification:
        form = self._leaves
        offsets = [a for *_, a, _ in form.leaves]
        slopes = [b for *_, b in form.leaves]
        sup = None if any(slopes) else Fraction(max([*form.head, *offsets]), form.den)
        least = min((a for a, b in zip(offsets, slopes) if not b), default=None)
        liminf = None if least is None else Fraction(least, form.den)
        nondecreasing = (
            all(x <= y for x, y in pairwise(form.values(range(1, form.start + 1))))
            # with mixed slopes some step around the cycle of residues lowers it
            and slopes.count(slopes[0]) == len(slopes)
            and _steps_nondecreasing(form, slopes[0])
        )
        return WeightClassification(
            sup=sup, liminf=liminf, nondecreasing=nondecreasing, diverges_to_infinity=liminf is None
        )


def _steps_nondecreasing(form: LeafForm, b: int) -> bool:
    """Whether alpha_{n+1} >= alpha_n past the start when every leaf has scaled slope b.

    With n on leaf A and n+1 on leaf B the step a_B + b - a_A does not
    depend on n, and such an n exists iff r_A + 1 = r_B (mod gcd(m_A, m_B)).
    So A is compared, per modulus mu, with the least a_B + b over the leaves
    B of modulus mu in that residue class mod gcd(m_A, mu).
    """
    tables: dict[tuple[int, int], dict[int, int]] = {}
    for r, m, a, _ in form.leaves:
        for mu, members in form.by_modulus.items():
            g = math.gcd(m, mu)
            if (mu, g) not in tables:
                table = tables[mu, g] = {}
                for rb, (ab, _) in members.items():
                    table[rb % g] = min(ab, table.get(rb % g, ab))
            least = tables[mu, g].get((r + 1) % g)
            if least is not None and a > least + b:
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
    form = w._leaves
    k = natural(start, "start must be >= 1").bit_length()  # the least k with 2^k - 1 >= start
    num, den = 0, 1 << k  # the sum so far is num / (den * D_w)
    while (1 << k) - 1 < form.start:
        num, den = 2 * num + form.head[(1 << k) - 2], 2 * den
        k += 1
    for mu, group in form.by_modulus.items():
        seen: dict[int, int] = {}  # residue of 2^j - 1 -> j
        x, j = ((1 << k) - 1) % mu, k
        while x not in seen:
            seen[x] = j
            x, j = (2 * x + 1) % mu, j + 1
        k1, top, period = seen[x], j, j - seen[x]
        # hits before the cycle, and on one turn of it, as multiples of 2^{-(top+1)}
        once = turn = 0
        for r, (a, b) in group.items():
            j = seen.get(r)
            if j is None:
                continue
            if j < k1:
                once += (a + b * ((1 << j) - 1)) << (top - j)
            elif b > 0:
                raise DivergentVariationError(
                    "weighted variation of the dyadic element diverges for this family: "
                    "a growing arm recurs on the jump indices"
                )
            else:
                turn += a << (top - j)
        # every turn of the cycle: turn / (1 - 2^{-period}), all over 2^{top+1}
        g = (1 << period) - 1
        lcm = math.lcm(den, g << (top + 1))
        num, den = num * (lcm // den) + (once * g + (turn << period)) * (lcm // (g << (top + 1))), lcm
    return Fraction(num, den * form.den)


@frozen
class Constant(WeightFamily):
    value: Fraction

    def __init__(self, value):
        v = Fraction(value)
        if v <= 0:
            raise ValueError("constant weight must be positive")
        object.__setattr__(self, "value", v)

    def _at(self, n: int) -> Fraction:
        return self.value

    @property
    def _arm(self) -> tuple[Fraction, Fraction]:
        return self.value, Fraction(0)

    def to_obj(self) -> dict:
        return {"family": "constant", "value": format_rational(self.value)}


@frozen
class Linear(WeightFamily):
    """alpha_n = offset + slope * n with offset, slope >= 0, not both zero."""

    offset: Fraction
    slope: Fraction

    def __init__(self, offset, slope):
        a, b = Fraction(offset), Fraction(slope)
        if a < 0 or b < 0 or (a == 0 and b == 0):
            raise ValueError("linear weights need offset >= 0, slope >= 0, not both zero")
        object.__setattr__(self, "offset", a)
        object.__setattr__(self, "slope", b)

    def _at(self, n: int) -> Fraction:
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


@frozen
class Interleave(WeightFamily):
    """alpha_n = parts[n % modulus] evaluated at n (global index, not sub-index)."""

    parts: tuple[WeightFamily, ...]

    def __init__(self, parts):
        parts = tuple(parts)
        if len(parts) < 2:
            raise ValueError("interleave needs modulus >= 2")
        if not all(isinstance(p, WeightFamily) for p in parts):
            raise ValueError("interleave parts must be weight families")
        object.__setattr__(self, "parts", parts)

    @property
    def modulus(self) -> int:
        return len(self.parts)

    def _at(self, n: int) -> Fraction:
        return self.parts[n % self.modulus]._at(n)

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
        M, leaves, forms = self.modulus, [], [p._leaves for p in self.parts]
        den = math.lcm(*(form.den for form in forms))
        for i, form in enumerate(forms):
            c = den // form.den
            for r, m, a, b in form.leaves:
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
                leaves.append((i + M * t, lcm, a * c, b * c))
        start = max(form.start for form in forms)
        head = tuple(v.numerator * (den // v.denominator) for v in map(self._at, range(1, start)))
        return LeafForm(start, den, head, tuple(leaves))

    def to_obj(self) -> dict:
        return {
            "family": "interleave",
            "modulus": self.modulus,
            "parts": [p.to_obj() for p in self.parts],
        }


@frozen
class PrefixOverride(WeightFamily):
    """Explicit first values, then the tail rule evaluated at the global index."""

    prefix: tuple[Fraction, ...]
    tail: WeightFamily

    def __init__(self, prefix, tail):
        pre = tuple(Fraction(v) for v in prefix)
        if any(v <= 0 for v in pre):
            raise ValueError("prefix weights must be positive")
        if not isinstance(tail, WeightFamily):
            raise ValueError("prefix tail must be a weight family")
        object.__setattr__(self, "prefix", pre)
        object.__setattr__(self, "tail", tail)

    def _at(self, n: int) -> Fraction:
        return self.prefix[n - 1] if n <= len(self.prefix) else self.tail._at(n)

    def _flatten(self) -> EventualForm:
        form = eventual_form(self.tail)
        return EventualForm(max(form.start, len(self.prefix) + 1), form.modulus, form.arms)

    @functools.cached_property
    def _leaves(self) -> LeafForm:
        form, k = self.tail._leaves, len(self.prefix)
        den = math.lcm(form.den, *{v.denominator for v in self.prefix})
        c = den // form.den
        head = [v.numerator * (den // v.denominator) for v in self.prefix] + [x * c for x in form.head[k:]]
        leaves = tuple((r, m, a * c, b * c) for r, m, a, b in form.leaves)
        return LeafForm(max(form.start, k + 1), den, tuple(head), leaves)

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
