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
Each distinct rational string of a document is parsed into a `Fraction` once;
the leaf form is built from its integer numerator and denominator, with no
`Fraction` arithmetic, and only the family asked keeps one.
The dense *eventual form*, one arm per residue modulo the lcm of the leaf
moduli, is a view of the leaf form that no query reads.
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
MAX_ARMS = 1 << 16  # budget of a leaf modulus, and of the dense view's arms (lcm of the leaf moduli)

_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
_ZERO = Fraction(0)


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
    """`dataclass(frozen=True)` without importing dataclasses: the fields are the annotated names down the MRO,
    a class attribute so named a default, and a class's `convert` maps a field to the function that makes the
    stored value from the given one.  A class without its own __init__ (all but EventuallyConstant) gets one,
    compiled once from its field names, with a native signature: one straight-line object.__setattr__ per field
    (a loop over the fields measured slower), then the class's `_check(self)`, if any, for a rule over fields."""
    names = tuple(dict.fromkeys(n for c in reversed(cls.__mro__) for n in c.__dict__.get("__annotations__", ())))
    defaults, fields = {n: getattr(cls, n) for n in names if hasattr(cls, n)}, operator.attrgetter(*names)
    if "__init__" not in cls.__dict__:
        convert, check = cls.__dict__.get("convert", {}), getattr(cls, "_check", None)
        scope = {"defaults": defaults, "_check": check, **{f"convert_{n}": f for n, f in convert.items()}}
        lines = [f"def __init__(self, {', '.join(f'{n}=defaults[{n!r}]' if n in defaults else n for n in names)}):"]
        lines += [f"    object.__setattr__(self, {n!r}, {f'convert_{n}({n})' if n in convert else n})" for n in names]
        exec("\n".join(lines + ["    _check(self)"] * bool(check)), scope)
        cls.__init__ = scope["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"  # so that an arity error names the class

    def immutable(self, name, *value):
        raise AttributeError(f"{cls.__name__} is immutable: cannot set or delete {name!r}")

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


def rational(x, name: str = "value") -> Fraction:
    """x as a Fraction, for a weight, element value, scale factor, level or tolerance: TypeError
    for anything but an int or a Fraction (a float, a str, a Decimal).  Every such argument comes through here."""
    if type(x) is Fraction:
        return x
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"{name} must be an int or a Fraction, got {type(x).__name__}")
    return Fraction(x)


def optional(convert):
    """convert, for a field that may be None, which it keeps."""
    return lambda value: None if value is None else convert(value)


def json_form(value):
    """The JSON form of a result value, the one rule every writer follows: a Fraction is its
    format_rational string, a tuple or list a list and a dict the same keys, each item written;
    a Record writes its to_obj, and the rest (an int, bool, str or None) stays as it is."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, (tuple, list)):
        return list(map(json_form, value))
    if isinstance(value, dict):
        return {key: json_form(v) for key, v in value.items()}
    return value.to_obj() if isinstance(value, Record) else value


class Record:
    """A value with a JSON form: the `fields` its class declares, the JSON keys in output order (a family's
    map each key to its kind), each written from the attribute of that name by json_form, or its own to_obj.
    They are not annotated, so `frozen` takes none of them for a field.  A result's rationals are stored as
    Fractions (its `convert`), so their JSON form is always a format_rational string."""

    def to_obj(self) -> dict:
        return {key: json_form(getattr(self, key)) for key in self.fields}


@frozen
class TailInf:
    """Exact infimum of the weight tail {alpha_j : j >= at_index}.

    attained_at is the smallest index realising the infimum.  Every arm of
    the grammar has nonnegative slope, so the infimum is always attained.
    """

    at_index: int
    value: Fraction
    attained_at: int
    convert = {"value": rational}


@frozen
class WeightClassification(Record):
    """Exact asymptotic classification of a weight family.

    sup is None when the sequence is unbounded; liminf is None when the
    sequence diverges to infinity.
    """

    sup: Fraction | None
    liminf: Fraction | None
    nondecreasing: bool
    fields = "bounded", "sup", "liminf_finite", "liminf", "nondecreasing", "diverges_to_infinity"
    convert = {**dict.fromkeys(("sup", "liminf"), optional(rational)),
               "nondecreasing": lambda x: of_type(x, bool, "nondecreasing")}

    @property
    def bounded(self) -> bool:
        return self.sup is not None

    @property
    def liminf_finite(self) -> bool:
        return self.liminf is not None

    @property
    def diverges_to_infinity(self) -> bool:
        return self.liminf is None


@frozen
class EventualForm:
    """Dense normal form valid for n >= start: alpha_n = arms[n % modulus] at n.

    Each arm is an (offset, slope) pair with slope >= 0, one tuple shared by
    the residues of a leaf.  `eventual_form` reads it off the leaf form; its
    size, the lcm of the leaf moduli, is exponential in the input, so no query
    reads it.  The tests build their own from the grammar as an oracle.
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
    sequence, and every slope is >= 0; `eventual_form` is a view of it.
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


def of_type(x, kind: type, name: str):
    """x itself, for a weight family, ideal spec or closed set argument: TypeError for anything else."""
    if not isinstance(x, kind):
        raise TypeError(f"{name} must be of type {kind.__name__}, got {type(x).__name__}")
    return x


class WeightFamily(Record):
    """Base class of the weight grammar; concrete families below.  Only this
    module reads a normal form: every index search is a method here, at a cost of
    O(head entries past at_or_after + leaves).  The family asked caches its integer leaf form
    (`_leaves`) and classification in the instance dict, so they take no part in __eq__ or __hash__;
    its sub-families hand theirs up through `_leaf_data` and keep none.
    Each declares its JSON form once, its `tag` and `fields` (key -> Fraction, WeightFamily,
    or [either] for a list), which weight_family_from_obj reads and to_obj writes after the tag."""

    def at(self, n: int) -> Fraction:
        """Exact value of alpha_n for an integer n >= 1; the one check of an index."""
        return self._at(natural(n))

    def _at(self, n: int) -> Fraction:  # alpha_n for a checked n
        raise NotImplementedError

    @functools.cached_property
    def _leaves(self) -> LeafForm:  # cached on the family asked alone
        start, den, head, leaves = self._leaf_data()
        return LeafForm(start, den, tuple(head), tuple(leaves))

    def _leaf_data(self) -> tuple[int, int, list[int], list[tuple[int, int, int, int]]]:
        """The leaf form's start, den, head and leaves, built anew: a sub-family hands them up as plain data."""
        a, b = self._arm  # a grammar leaf: one leaf, every index
        den = math.lcm(a.denominator, b.denominator)
        return 1, den, [], [(0, 1, a.numerator * (den // a.denominator), b.numerator * (den // b.denominator))]

    def to_obj(self) -> dict:
        """The JSON form that weight_family_from_obj reads: the tag, then each declared field in order."""
        return {"family": self.tag, **super().to_obj()}

    def _hits(self, at_or_after: int, t: Fraction, op) -> Iterator[int]:
        """Every n >= at_or_after with op(alpha_n, t), in increasing order, for op one
        of operator.gt, le and eq (past the leaf form's start, eq on constant leaves
        only).  With p/q = D_w * t a value before the start is tested alone, and a
        leaf past it passes on a progression up to or from where a + b*n crosses p/q."""
        form, at_or_after, t = self._leaves, natural(at_or_after), rational(t, "level")
        p, q = t.numerator * form.den, t.denominator
        yield from (j for j, v in enumerate(form.head[at_or_after - 1 :], at_or_after) if op(q * v, p))
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
        if slack is not None and rational(slack, "slack") < 0:
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
        heap = [(v, j, -1) for j, v in enumerate(form.head[lo - 1 :], lo)]
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
            all(x <= y for x, y in pairwise([*form.head, *form.values((form.start,))]))
            # with mixed slopes some step around the cycle of residues lowers it
            and slopes.count(slopes[0]) == len(slopes)
            and _steps_nondecreasing(form, slopes[0])
        )
        return WeightClassification(sup=sup, liminf=liminf, nondecreasing=nondecreasing)


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


@functools.lru_cache(maxsize=0)  # hashing the family tree cost more than a hit saved; the bench reads cache_info()
def eventual_form(w: WeightFamily) -> EventualForm:
    """The dense form as a view of the leaf form: each leaf (r, m, a, b) fills arms[r::m] with one shared arm."""
    form = w._leaves
    modulus = math.lcm(*(m for _, m, _, _ in form.leaves))
    if modulus > MAX_ARMS:
        raise SchemaError(f"interleave: the eventual form would need {modulus} arms, over the cap of {MAX_ARMS}")
    arms: list = [None] * modulus
    for r, m, a, b in form.leaves:
        arms[r::m] = [(Fraction(a, form.den), Fraction(b, form.den))] * (modulus // m)
    return EventualForm(form.start, modulus, tuple(arms))


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
    form = of_type(w, WeightFamily, "weights")._leaves
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
    tag, fields = "constant", {"value": Fraction}
    convert = {"value": rational}

    def _check(self):
        if self.value.numerator <= 0:
            raise ValueError("constant weight must be positive")

    def _at(self, n: int) -> Fraction:
        return self.value

    @property
    def _arm(self) -> tuple[Fraction, Fraction]:
        return self.value, _ZERO


@frozen
class Linear(WeightFamily):
    """alpha_n = offset + slope * n with offset, slope >= 0, not both zero."""

    offset: Fraction
    slope: Fraction
    tag, fields = "linear", {"offset": Fraction, "slope": Fraction}
    convert = dict.fromkeys(("offset", "slope"), rational)

    def _check(self):
        a, b = self.offset.numerator, self.slope.numerator
        if a < 0 or b < 0 or not (a or b):
            raise ValueError("linear weights need offset >= 0, slope >= 0, not both zero")

    def _at(self, n: int) -> Fraction:
        return self.offset + self.slope * n

    @property
    def _arm(self) -> tuple[Fraction, Fraction]:
        return self.offset, self.slope


@frozen
class Interleave(WeightFamily):
    """alpha_n = parts[n % modulus] evaluated at n (global index, not sub-index)."""

    parts: tuple[WeightFamily, ...]
    tag, fields = "interleave", {"parts": [WeightFamily]}
    convert = {"parts": lambda parts: tuple(of_type(p, WeightFamily, "interleave part") for p in parts)}

    def _check(self):
        if len(self.parts) < 2:
            raise ValueError("interleave needs modulus >= 2")

    @property
    def modulus(self) -> int:
        return len(self.parts)

    def _at(self, n: int) -> Fraction:
        return self.parts[n % self.modulus]._at(n)

    def _leaf_data(self):
        M, leaves, forms = self.modulus, [], [p._leaf_data() for p in self.parts]
        den, start = math.lcm(*(form[1] for form in forms)), max(form[0] for form in forms)
        # D_w * alpha_n for n < start: part n % M's head before its start, past it the leaf holding n
        head = [0] * (start - 1)
        for i, (p_start, p_den, p_head, p_leaves) in enumerate(forms):
            c, k = den // p_den, (i or M) - 1  # head[k]: part i's first index
            head[k : p_start - 1 : M] = [x * c for x in p_head[k::M]]
            for r, m, a, b in p_leaves:
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
                r, a, b = i + M * t, a * c, b * c
                leaves.append((r, lcm, a, b))
                n = p_start + (r - p_start) % lcm  # the leaf's first index past the part's start
                if n < start:
                    head[n - 1 : start - 1 : lcm] = [a + b * j for j in range(n, start, lcm)]
        return start, den, head, leaves

    def to_obj(self) -> dict:
        return {"family": self.tag, "modulus": self.modulus} | super().to_obj()


@frozen
class PrefixOverride(WeightFamily):
    """Explicit first values, then the tail rule evaluated at the global index."""

    prefix: tuple[Fraction, ...]
    tail: WeightFamily
    tag, fields = "prefix", {"prefix": [Fraction], "tail": WeightFamily}
    convert = {"prefix": lambda values: tuple(map(rational, values)),
               "tail": lambda tail: of_type(tail, WeightFamily, "prefix tail")}

    def _check(self):
        if any(v.numerator <= 0 for v in self.prefix):
            raise ValueError("prefix weights must be positive")

    def _at(self, n: int) -> Fraction:
        return self.prefix[n - 1] if n <= len(self.prefix) else self.tail._at(n)

    def _leaf_data(self):
        (start, tail_den, head, leaves), k = self.tail._leaf_data(), len(self.prefix)
        den = math.lcm(tail_den, *{v.denominator for v in self.prefix})
        c = den // tail_den
        head = [v.numerator * (den // v.denominator) for v in self.prefix] + [x * c for x in head[k:]]
        return max(start, k + 1), den, head, [(r, m, a * c, b * c) for r, m, a, b in leaves]


_FAMILIES = {cls.tag: cls for cls in (Constant, Linear, Interleave, PrefixOverride)}
_EXPECTED = "{}, or {}".format(", ".join([*_FAMILIES][:-1]), [*_FAMILIES][-1])


def weight_family_from_obj(obj: object, path: str = "weights") -> WeightFamily:
    """Parse a weight family from its JSON object form, with field-level errors: the tag
    names the class, and the class's declared fields are read in order.  Each distinct
    rational string of the document is parsed once, as element_from_obj does."""
    return _read(WeightFamily, obj, path, 0, {})


def _read(kind, value: object, path: str, depth: int, memo: dict[str, Fraction]):
    """A value of one kind: WeightFamily (depth deep), Fraction (memo: the document's parsed strings), or a list."""
    if kind is Fraction:
        if type(value) is not str:  # strings alone are keys: 1, True and 1.0 are equal keys but not equal values
            return parse_rational(value, path)
        if (q := memo.get(value)) is None:
            q = memo[value] = parse_rational(value, path)  # a rejected string is not kept
        return q
    if kind is WeightFamily:
        if depth > MAX_FAMILY_DEPTH:
            raise SchemaError(f"{path}: weight family nested deeper than {MAX_FAMILY_DEPTH} levels")
        if not isinstance(value, dict):
            raise SchemaError(f"{path}: expected an object, got {type(value).__name__}")
        tag = value.get("family")
        cls = _FAMILIES.get(tag) if isinstance(tag, str) else None  # a list or dict tag is unhashable
        if cls is None:
            raise SchemaError(f"{path}.family: unknown tag {echo(tag)} (expected {_EXPECTED})")
        args = []
        for key, field in cls.fields.items():
            if key not in value:
                raise SchemaError(f"{path}.{key}: missing required field")
            args.append(_read(field, value[key], f"{path}.{key}", depth + 1, memo))
        # modulus is written by to_obj but is not a field: on input it is only checked
        if cls is Interleave and "modulus" in value and not (type(m := value["modulus"]) is int and m == len(args[0])):
            raise SchemaError(f"{path}.modulus: {echo(m)} is not the parts count, the integer {len(args[0])}")
        return _checked(cls, args, path)
    if not isinstance(value, list):
        raise SchemaError(f"{path}: expected a list")
    if kind == [Fraction]:
        try:
            return tuple([_read(Fraction, v, path, depth, memo) for v in value])
        except SchemaError:  # name the item only once a value is rejected
            pass
    return tuple(_read(kind[0], v, f"{path}[{i}]", depth, memo) for i, v in enumerate(value))


def _checked(cls, args, path: str):
    """cls(*args), its ValueError as a SchemaError at path."""
    try:
        return cls(*args)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
