"""Shared random generators, hypothesis strategies and oracles for the test suite.

Acceptance criteria use seeded random.Random so the counted trials are
reproducible; unit-level property tests use hypothesis strategies built on
the same grammar.  The dense oracles answer the weight queries from the
dense eventual form, one arm per residue modulo the lcm of all interleave
part counts, independently of the leaf form the library reads.
"""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import strategies as st

from ditkin import (
    Constant,
    DivergentVariationError,
    EventuallyConstant,
    Interleave,
    Linear,
    PrefixOverride,
    TailInf,
    WeightFamily,
)
from ditkin.weights import eventual_form


def random_fraction(
    rng: random.Random, max_num: int = 100, max_den: int = 100, positive: bool = False
) -> Fraction:
    num = rng.randint(1 if positive else -max_num, max_num)
    if positive and num < 1:
        num = 1
    return Fraction(num, rng.randint(1, max_den))


def random_positive_fraction(rng: random.Random, max_num: int = 20, max_den: int = 10) -> Fraction:
    return Fraction(rng.randint(1, max_num), rng.randint(1, max_den))


def random_leaf(rng: random.Random, kind: str) -> WeightFamily:
    """kind: 'bounded' (constant value), 'divergent' (positive slope), or 'any'."""
    if kind == "any":
        kind = rng.choice(["bounded", "divergent"])
    if kind == "bounded":
        if rng.random() < 0.5:
            return Constant(random_positive_fraction(rng))
        return Linear(random_positive_fraction(rng), Fraction(0))
    offset = Fraction(0) if rng.random() < 0.5 else random_positive_fraction(rng)
    return Linear(offset, random_positive_fraction(rng))


def random_family(rng: random.Random, kind: str = "any", depth: int = 2) -> WeightFamily:
    """Random grammar member.

    kind='bounded' builds only bounded families; kind='divergent' only
    families diverging to infinity; 'liminf_finite' guarantees a finite
    liminf (bounded or not); 'any' mixes freely.
    """
    if depth <= 0 or rng.random() < 0.35:
        if kind == "liminf_finite":
            return random_leaf(rng, "bounded")
        return random_leaf(rng, kind)
    roll = rng.random()
    if roll < 0.55:
        m = rng.randint(2, 4)
        if kind == "liminf_finite":
            parts = [random_family(rng, "any", depth - 1) for _ in range(m - 1)]
            parts.insert(rng.randrange(m), random_family(rng, "bounded", depth - 1))
        else:
            parts = [random_family(rng, kind, depth - 1) for _ in range(m)]
        return Interleave(tuple(parts))
    prefix = tuple(random_positive_fraction(rng) for _ in range(rng.randint(0, 4)))
    return PrefixOverride(prefix, random_family(rng, kind, depth - 1))


def random_exact_element(
    rng: random.Random,
    max_len: int = 50,
    max_num: int = 100,
    max_den: int = 100,
    tail: Fraction | None = None,
) -> EventuallyConstant:
    n = rng.randint(0, max_len)
    prefix = tuple(
        Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den)) for _ in range(n)
    )
    if tail is None:
        tail = Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
    return EventuallyConstant(prefix, tail)


def random_m_infinity_element(rng: random.Random, max_len: int = 50) -> EventuallyConstant:
    return random_exact_element(rng, max_len=max_len, tail=Fraction(0))


# ---------------------------------------------------------------------------
# hypothesis strategies

positive_fractions = st.fractions(
    min_value=Fraction(1, 10), max_value=Fraction(20), max_denominator=10
)
small_fractions = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=20
)


def weight_leaves():
    constants = st.builds(Constant, positive_fractions)
    flats = st.builds(Linear, positive_fractions, st.just(Fraction(0)))
    ramps = st.builds(
        Linear,
        st.one_of(st.just(Fraction(0)), positive_fractions),
        positive_fractions,
    )
    return st.one_of(constants, flats, ramps)


def weight_families(max_depth: int = 2):
    def extend(children):
        interleaves = st.builds(
            lambda parts: Interleave(tuple(parts)),
            st.lists(children, min_size=2, max_size=3),
        )
        prefixed = st.builds(
            lambda pre, tail: PrefixOverride(tuple(pre), tail),
            st.lists(positive_fractions, min_size=0, max_size=3),
            children,
        )
        return st.one_of(interleaves, prefixed)

    return st.recursive(weight_leaves(), extend, max_leaves=4)


def exact_elements(tail=small_fractions):
    return st.builds(
        lambda pre, t: EventuallyConstant(tuple(pre), t),
        st.lists(small_fractions, min_size=0, max_size=12),
        tail,
    )


def m_infinity_elements():
    return exact_elements(tail=st.just(Fraction(0)))


# ---------------------------------------------------------------------------
# dense-form oracles


def _dense_first_index(ef, residue: int, at_or_after: int) -> int:
    """Smallest n >= at_or_after with n % ef.modulus == residue."""
    return at_or_after + (residue - at_or_after) % ef.modulus


def dense_tail_infimum(w: WeightFamily, n: int) -> TailInf:
    """inf{alpha_j : j >= n} and its earliest attainer, comparing every dense arm."""
    ef = eventual_form(w)
    lo = max(n, ef.start)
    best = min((w.at(j), j) for j in range(n, lo)) if n < lo else None
    for r, (a, b) in enumerate(ef.arms):
        j = _dense_first_index(ef, r, lo)
        if best is None or (a + b * j, j) < best:
            best = (a + b * j, j)
    return TailInf(at_index=n, value=best[0], attained_at=best[1])


def dense_nondecreasing(w: WeightFamily) -> bool:
    """Whether alpha_{n+1} >= alpha_n for all n, from each pair of adjacent dense arms."""
    ef = eventual_form(w)
    if not all(w.at(j + 1) >= w.at(j) for j in range(1, ef.start)):
        return False
    for r in range(ef.modulus):
        a1, b1 = ef.arms[r]
        a2, b2 = ef.arms[(r + 1) % ef.modulus]
        # the successor gap is affine in n on the class r (mod M): its slope
        # decides the far tail and the first class member the near end
        n_r = _dense_first_index(ef, r, ef.start)
        if b2 < b1 or a2 + b2 * (n_r + 1) < a1 + b1 * n_r:
            return False
    return True


def dense_sup_liminf(w: WeightFamily) -> tuple:
    """(sup, liminf) with None for an unbounded sequence or an infinite liminf."""
    ef = eventual_form(w)
    flat = [a for a, b in ef.arms if b == 0]
    sup = None
    if all(b == 0 for _, b in ef.arms):
        sup = max([w.at(j) for j in range(1, ef.start)] + flat)
    return sup, (min(flat) if flat else None)


def _dense_first(w: WeightFamily, lo: int, hit, arm_first) -> int | None:
    """Smallest n >= lo with hit(alpha_n), or None, searching every dense arm.

    Below the dense start hit tests each value; past it arm_first(a, b, n0)
    takes an arm a + b*n and its first index n0 in range, and gives the
    point from which the arm qualifies (None if never).
    """
    ef = eventual_form(w)
    for j in range(lo, ef.start):
        if hit(w.at(j)):
            return j
    base, found = max(lo, ef.start), []
    for r, (a, b) in enumerate(ef.arms):
        m = arm_first(a, b, _dense_first_index(ef, r, base))
        if m is not None:
            found.append(_dense_first_index(ef, r, m))
    return min(found, default=None)


def dense_searches(w: WeightFamily, t: Fraction, level: Fraction, lo: int) -> tuple:
    """(first_above(t, lo), first_at_most(t, lo), first_attaining(level, lo)),
    scanning below the dense start and solving each arm a + b*n past it."""
    return (
        _dense_first(
            w, lo, lambda v: v > t,
            lambda a, b, n0: max(n0, (t - a) // b + 1) if b else (n0 if a > t else None),
        ),
        _dense_first(w, lo, lambda v: v <= t, lambda a, b, n0: n0 if a + b * n0 <= t else None),
        _dense_first(
            w, lo, lambda v: v == level, lambda a, b, n0: n0 if b == 0 and a == level else None
        ),
    )


def dense_dyadic_jump_tail(w: WeightFamily, start: int) -> Fraction:
    """Sum of alpha_j * 2^{-(k+1)} over j = 2^k - 1 >= start, walking the
    dense residue r -> 2r + 1 (mod M) until it repeats."""
    ef = eventual_form(w)
    k = 1
    while (1 << k) - 1 < start:
        k += 1
    total = Fraction(0)
    while (1 << k) - 1 < ef.start:
        total += w.at((1 << k) - 1) * Fraction(1, 1 << (k + 1))
        k += 1
    seen = {}
    r = ((1 << k) - 1) % ef.modulus
    while r not in seen:
        seen[r] = (k, total)
        a, b = ef.arms[r]
        total += (a + b * ((1 << k) - 1)) * Fraction(1, 1 << (k + 1))
        k += 1
        r = (2 * r + 1) % ef.modulus
    k1, total_at_entry = seen[r]
    if any(ef.arms[s][1] > 0 for s, (ks, _) in seen.items() if ks >= k1):
        raise DivergentVariationError("a growing arm recurs on the jump indices")
    period = k - k1
    return total_at_entry + (total - total_at_entry) * Fraction(1 << period, (1 << period) - 1)
