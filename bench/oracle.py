"""The benchmark's own evaluator of the family JSON, and brute-force facts.

Nothing here imports ditkin.  A weight family is read from the same JSON
object the program parses and evaluated straight from its definition:
`constant`, `linear` (offset + slope*n), `interleave` (parts[n % m] at the
global index n) and `prefix` (explicit first values, then the tail at the
global index).  Values are scaled by the lcm D of every denominator in the
document, so the scans below run on Python ints instead of Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction


class Family:
    """A weight family JSON object, evaluated by brute force.

    `start` is the first index past every prefix and `period` the lcm of
    every interleave modulus: from `start` on, each residue class modulo
    `period` follows one affine leaf.  `vals[n - 1]` holds D * alpha_n for
    n = 1 .. start + 2 * period, the prefix plus two full periods.
    """

    def __init__(self, obj: dict):
        dens = []
        _walk(obj, dens)
        self.D = math.lcm(*dens) if dens else 1
        self.tree = _scaled(obj, self.D)
        self.start = _start(self.tree)
        self.period = _period(self.tree)
        self.vals: list[int] = []
        self._extend(self.start + 2 * self.period)
        self._facts()

    def _extend(self, upto: int) -> None:
        n0 = len(self.vals) + 1
        if upto >= n0:
            self.vals += _eval(self.tree, n0, 1, upto - n0 + 1)

    def at(self, n: int) -> Fraction:
        """alpha_n exactly, for any n >= 1 (iterative, so deep nesting is fine)."""
        node = self.tree
        while True:
            tag = node[0]
            if tag == "c":
                return Fraction(node[1], self.D)
            if tag == "l":
                return Fraction(node[1] + node[2] * n, self.D)
            if tag == "p":
                if n <= len(node[1]):
                    return Fraction(node[1][n - 1], self.D)
                node = node[2]
            else:
                node = node[1][n % len(node[1])]

    def _facts(self) -> None:
        S, L, v = self.start, self.period, self.vals
        # growth of class n over one period: 0 for a constant leaf, slope*L otherwise
        grow = [v[n - 1 + L] - v[n - 1] for n in range(S, S + L)]
        self.bounded = not any(grow)
        self.sup = Fraction(max(v[: S - 1 + L]), self.D) if self.bounded else None
        flat = [v[n - 1] for n, g in zip(range(S, S + L), grow) if g == 0]
        self.liminf = Fraction(min(flat), self.D) if flat else None
        # successor gaps must be >= 0 on the scan, and must not shrink from one
        # period to the next (a shrinking gap is affine with negative slope)
        gaps = [b - a for a, b in zip(v, v[1:])]
        self.nondecreasing = min(gaps) >= 0 and all(
            gaps[n - 1 + L] >= gaps[n - 1] for n in range(S, S + L)
        )

    def tail_inf(self, n: int) -> tuple[Fraction, int]:
        """inf{alpha_j : j >= n} and its earliest attaining index.

        Past `start` every class is nondecreasing, so one period past
        max(n, start) holds the infimum.
        """
        hi = max(n, self.start) + self.period
        self._extend(hi)
        v = self.vals
        j = min(range(n, hi), key=lambda j: (v[j - 1], j))
        return Fraction(v[j - 1], self.D), j

    def jump_bound(self, m: int) -> Fraction:
        """max alpha_j over the jump indices j = 2^mm - 1, mm >= m, past `start`.

        Modulo the period those indices move by r -> 2r + 1, so the residues
        they visit are found by iterating that map until it repeats.  Raises
        ValueError when a visited class grows, as the jump series then diverges.
        """
        S, L, v = self.start, self.period, self.vals
        while (1 << m) - 1 < S:
            m += 1
        r, seen = ((1 << m) - 1) % L, set()
        while r not in seen:
            seen.add(r)
            r = (2 * r + 1) % L
        top = 0
        for r in seen:
            n = S + (r - S) % L
            if v[n - 1 + L] != v[n - 1]:
                raise ValueError("a growing class recurs on the jump indices")
            top = max(top, v[n - 1])
        return Fraction(top, self.D)

    def first_above(self, threshold: Fraction) -> int:
        """Smallest n with alpha_n > threshold (the family must be unbounded)."""
        t = threshold * self.D
        n = 1
        while True:
            while n <= len(self.vals):
                if self.vals[n - 1] > t:
                    return n
                n += 1
            self._extend(2 * len(self.vals))


def _walk(obj: dict, dens: list[int]) -> None:
    tag = obj["family"]
    if tag == "constant":
        dens.append(Fraction(obj["value"]).denominator)
    elif tag == "linear":
        dens += [Fraction(obj["offset"]).denominator, Fraction(obj["slope"]).denominator]
    elif tag == "prefix":
        dens += [Fraction(x).denominator for x in obj["prefix"]]
        _walk(obj["tail"], dens)
    else:
        for p in obj["parts"]:
            _walk(p, dens)


def _int(x, D: int) -> int:
    q = Fraction(x) * D
    assert q.denominator == 1
    return q.numerator


def _scaled(obj: dict, D: int) -> tuple:
    tag = obj["family"]
    if tag == "constant":
        return ("c", _int(obj["value"], D))
    if tag == "linear":
        return ("l", _int(obj["offset"], D), _int(obj["slope"], D))
    if tag == "prefix":
        return ("p", [_int(x, D) for x in obj["prefix"]], _scaled(obj["tail"], D))
    return ("i", [_scaled(p, D) for p in obj["parts"]])


def _start(node: tuple) -> int:
    if node[0] == "p":
        return max(len(node[1]) + 1, _start(node[2]))
    if node[0] == "i":
        return max(_start(p) for p in node[1])
    return 1


def _period(node: tuple) -> int:
    if node[0] == "p":
        return _period(node[2])
    if node[0] == "i":
        return math.lcm(len(node[1]), *(_period(p) for p in node[1]))
    return 1


def _eval(node: tuple, a: int, s: int, count: int) -> list[int]:
    """[D * alpha_n for n = a, a+s, ..., count terms]."""
    tag = node[0]
    if tag == "c":
        return [node[1]] * count
    if tag == "l":
        A, B = node[1], node[2]
        return [A + B * n for n in range(a, a + s * count, s)]
    if tag == "p":
        pre = node[1]
        k = 0 if a > len(pre) else min(count, (len(pre) - a) // s + 1)
        head = [pre[a + i * s - 1] for i in range(k)]
        return head + _eval(node[2], a + k * s, s, count - k)
    parts = node[1]
    m = len(parts)
    out = [0] * count
    step = m // math.gcd(s, m)  # positions i0, i0 + step, ... share a residue mod m
    for i0 in range(min(step, count)):
        n0 = a + i0 * s
        sub = len(range(i0, count, step))
        out[i0::step] = _eval(parts[n0 % m], n0, s * step, sub)
    return out


def norm_scaled(prefix: list[int], tail: int, fam: Family) -> int:
    """D_f * D * ||f|| by the definition max|f| + sum alpha_n |f(n+1) - f(n)|.

    `prefix` and `tail` are the element's values scaled by D_f; every jump
    sits at n <= len(prefix), where the last one steps onto the tail.
    """
    n = len(prefix)
    fam._extend(n)
    a = fam.vals
    vals = prefix + [tail]
    sup = max(abs(x) for x in vals)
    var = sum(a[i] * abs(vals[i + 1] - vals[i]) for i in range(n))
    return sup * fam.D + var


def residual_scaled(prefix: list[int], fam: Family, k: int) -> int:
    """D_f * D * ||f - e_k f|| for an element with tail 0, by the definition.

    f - e_k f is 0 on 1..k and f beyond, so it is normed like any element.
    """
    if k >= len(prefix):
        return 0
    return norm_scaled([0] * k + prefix[k:], 0, fam)


def dyadic(n: int) -> Fraction:
    """The staircase f(j) = 2^-k on 2^(k-1) <= j < 2^k."""
    return Fraction(1, 1 << n.bit_length())


def dyadic_bracket(fam: Family, k: int, terms: int = 200) -> tuple[Fraction, Fraction]:
    """[S, S + tail] around sum over j >= k of alpha_j |f(j+1) - f(j)| for the staircase.

    The staircase only moves at j = 2^m - 1, by 2^-(m+1).  S sums the first
    `terms` such jumps at or past k; the rest are at most the largest weight
    met at later jumps times a geometric tail.
    """
    m = 1
    while (1 << m) - 1 < k:
        m += 1
    s = Fraction(0)
    for mm in range(m, m + terms):
        j = (1 << mm) - 1
        s += fam.at(j) * abs(dyadic(j + 1) - dyadic(j))
    return s, s + fam.jump_bound(m + terms) * Fraction(1, 1 << (m + terms))


def staircase_variation(fam: Family, lo: int, hi: int) -> Fraction:
    """sum_{n=lo}^{hi} alpha_n |f(n+1) - f(n)| for the staircase, term by term.

    f is scaled by 2^B so every term is an int; f is nonincreasing, so
    |f(n+1) - f(n)| = f(n) - f(n+1).
    """
    B = (hi + 1).bit_length()
    fam._extend(hi)
    v, top = fam.vals, 1 << B
    total = sum(
        v[n - 1] * ((top >> n.bit_length()) - (top >> (n + 1).bit_length()))
        for n in range(lo, hi + 1)
    )
    return Fraction(total, fam.D << B)
