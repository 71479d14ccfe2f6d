"""Elements, exact pointwise algebra, norms, and ideal membership."""

import json
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ditkin import (
    INFINITY,
    ONE,
    ZERO,
    ClosedSet,
    Constant,
    DivergentVariationError,
    DyadicDecay,
    EventuallyConstant,
    IdealSpec,
    Interleave,
    Linear,
    MissingTailBound,
    NormResult,
    RuleBased,
    SchemaError,
    UndecidableMembership,
    UnsupportedOperandKind,
    ditkin_approximation,
    dyadic_counterexample,
    element_from_obj,
    element_to_obj,
    prefix_indicator,
    residual_diagnostics,
    residual_norm,
)

from ditkin.algebra import _BLOCK, MAX_RUNS, closed_set_from_obj, dyadic_jump_tail, parse_point

from _support import exact_elements, small_fractions, weight_families

ODD_EVEN_FAMILY = dyadic_counterexample()[0]
DYADIC = DyadicDecay()


def geometric_element(ratio_log2: int = 1) -> RuleBased:
    """f(n) = 2^{-n}: exact tails for constant and affine weight families.

    Sum_{j>=s} 2^{-(j+1)} = 2^{-s} and Sum_{j>=s} j*2^{-(j+1)} = (s+1)*2^{-s},
    so the weighted jump tail under offset + slope*n is exactly
    (offset + slope*(s+1)) * 2^{-s}.
    """

    def bound(start: int, w) -> Fraction | None:
        if isinstance(w, Constant):
            a, b = w.value, Fraction(0)
        elif isinstance(w, Linear):
            a, b = w.offset, w.slope
        else:
            return None
        return (a + b * (start + 1)) * Fraction(1, 2**start)

    return RuleBased(
        value_at=lambda n: Fraction(1, 2**n),
        limit=Fraction(0),
        tail_variation_bound=bound,
    )


class TestEvaluation:
    def test_dyadic_blocks(self):
        assert DYADIC.at(1) == Fraction(1, 2)
        assert DYADIC.at(3) == Fraction(1, 4)
        assert DYADIC.at(8) == Fraction(1, 16)
        assert DYADIC.at(15) == Fraction(1, 16)
        assert DYADIC.at(16) == Fraction(1, 32)
        assert DYADIC.at(INFINITY) == 0

    def test_eventually_constant(self):
        f = EventuallyConstant((Fraction(1), Fraction(1, 2)), Fraction(3))
        assert f.at(1) == 1
        assert f.at(2) == Fraction(1, 2)
        assert f.at(17) == 3
        assert f.at(INFINITY) == 3
        assert ONE.at(INFINITY) == 1

    def test_canonical_trim(self):
        f = EventuallyConstant((Fraction(1), Fraction(0), Fraction(0)), Fraction(0))
        assert f.prefix == (Fraction(1),)
        assert f == EventuallyConstant((Fraction(1),), Fraction(0))
        assert EventuallyConstant((Fraction(2), Fraction(2)), Fraction(2)) == EventuallyConstant((), Fraction(2))


class TestArithmetic:
    def test_indicator_product_is_min(self):
        assert prefix_indicator(3) * prefix_indicator(5) == prefix_indicator(3)

    def test_self_difference_is_zero(self):
        f = EventuallyConstant((Fraction(1), Fraction(-2)), Fraction(5))
        assert f - f == ZERO

    def test_pointwise_product(self):
        f = EventuallyConstant((Fraction(1), Fraction(1, 2)), Fraction(0))
        g = EventuallyConstant((Fraction(0), Fraction(2)), Fraction(1))
        assert f * g == EventuallyConstant((Fraction(0), Fraction(1)), Fraction(0))

    def test_scale(self):
        f = EventuallyConstant((Fraction(1),), Fraction(2))
        assert Fraction(-1, 2) * f == EventuallyConstant((Fraction(-1, 2),), Fraction(-1))
        assert 0 * f == ZERO

    def test_scale_by_a_number_on_the_right(self):
        f = EventuallyConstant((Fraction(1),), Fraction(2))
        assert f * 3 == 3 * f == EventuallyConstant((Fraction(3),), Fraction(6))
        assert DYADIC * Fraction(1, 2) == DyadicDecay(Fraction(1, 2))

    def test_rule_based_rejected_in_binary_ops(self):
        with pytest.raises(UnsupportedOperandKind):
            DYADIC + ONE
        with pytest.raises(UnsupportedOperandKind):
            ONE * geometric_element()

    @settings(deadline=None)
    @given(exact_elements(), exact_elements(), st.integers(1, 30))
    def test_prefix_length_bounded_by_operands(self, f, g, n):
        h = f * g
        assert len(h.prefix) <= max(len(f.prefix), len(g.prefix))
        assert h.at(n) == f.at(n) * g.at(n)
        assert (f + g).at(n) == f.at(n) + g.at(n)


class TestSupNorm:
    def test_exact_tier(self):
        f = EventuallyConstant((Fraction(1), Fraction(1, 2)), Fraction(0))
        assert f.sup_norm() == NormResult.exact(1)
        assert ONE.sup_norm() == NormResult.exact(1)
        g = EventuallyConstant((Fraction(-3),), Fraction(1, 4))
        assert g.sup_norm() == NormResult.exact(3)

    def test_dyadic_against_scan(self):
        res = DYADIC.sup_norm()
        assert res == NormResult.exact(Fraction(1, 2))
        assert max(DYADIC.at(j) for j in range(1, 1 << 17)) == res.value


class TestWeightedVariation:
    def test_finite_sum_oracle(self):
        f = EventuallyConstant((Fraction(1), Fraction(1, 2)), Fraction(0))
        # direct summation: 1*|1/2 - 1| + 2*|0 - 1/2|
        assert f.weighted_variation(Linear(0, 1)) == NormResult.exact(Fraction(3, 2))

    def test_constant_element_has_no_jumps(self):
        assert ONE.weighted_variation(ODD_EVEN_FAMILY) == NormResult.exact(0)

    def test_dyadic_under_odd_even_family(self):
        res = DYADIC.weighted_variation(ODD_EVEN_FAMILY)
        assert res == NormResult.exact(Fraction(1, 2))
        # sandwich against partial sums: each jump contributes 2^{-k-1}
        for kmax in (5, 10, 20):
            partial = sum(
                ODD_EVEN_FAMILY.at((1 << k) - 1) * abs(DYADIC.at(1 << k) - DYADIC.at((1 << k) - 1))
                for k in range(1, kmax + 1)
            )
            assert partial <= res.value <= partial + Fraction(1, 1 << kmax)

    def test_dyadic_under_constant(self):
        assert DYADIC.weighted_variation(Constant(3)) == NormResult.exact(Fraction(3, 2))

    def test_dyadic_diverges_under_growing_weights(self):
        with pytest.raises(DivergentVariationError):
            DYADIC.weighted_variation(Linear(0, 1))

    def test_dyadic_under_interleaved_constants(self):
        # jump indices 2^k - 1 are odd for every k, so only the odd part matters
        w = Interleave((Constant(7), Constant(2)))
        assert DYADIC.weighted_variation(w) == NormResult.exact(Fraction(1))


class TestNorm:
    def test_indicator_norm_identity(self):
        for w in (ODD_EVEN_FAMILY, Constant(5), Linear(2, 3)):
            for k in (1, 2, 7, 40):
                assert prefix_indicator(k).norm(w) == NormResult.exact(1 + w.at(k))

    def test_dyadic_odd_even_norm_is_one(self):
        assert DYADIC.norm(ODD_EVEN_FAMILY) == NormResult.exact(1)

    def test_unit_norm(self):
        assert ONE.norm(Linear(0, 7)) == NormResult.exact(1)

    def test_sum_of_intervals_without_horizons(self):
        # the constructor allows lo < hi with no horizon; their sum keeps none
        assert NormResult(1, 2) + NormResult(1, 2) == NormResult(2, 4, None)
        assert NormResult(1, 2) + NormResult(0, 1, 8) == NormResult(1, 3, 8)

    def test_endpoints_out_of_order_are_rejected(self):
        with pytest.raises(ValueError, match="out of order"):
            NormResult(2, 1)

    @settings(deadline=None, max_examples=60)
    @given(exact_elements(), exact_elements(), small_fractions, weight_families())
    def test_norm_axioms(self, f, g, c, w):
        nf, ng = f.norm(w).value, g.norm(w).value
        assert (f + g).norm(w).value <= nf + ng
        assert (c * f).norm(w).value == abs(c) * nf
        assert (f * g).norm(w).value <= nf * ng
        assert (nf == 0) == (f == ZERO)
        assert nf >= f.sup_norm().value


class TestRuleBasedIntervals:
    def test_interval_brackets_exact_value(self):
        f = geometric_element()
        # under constant weight c: Sum c*2^{-(n+1)} = c/2 exactly
        res = f.weighted_variation(Constant(4), horizon=12)
        assert res.lo <= 2 <= res.hi
        assert res.horizon == 12
        assert res.hi - res.lo == Fraction(4, 2**13)

    def test_refining_horizon_shrinks_interval(self):
        f = geometric_element()
        w = Linear(1, 1)
        coarse = f.weighted_variation(w, horizon=8)
        fine = f.weighted_variation(w, horizon=16)
        assert coarse.lo <= fine.lo and fine.hi <= coarse.hi
        sup_coarse = f.sup_norm(horizon=8)
        sup_fine = f.sup_norm(horizon=16)
        assert sup_coarse.lo <= sup_fine.lo and sup_fine.hi <= sup_coarse.hi

    def test_sup_norm_interval_contains_true_sup(self):
        f = geometric_element()
        res = f.sup_norm(horizon=10)
        assert res.lo == Fraction(1, 2)  # attained at n = 1
        assert res.hi >= res.lo

    def test_missing_bound_raises(self):
        f = geometric_element()
        with pytest.raises(MissingTailBound):
            f.weighted_variation(ODD_EVEN_FAMILY, horizon=8)

    def test_sup_bound_past_the_scan_adds_the_tail(self):
        # f(50) = 1 and 0 elsewhere, limit 0, with its exact unweighted tail:
        # past a scan to 10, |f| <= |limit| + 2, which must cover f(50) = 1
        def bound(start, w):
            return (2 if start <= 49 else 1 if start == 50 else 0) if w == Constant(1) else None

        f = RuleBased(lambda n: Fraction(n == 50), 0, bound)
        res = f.sup_norm(10)
        assert res.lo == 0 and res.hi >= 1

    def test_default_horizon_scans_past_a_short_support(self):
        # f = 1 on 1..3 and 0 beyond: a scan to the default horizon (65,536) sees every jump
        def bound(start, w):
            return w.at(3) if start <= 3 else 0

        f = RuleBased(lambda n: int(n <= 3), 0, bound)
        assert f.norm(Constant(2)) == NormResult(3, 3, 1 << 16)

    def test_unweighted_certificate_required_at_construction(self):
        with pytest.raises(MissingTailBound):
            RuleBased(lambda n: Fraction(0), Fraction(0), lambda s, w: None)

    def test_scaled_dyadic_brackets_scaled_value(self):
        f = DYADIC.scale(3)
        res = f.weighted_variation(ODD_EVEN_FAMILY, horizon=64)
        assert res.lo <= Fraction(3, 2) <= res.hi

    @pytest.mark.parametrize("c", [Fraction(3), Fraction(-5, 2), Fraction(1, 7)])
    def test_staircase_multiples_are_exact(self, c):
        f, w = DYADIC.scale(c), ODD_EVEN_FAMILY
        # the construction multiples had before they were exact: a rule-based interval
        old = RuleBased(lambda n: c * DYADIC.at(n), 0, lambda s, w: abs(c) * dyadic_jump_tail(w, s))
        scaled = lambda r: NormResult.exact(abs(c) * r.value)
        assert f == DyadicDecay(c) and f.norm(w) == scaled(DYADIC.norm(w))
        hull = old.norm(w, horizon=64)
        assert hull.lo <= f.norm(w).value <= hull.hi
        for k in range(1, 65):
            res = residual_norm(f, w, k)
            assert res == scaled(residual_norm(DYADIC, w, k))
            hull = residual_norm(old, w, k, horizon=64)
            assert hull.lo <= res.value <= hull.hi

    def test_staircase_scale(self):
        assert DYADIC.scale(0) == ZERO and DYADIC.scale(1) == DYADIC
        assert 2 * DYADIC.scale(Fraction(1, 2)) == DYADIC
        with pytest.raises(ValueError):
            DyadicDecay(0)

    @pytest.mark.parametrize("c", [3, -2])
    def test_rule_based_scale(self, c):
        f, w = geometric_element(), Linear(1, 1)
        base, scaled = f.norm(w, horizon=16), (c * f).norm(w, horizon=16)
        assert scaled == NormResult(abs(c) * base.lo, abs(c) * base.hi, 16)
        assert (c * f).at(3) == c * f.at(3)

    def test_rule_based_scale_by_zero(self):
        assert 0 * geometric_element() is ZERO


def zigzag_element() -> RuleBased:
    """f(n) = (-1)^n (1 + n mod 3) / 2^n: signed and not monotone in |f|.

    |f(j)| <= 3 * 2^{-j}, so |f(j+1) - f(j)| <= 9 * 2^{-(j+1)} and the jump
    tail from s under offset + slope*n is at most 9 (offset + slope*(s+1)) 2^{-s}.
    """

    def bound(start: int, w) -> Fraction | None:
        if isinstance(w, Constant):
            a, b = w.value, Fraction(0)
        elif isinstance(w, Linear):
            a, b = w.offset, w.slope
        else:
            return None
        return 9 * (a + b * (start + 1)) * Fraction(1, 2**start)

    return RuleBased(lambda n: Fraction((-1) ** n * (1 + n % 3), 2**n), 0, bound)


MEMO_FAMILIES = (Constant(Fraction(3, 2)), Linear(1, Fraction(1, 3)))
MEMO_QUERIES = [
    (kind, fam, k, h)
    for kind in ("norm", "residual", "diagnostics")
    for fam in range(len(MEMO_FAMILIES))
    for k, h in ((1, 40), (7, 3), (30, 90), (2, 0), (55, 12))
]


def _memo_query(f: RuleBased, query):
    kind, fam, k, h = query
    w = MEMO_FAMILIES[fam]
    if kind == "norm":
        return f.norm(w, horizon=h), f.sup_norm(horizon=h)
    if kind == "residual":
        return residual_norm(f, w, k, horizon=h)
    return residual_diagnostics(f, w, [k, k + 2], horizon=h)


class TestRuleBasedMemo:
    """A filled memo gives the same results as a freshly built element."""

    FRESH = {q: _memo_query(zigzag_element(), q) for q in MEMO_QUERIES}

    def test_large_horizons_first(self):
        f = zigzag_element()
        for q in sorted(MEMO_QUERIES, key=lambda q: -q[3]):
            assert _memo_query(f, q) == self.FRESH[q], q

    @settings(deadline=None, max_examples=25)
    @given(st.permutations(MEMO_QUERIES))
    def test_any_order_and_family(self, queries):
        f = zigzag_element()
        for q in queries:
            assert _memo_query(f, q) == self.FRESH[q], q

    def test_uncertified_family_still_raises_after_fill(self):
        f = zigzag_element()
        f.norm(MEMO_FAMILIES[0], horizon=64)
        residual_norm(f, MEMO_FAMILIES[1], 3, horizon=64)
        with pytest.raises(MissingTailBound):
            f.norm(ODD_EVEN_FAMILY, horizon=8)
        with pytest.raises(MissingTailBound):
            residual_norm(f, ODD_EVEN_FAMILY, 3, horizon=8)

    def test_a_scanned_point_is_read_from_the_memo(self):
        calls = []
        f = RuleBased(lambda n: calls.append(n) or Fraction(1, n), 0, lambda s, w: Fraction(1, s))
        f.sup_norm(4)
        assert f.at(4) == Fraction(1, 4) and calls == [1, 2, 3, 4]

    def test_value_at_runs_once_per_index(self):
        # the README's contract, by count: a norm, three residuals and the approximation
        # at horizon 1024 read each index of a signed staircase multiple once
        c, w, reads = Fraction(-9, 4), Interleave((Constant(1), Constant(Fraction(3, 2)))), Counter()

        def value(n):
            reads[n] += 1
            return c * DYADIC.at(n)

        f = RuleBased(value, 0, lambda s, u: abs(c) * dyadic_jump_tail(u, s))
        f.norm(w, horizon=1024)
        for k in (3, 40, 200):
            residual_norm(f, w, k, horizon=1024)
        ditkin_approximation(f, w, Fraction(1, 24), horizon=1024)
        assert len(reads) == max(reads) > 1024 + 200 and set(reads.values()) == {1}

    def test_a_bad_value_keeps_the_values_before_it(self):
        # value_at(40) is a float: the scan stops there, and f(1..39) stay in the memo
        calls = []

        def value(n):
            calls.append(n)
            return 0.5 if n == 40 else Fraction(1, n)

        f = RuleBased(value, 0, lambda s, w: Fraction(1, s))
        with pytest.raises(TypeError, match=r"value_at\(n\) must be an int or a Fraction, got float"):
            f.sup_norm(64)
        assert f.sup_norm(39) == NormResult(1, 1, 39) and calls == list(range(1, 41))

    def test_window_from_one_reads_every_block(self):
        # the one nonzero value, f(33), opens the second block of a window
        # [1, 33 * 1024] whose end lies far past it
        def bound(start, w):
            return (w.at(32) if start <= 32 else 0) + (w.at(33) if start <= 33 else 0)

        f = RuleBased(lambda n: int(n == 33), 0, bound)
        assert f.tail_sup(1, 33 * 1024, 0).lo == 1

    def test_exact_memo_stays_out_of_identity(self):
        f = EventuallyConstant((Fraction(1), Fraction(-2, 3), Fraction(1, 2)), Fraction(0))
        g = EventuallyConstant(f.prefix, f.tail)
        before = (hash(f), repr(f))
        f.norm(ODD_EVEN_FAMILY)
        f.norm(Constant(2))
        assert f == g and (hash(f), repr(f)) == before == (hash(g), repr(g))
        assert f.norm(ODD_EVEN_FAMILY) == g.norm(ODD_EVEN_FAMILY)


SPAN = 8 * _BLOCK  # the windows below lie in [1, SPAN]: eight full blocks of the memo
_blocks = st.integers(0, 7)
RULE_WINDOWS = st.one_of(
    # inside one block
    st.builds(lambda b, x, y: (b * _BLOCK + min(x, y), b * _BLOCK + max(x, y)),
              _blocks, st.integers(1, _BLOCK), st.integers(1, _BLOCK)),
    # each end on a block edge or one index past it
    st.builds(lambda b, c, d, e: tuple(sorted((max(1, b * _BLOCK + d), min(SPAN, c * _BLOCK + e)))),
              _blocks, st.integers(1, 8), st.integers(0, 1), st.integers(0, 1)),
    # many blocks
    st.builds(lambda s, e: (s, SPAN - e), st.integers(1, _BLOCK), st.integers(0, _BLOCK)),
    # from 1
    st.builds(lambda e: (1, e), st.integers(1, SPAN)),
)


class TestRuleBasedWindows:
    """Every rule-based window against a direct scan of value_at, whatever
    the memo holds when it is asked for."""

    # small denominators and distinct primes near 2**61: a window's lcm would be huge
    DENOMINATORS = (1, 2, 3, 2**61 - 1, 2**61 - 31, 2**61 + 15, 2**61 + 21)

    @settings(deadline=None, max_examples=80)
    @given(
        st.lists(st.tuples(small_fractions, st.integers(1, 40)), min_size=1, max_size=24),
        st.fractions(min_value=-1, max_value=1, max_denominator=9).filter(bool),
        weight_families(),
        st.integers(SPAN // 2, SPAN),
        st.lists(RULE_WINDOWS, min_size=1, max_size=8),
    )
    def test_windows_match_a_direct_scan(self, runs, limit, w, grow, windows):
        # runs of equal values, so that many jumps are zero; the limit from the end of the runs on
        vals = [v for v, n in runs for _ in range(n)]
        value = lambda n: vals[n - 1] if n <= len(vals) else limit
        exact_tail = lambda s, u: sum(
            (u.at(j) * abs(value(j + 1) - value(j)) for j in range(s, len(vals) + 1)), Fraction(0)
        )
        f = RuleBased(value, limit, exact_tail)
        f.tail_sup(1, grow, grow)  # the memo first grows past most windows
        f.tail_variation(w, 1, grow, grow)
        for start, end in windows:
            sup = max([abs(limit)] + [abs(value(j)) for j in range(start, end + 1)])
            assert f.tail_sup(start, end, end).lo == sup, (start, end)
            jumps = [w.at(j) * abs(value(j + 1) - value(j)) for j in range(start, end + 1)]
            assert f.tail_variation(w, start, end, end).lo == sum(jumps), (start, end)

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(st.tuples(st.integers(-60, 60), st.sampled_from(DENOMINATORS), st.integers(1, 12)), max_size=40),
        st.tuples(st.integers(-60, 60), st.sampled_from(DENOMINATORS)),
        weight_families(),
        st.lists(st.tuples(st.integers(1, 80), st.integers(0, 400)), min_size=1, max_size=10),
    )
    def test_windows_of_a_growing_memo_match_a_direct_scan(self, runs, limit, w, steps):
        # a fresh element asked for windows by increasing end: the memo grows in
        # uneven steps that start and end off the block edges
        vals, limit = [Fraction(p, q) for p, q, n in runs for _ in range(n)], Fraction(*limit)
        value = lambda n: vals[n - 1] if n <= len(vals) else limit
        exact_tail = lambda s, u: sum(
            (u.at(j) * abs(value(j + 1) - value(j)) for j in range(s, len(vals) + 1)), Fraction(0)
        )
        f, end = RuleBased(value, limit, exact_tail), 0
        for step, back in steps:
            end += step
            start = end + 1 - min(back, end)
            sup = max([abs(limit)] + [abs(value(j)) for j in range(start, end + 1)])
            assert f.tail_sup(start, end, end).lo == sup, (start, end)
            jumps = sum((w.at(j) * abs(value(j + 1) - value(j)) for j in range(start, end + 1)), Fraction(0))
            assert f.tail_variation(w, start, end, end) == NormResult(jumps, exact_tail(start, w), end), (start, end)

    @staticmethod
    def _staircase_copy(grown: bool) -> RuleBased:
        """A rule-based copy of the staircase, fresh or with its memo grown to 65."""
        f = RuleBased(DYADIC.at, 0, lambda s, w: dyadic_jump_tail(w, s))
        if grown:
            f.norm(Constant(1), horizon=64)
        return f

    @pytest.mark.parametrize("start, end", [(10, 2), (4, 2), (0, 5), (-3, 4)])
    @pytest.mark.parametrize("grown", [False, True])
    def test_bad_windows_are_rejected(self, start, end, grown):
        f = self._staircase_copy(grown)
        window = re.escape(f"window [{start}, {end}]")
        with pytest.raises(ValueError, match=window):
            f.tail_sup(start, end, 2)
        with pytest.raises(ValueError, match=window):
            f.tail_variation(Constant(1), start, end, 2)

    @pytest.mark.parametrize("grown", [False, True])
    def test_empty_windows_stay_valid(self, grown):
        # start == end + 1 is the window of horizon 0
        f = self._staircase_copy(grown)
        assert f.norm(Constant(1), horizon=0).lo == 0
        for start in (1, 10, 100):
            assert f.tail_sup(start, start - 1, 0).lo == 0
            assert f.tail_variation(Constant(1), start, start - 1, 0).lo == 0


class TestIdeals:
    def test_indicator_in_j_at_infinity(self):
        for k in (1, 3, 10):
            assert prefix_indicator(k).in_ideal(IdealSpec.j_at(INFINITY))

    def test_dyadic_in_m_infinity_not_j_infinity(self):
        assert DYADIC.in_ideal(IdealSpec.m_at(INFINITY))
        assert not DYADIC.in_ideal(IdealSpec.j_at(INFINITY))
        assert not DYADIC.in_ideal(IdealSpec.m_at(3))

    def test_vanishing_at_a_finite_point(self):
        f = EventuallyConstant(
            (Fraction(1), Fraction(1), Fraction(0), Fraction(1)), Fraction(1)
        )
        assert f.in_ideal(IdealSpec.m_at(3))
        assert f.in_ideal(IdealSpec.j_at(3))  # isolated point: J = M
        assert not f.in_ideal(IdealSpec.m_at(2))

    def test_closed_set_ideals(self):
        f = EventuallyConstant((Fraction(0), Fraction(1), Fraction(0)), Fraction(0))
        e = ClosedSet((1, 3))
        assert f.in_ideal(IdealSpec.i_of(e))
        assert f.in_ideal(IdealSpec.j_of(e))
        with_inf = ClosedSet((1,), with_infinity=True)
        assert f.in_ideal(IdealSpec.i_of(with_inf))
        assert f.in_ideal(IdealSpec.j_of(with_inf))  # eventually zero
        assert not DYADIC.in_ideal(IdealSpec.i_of(ClosedSet((2,), with_infinity=True)))

    def test_support_of_each_tier(self):
        # the rule reads at, limit and support; only an eventually-zero f has a support
        assert prefix_indicator(4).support == 4 and ZERO.support == 0
        assert DYADIC.support is None and geometric_element().support is None
        assert ONE.support is None

    def test_closed_set_contains_infinity(self):
        assert ClosedSet((1, 4), with_infinity=True).contains(INFINITY)
        assert not ClosedSet((1, 4)).contains(INFINITY)
        assert ClosedSet((1, 4)).contains(4) and not ClosedSet((1, 4)).contains(3)

    def test_rule_based_membership_undecidable(self):
        with pytest.raises(UndecidableMembership):
            geometric_element().in_ideal(IdealSpec.m_at(INFINITY))

    @settings(deadline=None)
    @given(exact_elements(), st.integers(1, 12))
    def test_j_membership_implies_m_membership(self, f, x):
        if f.in_ideal(IdealSpec.j_at(x)):
            assert f.in_ideal(IdealSpec.m_at(x))
        if f.in_ideal(IdealSpec.j_at(INFINITY)):
            assert f.in_ideal(IdealSpec.m_at(INFINITY))
        # at isolated points the two ideals coincide
        assert f.in_ideal(IdealSpec.j_at(x)) == f.in_ideal(IdealSpec.m_at(x))


class TestSerialization:
    def test_round_trip(self):
        f = EventuallyConstant((Fraction(1), Fraction(1, 2)), Fraction(0))
        assert element_from_obj(element_to_obj(f)) == f
        assert element_from_obj({"kind": "dyadic_decay"}) == DYADIC

    def test_documented_shapes(self):
        assert element_to_obj(
            EventuallyConstant((Fraction(1), Fraction(1, 2)), Fraction(0))
        ) == {"kind": "eventually_constant", "prefix": ["1", "1/2"], "tail": "0"}
        assert element_to_obj(DYADIC) == {"kind": "dyadic_decay"}

    def test_runs_field(self):
        f = element_from_obj({"kind": "eventually_constant", "runs": [["1", 3], ["1/2", 2]], "tail": "1/2"})
        assert f == EventuallyConstant((Fraction(1),) * 3, Fraction(1, 2))
        assert element_from_obj({"kind": "eventually_constant", "runs": []}) == ZERO

    def test_runs_budget_is_inclusive(self):
        runs = [[str(i % 2), 1] for i in range(MAX_RUNS)]
        f = element_from_obj({"kind": "eventually_constant", "runs": runs})
        assert len(f.ends) == MAX_RUNS  # alternating values: no run merges
        with pytest.raises(SchemaError, match=f"at most {MAX_RUNS} runs"):
            element_from_obj({"kind": "eventually_constant", "runs": runs + [["0", 1]]})

    def test_long_elements_write_runs(self):
        short = EventuallyConstant.from_runs(((1, MAX_RUNS - 1), (0, 1)), 1)
        assert element_to_obj(short)["prefix"] == ["1"] * (MAX_RUNS - 1) + ["0"]
        long = EventuallyConstant.from_runs(((1, MAX_RUNS), (0, 1)), 1)
        obj = element_to_obj(long)
        assert obj == {"kind": "eventually_constant", "runs": [["1", MAX_RUNS], ["0", 1]], "tail": "1"}
        assert element_from_obj(obj) == long

    @pytest.mark.parametrize(
        "prefix, tail",
        [
            (["2/4", "+3", " 1/3 ", "-0"], "0"),
            (["1/2", "2/4", "3/6", 7, -2, "-14/4"], "-7/2"),
            (["6/9", "4/6", "0/5"], "10/15"),
            ([" -5/10 ", "+0/3", 0, "12/8"], " 3/2"),
            ([], "+4/6"),
            ([str(10**30) + "/" + str(3 * 10**30), "1/3"], "1/3"),
        ],
        ids=["unreduced_signed", "equal_neighbours", "all_merge_into_tail", "spaces", "tail_only", "large"],
    )
    def test_integer_parse_matches_fraction_path(self, prefix, tail):
        # the prefix parsed as (p, q) pairs over one lcm, against one Fraction per entry
        expected = EventuallyConstant.from_runs([(Fraction(str(v).strip()), 1) for v in prefix], Fraction(tail.strip()))
        f = element_from_obj({"kind": "eventually_constant", "prefix": prefix, "tail": tail})
        assert (f.den, f.ends, f.nums, f.tail_num) == (expected.den, expected.ends, expected.nums, expected.tail_num)
        runs = element_from_obj({"kind": "eventually_constant", "runs": [[v, 2] for v in prefix], "tail": tail})
        assert runs == EventuallyConstant.from_runs([(Fraction(str(v).strip()), 2) for v in prefix], Fraction(tail.strip()))

    @pytest.mark.parametrize(
        "value, message",
        [
            ("1/0", "element.prefix[1]: not a rational 'p/q' string: '1/0'"),
            (True, 'element.prefix[1]: expected an exact rational such as "3/4", got True'),
            (1.5, 'element.prefix[1]: expected an exact rational such as "3/4", got 1.5'),
            ("0.5", "element.prefix[1]: not a rational 'p/q' string: '0.5'"),
            ("1" * 5001, "element.prefix[1]: not a rational 'p/q' string: '" + "1" * 40 + "'... (5001 characters)"),
        ],
        ids=["zero_denominator", "bool", "float", "decimal", "past_the_digit_limit"],
    )
    def test_prefix_value_rejections(self, value, message):
        with pytest.raises(SchemaError) as exc:
            element_from_obj({"kind": "eventually_constant", "prefix": ["1", value]})
        assert str(exc.value) == message

    def test_norm_result_shapes(self):
        assert NormResult.exact(Fraction(3, 2)).to_obj() == {"exact": "3/2"}
        assert NormResult(1, 2, 64).to_obj() == {"lo": "1", "hi": "2", "horizon": 64}

    def test_interval_reads(self):
        interval = NormResult(1, Fraction(5, 2), 64)
        assert str(interval) == "[1, 5/2] (horizon 64)" and str(NormResult.exact(Fraction(3, 2))) == "3/2"
        with pytest.raises(ValueError, match="not an exact result"):
            interval.value

    def test_bad_kind(self):
        with pytest.raises(SchemaError, match="kind"):
            element_from_obj({"kind": "mystery"})

    @pytest.mark.parametrize(
        "obj, needle",
        [
            (["kind"], "element: expected an object, got list"),
            ({"kind": "eventually_constant", "prefix": "1"}, "element.prefix: expected a list"),
            ({"kind": "k" * 5000}, "'" + "k" * 40 + "'... (5000 characters)"),
            (
                {"kind": "eventually_constant", "prefix": ["1"], "runs": [["1", 1]]},
                "element.runs: give either prefix or runs, not both",
            ),
            (
                {"kind": "eventually_constant", "runs": [["1", 1]] * (MAX_RUNS + 1)},
                f"element.runs: expected a list of at most {MAX_RUNS} runs",
            ),
            ({"kind": "eventually_constant", "runs": "1"}, "element.runs: expected a list of"),
            ({"kind": "eventually_constant", "runs": [["1", 2, 3]]}, "element.runs[0]: expected a [value, length] pair, the length"),
            ({"kind": "eventually_constant", "runs": [["1", 0]]}, "element.runs[0]: expected a [value, length] pair, the length a positive integer"),
            ({"kind": "eventually_constant", "runs": [["1", 1], ["2", True]]}, "element.runs[1]: expected a [value, length] pair"),
            ({"kind": "eventually_constant", "runs": [["1", "3"]]}, "element.runs[0]: expected a [value, length] pair"),
            ({"kind": "eventually_constant", "runs": [["1", 1.5]]}, "element.runs[0]: expected a [value, length] pair"),
            ({"kind": "eventually_constant", "runs": [["0.5", 1]]}, "element.runs[0][0]: not a rational"),
        ],
        ids=[
            "not_object", "prefix_not_list", "long_kind", "prefix_and_runs", "too_many_runs",
            "runs_not_list", "run_not_pair", "zero_length", "bool_length", "string_length",
            "float_length", "decimal_value",
        ],
    )
    def test_element_rejections(self, obj, needle):
        with pytest.raises(SchemaError) as exc:
            element_from_obj(obj)
        assert needle in str(exc.value) and len(str(exc.value)) < 200

    @pytest.mark.parametrize(
        "obj, needle",
        [
            (True, "point: expected a natural number"),
            (0, "point: naturals start at 1, got 0"),
            ("far", "point: expected a natural number or \"inf\", got 'far'"),
            ("x" * 5000, "'" + "x" * 40 + "'... (5000 characters)"),
            ([1] * 3000, "[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, ... (9000 characters)"),
        ],
        ids=["bool", "zero", "word", "long_string", "long_list"],
    )
    def test_point_rejections(self, obj, needle):
        with pytest.raises(SchemaError) as exc:
            parse_point(obj)
        assert needle in str(exc.value) and len(str(exc.value)) < 200

    def test_point_one_parses(self):
        assert parse_point(json.loads("1")) == 1

    def test_points_parse(self):
        assert parse_point(7) == 7
        assert parse_point(" Infinity ") is parse_point("inf") is INFINITY

    @pytest.mark.parametrize(
        "obj, needle",
        [
            ([1, 2], "excluded: expected an object"),
            ({"points": [1, True]}, "excluded.points: expected a list of naturals"),
            ({"points": [0]}, "excluded: closed-set points must be naturals >= 1"),
            ({"with_infinity": "no"}, "excluded.with_infinity: expected true or false"),
            ({"with_infinity": 1}, "excluded.with_infinity"),
            ({"with_infinity": None}, "excluded.with_infinity"),
        ],
        ids=["not_object", "bool_point", "zero_point", "string_flag", "int_flag", "null_flag"],
    )
    def test_closed_set_rejections(self, obj, needle):
        with pytest.raises(SchemaError, match=re.escape(needle)):
            closed_set_from_obj(obj)

    def test_closed_set_parses(self):
        assert closed_set_from_obj({"points": [4, 1, 4], "with_infinity": True}) == ClosedSet(
            (1, 4), with_infinity=True
        )
        assert closed_set_from_obj({}) == ClosedSet()

    def test_rule_based_not_serializable(self):
        with pytest.raises(SchemaError):
            element_to_obj(geometric_element())

    def test_only_the_unit_staircase_serializes(self):
        assert element_to_obj(DyadicDecay(Fraction(1))) == {"kind": "dyadic_decay"}
        with pytest.raises(SchemaError):
            element_to_obj(DYADIC.scale(3))
