"""Residual norms, the dual-route residual check, selection, and factor
approximation."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ditkin import (
    Constant,
    EventuallyConstant,
    HorizonExhausted,
    INFINITY,
    Interleave,
    Linear,
    NormResult,
    NotInMInfinityError,
    ONE,
    PrefixOverride,
    RuleBased,
    UnsupportedOperandKind,
    ZERO,
    diagnostics_to_csv,
    ditkin_approximation,
    dyadic_counterexample,
    prefix_indicator,
    residual_diagnostics,
    residual_norm,
    residual_oracle,
    select_ai_subsequence,
)
from ditkin.algebra import dyadic_jump_tail

from _support import (
    dense_searches,
    dense_sup_liminf,
    dense_tail_infimum,
    m_infinity_elements,
    random_family,
    weight_families,
)

ODD_EVEN_FAMILY, DYADIC = dyadic_counterexample()


class TestPrefixIndicator:
    def test_values(self):
        e1 = prefix_indicator(1)
        assert (e1.at(1), e1.at(2), e1.at(INFINITY)) == (1, 0, 0)
        e3 = prefix_indicator(3)
        assert e3.at(3) == 1 and e3.at(4) == 0

    def test_multiplicativity(self):
        for k, m in [(1, 1), (2, 5), (7, 3)]:
            assert prefix_indicator(k) * prefix_indicator(m) == prefix_indicator(min(k, m))


class TestResidualNorm:
    def test_worked_example(self):
        # sup of the truncated tail 1/2, jump sum 2*(1/2), boundary 1*(1/2)
        f = EventuallyConstant((Fraction(1), Fraction(1, 2)), Fraction(0))
        assert residual_norm(f, Linear(0, 1), 1) == NormResult.exact(2)

    def test_vanishes_at_and_past_support(self):
        f = EventuallyConstant((Fraction(1), Fraction(1, 2)), Fraction(0))
        for k in (2, 3, 10):
            assert residual_norm(f, Linear(0, 1), k) == NormResult.exact(0)

    def test_requires_vanishing_at_infinity(self):
        with pytest.raises(NotInMInfinityError):
            residual_norm(ONE, Constant(1), 3)

    def test_dyadic_at_powers_of_two(self):
        # boundary term alpha_{2^m} * f(2^m + 1) is exactly 1/4; the other two
        # pieces are 2^{-m-1} each
        for m in range(1, 13):
            res = residual_norm(DYADIC, ODD_EVEN_FAMILY, 1 << m)
            assert res == NormResult.exact(Fraction(1, 4) + Fraction(1, 1 << m))
            assert res.lo >= Fraction(1, 4)

    def test_dyadic_at_block_edges(self):
        # k = 2^m - 1 is odd, so all three pieces are 2^{-m-1}
        for m in range(2, 10):
            res = residual_norm(DYADIC, ODD_EVEN_FAMILY, (1 << m) - 1)
            assert res == NormResult.exact(3 * Fraction(1, 1 << (m + 1)))

    def test_exact_lower_bound_by_boundary_term(self):
        rng = random.Random(7)
        for _ in range(50):
            f = EventuallyConstant(
                tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(rng.randint(0, 12))),
                Fraction(0),
            )
            w = random_family(rng)
            k = rng.randint(1, 15)
            assert residual_norm(f, w, k).value >= w.at(k) * abs(f.at(k + 1))


class TestResidualOracle:
    def test_worked_example_agrees(self):
        f = EventuallyConstant((Fraction(1), Fraction(1, 2)), Fraction(0))
        assert residual_oracle(f, Linear(0, 1), 1) == NormResult.exact(2)

    def test_zero_element(self):
        assert residual_oracle(ZERO, Constant(1), 5) == NormResult.exact(0)

    def test_two_bump_example(self):
        # f = e_5 - e_3 has value 1 at n = 4, 5: sup 1, one tail jump of
        # weight 1, boundary term 1
        f = prefix_indicator(5) - prefix_indicator(3)
        assert residual_oracle(f, Constant(1), 4) == NormResult.exact(3)
        assert residual_norm(f, Constant(1), 4) == NormResult.exact(3)

    def test_staircase_has_no_algebra_path(self):
        # it vanishes at ∞; the oracle's pointwise product is what it lacks
        with pytest.raises(UnsupportedOperandKind):
            residual_oracle(DYADIC, Constant(1), 3)

    @settings(deadline=None, max_examples=80)
    @given(m_infinity_elements(), weight_families(), st.integers(1, 25))
    def test_matches_direct_computation_exactly(self, f, w, k):
        assert residual_norm(f, w, k) == residual_oracle(f, w, k)

    @settings(deadline=None, max_examples=60)
    @given(m_infinity_elements(), weight_families(), weight_families())
    def test_every_index_on_one_memoised_element(self, f, w, v):
        # one element answers every k under two families from its memo
        for k in range(1, len(f.prefix) + 2):
            for fam in (w, v):
                assert residual_norm(f, fam, k) == residual_oracle(f, fam, k)


class TestDiagnostics:
    def test_odd_even_rows_alpha_self_constant(self):
        rows = residual_diagnostics(DYADIC, ODD_EVEN_FAMILY, [1 << m for m in range(1, 13)])
        assert all(row.alpha_self == Fraction(1, 4) for row in rows)

    def test_rows_beyond_support_are_zero(self):
        f = prefix_indicator(4)
        rows = residual_diagnostics(f, Constant(2), [5, 6, 100])
        for row in rows:
            assert row.residual == NormResult.exact(0)
            assert row.alpha_next == 0 and row.alpha_self == 0

    def test_worked_row(self):
        f = EventuallyConstant((Fraction(1), Fraction(1, 2)), Fraction(0))
        (row,) = residual_diagnostics(f, Linear(0, 1), [1])
        assert row.residual == NormResult.exact(2)
        assert row.alpha_next == Fraction(1, 2)
        assert row.alpha_self == 1

    def test_exact_residual_dominates_alpha_next(self):
        rows = residual_diagnostics(DYADIC, ODD_EVEN_FAMILY, list(range(1, 40)))
        for row in rows:
            assert row.residual.value >= row.alpha_next

    def test_csv_shape(self):
        rows = residual_diagnostics(DYADIC, ODD_EVEN_FAMILY, [2, 4])
        text = diagnostics_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "n_k,residual_lo,residual_hi,alpha_next,alpha_self"
        assert lines[1].startswith("2,") and lines[1].endswith(",1/4")
        assert len(lines) == 3


def _dense_selection(w, count: int, slack) -> tuple[int, ...]:
    """The selection rebuilt index by index from the dense-form oracles: the
    running tail infimum's attainer for divergent weights, the initial
    segment for bounded ones, else the next liminf attainer or, with a slack,
    the next n with alpha_n <= liminf + slack."""
    sup, liminf = dense_sup_liminf(w)
    if liminf is not None and slack is None and sup is not None:
        return tuple(range(1, count + 1))
    out, lo = [], 1
    for _ in range(count):
        if liminf is None:
            n = dense_tail_infimum(w, lo).attained_at
        else:
            _, at_most, attaining = dense_searches(w, liminf + (slack or 0), liminf, lo)
            n = attaining if slack is None else at_most
        out.append(n)
        lo = n + 1
    return tuple(out)


class TestSelection:
    def test_odd_even_family_attaining_arm(self):
        sel = select_ai_subsequence(ODD_EVEN_FAMILY, 4)
        assert sel.kind == "bounded_bai"
        assert sel.indices == (1, 3, 5, 7)
        assert sel.norms == (2, 2, 2, 2)
        assert sel.slack == 0

    def test_odd_even_family_with_explicit_slack(self):
        sel = select_ai_subsequence(ODD_EVEN_FAMILY, 4, slack=Fraction(1))
        assert sel.indices == (1, 2, 3, 4)
        assert max(sel.norms) <= 1 + sel.liminf + sel.slack

    def test_divergent_running_min(self):
        sel = select_ai_subsequence(Linear(0, 1), 3)
        assert sel.kind == "running_min"
        assert sel.indices == (1, 2, 3)

    @pytest.mark.parametrize("w", [Linear(0, 1), Constant(1)], ids=["divergent", "bounded"])
    def test_negative_slack_is_rejected(self, w):
        # the check comes before the divergent branch, which has no use for a slack
        with pytest.raises(ValueError, match="slack must be >= 0"):
            select_ai_subsequence(w, 3, Fraction(-1))

    def test_bounded_takes_initial_segment(self):
        sel = select_ai_subsequence(Constant(5), 3)
        assert sel.kind == "bounded_bai"
        assert sel.indices == (1, 2, 3)
        assert sel.norms == (6, 6, 6)
        # non-monotone but bounded: still the initial segment by default
        sel = select_ai_subsequence(Interleave((Constant(2), Constant(1))), 4)
        assert sel.indices == (1, 2, 3, 4)
        assert max(sel.norms) <= 1 + sel.liminf + sel.slack

    def test_divergent_interleave_running_min(self):
        w = Interleave((Linear(0, 10), Linear(0, 1)))
        sel = select_ai_subsequence(w, 5)
        assert sel.kind == "running_min"
        for n in sel.indices:
            t = w.tail_infimum(n)
            assert t.attained_at == n and t.value == w.at(n)

    def test_prefix_hits_count_as_attainers(self):
        w = PrefixOverride((Fraction(1, 2), Fraction(1)), Interleave((Linear(0, 1), Constant(1))))
        sel = select_ai_subsequence(w, 3)
        # liminf 1 is hit exactly at prefix index 2, then on the odd arm
        assert sel.indices == (2, 3, 5)

    def test_indicator_norms_match_selection_norms(self):
        for w in (ODD_EVEN_FAMILY, Constant(3), Linear(1, 2)):
            sel = select_ai_subsequence(w, 5)
            for n, nrm in zip(sel.indices, sel.norms):
                assert prefix_indicator(n).norm(w) == NormResult.exact(nrm)

    @settings(deadline=None, max_examples=300)
    @given(
        weight_families(),
        st.integers(1, 40),
        st.sampled_from([None, Fraction(0), Fraction(1, 3), Fraction(2)]),
    )
    # a tie at the running minimum 3, alpha_1 on the second leaf and alpha_2 on the first
    @example(Interleave((Linear(1, 1), Linear(2, 1))), 4, None)
    def test_selection_matches_dense_oracles(self, w, count, slack):
        assert select_ai_subsequence(w, count, slack).indices == _dense_selection(w, count, slack)

    @settings(deadline=None, max_examples=60)
    @given(weight_families(), st.integers(1, 6))
    def test_selection_soundness(self, w, count):
        sel = select_ai_subsequence(w, count)
        assert len(sel.indices) == count
        assert all(a < b for a, b in zip(sel.indices, sel.indices[1:]))
        assert sel.norms == tuple(1 + w.at(n) for n in sel.indices)
        cls = w.classify()
        if sel.kind == "running_min":
            assert cls.diverges_to_infinity
            for n in sel.indices:
                t = w.tail_infimum(n)
                assert t.value == w.at(n) and t.attained_at == n
        else:
            assert cls.liminf is not None
            assert max(sel.norms) <= 1 + sel.liminf + sel.slack
        if cls.nondecreasing or cls.bounded:
            assert sel.indices == tuple(range(1, count + 1))


class TestRuleBasedTier:
    def _geometric(self):
        # f(n) = 2^{-n} with exact tails under constant and affine weights
        def bound(start, w):
            if isinstance(w, Constant):
                a, b = w.value, Fraction(0)
            elif isinstance(w, Linear):
                a, b = w.offset, w.slope
            else:
                return None
            return (a + b * (start + 1)) * Fraction(1, 2**start)

        return RuleBased(lambda n: Fraction(1, 2**n), Fraction(0), bound)

    def test_residual_oracle_has_no_algebra_path(self):
        with pytest.raises(UnsupportedOperandKind):
            residual_oracle(self._geometric(), Constant(1), 3)

    def test_residual_interval_brackets_exact_value(self):
        f = self._geometric()
        for k in (1, 3, 6):
            # sup of the tail is 2^{-k-1}; jump tail and boundary term are
            # c * 2^{-k-1} each under the constant weight c
            exact = (1 + 2 * Fraction(3)) * Fraction(1, 1 << (k + 1))
            res = residual_norm(f, Constant(3), k, horizon=24)
            assert res.lo <= exact <= res.hi
            assert res.hi - res.lo <= Fraction(1, 1 << 20)

    def test_residual_refinement(self):
        f = self._geometric()
        coarse = residual_norm(f, Linear(1, 1), 2, horizon=10)
        fine = residual_norm(f, Linear(1, 1), 2, horizon=20)
        assert coarse.lo <= fine.lo and fine.hi <= coarse.hi

    def test_diagnostics_emit_intervals(self):
        f = self._geometric()
        rows = residual_diagnostics(f, Constant(1), [2, 4], horizon=16)
        text = diagnostics_to_csv(rows)
        for row in rows:
            assert row.residual.lo < row.residual.hi
            assert row.residual.lo >= row.alpha_next
        assert text.count("\n") == 3

    def test_ditkin_approximation_certified(self):
        f = self._geometric()
        k, res = ditkin_approximation(f, Constant(1), Fraction(1, 50), horizon=32)
        assert res.hi <= Fraction(1, 50)
        assert res.horizon == 32

    def test_each_value_is_computed_once(self):
        calls = Counter()

        def value_at(n):
            calls[n] += 1
            return 3 * DYADIC.at(n)

        f = RuleBased(value_at, 0, lambda start, w: 3 * dyadic_jump_tail(w, start))
        w, h = ODD_EVEN_FAMILY, 64
        f.norm(w, horizon=h)
        for k in (5, 1, 40):
            residual_norm(f, w, k, horizon=h)
        k, res = ditkin_approximation(f, w, Fraction(1, 20), horizon=h)
        assert res.hi <= Fraction(1, 20)
        assert max(calls.values()) == 1
        assert sorted(calls) == list(range(1, max(calls) + 1))


class TestDitkinApproximation:
    def test_exact_tier_returns_support(self):
        f = prefix_indicator(5) - prefix_indicator(3)
        k, res = ditkin_approximation(f, ODD_EVEN_FAMILY, Fraction(1000))
        assert k == 5 and res == NormResult.exact(0)

    def test_worked_example(self):
        f = EventuallyConstant((Fraction(1), Fraction(1, 2)), Fraction(0))
        k, res = ditkin_approximation(f, Constant(1), Fraction(1, 10))
        assert k == 2 and res == NormResult.exact(0)

    def test_zero_element(self):
        k, res = ditkin_approximation(ZERO, Constant(1), Fraction(1, 7))
        assert k == 1 and res == NormResult.exact(0)

    def test_dyadic_under_odd_even_family(self):
        k, res = ditkin_approximation(DYADIC, ODD_EVEN_FAMILY, Fraction(1, 100))
        assert res.hi <= Fraction(1, 100)
        assert k % 2 == 1  # drawn from the odd attaining arm
        assert residual_norm(DYADIC, ODD_EVEN_FAMILY, k) == res

    def test_tiny_tolerance(self):
        tol = Fraction(1, 10**6)
        k, res = ditkin_approximation(DYADIC, ODD_EVEN_FAMILY, tol)
        assert res.hi <= tol

    def test_search_bound_exhaustion(self):
        with pytest.raises(HorizonExhausted):
            ditkin_approximation(DYADIC, ODD_EVEN_FAMILY, Fraction(1, 10**6), search_bound=8)

    def test_search_bound_is_an_integer_count(self):
        with pytest.raises(TypeError):
            ditkin_approximation(DYADIC, ODD_EVEN_FAMILY, Fraction(1, 100), search_bound=2.5)
        for bound in (0, -3):  # a bound below 1 searches no index
            with pytest.raises(HorizonExhausted):
                ditkin_approximation(DYADIC, ODD_EVEN_FAMILY, Fraction(1000), search_bound=bound)

    def test_requires_vanishing_at_infinity(self):
        with pytest.raises(NotInMInfinityError):
            ditkin_approximation(ONE, Constant(1), Fraction(1))

    @pytest.mark.parametrize("tol", [0, Fraction(-1, 2)])
    def test_tolerance_must_be_positive(self, tol):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            ditkin_approximation(ZERO, Constant(1), tol)
