"""The exact tier in scaled integers and runs, against a list-of-Fraction model.

The model keeps an element as its explicit values f(1..L) and its tail, and
answers every query by definition: pointwise arithmetic index by index, the
tail sup as a max and the weighted variation as a sum of every jump.  Weight
values come from `w.at`, never from the leaf form that `scaled_at` reads.
"""

import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ditkin import (
    ONE,
    ZERO,
    Constant,
    EventuallyConstant,
    Interleave,
    PrefixOverride,
    prefix_indicator,
    residual_diagnostics,
    residual_norm,
)
from ditkin.approx_identity import residual_oracle

from _support import dense_form, positive_fractions, small_fractions, weight_families, weight_leaves

VALUES = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(7, 3)]) | small_fractions


def raw_runs(tail=VALUES):
    """(runs, tail) drawn from a few values, so that neighbours and the tail
    often coincide and the canonical form has runs to merge and drop."""
    return st.tuples(st.lists(st.tuples(VALUES, st.integers(1, 4)), max_size=6), tail)


def expand(runs, tail, length: int) -> list[Fraction]:
    """The model: f(1..length) written out from (value, length) runs."""
    vals = [v for v, n in runs for _ in range(n)]
    return (vals + [tail] * length)[:length]


def span(*raws) -> int:
    return 2 + sum(n for runs, _ in raws for _, n in runs)


def values(f: EventuallyConstant, length: int) -> list[Fraction]:
    return [f.at(j) for j in range(1, length + 1)]


def assert_canonical(f: EventuallyConstant) -> None:
    vals = [v for v, _ in f.runs] + [f.tail]
    assert all(a != b for a, b in zip(vals, vals[1:]))
    assert all(a < b for a, b in zip(f.ends, f.ends[1:]))


def stairs(ends: list[int], c: Fraction, tail: Fraction = Fraction(0)) -> tuple:
    """(runs, tail) with the values c, 2c, ... ending at `ends`, c > 0 and the tail
    0 or negative: each value differs from its neighbours, so the ends stay as given."""
    raw = (tuple((c * (i + 1), e - s) for i, (s, e) in enumerate(zip([0] + ends, ends))), tail)
    assert EventuallyConstant.from_runs(*raw).ends == tuple(ends)
    return raw


def model_variation(w, vals: list[Fraction], start: int) -> Fraction:
    # vals covers every jump: past its end the element is constant
    return sum(
        (w.at(j) * abs(vals[j] - vals[j - 1]) for j in range(start, len(vals))), Fraction(0)
    )


def assert_arithmetic(rf, rg, c=Fraction(-3, 2)) -> None:
    """f + g, f - g, g + f, g - f, f * g and c * f against the model, f and g given as (runs, tail):
    the merge of the run ends takes the operand that ends later, so both orders are checked."""
    f, g, n = EventuallyConstant.from_runs(*rf), EventuallyConstant.from_runs(*rg), span(rf, rg)
    fv, gv, ft, gt = expand(*rf, n), expand(*rg, n), rf[1], rg[1]
    assert values(f, n) == fv and f.tail == ft
    assert f.prefix == tuple(fv[: len(f.prefix)]) and fv[len(f.prefix) :] == [ft] * (n - len(f.prefix))
    for h, want, tail in [
        (f + g, [x + y for x, y in zip(fv, gv)], ft + gt),
        (f - g, [x - y for x, y in zip(fv, gv)], ft - gt),
        (g + f, [y + x for x, y in zip(fv, gv)], gt + ft),
        (g - f, [y - x for x, y in zip(fv, gv)], gt - ft),
        (f * g, [x * y for x, y in zip(fv, gv)], ft * gt),
        (f.scale(c), [c * x for x in fv], c * ft),
    ]:
        assert values(h, n) == want and h.tail == tail
        assert expand(h.runs, h.tail, n) == want
        assert_canonical(h)


class TestAgainstModel:
    @settings(deadline=None, max_examples=150)
    @given(raw_runs(), raw_runs(), small_fractions)
    def test_arithmetic(self, rf, rg, c):
        assert_arithmetic(rf, rg, c)

    @settings(deadline=None, max_examples=150)
    @given(raw_runs(), raw_runs())
    def test_equality_is_pointwise(self, rf, rg):
        f, g, n = EventuallyConstant.from_runs(*rf), EventuallyConstant.from_runs(*rg), span(rf, rg)
        same = expand(*rf, n) == expand(*rg, n) and rf[1] == rg[1]
        assert (f == g) == same
        if same:
            assert hash(f) == hash(g)
        rebuilt = EventuallyConstant(tuple(expand(*rf, n)), rf[1])
        assert rebuilt == f and hash(rebuilt) == hash(f) and rebuilt.runs == f.runs
        assert_canonical(f)

    @settings(deadline=None, max_examples=100)
    @given(raw_runs(), weight_families())
    def test_tail_functionals_from_every_start(self, rf, w):
        f, vals = EventuallyConstant.from_runs(*rf), expand(*rf, span(rf))
        for start in range(1, len(vals) + 2):
            want_sup = max(abs(v) for v in vals[start - 1 :] + [rf[1]])
            assert f.tail_sup(start, start, 0).value == want_sup
            assert f.tail_variation(w, start, start, 0).value == model_variation(w, vals, start)

    @settings(deadline=None, max_examples=100)
    @given(raw_runs(tail=st.just(Fraction(0))), weight_families(), st.integers(1, 30))
    def test_residual_norm_matches_the_oracle(self, rf, w, k):
        f = EventuallyConstant.from_runs(*rf)
        assert residual_norm(f, w, k) == residual_oracle(f, w, k)


class TestRunLayouts:
    """Arithmetic reads each operand on the merged run ends, the tail past its own last
    end, and merges two equal lists of ends into the same list; every layout must
    agree with the model."""

    @settings(deadline=None, max_examples=100)
    @given(raw_runs(), st.integers(1, 30))
    def test_one_operand_is_a_prefix_indicator(self, rf, k):
        indicator = (((Fraction(1), k),), Fraction(0))
        assert prefix_indicator(k) == EventuallyConstant.from_runs(*indicator)
        assert_arithmetic(rf, indicator)
        assert_arithmetic(indicator, rf)

    @settings(deadline=None, max_examples=100)
    @given(raw_runs())
    def test_operands_that_share_their_ends(self, rf):
        f, n = EventuallyConstant.from_runs(*rf), span(rf)
        assert_arithmetic(rf, rf)  # f * f among them
        assert_arithmetic(rf, (f.scale(Fraction(1, 3)).runs, rf[1] / 3))  # the same ends over another denominator
        h, t = f * f - f, rf[1]
        assert values(h, n) == [x * x - x for x in expand(*rf, n)] and h.tail == t * t - t
        assert_canonical(h)

    @settings(deadline=None, max_examples=100)
    @given(raw_runs(), st.data())
    def test_one_operands_ends_are_a_strict_subset(self, rf, data):
        f = EventuallyConstant.from_runs(*rf)
        assume(f.ends)
        kept = sorted(data.draw(st.lists(st.sampled_from(f.ends), unique=True, max_size=len(f.ends) - 1)))
        coarse = stairs(kept, data.draw(positive_fractions))
        assert set(kept) < set(f.ends)
        assert_arithmetic(rf, coarse)
        assert_arithmetic(coarse, rf)

    @settings(deadline=None, max_examples=100)
    @given(raw_runs(), st.data())
    def test_one_operand_ends_before_the_others_last_end(self, rf, data):
        f, n = EventuallyConstant.from_runs(*rf), span(rf)
        assume(f.ends and f.ends[-1] > 1)
        k = data.draw(st.integers(1, f.ends[-1] - 1))
        indicator, fv = (((Fraction(1), k),), Fraction(0)), expand(*rf, n)
        assert_arithmetic(rf, indicator)
        assert_arithmetic(indicator, rf)
        e = prefix_indicator(k)
        assert values(e * f, n) == fv[:k] + [0] * (n - k) and (e * f).tail == 0
        assert values(f - e * f, n) == [0] * k + fv[k:] and (f - e * f).tail == rf[1]
        # several runs, all ending before f's last end, and a tail of their own
        early = sorted(data.draw(st.lists(st.integers(1, f.ends[-1] - 1), min_size=1, max_size=6, unique=True)))
        c = data.draw(positive_fractions)
        g = stairs(early, c, -c)
        assert_arithmetic(rf, g)
        assert_arithmetic(g, rf)

    @pytest.mark.parametrize(
        "const", [ZERO, ONE, EventuallyConstant((), Fraction(7, 3))], ids=["ZERO", "ONE", "seven_thirds"]
    )
    @settings(deadline=None, max_examples=50)
    @given(rf=raw_runs())
    def test_one_operand_is_a_constant(self, const, rf):
        # no run ends: every merged end reads the tail
        assert const.ends == ()
        assert_arithmetic((const.runs, const.tail), rf)
        assert_arithmetic(rf, (const.runs, const.tail))

    @settings(deadline=None, max_examples=100)
    @given(raw_runs(), st.data())
    def test_operands_whose_last_ends_coincide(self, rf, data):
        f = EventuallyConstant.from_runs(*rf)
        assume(f.ends)
        last = f.ends[-1]
        ends = sorted(set(data.draw(st.lists(st.integers(1, last), max_size=6))) | {last})
        c = data.draw(positive_fractions)
        g = stairs(ends, c, -c)
        assert_arithmetic(rf, g)
        assert_arithmetic(g, rf)

    @settings(deadline=None, max_examples=100)
    @given(raw_runs(), st.data())
    def test_one_operand_ends_at_an_inner_end_of_the_other(self, rf, data):
        # the merge sorts the later operand's ends only up to the other's last end, found by bisect_right:
        # that last end is itself an end of the later operand, and must be merged once
        f = EventuallyConstant.from_runs(*rf)
        assume(len(f.ends) >= 2)
        last = data.draw(st.sampled_from(f.ends[:-1]))
        ends = sorted(set(data.draw(st.lists(st.integers(1, last), max_size=6))) | {last})
        c = data.draw(positive_fractions)
        g = stairs(ends, c, -c)
        assert_arithmetic(rf, g)
        assert_arithmetic(g, rf)

    @settings(deadline=None, max_examples=30)
    @given(*[st.tuples(st.lists(st.tuples(VALUES, st.integers(1, 6)), min_size=20, max_size=40), VALUES)] * 2)
    def test_many_runs(self, rf, rg):
        assert_arithmetic(rf, rg)

    @settings(deadline=None, max_examples=100)
    @given(raw_runs())
    def test_sup_from_start_one_before_and_after_the_suffix_maxima(self, rf):
        f, vals = EventuallyConstant.from_runs(*rf), expand(*rf, span(rf))
        want = max(abs(v) for v in vals + [rf[1]])
        assert f.tail_sup(1, 1, 0).value == want and "_sups" not in vars(f)  # one pass, no table
        later = f.ends[0] + 1 if f.ends else 2
        assert f.tail_sup(later, later, 0).value == max(abs(v) for v in vals[later - 1 :] + [rf[1]])
        assert f.tail_sup(1, 1, 0).value == want and f.sup_norm().value == want


# both signs, and denominators 3 and 7 against VALUES' 1, 2, 3 and up to 20
THIRDS = st.sampled_from([Fraction(-5, 3), Fraction(-1, 3), Fraction(0), Fraction(2, 3), Fraction(4)])
SEVENTHS = st.sampled_from([Fraction(-9, 7), Fraction(-1, 7), Fraction(0), Fraction(3, 7), Fraction(-2)])


def supported_at(data, s: int, values=VALUES) -> tuple:
    """(runs, 0) with support exactly s: drawn runs up to s - 1, then a nonzero value at s."""
    runs, left = [], s - 1
    while left:
        n = data.draw(st.integers(1, left))
        runs.append((data.draw(values), n))
        left -= n
    return (*runs, (data.draw(values.filter(bool)), 1)), Fraction(0)


def assert_product(rf, rg) -> None:
    """f * g and g * f against the model, and a product's support within each factor's."""
    assert_arithmetic(rf, rg)
    assert_arithmetic(rg, rf)
    f, g = EventuallyConstant.from_runs(*rf), EventuallyConstant.from_runs(*rg)
    for h in (f * g, g * f):
        assert h == f * g
        for x in (f, g):
            assert x.support is None or (h.support is not None and h.support <= x.support)


class TestProductFollowsSupport:
    """A product with a finitely supported factor reads each operand's runs only up to the
    run that holds the least support, and its tail is zero; every placement of that support
    against the other factor's runs must agree with the model."""

    @pytest.mark.parametrize("where", ["inside_a_run", "at_a_run_end", "past_the_last_end"])
    @settings(deadline=None, max_examples=100)
    @given(rf=raw_runs(), data=st.data())
    def test_support_against_the_other_factors_runs(self, where, rf, data):
        f = EventuallyConstant.from_runs(*rf)
        last = f.ends[-1] if f.ends else 0
        if where == "past_the_last_end":
            s = last + data.draw(st.integers(1, 4))
        else:
            places = [j for j in range(1, last + 1) if (j in f.ends) == (where == "at_a_run_end")]
            assume(places)
            s = data.draw(st.sampled_from(places))
        rg = supported_at(data, s)
        assert EventuallyConstant.from_runs(*rg).support == s
        assert_product(rf, rg)

    @settings(deadline=None, max_examples=100)
    @given(raw_runs(tail=st.just(Fraction(0))), raw_runs(tail=st.just(Fraction(0))))
    def test_both_factors_have_supports(self, rf, rg):
        assert_product(rf, rg)

    @settings(deadline=None, max_examples=100)
    @given(
        st.tuples(st.lists(st.tuples(THIRDS, st.integers(1, 4)), max_size=8), THIRDS),
        st.integers(1, 30),
        st.data(),
    )
    def test_other_denominators_and_mixed_signs(self, rf, s, data):
        assert_product(rf, supported_at(data, s, SEVENTHS))
        assert_product(supported_at(data, s, THIRDS), (rf[0], Fraction(0)))

    @settings(deadline=None, max_examples=50)
    @given(raw_runs())
    def test_a_zero_factor(self, rf):
        f = EventuallyConstant.from_runs(*rf)
        assert ZERO.support == 0
        assert f * ZERO == ZERO and ZERO * f == ZERO
        assert_product(rf, ((), Fraction(0)))

    def test_a_prefix_indicator_passes_only_the_runs_up_to_its_support(self, monkeypatch):
        # 65,536 runs of lengths 1, 2, 3, ...: the ends 1, 3, 6, 7, 9, 12, ...; the product needs
        # the five ends below 10, 10 itself and the end 12 past it, whichever factor comes first
        f = EventuallyConstant.from_runs(((k % 2 + 1, k % 3 + 1) for k in range(1 << 16)), 0)
        assert len(f.ends) == 1 << 16
        real, passed = EventuallyConstant._on, []

        def spy(self, ends, c):
            passed.append(list(ends))
            return real(self, ends, c)

        monkeypatch.setattr(EventuallyConstant, "_on", spy)
        e = prefix_indicator(10)
        for h in (e * f, f * e):
            assert h.runs == ((1, 1), (2, 2), (1, 3), (2, 1), (1, 2), (2, 1)) and h.tail == 0
        assert passed == [[1, 3, 6, 7, 9, 10, 12]] * 4


class TestSupFromBlocks:
    """The sup from run 0 is one cached integer; from a later run it is the rest of that
    run's block of _BLOCK runs, read one by one, and the suffix maximum of the blocks after."""

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.tuples(THIRDS | SEVENTHS, st.integers(1, 3)), min_size=60, max_size=160), THIRDS)
    def test_every_start_against_the_model(self, runs, tail):
        f, vals = EventuallyConstant.from_runs(runs, tail), expand(runs, tail, span((runs, tail)))
        for start in range(1, len(vals) + 2):
            want = max(abs(v) for v in vals[start - 1 :] + [tail])
            assert f.tail_sup(start, start, 0).value == want

    @pytest.mark.parametrize("peak", [0, 1, 30, 31, 32, 33, 63, 64, 65, 128, 198, 199, 200])
    def test_the_peak_in_every_block_position(self, peak):
        # 200 runs of -1 and 2/3 in turn, tail 1/3, and one run of -5 at run `peak` (200: the tail)
        runs = [(Fraction(-1) if i % 2 else Fraction(2, 3), 1) for i in range(200)]
        tail = Fraction(-5) if peak == 200 else Fraction(1, 3)
        if peak < 200:
            runs[peak] = (Fraction(-5), 1)
        f = EventuallyConstant.from_runs(runs, tail)
        assert len(f.runs) == 200
        for start in range(1, 203):
            assert f.tail_sup(start, start, 0).value == (5 if start <= peak + 1 else 1 if start <= 200 else abs(tail))
        assert f.sup_norm().value == 5 and vars(f)["_sup"] == 5 * f.den


class TestScaledAt:
    @settings(deadline=None, max_examples=100)
    @given(weight_families())
    def test_matches_at(self, w):
        start, period = dense_form(w).start, dense_form(w).modulus
        far = 10**9
        indices = list(range(1, start + 2 * period + 2)) + list(range(far - period, far + period + 1))
        den, ints = w.scaled_at(indices)
        assert den >= 1 and len(ints) == len(indices)
        assert [Fraction(x, den) for x in ints] == [w.at(n) for n in indices]


def _flat(parts):
    return parts[0] if len(parts) == 1 else Interleave(tuple(parts))


# a prefix over leaves that share one modulus: 1, 2 or 3
ONE_MODULUS = st.builds(
    lambda pre, parts: PrefixOverride(tuple(pre), _flat(parts)),
    st.lists(positive_fractions, max_size=4),
    st.lists(weight_leaves(), min_size=1, max_size=3),
)
# a prefix over Interleave(Interleave(a, b), c, d): leaves of modulus 6 and of modulus 3
TWO_MODULI = st.builds(
    lambda pre, inner, rest: PrefixOverride(tuple(pre), Interleave((_flat(inner), *rest))),
    st.lists(positive_fractions, max_size=4),
    st.lists(weight_leaves(), min_size=2, max_size=2),
    st.lists(weight_leaves(), min_size=2, max_size=2),
)


class TestScaledAtLookups:
    """`scaled_at` reads two residue-indexed lists when the leaves share one
    modulus and searches the modulus groups otherwise; both must give
    D_w * w.at(n), in the order asked, before the start as well as past it."""

    @pytest.mark.parametrize("families, moduli", [(ONE_MODULUS, 1), (TWO_MODULI, 2)], ids=["one", "two"])
    @settings(deadline=None, max_examples=100)
    @given(data=st.data())
    def test_matches_d_w_times_at(self, families, moduli, data):
        w = data.draw(families)
        indices = data.draw(st.lists(st.integers(1, 40) | st.integers(1, 10**12), max_size=40))
        assert len(w._leaves.by_modulus) == moduli
        den, ints = w.scaled_at(indices)
        assert ints == [den * w.at(n) for n in indices]
        assert den * w.at(1) == w.scaled_at(range(1, 2))[1][0]

    def test_an_index_below_one_is_rejected(self):
        for w in (Constant(1), PrefixOverride((Fraction(2),), Interleave((Constant(1), Constant(2))))):
            with pytest.raises(ValueError, match="index must be >= 1"):
                w.scaled_at([3, 0])


class TestRunsCost:
    def test_long_zero_prefix_constructs_quickly(self):
        t0 = time.perf_counter()
        f = EventuallyConstant((Fraction(0),) * 40000, 0)
        assert time.perf_counter() - t0 < 0.1
        assert f.runs == () and f.tail == 0

    def test_far_runs_cost_follows_the_runs(self):
        far = 10**9
        f = EventuallyConstant.from_runs(((1, far - 1), (Fraction(1, 2), 1)), 0)
        g = f * f - f.scale(3)
        assert g.at(far) == Fraction(1, 4) - Fraction(3, 2) and g.at(far - 1) == -2
        assert g.support == far and len(g.runs) == 2

    def test_wide_family_memo_lookup_walks_no_tree(self):
        # hashing this family walks all 16,385 of its nodes; every residual
        # below looks the same family up in the element's memo
        w = Interleave(tuple(Constant(Fraction(k % 7 + 1, 3)) for k in range(16384)))
        f = EventuallyConstant([Fraction(k % 11 - 5, k % 5 + 1) for k in range(2000)], 0)
        t0 = time.perf_counter()
        rows = residual_diagnostics(f, w, list(range(1, 501)))
        assert time.perf_counter() - t0 < 1
        assert rows[-1].residual == residual_norm(f, w, 500)
