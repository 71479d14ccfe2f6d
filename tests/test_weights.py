"""Weight grammar: exact evaluation, tail infima, and classification.

Brute-force oracles here use only weight evaluation (never the eventual
form's arms), so they are independent of the structural computations they
check; the attaining-index oracle reads only the form's start and modulus.
TestLeafForm compares every query read from the leaf form with the dense
eventual-form oracles in _support.
"""

import time
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ditkin import (
    Constant,
    DivergentVariationError,
    Interleave,
    Linear,
    PrefixOverride,
    SchemaError,
    dyadic_counterexample,
    property_report,
    select_ai_subsequence,
    weight_family_from_obj,
)
from ditkin.weights import MAX_ARMS, MAX_FAMILY_DEPTH, dyadic_jump_tail, echo, eventual_form

from _support import (
    dense_dyadic_jump_tail,
    dense_nondecreasing,
    dense_searches,
    dense_sup_liminf,
    dense_tail_infimum,
    weight_families,
)

ODD_EVEN_FAMILY = dyadic_counterexample()[0]


def brute_tail_min(w, n, horizon=600):
    """Running minimum of alpha_j over n <= j <= horizon, with first argmin."""
    best_v, best_j = None, None
    for j in range(n, horizon + 1):
        v = w.at(j)
        if best_v is None or v < best_v:
            best_v, best_j = v, j
    return best_v, best_j


class TestEvaluation:
    def test_odd_even_family_values(self):
        assert ODD_EVEN_FAMILY.at(4) == 2
        assert ODD_EVEN_FAMILY.at(6) == 3
        assert ODD_EVEN_FAMILY.at(1) == 1
        assert ODD_EVEN_FAMILY.at(7) == 1

    def test_constant_far_out(self):
        assert Constant(1).at(10**6) == 1

    def test_linear_identity(self):
        assert Linear(0, 1).at(7) == 7

    def test_prefix_override(self):
        w = PrefixOverride((Fraction(5), Fraction(7)), Linear(0, 1))
        assert [w.at(n) for n in range(1, 5)] == [5, 7, 3, 4]

    def test_interleave_picks_by_residue_evaluates_at_global_index(self):
        w = Interleave((Linear(0, 1), Constant(9), Constant(11)))
        assert w.at(3) == 3  # 3 % 3 == 0 -> ramp evaluated at 3
        assert w.at(4) == 9
        assert w.at(5) == 11

    def test_index_must_be_positive(self):
        with pytest.raises(ValueError):
            Constant(1).at(0)

    def test_construction_guards(self):
        with pytest.raises(ValueError):
            Constant(0)
        with pytest.raises(ValueError):
            Constant(Fraction(-1, 2))
        with pytest.raises(ValueError):
            Linear(0, 0)
        with pytest.raises(ValueError):
            Interleave((Constant(1),))
        with pytest.raises(ValueError):
            PrefixOverride((Fraction(0),), Constant(1))

    def test_parts_must_be_families(self):
        with pytest.raises(ValueError, match="interleave parts must be weight families"):
            Interleave((Constant(1), 2))
        with pytest.raises(ValueError, match="prefix tail must be a weight family"):
            PrefixOverride((1,), 2)


class TestTailInfimum:
    def test_odd_even_family(self):
        t = ODD_EVEN_FAMILY.tail_infimum(3)
        assert (t.value, t.attained_at) == (1, 3)
        # independent scan: odd-indexed weights are constantly 1 and the even
        # arm grows, so a short horizon already certifies the minimum
        assert brute_tail_min(ODD_EVEN_FAMILY, 3, 100) == (1, 3)

    def test_constant(self):
        t = Constant(Fraction(3, 7)).tail_infimum(11)
        assert (t.value, t.attained_at) == (Fraction(3, 7), 11)

    def test_strictly_increasing(self):
        t = Linear(0, 1).tail_infimum(5)
        assert (t.value, t.attained_at) == (5, 5)

    def test_prefix_dip_before_tail(self):
        w = PrefixOverride((Fraction(5), Fraction(1, 3)), Constant(2))
        t = w.tail_infimum(1)
        assert (t.value, t.attained_at) == (Fraction(1, 3), 2)
        t = w.tail_infimum(3)
        assert (t.value, t.attained_at) == (2, 3)

    def test_earliest_attainer_on_ties(self):
        w = Interleave((Constant(2), Constant(2), Constant(3)))
        t = w.tail_infimum(1)
        assert (t.value, t.attained_at) == (2, 1)

    @settings(deadline=None)
    @given(weight_families(), st.integers(1, 200))
    def test_matches_brute_scan(self, w, n):
        t = w.tail_infimum(n)
        assert t.attained_at is not None and t.attained_at >= n
        assert w.at(t.attained_at) == t.value
        value, argmin = brute_tail_min(w, n)
        # the structural attainer must be within the scan horizon for these
        # small families, so the scan sees the true minimum
        assert t.attained_at <= 600
        assert (value, argmin) == (t.value, t.attained_at)

    @settings(deadline=None)
    @given(weight_families(), st.integers(1, 100))
    def test_monotone_in_n_and_dominated_by_value(self, w, n):
        t_n = w.tail_infimum(n)
        t_next = w.tail_infimum(n + 1)
        assert t_n.value <= t_next.value
        assert w.at(n) >= t_n.value
        assert (w.at(n) == t_n.value) == (t_n.attained_at == n)


class TestClassification:
    def test_odd_even_family(self):
        cls = ODD_EVEN_FAMILY.classify()
        assert not cls.bounded
        assert cls.liminf == 1
        assert not cls.nondecreasing
        assert not cls.diverges_to_infinity

    def test_constant(self):
        cls = Constant(1).classify()
        assert cls.sup == 1
        assert cls.liminf == 1
        assert cls.nondecreasing
        assert not cls.diverges_to_infinity

    def test_linear(self):
        cls = Linear(0, 1).classify()
        assert not cls.bounded
        assert cls.liminf is None
        assert cls.nondecreasing
        assert cls.diverges_to_infinity

    def test_prefix_spike_affects_sup_not_liminf(self):
        w = PrefixOverride((Fraction(100),), Constant(1))
        cls = w.classify()
        assert cls.sup == 100
        assert cls.liminf == 1
        assert not cls.nondecreasing

    def test_nondecreasing_interleave(self):
        # 1, 2, 3, 4, ... split across two ramps
        w = Interleave((Linear(0, 1), Linear(0, 1)))
        assert w.classify().nondecreasing

    @settings(deadline=None)
    @given(weight_families())
    def test_invariants(self, w):
        cls = w.classify()
        assert cls.diverges_to_infinity == (cls.liminf is None)
        if cls.bounded:
            assert cls.liminf is not None and cls.liminf <= cls.sup
        if cls.nondecreasing and not cls.bounded:
            assert cls.diverges_to_infinity
        # classification values agree with a direct scan
        values = [w.at(n) for n in range(1, 400)]
        if cls.bounded:
            assert max(values) <= cls.sup
            assert cls.sup in values
        if cls.nondecreasing:
            assert all(a <= b for a, b in zip(values, values[1:]))
        else:
            assert any(a > b for a, b in zip(values, values[1:]))

    @settings(deadline=None)
    @given(weight_families(), st.integers(1, 50), st.sampled_from([1, 7, 100]))
    def test_liminf_is_approached_infinitely_often(self, w, n, q):
        cls = w.classify()
        if cls.liminf is None:
            return
        eps = Fraction(1, q)
        hits = [j for j in range(n, n + 400) if w.at(j) <= cls.liminf + eps]
        assert len(hits) >= 10
        # the tail infimum never climbs past the liminf
        assert w.tail_infimum(n).value <= cls.liminf


class TestSerialization:
    def test_round_trip(self):
        w = PrefixOverride(
            (Fraction(3, 2),),
            Interleave((Linear(0, Fraction(1, 2)), Constant(1))),
        )
        assert weight_family_from_obj(w.to_obj()) == w

    def test_odd_even_family_document(self):
        obj = {
            "family": "interleave",
            "modulus": 2,
            "parts": [
                {"family": "linear", "offset": "0", "slope": "1/2"},
                {"family": "constant", "value": "1"},
            ],
        }
        assert weight_family_from_obj(obj) == ODD_EVEN_FAMILY

    def test_bad_tag_names_the_field(self):
        with pytest.raises(SchemaError, match=r"weights\.family"):
            weight_family_from_obj({"family": "konstant"})

    @pytest.mark.parametrize(
        "value, shown",
        [
            ("konstant", "'konstant'"),
            ("k" * 40, repr("k" * 40)),
            ("k" * 41, repr("k" * 40) + "... (41 characters)"),
            (7, "7"),
            (list(range(30)), repr(list(range(30)))[:40] + "... (110 characters)"),
        ],
        ids=["short", "at_limit", "past_limit", "int", "list"],
    )
    def test_echo_clips_long_values(self, value, shown):
        assert echo(value) == shown

    @pytest.mark.parametrize(
        "obj, message",
        [
            ([1], "weights: expected an object, got list"),
            ({"family": "interleave", "parts": {"0": {}}}, "weights.parts: expected a list"),
            ({"family": "prefix", "prefix": "2", "tail": {"family": "constant", "value": "1"}}, "weights.prefix: expected a list"),
        ],
        ids=["not_object", "parts_not_list", "prefix_not_list"],
    )
    def test_shape_rejections(self, obj, message):
        with pytest.raises(SchemaError) as exc:
            weight_family_from_obj(obj)
        assert str(exc.value) == message

    def test_nested_error_path(self):
        obj = {"family": "interleave", "parts": [{"family": "constant", "value": "0"}, {"family": "constant", "value": "1"}]}
        with pytest.raises(SchemaError, match=r"parts\[0\]"):
            weight_family_from_obj(obj)

    def test_floats_rejected(self):
        with pytest.raises(SchemaError, match="exact rational"):
            weight_family_from_obj({"family": "constant", "value": 0.5})

    @pytest.mark.parametrize("text", ["1e5000", "0.5", "1_0", "3/", "/4", "1/2/3", "١"])
    def test_non_grammar_strings_rejected(self, text):
        with pytest.raises(SchemaError, match=r"^weights\.value: not a rational"):
            weight_family_from_obj({"family": "constant", "value": text})

    @pytest.mark.parametrize("text, value", [(" 3/4 ", Fraction(3, 4)), ("+6/4", Fraction(3, 2)), ("7", Fraction(7))])
    def test_grammar_strings_accepted(self, text, value):
        assert weight_family_from_obj({"family": "constant", "value": text}) == Constant(value)

    @staticmethod
    def _prefix_chain(depth):
        obj = {"family": "constant", "value": "1"}
        for _ in range(depth):
            obj = {"family": "prefix", "prefix": ["2"], "tail": obj}
        return obj

    def test_nesting_budget(self):
        w = weight_family_from_obj(self._prefix_chain(MAX_FAMILY_DEPTH))
        assert w.at(1) == 2 and w.at(2) == 1
        with pytest.raises(SchemaError, match=r"^weights(\.tail){65}: .*nested deeper than 64"):
            weight_family_from_obj(self._prefix_chain(MAX_FAMILY_DEPTH + 1))

    def test_nesting_budget_counts_interleave_parts(self):
        obj = {"family": "constant", "value": "1"}
        for _ in range(MAX_FAMILY_DEPTH + 1):
            obj = {"family": "interleave", "parts": [{"family": "constant", "value": "1"}, obj]}
        with pytest.raises(SchemaError, match=r"(\.parts\[[01]\]){65}: .*nested deeper"):
            weight_family_from_obj(obj)

    def test_modulus_mismatch(self):
        obj = {
            "family": "interleave",
            "modulus": 3,
            "parts": [{"family": "constant", "value": "1"}, {"family": "constant", "value": "2"}],
        }
        with pytest.raises(SchemaError, match="modulus"):
            weight_family_from_obj(obj)


def _constants(count):
    return Interleave(tuple(Constant(i + 1) for i in range(count)))


PRIMES_TO_47 = [p for p in range(2, 48) if all(p % d for d in range(2, p))]


class TestArmCap:
    """The dense eventual form, kept as an oracle, is capped at MAX_ARMS arms;
    queries read the leaf form, whose leaf moduli have the same budget."""

    def test_cap_is_inclusive(self):
        w = Interleave((_constants(256), _constants(255)))  # lcm 65,280 <= 65,536
        assert len(eventual_form(w).arms) == 256 * 255 <= MAX_ARMS
        with pytest.raises(SchemaError, match=r"65792 arms, over the cap of 65536"):
            eventual_form(Interleave((_constants(256), _constants(257))))

    def test_coprime_part_counts_rejected_fast(self):
        # 322 leaves; the dense form would need the product of the primes to 47
        w = Interleave(tuple(_constants(p) for p in PRIMES_TO_47))
        start = time.perf_counter()
        with pytest.raises(SchemaError, match="614889782588491410 arms"):
            eventual_form(w)
        assert time.perf_counter() - start < 1

    def test_coprime_part_counts_classify(self):
        w = Interleave(tuple(_constants(p) for p in PRIMES_TO_47))
        start = time.perf_counter()
        c = w.classify()
        assert time.perf_counter() - start < 1
        # every leaf modulus (at most 15 * 47 = 705) has a member in 1..705,
        # and every leaf is constant: the values there are the limit points
        values = [w.at(n) for n in range(1, 706)]
        assert (c.sup, c.liminf) == (max(values), min(values)) == (47, 1)
        assert not c.nondecreasing and not c.diverges_to_infinity

    def test_leaf_modulus_over_the_cap(self):
        w = Constant(1)
        for p in (17, 13, 11, 7, 5, 3, 2):  # part 0 nests through all the counts
            w = Interleave((w,) + (Constant(2),) * (p - 1))
        with pytest.raises(SchemaError, match=r"modulus 85085, over the cap of 65536"):
            w.classify()


class TestLeafForm:
    """Every query read from the leaves against the dense eventual form."""

    @settings(deadline=None, max_examples=200)
    @given(weight_families(), st.integers(1, 40), st.integers(0, 6), st.integers(-1, 1))
    def test_matches_dense_form(self, w, lo, ahead, shift):
        c = w.classify()
        assert (c.sup, c.liminf) == dense_sup_liminf(w)
        assert c.nondecreasing == dense_nondecreasing(w)
        assert w.tail_infimum(lo) == dense_tail_infimum(w, lo)
        t = w.at(lo + ahead) + Fraction(shift, 7)
        level = w.at(lo + ahead)
        assert dense_searches(w, t, level, lo) == (
            w.first_above(t, lo),
            w.first_at_most(t, lo),
            w.first_attaining(level, lo),
        )
        if c.sup is not None:
            assert dyadic_jump_tail(w, lo) == dense_dyadic_jump_tail(w, lo)

    @settings(deadline=None, max_examples=100)
    @given(
        st.lists(
            st.lists(st.fractions(0, 3, max_denominator=4), min_size=1, max_size=3),
            min_size=2,
            max_size=4,
        ),
        st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3)]),
    )
    def test_common_slope_steps_match_dense_form(self, offsets, b):
        # one slope on every leaf, which random families almost never draw:
        # then the offsets alone decide each step
        parts = tuple(
            Linear(a[0], b) if len(a) == 1 else Interleave(tuple(Linear(x, b) for x in a))
            for a in offsets
        )
        w = Interleave(parts)
        assert w.classify().nondecreasing == dense_nondecreasing(w)

    @settings(deadline=None, max_examples=100)
    @given(weight_families(), st.integers(1, 40))
    def test_divergent_jump_sum_matches_dense_form(self, w, lo):
        try:
            expected = dense_dyadic_jump_tail(w, lo)
        except DivergentVariationError:
            with pytest.raises(DivergentVariationError, match="a growing arm recurs"):
                dyadic_jump_tail(w, lo)
        else:
            assert dyadic_jump_tail(w, lo) == expected

    def test_flat_interleave_is_linear_time(self):
        w = _constants(1 << 14)
        start = time.perf_counter()
        assert w.classify().sup == 1 << 14 and not w.classify().nondecreasing
        property_report(w)
        assert time.perf_counter() - start < 1

    def test_wide_interleave_of_interleaves(self):
        w = Interleave((_constants(256), _constants(255)))
        start = time.perf_counter()
        c = w.classify()
        assert (c.sup, c.liminf, c.nondecreasing) == (255, 1, False)
        property_report(w)
        assert time.perf_counter() - start < 1

    def test_wide_selection_stops_at_the_first_leaf(self):
        # 65,535 constant leaves at the liminf and one growing leaf, all of
        # modulus 65,536: the selection is one merged stream of the leaves'
        # progressions, where a search over every leaf per selected index
        # took about 0.1 s per index
        w = Interleave((Constant(1), Linear(1, 1)) + (Constant(1),) * 65534)
        w.classify()
        start = time.perf_counter()
        expected = tuple(range(2, 2 + (1 << 14)))
        assert select_ai_subsequence(w, 1 << 14).indices == expected
        assert select_ai_subsequence(w, 1 << 14, Fraction(1, 2)).indices == expected
        assert time.perf_counter() - start < 1

    def test_sparse_liminf_selection_is_one_stream(self):
        # one liminf leaf among 65,535 growing ones: the selected indices lie
        # 65,536 apart, and a search per index walked every growing leaf
        w = Interleave((Constant(1),) + (Linear(1, 1),) * 65535)
        w.classify()
        start = time.perf_counter()
        expected = tuple(range(1 << 16, (1 << 30) + 1, 1 << 16))
        assert select_ai_subsequence(w, 1 << 14).indices == expected
        assert time.perf_counter() - start < 1

    def test_divergent_selection_is_one_stream(self):
        # 16,384 growing leaves: every index attains its running tail
        # infimum, and a tail infimum per index visited every leaf
        w = Interleave((Linear(1, 1),) * (1 << 14))
        w.classify()
        start = time.perf_counter()
        assert select_ai_subsequence(w, 1 << 14).indices == tuple(range(1, (1 << 14) + 1))
        assert time.perf_counter() - start < 2

    def test_flat_divergent_selection_heaps_integers(self):
        # 65,536 growing leaves: every index attains its running tail
        # infimum, and each step of the heap compares scaled integers
        w = Interleave((Linear(1, 1),) * (1 << 16))
        w.classify()
        start = time.perf_counter()
        assert list(islice(w.selected_indices(), 1 << 14)) == list(range(1, (1 << 14) + 1))
        assert time.perf_counter() - start < 0.5

    @settings(deadline=None, max_examples=100)
    @given(weight_families(), st.integers(1, 40))
    def test_query_values_are_fractions(self, w, n):
        # the leaf form is integers; every value a query returns is a Fraction
        c = w.classify()
        values = [c.sup, c.liminf, w.tail_infimum(n).value, w.at(n), *select_ai_subsequence(w, 5).norms]
        try:
            values.append(dyadic_jump_tail(w, n))
        except DivergentVariationError:
            pass
        assert all(isinstance(v, Fraction) for v in values if v is not None)

    def test_jump_sum_walks_each_modulus_once(self):
        # 4,003 constant leaves of one prime modulus on which 2 has order
        # 4,002: a walk per leaf would take 4,003 times as many steps
        w = _constants(4003)
        start = time.perf_counter()
        total = dyadic_jump_tail(w, 1)
        assert time.perf_counter() - start < 1
        partial = sum(
            (w.at((1 << k) - 1) * Fraction(1, 1 << (k + 1)) for k in range(1, 60)), Fraction(0)
        )
        assert partial <= total <= partial + 4003 * Fraction(1, 1 << 60)


def _brute_first(hit, lo, found):
    """First j >= lo with hit(j), scanning past the claimed answer, or 300 indices."""
    return next((j for j in range(lo, max(found or 0, lo) + 300) if hit(j)), None)


class TestSearches:
    """The index searches against brute-force scans of w.at(j)."""

    @settings(deadline=None, max_examples=150)
    @given(weight_families(), st.integers(1, 30), st.integers(0, 6), st.integers(-1, 1))
    def test_match_brute_scan(self, w, lo, ahead, shift):
        # levels taken just past lo, where an arm can meet them at its first index
        i = lo + ahead
        t = w.at(i) + Fraction(shift, 7)
        got = w.first_above(t, lo)
        assert got == _brute_first(lambda j: w.at(j) > t, lo, got)
        got = w.first_at_most(t, lo)
        assert got == _brute_first(lambda j: w.at(j) <= t, lo, got)
        # past the eventual start only constant arms count: alpha_j == alpha_{j+M}
        ef = eventual_form(w)
        level = w.at(i)

        def attains(j):
            return w.at(j) == level and (j < ef.start or w.at(j + ef.modulus) == level)

        got = w.first_attaining(level, lo)
        assert got == _brute_first(attains, lo, got)

    def test_first_above_default_start(self):
        assert ODD_EVEN_FAMILY.first_above(Fraction(1)) == 4
        assert Constant(2).first_above(Fraction(2)) is None

    @settings(deadline=None)
    @given(weight_families(), st.integers(1, 100))
    def test_dyadic_jump_tail_brackets_truncated_sum(self, w, s):
        sup = w.classify().sup
        assume(sup is not None)
        K = 40
        partial = sum(
            (w.at((1 << k) - 1) * Fraction(1, 1 << (k + 1))
             for k in range(1, K + 1) if (1 << k) - 1 >= s),
            Fraction(0),
        )
        assert partial <= dyadic_jump_tail(w, s) <= partial + sup * Fraction(1, 1 << (K + 1))
