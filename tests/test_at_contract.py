"""The `at` contract shared by every weight family and every element tier,
the index contract of every other entry point that takes an index, and the
level contract of the weight searches.

`WeightFamily.at(n)` and `Element.at(p)` are the one place that checks a
point: a natural number n >= 1, or `INFINITY` for an element, where `at`
returns the element's limit.  A point below 1 raises `ValueError`, and a
point that is not an integer (a float, a `Fraction`, a string) raises
`TypeError` instead of being truncated.  Expected values are written out by
hand, independently of the grammar.  Every index, start, count or run
length that the library takes follows the same rule, each site with its
own message.  A search level or slack, and every other rational a caller
passes in (a weight, an element value, a limit, a scale factor, a
tolerance), is an exact int or `Fraction`; any other type, a float, a
string or a `Decimal`, raises `TypeError`.  A weight family, an ideal spec
or a closed set is checked at the public entry that takes it: any other
object raises `TypeError`, not an `AttributeError` from deep inside.  So are
the parts of the last two when they are built: an ideal spec's zero set, and
the two flags, which must be bools, as must a classification's.  A scan
horizon is an integer >= 0 on every tier, with the same error on each, and
so is a hand-built norm result's, which None leaves exact.
"""

from decimal import Decimal
from fractions import Fraction as F

import pytest

from ditkin import (
    INFINITY,
    ONE,
    ZERO,
    ClosedSet,
    Constant,
    DyadicDecay,
    EventuallyConstant,
    HorizonExhausted,
    IdealSpec,
    Interleave,
    Linear,
    NormResult,
    PrefixOverride,
    RuleBased,
    WeightClassification,
    ditkin_approximation,
    prefix_indicator,
    property_report,
    relative_unit_witness,
    repro_checks,
    residual_diagnostics,
    residual_norm,
    residual_oracle,
    select_ai_subsequence,
    unbounded_nondivergent_family,
)
from ditkin.weights import dyadic_jump_tail


def _staircase(c):
    return lambda n: c / 2 ** n.bit_length()


def _rule_based():
    f = RuleBased(lambda n: F(1, n), 0, lambda start, w: F(1, start) if w.at(1) == 1 else None)
    return f.scale(F(-3, 2))


FAMILIES = {
    "constant": (Constant(F(5, 2)), lambda n: F(5, 2)),
    "linear": (Linear(F(1, 3), F(1, 2)), lambda n: F(1, 3) + F(n, 2)),
    "interleave": (  # n % 2 == 0 -> constant 1; odd n -> parts of 3 by n % 3, at n
        Interleave((Constant(1), Interleave((Linear(0, 1), Constant(7), Linear(2, F(1, 4)))))),
        lambda n: F(1) if n % 2 == 0 else (F(n), F(7), 2 + F(n, 4))[n % 3],
    ),
    "prefix": (  # a prefix over a prefix over an interleave
        PrefixOverride((F(9), F(1, 9)), PrefixOverride((1, 2, 3, 4), Interleave((Constant(2), Linear(0, 3))))),
        lambda n: {1: F(9), 2: F(1, 9), 3: F(3), 4: F(4)}.get(n, F(2) if n % 2 == 0 else F(3 * n)),
    ),
}

ELEMENTS = {
    "eventually_constant": (
        EventuallyConstant((F(1), F(1), F(-2, 3), F(0), F(5)), F(1, 7)),
        lambda n: (F(1), F(1), F(-2, 3), F(0), F(5))[n - 1] if n <= 5 else F(1, 7),
        F(1, 7),
    ),
    "dyadic": (DyadicDecay(), _staircase(F(1)), F(0)),
    "dyadic_scaled": (DyadicDecay(F(-4, 3)), _staircase(F(-4, 3)), F(0)),
    "rule_based_scaled": (_rule_based(), lambda n: F(-3, 2 * n), F(0)),
}

SUBJECTS = {**{k: v[0] for k, v in FAMILIES.items()}, **{k: v[0] for k, v in ELEMENTS.items()}}
MESSAGES = {**{k: "index must be >= 1" for k in FAMILIES}, **{k: "points of N start at 1" for k in ELEMENTS}}


@pytest.mark.parametrize("name", SUBJECTS)
@pytest.mark.parametrize("point", [0, -3])
def test_point_below_one_raises_value_error(name, point):
    with pytest.raises(ValueError, match=f"^{MESSAGES[name]}$"):
        SUBJECTS[name].at(point)


@pytest.mark.parametrize("name", SUBJECTS)
@pytest.mark.parametrize("point", [2.5, F(5, 2), "3"], ids=["float", "fraction", "str"])
def test_non_integer_point_raises_type_error(name, point):
    with pytest.raises(TypeError):
        SUBJECTS[name].at(point)


@pytest.mark.parametrize("name", FAMILIES)
def test_family_values(name):
    w, expected = FAMILIES[name]
    got = [w.at(n) for n in range(1, 41)]
    assert got == [expected(n) for n in range(1, 41)]
    assert all(type(v) is F for v in got)


@pytest.mark.parametrize("name", ELEMENTS)
def test_element_values_and_limit(name):
    f, expected, limit = ELEMENTS[name]
    got = [f.at(n) for n in range(1, 41)]
    assert got == [expected(n) for n in range(1, 41)]
    assert all(type(v) is F for v in got)
    assert f.at(INFINITY) == limit


# Every entry point that takes an index, start, count or run length n, with
# the message of its ValueError below 1.  TWO_MODULI has leaves of moduli 2
# and 6; HEADED has one modulus and a head before its leaf form starts at 5.
TWO_MODULI, HEADED = FAMILIES["interleave"][0], FAMILIES["prefix"][0]
STEPS = EventuallyConstant((F(1), F(1), F(-2, 3), F(0), F(5)), F(0))
INDEXED = {
    "family_at": (TWO_MODULI.at, "index must be >= 1"),
    "first_above": (lambda n: TWO_MODULI.first_above(F(5), n), "index must be >= 1"),
    "first_at_most": (lambda n: TWO_MODULI.first_at_most(F(5), n), "index must be >= 1"),
    "first_attaining": (lambda n: TWO_MODULI.first_attaining(F(7), n), "index must be >= 1"),
    "selected_indices": (TWO_MODULI.selected_indices, "index must be >= 1"),
    "tail_infimum": (TWO_MODULI.tail_infimum, "index must be >= 1"),
    "dyadic_jump_tail": (lambda n: dyadic_jump_tail(Constant(3), n), "start must be >= 1"),
    "scaled_at_one_modulus": (lambda n: HEADED.scaled_at([4, n, 6]), "index must be >= 1"),
    "scaled_at_two_moduli": (lambda n: TWO_MODULI.scaled_at([4, n, 6]), "index must be >= 1"),
    "element_at": (STEPS.at, "points of N start at 1"),
    "closed_set": (lambda n: ClosedSet((2, n)), "closed-set points must be naturals >= 1"),
    "from_runs": (lambda n: EventuallyConstant.from_runs(((1, 2), (3, n))), "run lengths must be >= 1"),
    "tail_sup": (lambda n: STEPS.tail_sup(n, 10, 10), "start must be >= 1"),
    "tail_variation": (lambda n: STEPS.tail_variation(TWO_MODULI, n, 10, 10), "start must be >= 1"),
    "dyadic_tail_sup": (lambda n: DyadicDecay(3).tail_sup(n, 10, 10), "start must be >= 1"),
    "dyadic_tail_variation": (lambda n: DyadicDecay(3).tail_variation(Constant(2), n, 10, 10), "start must be >= 1"),
    "prefix_indicator": (prefix_indicator, "index must be >= 1"),
    "residual_norm": (lambda n: residual_norm(STEPS, TWO_MODULI, n), "index must be >= 1"),
    "select_ai_count": (lambda n: select_ai_subsequence(TWO_MODULI, n), "count must be >= 1"),
}


@pytest.mark.parametrize("name", INDEXED)
@pytest.mark.parametrize("n", [0, -3])
def test_index_below_one_raises_value_error(name, n):
    call, message = INDEXED[name]
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(n)


@pytest.mark.parametrize("name", INDEXED)
@pytest.mark.parametrize("n", [2.5, F(5, 2), "3", 3.0], ids=["float", "fraction", "str", "integral_float"])
def test_non_integer_index_raises_type_error(name, n):
    call, _ = INDEXED[name]
    with pytest.raises(TypeError):
        call(n)


@pytest.mark.parametrize("name", INDEXED)
def test_integer_index_is_accepted(name):
    INDEXED[name][0](3)


# Every entry point that takes a search level or a slack t.  TWO_MODULI has a
# finite liminf; Linear(0, 1) diverges, so its selection reads no level.
LEVELS = {
    "first_above": lambda t: TWO_MODULI.first_above(t),
    "first_at_most": lambda t: TWO_MODULI.first_at_most(t, 1),
    "first_attaining": lambda t: TWO_MODULI.first_attaining(t, 1),
    "selected_indices": lambda t: next(TWO_MODULI.selected_indices(1, t)),
    "select_ai_slack": lambda t: select_ai_subsequence(Constant(1), 3, t),
    "select_ai_slack_divergent": lambda t: select_ai_subsequence(Linear(0, 1), 3, t),
}


@pytest.mark.parametrize("name", LEVELS)
@pytest.mark.parametrize("t", [2.5, 3.0, "3"], ids=["float", "integral_float", "str"])
def test_non_rational_level_raises_type_error(name, t):
    with pytest.raises(TypeError, match="must be an int or a Fraction"):
        LEVELS[name](t)


@pytest.mark.parametrize("name", LEVELS)
@pytest.mark.parametrize("t", [3, F(5, 2)], ids=["int", "fraction"])
def test_exact_level_is_accepted(name, t):
    LEVELS[name](t)


# Every entry point that takes a rational value x from a caller.  The
# callbacks here return exact values and only the argument varies; a value
# that a RuleBased callback returns is checked when it is read (CALLBACKS).
RATIONALS = {
    "constant": lambda x: Constant(x),
    "linear_offset": lambda x: Linear(x, 1),
    "linear_slope": lambda x: Linear(1, x),
    "prefix": lambda x: PrefixOverride((1, x), Constant(1)),
    "norm_result": lambda x: NormResult(x, x),
    "norm_result_exact": NormResult.exact,
    "element_prefix": lambda x: EventuallyConstant((1, x), 0),
    "element_tail": lambda x: EventuallyConstant((1,), x),
    "from_runs_value": lambda x: EventuallyConstant.from_runs(((x, 2),)),
    "from_runs_tail": lambda x: EventuallyConstant.from_runs(((1, 2),), x),
    "dyadic": DyadicDecay,
    "rule_based_limit": lambda x: RuleBased(lambda n: F(1, n), x, lambda start, w: F(1, start)),
    "scale_exact": STEPS.scale,
    "scale_dyadic": DyadicDecay(3).scale,
    "scale_rule_based": _rule_based().scale,
    "tolerance": lambda x: ditkin_approximation(prefix_indicator(3), Constant(1), x),
}


@pytest.mark.parametrize("name", RATIONALS)
@pytest.mark.parametrize("x", [0.5, "1/2", Decimal("0.5")], ids=["float", "str", "decimal"])
def test_non_rational_value_raises_type_error(name, x):
    with pytest.raises(TypeError, match="must be an int or a Fraction"):
        RATIONALS[name](x)


@pytest.mark.parametrize("name", RATIONALS)
@pytest.mark.parametrize("x", [1, F(1, 2)], ids=["int", "fraction"])
def test_exact_value_is_accepted(name, x):
    RATIONALS[name](x)


# RuleBased with one callback returning x: value_at(n), then the tail bound.
CALLBACKS = {
    "value_at": (lambda x: RuleBased(lambda n: x, 0, lambda start, w: F(1, start)), "value_at"),
    "tail_bound": (lambda x: RuleBased(lambda n: F(1, n), 0, lambda start, w: x), "tail_variation_bound"),
}


@pytest.mark.parametrize("name", CALLBACKS)
@pytest.mark.parametrize("x", [0.5, "1/2", Decimal("0.5")], ids=["float", "str", "decimal"])
def test_non_rational_callback_value_raises_type_error(name, x):
    make, label = CALLBACKS[name]
    f = make(x)
    if name == "value_at":
        with pytest.raises(TypeError, match=f"^{label}.* must be an int or a Fraction"):
            f.at(3)
    with pytest.raises(TypeError, match=f"^{label}.* must be an int or a Fraction"):
        f.sup_norm(4)


@pytest.mark.parametrize("name", CALLBACKS)
@pytest.mark.parametrize("x", [1, F(1, 2)], ids=["int", "fraction"])
def test_exact_callback_value_is_accepted(name, x):
    f = CALLBACKS[name][0](x)
    assert f.at(3) == (x if name == "value_at" else F(1, 3))
    assert f.sup_norm(4).lo == (x if name == "value_at" else 1)


# Every entry point that takes a weight family, an ideal spec or a closed set x,
# with the name in its TypeError; each is given the right kind of object in
# the accepted case.  ZERO has no jumps, so its norm would read no weight at all.
VANISHING = EventuallyConstant((F(1), F(-2, 3), F(5)), F(0))
STRUCTURED = {
    "norm_exact": (lambda x: STEPS.norm(x), Constant(2), "weights must be of type WeightFamily"),
    "norm_zero": (lambda x: ZERO.norm(x), Constant(2), "weights must be of type WeightFamily"),
    "norm_dyadic": (lambda x: DyadicDecay().norm(x), Constant(2), "weights must be of type WeightFamily"),
    "norm_rule_based": (lambda x: _rule_based().norm(x, 8), Constant(1), "weights must be of type WeightFamily"),
    "weighted_variation": (lambda x: ONE.weighted_variation(x), Constant(2), "weights must be of type WeightFamily"),
    "residual_norm": (lambda x: residual_norm(VANISHING, x, 2), Constant(2), "weights must be of type WeightFamily"),
    "residual_oracle": (lambda x: residual_oracle(VANISHING, x, 2), Constant(2), "weights must be of type WeightFamily"),
    "residual_diagnostics": (
        lambda x: residual_diagnostics(VANISHING, x, [2]), Constant(2), "weights must be of type WeightFamily"
    ),
    "residual_diagnostics_no_index": (
        lambda x: residual_diagnostics(VANISHING, x, []), Constant(2), "weights must be of type WeightFamily"
    ),
    "select_ai": (lambda x: select_ai_subsequence(x, 3), Constant(2), "weights must be of type WeightFamily"),
    "ditkin_approximation": (
        lambda x: ditkin_approximation(DyadicDecay(), x, F(1)), Constant(2), "weights must be of type WeightFamily"
    ),
    "property_report": (property_report, TWO_MODULI, "weights must be of type WeightFamily"),
    "witness_weights": (
        lambda x: relative_unit_witness(x, INFINITY, ClosedSet((2,))), Constant(2), "weights must be of type WeightFamily"
    ),
    "unbounded_nondivergent": (
        lambda x: unbounded_nondivergent_family(x, 1), Linear(0, 1), "divergent part must be of type WeightFamily"
    ),
    "repro_checks": (repro_checks, Constant(1), "weights must be of type WeightFamily"),
    "in_ideal": (STEPS.in_ideal, IdealSpec.m_at(INFINITY), "ideal spec must be of type IdealSpec"),
    "in_ideal_dyadic": (DyadicDecay().in_ideal, IdealSpec.j_at(3), "ideal spec must be of type IdealSpec"),
    "witness_excluded_at_infinity": (
        lambda x: relative_unit_witness(Constant(2), INFINITY, x), ClosedSet((2,)), "excluded set must be of type ClosedSet"
    ),
    "witness_excluded_at_a_point": (
        lambda x: relative_unit_witness(Constant(2), 3, x), ClosedSet((2,)), "excluded set must be of type ClosedSet"
    ),
    "ideal_spec_zero_set": (lambda x: IdealSpec(x, False), ClosedSet((2,)), "zero set must be of type ClosedSet"),
    "ideal_spec_zero_set_by_keyword": (
        lambda x: IdealSpec(zero_set=x, neighbourhood=True), ClosedSet(), "zero set must be of type ClosedSet"
    ),
}


WRONG = {"int": 1, "str": "weights", "none": None, "closed_set": ClosedSet((2,)), "ideal_spec": IdealSpec.m_at(2)}


@pytest.mark.parametrize(
    "name, wrong", [(n, k) for n, (_, right, _) in STRUCTURED.items() for k, x in WRONG.items() if type(x) is not type(right)]
)
def test_wrong_structured_argument_raises_type_error(name, wrong):
    call, _, message = STRUCTURED[name]
    with pytest.raises(TypeError, match=f"^{message}, got {type(WRONG[wrong]).__name__}$"):
        call(WRONG[wrong])


@pytest.mark.parametrize("name", STRUCTURED)
def test_structured_argument_is_accepted(name):
    call, right, _ = STRUCTURED[name]
    call(right)


# The two flags of a closed set and an ideal spec are bools: "no" is truthy, and
# would otherwise put ∞ in the set.  So is a classification's, which is written out.
FLAGS = {
    "with_infinity": lambda x: ClosedSet((), x),
    "with_infinity_by_keyword": lambda x: ClosedSet(with_infinity=x),
    "neighbourhood": lambda x: IdealSpec(ClosedSet((2,)), x),
    "nondecreasing": lambda x: WeightClassification(None, 1, x),
}


@pytest.mark.parametrize("name", FLAGS)
@pytest.mark.parametrize("x", ["no", "", 1, 0, None], ids=["str", "empty_str", "one", "zero", "none"])
def test_non_bool_flag_raises_type_error(name, x):
    flag = name.removesuffix("_by_keyword")
    with pytest.raises(TypeError, match=f"^{flag} must be of type bool, got {type(x).__name__}$"):
        FLAGS[name](x)


@pytest.mark.parametrize("name", FLAGS)
@pytest.mark.parametrize("x", [False, True])
def test_bool_flag_is_accepted(name, x):
    FLAGS[name](x)


def test_a_bad_ideal_spec_fails_where_it_is_built():
    with pytest.raises(TypeError, match="^zero set must be of type ClosedSet, got int$"):
        ONE.in_ideal(IdealSpec(1, False))
    with pytest.raises(TypeError, match="^with_infinity must be of type bool, got str$"):
        ClosedSet((), "no").contains(INFINITY)
    assert not ClosedSet((), False).contains(INFINITY) and ClosedSet((), True).contains(INFINITY)


# Every entry point that takes a scan horizon h, on every tier: the exact tiers
# do not scan, the rule-based tier scans [1, h], and all check h the same way.
VANISHING_ELEMENTS = {
    "exact": prefix_indicator(3),
    "zero": ZERO,
    "dyadic": DyadicDecay(F(-4, 3)),
    "rule_based": _rule_based(),
}


def _search_nothing(h):
    with pytest.raises(HorizonExhausted):  # reached only by a valid horizon
        ditkin_approximation(DyadicDecay(), Constant(1), F(1), h, 0)


HORIZONED = {
    **{f"norm_{k}": (lambda f: lambda h: f.norm(Constant(1), horizon=h))(f) for k, f in VANISHING_ELEMENTS.items()},
    **{f"sup_norm_{k}": (lambda f: lambda h: f.sup_norm(h))(f) for k, f in VANISHING_ELEMENTS.items()},
    **{
        f"weighted_variation_{k}": (lambda f: lambda h: f.weighted_variation(Constant(1), h))(f)
        for k, f in VANISHING_ELEMENTS.items()
    },
    **{
        f"residual_norm_{k}": (lambda f: lambda h: residual_norm(f, Constant(1), 2, h))(f)
        for k, f in VANISHING_ELEMENTS.items()
    },
    "residual_diagnostics": lambda h: residual_diagnostics(prefix_indicator(3), Constant(1), [2], h),
    "ditkin_approximation_supported": lambda h: ditkin_approximation(prefix_indicator(3), Constant(1), F(1), h),
    "ditkin_approximation_dyadic": lambda h: ditkin_approximation(DyadicDecay(), Constant(1), F(1), h),
    # also where no residual is computed: no index, or no index to search
    "residual_diagnostics_no_index": lambda h: residual_diagnostics(prefix_indicator(3), Constant(1), [], h),
    "ditkin_approximation_no_search": _search_nothing,
    "norm_one": lambda h: ONE.norm(Constant(1), h),
    # and a hand-built interval, whose horizon None marks an exact result
    "norm_result": lambda h: NormResult(0, 1, h),
}


@pytest.mark.parametrize("name", HORIZONED)
@pytest.mark.parametrize("h", [-1, -5])
def test_negative_horizon_raises_value_error(name, h):
    with pytest.raises(ValueError, match="^horizon must be >= 0$"):
        HORIZONED[name](h)


@pytest.mark.parametrize(
    "h", ["abc", 2.5, F(5, 2), 3.0, None], ids=["str", "float", "fraction", "integral_float", "none"]
)
def test_non_integer_horizon_raises_the_same_type_error_on_every_tier(h):
    messages = set()
    for name, call in HORIZONED.items():
        if h is None and name == "norm_result":
            continue
        with pytest.raises(TypeError) as info:
            call(h)
        messages.add(str(info.value))
    assert len(messages) == 1


@pytest.mark.parametrize("name", HORIZONED)
@pytest.mark.parametrize("h", [0, 1, 8])
def test_integer_horizon_is_accepted(name, h):
    HORIZONED[name](h)


def test_a_bool_horizon_is_written_as_an_int():
    # True is the integer 1, as for an index
    assert _rule_based().norm(Constant(1), horizon=True) == _rule_based().norm(Constant(1), horizon=1)
    results = _rule_based().norm(Constant(1), horizon=True), residual_norm(_rule_based(), Constant(1), 2, True)
    for result in (*results, NormResult(0, 1, True)):
        assert type(result.horizon) is int and result.to_obj()["horizon"] == 1
