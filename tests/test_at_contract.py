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
own message.  A search level or slack is an exact int or `Fraction`; any
other type, a float included, raises `TypeError`.
"""

from fractions import Fraction as F

import pytest

from ditkin import (
    INFINITY,
    ClosedSet,
    Constant,
    DyadicDecay,
    EventuallyConstant,
    Interleave,
    Linear,
    PrefixOverride,
    RuleBased,
    prefix_indicator,
    residual_norm,
    select_ai_subsequence,
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
