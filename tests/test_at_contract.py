"""The `at` contract shared by every weight family and every element tier.

`WeightFamily.at(n)` and `Element.at(p)` are the one place that checks a
point: a natural number n >= 1, or `INFINITY` for an element, where `at`
returns the element's limit.  A point below 1 raises `ValueError`, and a
point that is not an integer (a float, a `Fraction`, a string) raises
`TypeError` instead of being truncated.  Expected values are written out by
hand, independently of the grammar.
"""

from fractions import Fraction as F

import pytest

from ditkin import (
    INFINITY,
    Constant,
    DyadicDecay,
    EventuallyConstant,
    Interleave,
    Linear,
    PrefixOverride,
    RuleBased,
)


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
