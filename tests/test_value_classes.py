"""The contract of the 17 immutable value classes: structural equality within
one class, hashing that agrees with it, a field-by-field repr, defaults and
keyword construction, arity errors, no assignment or deletion, pickle and
deepcopy round trips, and per-object caches that stay out of all of these;
and the JSON form of each class that has one, pinned where no golden prints it."""

import copy
import inspect
import json
import pickle
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from ditkin import (
    INFINITY,
    AiSelection,
    ClosedSet,
    Constant,
    DiagnosticRow,
    DyadicDecay,
    EventuallyConstant,
    IdealSpec,
    Interleave,
    Linear,
    NormResult,
    PrefixOverride,
    PropertyReport,
    RelativeUnitWitness,
    SchemaError,
    TailInf,
    WeightClassification,
)
from ditkin.classifier import PROPERTIES
from ditkin.weights import EventualForm, LeafForm

F = Fraction


def _classification():
    return WeightClassification(sup=F(2), liminf=F(1), nondecreasing=False)


# (constructor, pinned repr), one per class
CASES = {
    "TailInf": (lambda: TailInf(3, F(1, 2), 4), "TailInf(at_index=3, value=Fraction(1, 2), attained_at=4)"),
    "WeightClassification": (
        _classification,
        "WeightClassification(sup=Fraction(2, 1), liminf=Fraction(1, 1), nondecreasing=False)",
    ),
    "EventualForm": (
        lambda: EventualForm(2, 2, ((F(1), F(0)), (F(0), F(1)))),
        "EventualForm(start=2, modulus=2, arms=((Fraction(1, 1), Fraction(0, 1)), (Fraction(0, 1), Fraction(1, 1))))",
    ),
    "LeafForm": (
        lambda: LeafForm(2, 2, (5,), ((0, 2, 2, 0), (1, 2, 0, 1))),
        "LeafForm(start=2, den=2, head=(5,), leaves=((0, 2, 2, 0), (1, 2, 0, 1)))",
    ),
    "Constant": (lambda: Constant(F(3, 2)), "Constant(value=Fraction(3, 2))"),
    "Linear": (lambda: Linear(1, F(1, 2)), "Linear(offset=Fraction(1, 1), slope=Fraction(1, 2))"),
    "Interleave": (
        lambda: Interleave((Constant(1), Linear(0, 1))),
        "Interleave(parts=(Constant(value=Fraction(1, 1)), Linear(offset=Fraction(0, 1), slope=Fraction(1, 1))))",
    ),
    "PrefixOverride": (
        lambda: PrefixOverride((5, F(1, 3)), Constant(1)),
        "PrefixOverride(prefix=(Fraction(5, 1), Fraction(1, 3)), tail=Constant(value=Fraction(1, 1)))",
    ),
    "NormResult": (lambda: NormResult(1, F(3, 2), 8), "NormResult(lo=Fraction(1, 1), hi=Fraction(3, 2), horizon=8)"),
    "ClosedSet": (lambda: ClosedSet((3, 1, 3), True), "ClosedSet(points=(1, 3), with_infinity=True)"),
    "IdealSpec": (
        lambda: IdealSpec(ClosedSet((2,)), True),
        "IdealSpec(zero_set=ClosedSet(points=(2,), with_infinity=False), neighbourhood=True)",
    ),
    "EventuallyConstant": (
        lambda: EventuallyConstant((F(1, 2), F(1, 2), 1), F(1)),
        "EventuallyConstant(den=2, ends=(2,), nums=(1,), tail_num=2)",
    ),
    "DyadicDecay": (lambda: DyadicDecay(F(-2)), "DyadicDecay(coefficient=Fraction(-2, 1))"),
    "AiSelection": (
        lambda: AiSelection((1, 3), (F(2), F(4))),
        "AiSelection(indices=(1, 3), norms=(Fraction(2, 1), Fraction(4, 1)), liminf=None, slack=None)",
    ),
    "DiagnosticRow": (
        lambda: DiagnosticRow(2, NormResult.exact(1), F(1, 2), F(0)),
        "DiagnosticRow(index=2, residual=NormResult(lo=Fraction(1, 1), hi=Fraction(1, 1), horizon=None), "
        "alpha_next=Fraction(1, 2), alpha_self=Fraction(0, 1))",
    ),
    "PropertyReport": (
        lambda: PropertyReport(_classification(), None, None),
        "PropertyReport(classification=WeightClassification(sup=Fraction(2, 1), liminf=Fraction(1, 1), "
        "nondecreasing=False), bade_witness=None, unboundedness_witness=None)",
    ),
    "RelativeUnitWitness": (
        lambda: RelativeUnitWitness(INFINITY, 1, EventuallyConstant((1,)), F(2)),
        "RelativeUnitWitness(point=INFINITY, excluded_set_max=1, "
        "element=EventuallyConstant(den=1, ends=(1,), nums=(1,), tail_num=0), norm=Fraction(2, 1))",
    ),
}
NAMES = sorted(CASES)
# classes whose constructor is not one argument per field
OWN_SIGNATURE = {"EventuallyConstant"}
ALL_DEFAULTS = {"ClosedSet", "DyadicDecay", "EventuallyConstant"}


def make(name):
    return CASES[name][0]()


class _Twin:
    """A class of its own, to carry another object's field values."""


def test_seventeen_classes():
    assert len(CASES) == 17 and all(type(make(name)).__name__ == name for name in NAMES)


@pytest.mark.parametrize("name", NAMES)
class TestValueClass:
    def test_equality_and_hash_agree(self, name):
        a, b = make(name), make(name)
        assert a is not b and a == b and not a != b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_other_classes_with_the_same_values_differ(self, name):
        a = make(name)
        twin = _Twin()
        twin.__dict__.update(vars(a))
        assert a != twin and twin != a
        assert a != tuple(vars(a).values()) and a != vars(a)

    def test_repr_is_pinned(self, name):
        assert repr(make(name)) == CASES[name][1]

    def test_no_assignment_or_deletion(self, name):
        a = make(name)
        field = next(iter(vars(a)))
        with pytest.raises(AttributeError):
            setattr(a, field, 0)
        with pytest.raises(AttributeError):
            delattr(a, field)
        with pytest.raises(AttributeError):
            a.extra = 0
        assert a == make(name) and not hasattr(a, "extra")

    def test_positional_and_keyword_construction(self, name):
        a = make(name)
        if name in OWN_SIGNATURE:
            return
        assert type(a)(*vars(a).values()) == a
        assert type(a)(**vars(a)) == a

    def test_wrong_arity_is_a_type_error(self, name):
        a = make(name)
        with pytest.raises(TypeError):
            type(a)(*vars(a).values(), 0, 0, 0)
        with pytest.raises(TypeError):
            type(a)(no_such_field=0)
        if name not in ALL_DEFAULTS:
            with pytest.raises(TypeError):
                type(a)()
        if name not in OWN_SIGNATURE:
            first, value = next(iter(vars(a).items()))
            with pytest.raises(TypeError):
                type(a)(value, **{first: value})

    def test_pickle_and_deepcopy_round_trip(self, name):
        a = make(name)
        for b in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
            assert type(b) is type(a) and b == a and hash(b) == hash(a) and repr(b) == repr(a)


@pytest.mark.parametrize("name", NAMES)
def test_an_arity_error_names_the_class(name):
    a = make(name)
    for call in (lambda: type(a)(*vars(a).values(), 0, 0, 0), lambda: type(a)(no_such_field=0)):
        with pytest.raises(TypeError, match=rf"^{name}\.__init__\(\) "):
            call()


# a value that each check of a constructor rejects, as positional arguments: the same
# arguments by keyword raise the same exception with the same message (with_infinity's
# and the zero set's keyword cases are in test_at_contract.py)
REJECTED = {
    "constant_not_positive": (Constant, (0,), ValueError),
    "constant_float": (Constant, (0.5,), TypeError),
    "linear_both_zero": (Linear, (0, 0), ValueError),
    "linear_negative_slope": (Linear, (1, -1), ValueError),
    "linear_str": (Linear, (1, "1"), TypeError),
    "interleave_one_part": (Interleave, ((Constant(1),),), ValueError),
    "interleave_not_a_family": (Interleave, ((Constant(1), 2),), TypeError),
    "interleave_not_iterable": (Interleave, (3,), TypeError),
    "prefix_not_positive": (PrefixOverride, ((1, 0), Constant(1)), ValueError),
    "prefix_float": (PrefixOverride, ((1, 0.5), Constant(1)), TypeError),
    "prefix_tail_not_a_family": (PrefixOverride, ((1,), 2), TypeError),
    "norm_result_out_of_order": (NormResult, (2, 1), ValueError),
    "norm_result_float": (NormResult, (0.5, 1), TypeError),
    "norm_result_negative_horizon": (NormResult, (1, 2, -3), ValueError),
    "norm_result_str_horizon": (NormResult, (1, 2, "x"), TypeError),
    "closed_set_point": (ClosedSet, ((0,), False), ValueError),
    "ideal_spec_flag": (IdealSpec, (ClosedSet(), 1), TypeError),
    "dyadic_zero": (DyadicDecay, (0,), ValueError),
    "dyadic_float": (DyadicDecay, (0.5,), TypeError),
    "tail_infimum_float": (TailInf, (1, 0.5, 1), TypeError),
    "classification_flag": (WeightClassification, (None, 1, "yes"), TypeError),
}


@pytest.mark.parametrize("case", REJECTED)
def test_a_bad_value_by_keyword_fails_as_it_does_positionally(case):
    cls, args, error = REJECTED[case]
    with pytest.raises(error) as positional:
        cls(*args)
    with pytest.raises(error, match=f"^{re.escape(str(positional.value))}$"):
        cls(**dict(zip(inspect.signature(cls).parameters, args)))


def test_defaults_and_keywords():
    s = AiSelection(indices=(1,), norms=(F(2),))
    assert s.liminf is None and s.slack is None and s.kind == "running_min"
    s = AiSelection((), (), liminf=F(1))
    assert s.slack is None and s.kind == "bounded_bai"
    assert NormResult(lo=1, hi=2).horizon is None
    assert ClosedSet() == ClosedSet(points=(), with_infinity=False)
    assert DyadicDecay() == DyadicDecay(coefficient=F(1))
    assert Linear(slope=2, offset=1) == Linear(1, 2)
    assert EventuallyConstant(tail=F(3)) == EventuallyConstant((), 3)


@pytest.mark.parametrize("sup, liminf", [(F(2), F(1)), (None, F(1)), (None, None)], ids=["bounded", "finite", "divergent"])
def test_derived_facts_are_read_from_the_fields(sup, liminf):
    cls = WeightClassification(sup, liminf, False)
    report, selection = PropertyReport(cls, None, None), AiSelection((1,), (F(2),), liminf)
    assert (len(vars(cls)), len(vars(report)), len(vars(selection))) == (3, 3, 4)
    assert cls.diverges_to_infinity is (liminf is None) is not cls.liminf_finite
    assert [getattr(report, n) for n in PROPERTIES] == [True] * 4 + [liminf is not None] * 3 + [sup is not None]
    assert report.dales_bound == (None if sup is None else 2 * sup + 1)
    assert selection.kind == ("running_min" if liminf is None else "bounded_bai")


def test_equal_values_in_other_classes_differ():
    assert Constant(F(1)) != DyadicDecay(F(1))
    assert TailInf(1, F(1), 1) != (1, F(1), 1)
    assert Linear(1, 0) != Constant(1) and Linear(1, 0).at(5) == Constant(1).at(5)
    assert IdealSpec(ClosedSet(), False) != IdealSpec(ClosedSet(), True)


@pytest.mark.parametrize(
    "make_obj, fill",
    [
        (lambda: Linear(1, 2), lambda w: (w.classify(), w._leaves)),
        (lambda: Interleave((Constant(1), Linear(0, 1))), lambda w: (w.classify(), w._leaves)),
        (lambda: PrefixOverride((F(3),), Linear(0, 1)), lambda w: (w.classify(), w._leaves)),
        (lambda: LeafForm(2, 2, (5,), ((0, 2, 2, 0), (1, 2, 0, 1))), lambda f: f.values(range(1, 6))),
        (lambda: EventuallyConstant((1, 2), 0), lambda f: (f.sup_norm(), f.weighted_variation(Constant(1)))),
    ],
    ids=["linear", "interleave", "prefix", "leaf_form", "eventually_constant"],
)
def test_filled_caches_stay_out_of_value(make_obj, fill):
    a, fresh = make_obj(), make_obj()
    h, r, fields = hash(a), repr(a), dict(vars(a))
    fill(a)
    assert len(vars(a)) > len(fields)  # a cache now sits in the instance dict
    assert a == fresh and fresh == a and hash(a) == h == hash(fresh) and repr(a) == r
    assert pickle.loads(pickle.dumps(a)) == fresh and copy.deepcopy(a) == fresh


# The JSON shapes that no golden output prints, written out by hand.
JSON_SHAPES = {
    "interval_norm": (NormResult(F(1, 2), F(6, 8), 64), {"lo": "1/2", "hi": "3/4", "horizon": 64}),
    "interval_norm_at_horizon_zero": (NormResult(0, F(1, 3), 0), {"lo": "0", "hi": "1/3", "horizon": 0}),
    "row_with_interval_residual": (
        DiagnosticRow(3, NormResult(F(1, 3), F(2, 3), 16), F(1, 2), F(0)),
        {"n_k": 3, "residual": {"lo": "1/3", "hi": "2/3", "horizon": 16}, "alpha_next": "1/2", "alpha_self": "0"},
    ),
    "selection_with_liminf_and_no_slack": (
        AiSelection((1, 3), (F(2), F(5, 2)), F(1)),
        {"kind": "bounded_bai", "indices": [1, 3], "norms": ["2", "5/2"], "liminf": "1"},
    ),
    "selection_with_slack_and_no_liminf": (
        AiSelection((2,), (F(3),), slack=F(1, 2)),
        {"kind": "running_min", "indices": [2], "norms": ["3"], "slack": "1/2"},
    ),
    "unbounded_classification": (
        WeightClassification(None, F(1, 2), True),
        {"bounded": False, "sup": None, "liminf_finite": True, "liminf": "1/2", "nondecreasing": True,
         "diverges_to_infinity": False},
    ),
    "report_without_witnesses": (
        PropertyReport(_classification(), None, None),
        {**dict.fromkeys(PROPERTIES, True), "dales_bound": "5", "bade_witness": None, "unboundedness_witness": None,
         "classification": _classification().to_obj()},
    ),
    # a rational field given an int stores it as a Fraction, so it is written as a string all the same
    "row_built_from_ints": (
        DiagnosticRow(3, NormResult.exact(1), 1, 0),
        {"n_k": 3, "residual": {"exact": "1"}, "alpha_next": "1", "alpha_self": "0"},
    ),
    "selection_built_from_ints": (
        AiSelection((1,), (2,), 1, 0),
        {"kind": "bounded_bai", "indices": [1], "norms": ["2"], "liminf": "1", "slack": "0"},
    ),
    "classification_built_from_ints": (
        WeightClassification(3, 0, False),
        {"bounded": True, "sup": "3", "liminf_finite": True, "liminf": "0", "nondecreasing": False,
         "diverges_to_infinity": False},
    ),
    "report_built_from_ints": (
        PropertyReport(WeightClassification(None, None, True), None, ((3, 2),)),
        {**dict.fromkeys(PROPERTIES[:4], True), **dict.fromkeys(PROPERTIES[4:], False), "dales_bound": None,
         "bade_witness": None, "unboundedness_witness": [[3, "2"]],
         "classification": WeightClassification(None, None, True).to_obj()},
    ),
    "witness_built_from_ints": (
        RelativeUnitWitness(INFINITY, 1, EventuallyConstant((1,)), 2),
        {"point": "inf", "excluded_set_max": 1,
         "element": {"kind": "eventually_constant", "prefix": ["1"], "tail": "0"}, "norm": "2"},
    ),
}


# each rational field, and whether None leaves it out
RATIONAL_FIELDS = {
    "row_alpha_next": (lambda q: DiagnosticRow(3, NormResult.exact(1), q, 0), False),
    "row_alpha_self": (lambda q: DiagnosticRow(3, NormResult.exact(1), 0, q), False),
    "selection_norm": (lambda q: AiSelection((1,), (q,)), False),
    "selection_liminf": (lambda q: AiSelection((1,), (2,), q), True),
    "selection_slack": (lambda q: AiSelection((1,), (2,), slack=q), True),
    "classification_sup": (lambda q: WeightClassification(q, None, False), True),
    "classification_liminf": (lambda q: WeightClassification(None, q, False), True),
    "report_unboundedness": (lambda q: PropertyReport(WeightClassification(None, 0, True), None, ((3, q),)), False),
    "witness_norm": (lambda q: RelativeUnitWitness(INFINITY, 1, EventuallyConstant((1,)), q), False),
    "tail_infimum_value": (lambda q: TailInf(1, q, 1), False),
}


@pytest.mark.parametrize("name", RATIONAL_FIELDS)
def test_a_rational_field_takes_an_int_or_a_fraction(name):
    build, optional = RATIONAL_FIELDS[name]
    assert build(2) == build(F(2)) and build(F(1, 3)) != build(F(2))
    for bad in (0.5, "1", Decimal(1), *(() if optional else (None,))):
        with pytest.raises(TypeError, match="must be an int or a Fraction"):
            build(bad)
    if optional:
        build(None)  # None leaves the field out


@pytest.mark.parametrize("name", JSON_SHAPES)
def test_json_shape_is_pinned(name):
    record, shape = JSON_SHAPES[name]
    obj = record.to_obj()
    obj.pop("citations", None)  # the report's citations are pinned by the classify goldens
    assert obj == shape and list(obj) == list(shape)


@pytest.mark.parametrize("name", [n for n in NAMES if hasattr(make(n), "to_obj")] + list(JSON_SHAPES))
def test_json_form_survives_a_json_round_trip(name):
    record = make(name) if name in CASES else JSON_SHAPES[name][0]
    if name == "DyadicDecay":  # of the staircases, only the unit one has a written form
        with pytest.raises(SchemaError, match="only exact elements and the unit staircase"):
            record.to_obj()
        return
    obj = record.to_obj()
    assert json.loads(json.dumps(obj)) == obj and record.to_obj() == obj
