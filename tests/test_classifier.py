"""Regularity reports, relative-unit witnesses, and the built-in families."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings

from ditkin import (
    ClosedSet,
    Constant,
    IdealSpec,
    INFINITY,
    Interleave,
    InvalidExcludedSet,
    Linear,
    NormResult,
    NotDivergentError,
    dyadic_counterexample,
    prefix_indicator,
    property_report,
    relative_unit_witness,
    unbounded_nondivergent_family,
)

from _support import random_family, weight_families

ODD_EVEN_FAMILY, DYADIC = dyadic_counterexample()


class TestPropertyReport:
    def test_constant_one(self):
        rep = property_report(Constant(1))
        assert rep.strong_ditkin and rep.bru_dales
        assert rep.dales_bound == 3
        assert rep.bade_witness is not None
        assert rep.unboundedness_witness is None

    def test_divergent_ramp(self):
        rep = property_report(Linear(0, 1))
        assert rep.ditkin and rep.strongly_regular and rep.spectral_synthesis
        assert not rep.strong_ditkin
        assert not rep.bru_bade and not rep.bru_dales
        assert rep.bade_witness is None
        assert rep.unboundedness_witness is not None

    def test_odd_even_family(self):
        rep = property_report(ODD_EVEN_FAMILY)
        assert rep.strong_ditkin and not rep.bru_dales
        assert rep.dales_bound is None
        assert rep.bade_witness is not None
        # unbounded: the report also carries points defeating a uniform bound
        assert rep.unboundedness_witness is not None

    def test_mixed_interleave(self):
        rep = property_report(Interleave((Constant(1), Linear(0, 1))))
        assert rep.strong_ditkin and not rep.bru_dales

    def test_unboundedness_witness_rows(self):
        rep = property_report(ODD_EVEN_FAMILY)
        for i, (n, alpha) in enumerate(rep.unboundedness_witness):
            assert alpha == ODD_EVEN_FAMILY.at(n)
            assert alpha > Fraction(1 << i)
            # no smaller index already exceeds the threshold
            assert all(ODD_EVEN_FAMILY.at(j) <= Fraction(1 << i) for j in range(1, n))

    @settings(deadline=None, max_examples=100)
    @given(weight_families())
    def test_unboundedness_witness_rows_on_random_families(self, w):
        # each search starts at the last point: a point that passes several thresholds is each one's row
        assume(not w.classify().bounded)
        rows = property_report(w).unboundedness_witness
        values = [w.at(j) for j in range(1, rows[-1][0] + 1)]
        for i, (n, alpha) in enumerate(rows):
            assert alpha == values[n - 1] > 1 << i
            assert max(values[: n - 1], default=0) <= 1 << i  # no smaller index exceeds the threshold

    def test_consistency_on_random_families(self):
        rng = random.Random(20260810)
        for _ in range(120):
            w = random_family(rng)
            rep = property_report(w)
            cls = rep.classification
            liminf_finite = cls.liminf is not None
            assert rep.strong_ditkin == rep.m_infinity_has_bai == rep.bru_bade == liminf_finite
            assert rep.strong_ditkin == (rep.strongly_regular and rep.bru_bade)
            assert rep.bru_dales == cls.bounded
            if rep.bru_dales:
                assert rep.bru_bade
                assert rep.dales_bound == 2 * cls.sup + 1
            assert rep.ditkin and rep.strongly_regular
            assert rep.spectral_synthesis and rep.separable

    def test_report_json_shape(self):
        obj = property_report(Constant(1)).to_obj()
        assert obj["strong_ditkin"] is True
        assert obj["dales_bound"] == "3"
        assert set(obj["citations"]) >= {
            "ditkin",
            "strong_ditkin",
            "bru_bade",
            "bru_dales",
            "dales_bound",
        }
        assert obj["classification"]["sup"] == "1"


class TestRelativeUnitWitness:
    def test_finite_point_worked_example(self):
        wit = relative_unit_witness(Constant(1), 3, ClosedSet((1, 2, 4), with_infinity=True))
        assert wit.norm == 3  # = 2M + 1 with M = 1
        assert wit.element.at(3) == 0
        for p in (1, 2, 4, INFINITY):
            assert wit.element.at(p) == 1
        assert wit.element.in_ideal(IdealSpec.j_at(3))

    def test_infinity_worked_example(self):
        wit = relative_unit_witness(Constant(1), INFINITY, ClosedSet((1, 2, 3, 4, 5)))
        assert wit.norm == 2  # 1 + alpha_5
        assert all(wit.element.at(p) == 1 for p in range(1, 6))
        assert wit.element.in_ideal(IdealSpec.j_at(INFINITY))

    def test_infinity_picks_cheapest_tail_index(self):
        # past max(E) = 2 the tail infimum 1 is already attained at 2 itself
        # (alpha_2 = 2/2); past max(E) = 4 the earliest attainer is 5
        wit = relative_unit_witness(ODD_EVEN_FAMILY, INFINITY, ClosedSet((1, 2)))
        assert wit.norm == 2
        assert wit.element == prefix_indicator(2)
        wit = relative_unit_witness(ODD_EVEN_FAMILY, INFINITY, ClosedSet((1, 4)))
        assert wit.norm == 2
        assert wit.element == prefix_indicator(5)

    def test_point_one(self):
        wit = relative_unit_witness(Constant(Fraction(1, 2)), 1, ClosedSet((2, 3)))
        assert wit.norm == Fraction(3, 2)
        assert wit.element.at(1) == 0 and wit.element.at(2) == 1

    def test_local_identity_norm_grows_on_odd_even_family(self):
        for m in range(1, 51):
            wit = relative_unit_witness(ODD_EVEN_FAMILY, 2 * m, ClosedSet(()))
            assert wit.norm == m + 2  # 1 + alpha_{2m-1} + alpha_{2m}
            assert wit.norm >= ODD_EVEN_FAMILY.at(2 * m) == m

    def test_witness_norm_matches_generic_norm(self):
        rng = random.Random(99)
        for _ in range(40):
            w = random_family(rng)
            point = rng.choice([INFINITY, rng.randint(1, 30)])
            if point is INFINITY:
                excluded = ClosedSet(tuple(rng.sample(range(1, 20), rng.randint(0, 5))))
            else:
                pts = [p for p in rng.sample(range(1, 20), rng.randint(0, 5)) if p != point]
                excluded = ClosedSet(tuple(pts), with_infinity=rng.random() < 0.5)
            wit = relative_unit_witness(w, point, excluded)
            assert wit.element.norm(w) == NormResult.exact(wit.norm)
            spec = IdealSpec.j_at(point)
            assert wit.element.in_ideal(spec)
            for p in excluded.points:
                assert wit.element.at(p) == 1
            if excluded.with_infinity:
                assert wit.element.at(INFINITY) == 1

    def test_dales_bound_respected_when_bounded(self):
        rng = random.Random(123)
        for _ in range(30):
            w = random_family(rng, kind="bounded")
            sup = w.classify().sup
            wit = relative_unit_witness(w, rng.randint(1, 20), ClosedSet(()))
            assert wit.norm <= 2 * sup + 1

    def test_invalid_sets(self):
        with pytest.raises(InvalidExcludedSet):
            relative_unit_witness(Constant(1), 3, ClosedSet((3,)))
        with pytest.raises(InvalidExcludedSet):
            relative_unit_witness(Constant(1), INFINITY, ClosedSet((1,), with_infinity=True))

    @pytest.mark.parametrize("point", [0, -3])
    def test_point_below_one(self, point):
        with pytest.raises(InvalidExcludedSet, match="points of N start at 1"):
            relative_unit_witness(Constant(1), point, ClosedSet(()))


class TestBuiltInFamilies:
    def test_counterexample_values(self):
        w, f = dyadic_counterexample()
        assert w.at(6) == 3
        assert f.at(8) == Fraction(1, 16)
        assert w.at(32) * f.at(32) == Fraction(1, 4)
        assert f.norm(w) == NormResult.exact(1)
        assert f.in_ideal(IdealSpec.m_at(INFINITY))
        assert not f.in_ideal(IdealSpec.j_at(INFINITY))

    def test_unbounded_nondivergent_constructor(self):
        w = unbounded_nondivergent_family(Linear(0, 1), Fraction(1))
        rep = property_report(w)
        assert rep.strong_ditkin and not rep.bru_dales

        w2 = unbounded_nondivergent_family(Linear(5, 3), Fraction(2))
        cls = w2.classify()
        assert cls.liminf == 2 and not cls.bounded

    def test_divergence_precondition(self):
        with pytest.raises(NotDivergentError):
            unbounded_nondivergent_family(Constant(1), Fraction(1))
        with pytest.raises(NotDivergentError):
            unbounded_nondivergent_family(ODD_EVEN_FAMILY, Fraction(1))
