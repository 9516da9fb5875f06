"""Profile evaluation, critical-exponent arithmetic, and exponent planning."""

import json
from fractions import Fraction

import numpy as np
import pytest

from biharm.errors import ParameterError
from biharm.profiles import (ExponentPlan, ManifoldProfile, SourceProfile,
                             classify, critical_exponent, eval_profile,
                             exponent_window_checks, plan_exponents, PURE_POWER)

PROF = ManifoldProfile(6.0, 4.0, 6)
SRC = SourceProfile(0.0, 0.0)


def test_profile_values_direct():
    assert eval_profile("v", PROF, SRC, 0.5) == 0.5 ** 6 == 0.015625
    assert eval_profile("g", PROF, SRC, 2.0) == 2.0 ** -4 == 0.0625
    assert eval_profile("f", PROF, SRC, 10.0) == pytest.approx(0.01, abs=1e-15)
    assert eval_profile("psi", PROF, SRC, 7.0) == 1.0 ** 0  # s = 0


def test_profile_rejects_nonpositive_radius():
    with pytest.raises(ParameterError):
        eval_profile("v", PROF, SRC, 0.0)
    with pytest.raises(ParameterError):
        eval_profile("g", PROF, SRC, -1.0)


def test_profiles_continuous_at_crossover():
    eps = 1e-9
    for kind in ("v", "psi", "f"):
        lo = eval_profile(kind, PROF, SRC, 1.0 - eps)
        hi = eval_profile(kind, PROF, SRC, 1.0 + eps)
        assert lo == pytest.approx(hi, rel=1e-7)
    # g is continuous exactly when gamma = n - 2
    assert eval_profile("g", PROF, SRC, 1.0 - eps) == pytest.approx(
        eval_profile("g", PROF, SRC, 1.0 + eps), rel=1e-7)
    jumpy = ManifoldProfile(6.0, 5.0, 6)
    ratio = (eval_profile("g", jumpy, SRC, 1.0 - eps)
             / eval_profile("g", jumpy, SRC, 1.0 + eps))
    assert ratio == pytest.approx(1.0, rel=1e-6)  # both branches equal 1 at r=1


def test_pure_power_mode_uses_outer_branch_everywhere():
    pp = ManifoldProfile(6.0, 4.0, 6, mode=PURE_POWER)
    assert eval_profile("v", pp, SRC, 0.5) == 0.5 ** 6.0
    assert eval_profile("g", pp, SRC, 0.5) == 0.5 ** -4.0
    assert eval_profile("f", pp, SRC, 0.5) == 0.5 ** -2.0


def test_critical_exponent_euclidean_anchors():
    # alpha = n, gamma = n - 2 turns the threshold into (n+m)/(n-4)
    assert critical_exponent(5, 3, 0) == Fraction(5)
    assert critical_exponent(6, 4, 0) == Fraction(3)
    assert critical_exponent(6, 4, 2) == Fraction(4)


def test_critical_exponent_boundary_weight_collapses():
    # weight exponent 2*(gamma-alpha) collapses the threshold to 1
    assert critical_exponent(6, 4, -4) == Fraction(1)


def test_critical_exponent_rejects_degenerate():
    with pytest.raises(ParameterError):
        critical_exponent(6, 3, 0)   # 2*gamma = alpha
    with pytest.raises(ParameterError):
        critical_exponent(6, 2, 0)   # 2*gamma < alpha
    with pytest.raises(ParameterError):
        critical_exponent(6, 4, -5)  # weight below 2*(gamma-alpha)


def test_critical_exponent_monotonicity_randomized():
    rng = np.random.default_rng(7)
    for _ in range(200):
        al = rng.uniform(3.0, 8.0)
        ga = rng.uniform(al / 2 + 0.1, al)
        m = rng.uniform(2 * (ga - al) + 0.1, 3.0)
        base = critical_exponent(al, ga, m)
        assert critical_exponent(al, ga, m + 0.1) > base
        assert critical_exponent(al + 0.05, ga, m) > base
        assert critical_exponent(al, ga + 0.05, m) < base


def test_classify_threshold_trio():
    assert classify(PROF, SRC, 2).regime == "NONEXISTENCE"
    assert classify(PROF, SRC, 4).regime == "EXISTENCE"
    report = classify(PROF, SRC, 3)
    assert report.regime == "NONEXISTENCE"  # the boundary is inclusive
    assert any("threshold" in note for note in report.notes)
    assert report.p_star_nonexistence == Fraction(3)


def test_classify_reports_gap_when_weights_differ():
    src = SourceProfile(s=-1.0, m=1.0)
    report = classify(PROF, src, 3)
    assert report.p_star_nonexistence == Fraction(7, 2)
    assert report.p_star_existence == Fraction(5, 2)
    assert report.regime == "BOUNDARY"
    assert any("differ" in n for n in report.notes)
    json.dumps(report.as_dict())


def test_plan_default_choice():
    plan = plan_exponents(PROF, SRC, 4)
    assert plan.a == Fraction(7, 8)
    assert plan.b == Fraction(2)
    assert plan.l is None
    # re-derive the window: e.g. -s + (2g-a)*a*p = 7 > 6
    checks = exponent_window_checks(PROF, SRC, plan)
    assert [c.holds for c in checks] == [True] * 5
    assert checks[2].lhs == Fraction(7)


def test_plan_rejects_a_below_window():
    with pytest.raises(ParameterError, match="0.75"):
        plan_exponents(PROF, SRC, 4, a=0.7)


def test_plan_b_endpoint_inclusive():
    plan = plan_exponents(PROF, SRC, 4, b=2.0)
    assert plan.b == Fraction(2)
    with pytest.raises(ParameterError):
        plan_exponents(PROF, SRC, 4, b=2.0 + 1e-9)


def test_plan_rejects_subcritical_p():
    with pytest.raises(ParameterError, match="threshold"):
        plan_exponents(PROF, SRC, 3)   # threshold is exactly 3; need strict
    with pytest.raises(ParameterError):
        plan_exponents(PROF, SRC, 2)


def test_plan_window_strict_randomized():
    rng = np.random.default_rng(11)
    for _ in range(100):
        al = rng.uniform(4.0, 8.0)
        ga = rng.uniform(al / 2 + 0.05, al - 0.05)
        s = rng.uniform(max(2 * (ga - al) + 0.05, -2.0), 0.0)
        src = SourceProfile(s=s, m=0.0)
        p_star = (al + s) / (2 * ga - al)
        p = p_star + rng.uniform(0.1, 2.0)
        plan = plan_exponents(ManifoldProfile(al, ga, 6), src, p)
        checks = exponent_window_checks(ManifoldProfile(al, ga, 6), src, plan)
        for c in checks:
            assert c.holds, c.describe()
        # strictness: all but the inclusive cap must hold strictly
        for c in (checks[0], checks[2], checks[3], checks[4]):
            assert c.lhs > c.rhs


def test_plan_requires_existence_window():
    narrow = ManifoldProfile(6.0, 7.0, 9)   # alpha < gamma
    with pytest.raises(ParameterError, match="gamma < alpha < 2"):
        plan_exponents(narrow, SourceProfile(0.0, 0.0), 10)


def test_source_profile_validation():
    with pytest.raises(ParameterError):
        SourceProfile(s=0.5)            # s must be <= 0
    with pytest.raises(ParameterError):
        SourceProfile(s=-4.0).validate(PROF)   # s <= 2*(gamma-alpha)
    with pytest.raises(ParameterError):
        SourceProfile(s=0.0, m=-4.1).validate(PROF)


def test_exponent_plan_field_validation():
    with pytest.raises(ParameterError):
        ExponentPlan(1.0, 0.5, 1.0)
    with pytest.raises(ParameterError):
        ExponentPlan(2.0, 1.0, 1.0)
    plan = ExponentPlan(2.0, 0.5, 1.0).with_l(0.25)
    assert plan.l == 0.25
