"""Non-existence witness: shell sums, fitted exponents, verdict decisions."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from biharm.errors import ParameterError
from biharm.liouville import (GAP_RESOLUTION, WitnessConfig, annulus_shell_sum, lhs_upper,
                              rational_exponent_gap, rhs_lower, verdict)
from biharm.profiles import ManifoldProfile, SourceProfile
from biharm.radial import fit_loglog_slope

PROF = ManifoldProfile(6.0, 4.0, 6)
SRC = SourceProfile(0.0, 0.0)
CFG = WitnessConfig()


def test_config_validation():
    with pytest.raises(ParameterError):
        WitnessConfig(tau=1.0)
    with pytest.raises(ParameterError):
        WitnessConfig(big_n=2.0)
    with pytest.raises(ParameterError):
        WitnessConfig(r_inner=0.5)
    with pytest.raises(ParameterError):
        WitnessConfig(r_list=(16.0, 8.0))
    with pytest.raises(ParameterError, match="at least 3"):
        WitnessConfig(r_list=(1024.0, 4096.0))   # the growth test reads three ratios
    with pytest.raises(ParameterError):
        WitnessConfig(r_list=(2.0, 4.0))   # violates R > r_inner/tau


def test_shell_count_anchor():
    # r/(N^2 R) = 2 / (16 * 1024) = 2**-13, tau = 1/2: k = 12
    assert CFG.shell_count(2.0 ** 10) == 12
    k = CFG.shell_count(2.0 ** 20)
    assert k == 22
    with pytest.raises(ParameterError, match="too small"):
        CFG.shell_count(0.4)   # fewer than one full shell fits


def test_single_shell_term_value():
    # first term of the sum at R=10, p=2, m=0: (N^2 R)**(alpha - p*(2g-a)) = 160**2
    cfg = WitnessConfig(r_list=(10.0, 20.0, 40.0))
    first = (cfg.big_n ** 2 * 10.0) ** (6.0 - 2.0 * 2.0)
    assert first == 25600.0
    assert annulus_shell_sum(PROF, SRC, 2.0, cfg, 10.0) >= first


def test_shell_sum_log_growth_at_equality():
    # alpha + m = p*(2*gamma-alpha) at p = 3: the sum counts shells ~ ln R
    rs = np.array(CFG.r_list)
    sums = np.array([annulus_shell_sum(PROF, SRC, 3.0, CFG, R) for R in rs])
    x = np.log(rs)
    corr = np.corrcoef(x, sums)[0, 1]
    assert corr >= 0.999


def test_rhs_fitted_exponents():
    rs = np.array(CFG.r_list)
    # p=2: m*p/(p-1) + alpha - (p+1)*(2*gamma-alpha) = 0
    vals = np.array([rhs_lower(PROF, SRC, 2.0, CFG, R) for R in rs])
    assert fit_loglog_slope(rs, vals) == pytest.approx(0.0, abs=0.1)
    # p=4 (supercritical): the shell sum saturates, slope m/(p-1) + alpha - 2*gamma
    vals = np.array([rhs_lower(PROF, SRC, 4.0, CFG, R) for R in rs])
    assert fit_loglog_slope(rs, vals) == pytest.approx(-2.0, abs=0.1)


def test_lhs_fitted_exponents():
    rs = np.array(CFG.r_list)
    vals = np.array([lhs_upper(PROF, 2.0, CFG, R, mesh=128) for R in rs])
    assert fit_loglog_slope(rs, vals) == pytest.approx(-4.0, abs=0.2)
    vals3 = np.array([lhs_upper(PROF, 3.0, CFG, R, mesh=128) for R in rs])
    assert fit_loglog_slope(rs, vals3) == pytest.approx(-2.0, abs=0.1)
    assert lhs_upper(PROF, 2.0, CFG, 2048.0, 128) > lhs_upper(PROF, 2.0, CFG, 4096.0, 128)


def test_verdict_triptych():
    rep2 = verdict(PROF, SRC, 2.0, CFG, mesh=128)
    assert rep2.verdict == "CONTRADICTION"
    assert rep2.gap_fitted == pytest.approx(4.0, abs=0.2)

    rep3 = verdict(PROF, SRC, 3.0, CFG, mesh=128)
    assert rep3.verdict == "CONTRADICTION"
    assert rep3.log_flag
    assert rep3.e_lambda == pytest.approx(-2.0, abs=0.1)
    assert rep3.e_rhs == pytest.approx(-2.0, abs=0.1)
    assert rep3.log_correlation >= 0.999

    rep4 = verdict(PROF, SRC, 4.0, CFG, mesh=128)
    assert rep4.verdict == "NO_CONTRADICTION"
    assert rep4.gap_rational == pytest.approx(-2.0 / 3.0)


def test_rational_gap_sign_is_criticality():
    rng = np.random.default_rng(17)
    for _ in range(200):
        alpha = rng.uniform(4.0, 7.0)
        gamma = rng.uniform(alpha / 2 + 0.2, alpha - 0.2)
        m = rng.uniform(max(2 * (gamma - alpha) + 0.2, -1.5), 2.0)
        p_star = (alpha + m) / (2 * gamma - alpha)
        if p_star <= 1.05:
            continue
        prof = ManifoldProfile(alpha, gamma, 6)
        src = SourceProfile(min(m, 0.0), m)
        p_sub = rng.uniform(1.02, p_star)
        p_super = p_star + rng.uniform(0.05, 2.0)
        assert rational_exponent_gap(prof, src, p_sub) > 0
        assert rational_exponent_gap(prof, src, p_super) < 0


def test_verdict_at_exact_threshold_randomized():
    # at p = p* the two sides share an exponent and the shell count supplies
    # the logarithm: the verdict must be CONTRADICTION via the log flag
    rng = np.random.default_rng(5)
    cfg = WitnessConfig()
    checked = 0
    while checked < 6:
        alpha = rng.uniform(4.5, 7.0)
        gamma = rng.uniform(alpha / 2 + 0.4, alpha - 0.4)
        m = rng.uniform(max(2 * (gamma - alpha) + 0.3, -1.0), 1.5)
        p_star = (alpha + m) / (2 * gamma - alpha)
        if p_star <= 1.1:
            continue
        rep = verdict(ManifoldProfile(alpha, gamma, 6), SourceProfile(min(m, 0.0), m),
                      p_star, cfg, mesh=128)
        assert rep.verdict == "CONTRADICTION"
        assert rep.log_flag and rep.log_correlation >= 0.999
        checked += 1


@st.composite
def _witness_profiles(draw):
    """(alpha, gamma, m, p) inside the witness's admissible window."""
    gamma = draw(st.floats(1.2, 8.0))
    alpha = draw(st.floats(1.02 * gamma, 1.98 * gamma, exclude_min=True, exclude_max=True))
    m = draw(st.floats(0.95 * 2.0 * (gamma - alpha), 3.0, exclude_min=True))
    return alpha, gamma, m, draw(st.floats(1.05, 12.0))


@settings(max_examples=200, deadline=None)
@given(_witness_profiles())
# exact gap -0.155, fitted -0.088: INCONCLUSIVE, inside the band allowed below
@example((6.77215162052244, 6.017149667001174, -0.49685274672997026, 1.1983885169065709))
def test_verdict_sign_matches_rational_gap(draw):
    # away from p*, the fitted verdict agrees with the sign of the exact gap
    alpha, gamma, m, p = draw
    prof, src = ManifoldProfile(alpha, gamma, 6), SourceProfile(min(m, 0.0), m)
    gap = rational_exponent_gap(prof, src, p)
    assume(abs(gap) >= 0.15)
    try:
        rep = verdict(prof, src, p, CFG, mesh=64)
    except ParameterError:   # a witness side leaves the float range
        return
    if gap > 0:
        assert rep.verdict == "CONTRADICTION"
    elif rep.verdict == "INCONCLUSIVE":
        # just above p* the shell sum saturates slowly, like ln(N^2 R / r)
        # over the scan: its fitted slope pulls the fitted gap toward 0
        rs = np.array(CFG.r_list)
        log_bias = fit_loglog_slope(rs, np.log(CFG.big_n ** 2 * rs / CFG.r_inner))
        assert gap > -(GAP_RESOLUTION + log_bias)
    else:
        assert rep.verdict == "NO_CONTRADICTION"


def test_rhs_monotone_in_m():
    for R in (2.0 ** 12, 2.0 ** 16):
        vals = [rhs_lower(PROF, SourceProfile(min(m, 0.0), m), 2.5, CFG, R)
                for m in (-0.5, 0.0, 0.5, 1.0)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_report_serializes_and_flags_normalization():
    rep = verdict(PROF, SRC, 2.0, CFG, mesh=128)
    payload = rep.as_dict()
    text = json.dumps(payload, sort_keys=True)
    assert "normalized" in payload["normalization_note"]
    assert payload["sign_agreement"] is True
    assert len(payload["rows"]) == len(CFG.r_list)
    assert math.isfinite(payload["gap_rational_float"])


def test_verdict_rejects_bad_p():
    with pytest.raises(ParameterError):
        verdict(PROF, SRC, 1.0, CFG)
