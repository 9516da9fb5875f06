"""Non-existence witness: shell sums, fitted exponents, verdict decisions."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from biharm import cli, liouville, spectral
from biharm.errors import ParameterError
from biharm.liouville import (WitnessConfig, annulus_shell_sum, lhs_upper,
                              rational_exponent_gap, rhs_lower, verdict)
from biharm.profiles import ManifoldProfile, SourceProfile
from biharm.radial import fit_loglog_slope
from biharm.spectral import SurrogateOperator, lambda1_annulus

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


def test_rhs_lower_takes_an_array_of_radii(monkeypatch):
    # one validation for the whole scan; each entry is the scalar call's
    # float, and a power past the float range reads inf, not OverflowError
    prof, src = ManifoldProfile(6.0, 1.0, 6), SourceProfile(0.0, 1.0)
    rs = np.array([1024.0, 3.0e4, 1e300])
    calls, real = [], SourceProfile.validate
    monkeypatch.setattr(SourceProfile, "validate",
                        lambda self, prof: calls.append(prof) or real(self, prof))
    vals = rhs_lower(prof, src, 2.0, CFG, rs)
    assert len(calls) == 1
    assert vals.tolist() == [rhs_lower(prof, src, 2.0, CFG, r) for r in rs.tolist()]
    assert vals[-1] == math.inf and isinstance(rhs_lower(prof, src, 2.0, CFG, 1e3), float)


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
# exact gap -0.155 with shell exponent -0.03: its shell sum is far from
# saturation over the scan, and the fit divides that out
@example((6.77215162052244, 6.017149667001174, -0.49685274672997026, 1.1983885169065709))
def test_verdict_sign_matches_rational_gap(draw):
    # away from p*, the fitted gap is the exact one and the verdict decides by its sign
    alpha, gamma, m, p = draw
    prof, src = ManifoldProfile(alpha, gamma, 6), SourceProfile(min(m, 0.0), m)
    gap = rational_exponent_gap(prof, src, p)
    assume(abs(gap) >= 0.15)
    try:
        rep = verdict(prof, src, p, CFG, mesh=64)
    except ParameterError:   # a witness side leaves the float range
        return
    assert rep.gap_fitted == pytest.approx(float(gap), rel=0.0, abs=1e-9)
    assert rep.verdict == ("CONTRADICTION" if gap > 0 else "NO_CONTRADICTION")


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


# (alpha, gamma, m, p) points: the benchmark sweep's profiles a quarter below
# and half above p*, and a non-integer profile below, just above and well
# above its p* ~ 1.19 (near p = 1 the power 2/(p-1) magnifies rounding)
SCAN_POINTS = [(a, g, m, (a + m) / (2 * g - a) + off)
               for a, g, m in ((6, 4, 0), (8, 5, 0), (6, 4, -1), (8, 6, 0),
                               (7, 5, -1), (10, 7, 0), (8, 5, -2), (10, 6, 0))
               for off in (-0.25, 0.5)] + [(6.77, 6.02, -0.5, p) for p in (1.1, 1.2, 3.0)]


def _lhs_per_radius(prof, p, cfg, R, mesh):
    """The reference lhs: an independent eigen solve at every radius."""
    op = SurrogateOperator.from_profile(prof)
    return np.array([np.float64(lambda1_annulus(op, cfg.tau * r, cfg.big_n ** 2 * r, mesh).value)
                     ** (2.0 / (p - 1.0)) for r in R])


@pytest.mark.parametrize("alpha, gamma, m, p", SCAN_POINTS)
def test_scan_scaled_by_homogeneity_matches_per_radius_solves(monkeypatch, alpha, gamma, m, p):
    prof, src = ManifoldProfile(alpha, gamma, 6), SourceProfile(min(m, 0.0), m)
    rep = verdict(prof, src, p, CFG, mesh=64)
    monkeypatch.setattr(liouville, "lhs_upper", _lhs_per_radius)
    ref = verdict(prof, src, p, CFG, mesh=64)
    lhs, ref_lhs = (np.array([row[1] for row in r.rows]) for r in (rep, ref))
    assert lhs[0] == ref_lhs[0]   # the solved radius
    np.testing.assert_allclose(lhs, ref_lhs, rtol=5e-12, atol=0.0)
    assert rep.verdict == ref.verdict


def _count_calls(monkeypatch, module):
    """The positional arguments of every lambda1_annulus call made through module."""
    calls, orig = [], module.lambda1_annulus

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, "lambda1_annulus", counted)
    return calls


def test_verdict_solves_one_eigenproblem_per_scan(monkeypatch):
    calls = _count_calls(monkeypatch, liouville)
    verdict(PROF, SRC, 2.0, CFG, mesh=64)
    assert len(calls) == 1


def test_eigen_solves_every_radius(monkeypatch, tmp_path):
    # criterion 5 tests the scaling law on eigen's output, so eigen may not assume it
    calls = _count_calls(monkeypatch, spectral)
    assert cli.run(["eigen", "--alpha", "6", "--gamma", "4", "--r-values", "1e2,1e3,1e4",
                    "--mesh", "64", "--out-dir", str(tmp_path / "o")]) == 0
    assert [a[2] for a in calls] == [1e2, 1e3, 1e4]


def test_constant_ratio_has_zero_log_correlation(monkeypatch):
    # equal sides at every radius: the correlation is 0/0, read as 0 without a warning
    monkeypatch.setattr(liouville, "lhs_upper", lambda prof, p, cfg, R, mesh: np.full(len(R), 2.0))
    monkeypatch.setattr(liouville, "rhs_lower", lambda prof, src, p, cfg, R: np.full(len(R), 2.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = verdict(PROF, SRC, 2.0, CFG, mesh=64)
    assert rep.log_correlation == 0.0 and rep.verdict == "INCONCLUSIVE"
