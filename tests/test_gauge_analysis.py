"""Martingale conditions, momentum ratios, and the coefficient audit."""

import math

import numpy as np
import pytest

from gauge_hamilton import (
    ModelParams,
    RootSet,
    gauge_martingale_residual,
    gauge_martingale_sums,
    gauge_quadratic,
    information_preservation_check,
    make_grid_2d,
    martingale_roots,
    mg_condition_lhs,
    mg_martingale_report,
    momentum_ratio,
    surprise_condition,
    volcoeff_audit,
)

GRID = make_grid_2d(3.5, 5.5, 41, -4.0, -1.0, 21)


# ---------------------------------------------------------------------------
# momentum ratio
# ---------------------------------------------------------------------------

def test_momentum_ratio_values():
    assert momentum_ratio(0.0) == (0.0, 0.0)
    plus, minus = momentum_ratio(1.0)
    assert plus == 0.7071067811865476  # sqrt(1/2)
    assert minus == -plus
    big_plus, big_minus = momentum_ratio(1e12)
    assert abs(big_plus - 1.0) < 1e-12
    assert abs(big_minus + 1.0) < 1e-12


def test_momentum_ratio_rejects_degenerate_omega():
    with pytest.raises(ValueError, match="omega = -1"):
        momentum_ratio(-1.0)
    with pytest.raises(ValueError, match="negative"):
        momentum_ratio(-0.5)


# ---------------------------------------------------------------------------
# information preservation and surprise conditions
# ---------------------------------------------------------------------------

def test_information_preservation_balanced_point():
    # sigma^2 = 2r exactly; theta_xy = 0 makes the right side vanish
    p = ModelParams(r=0.03125, sigma=0.25)
    assert information_preservation_check(-1.0, 1.0, 0.0, p) == 0.0


def test_information_preservation_flat_cross_derivative():
    # theta_xy = 0 zeroes the right side for any sigma, r
    p = ModelParams(r=0.05, sigma=0.2)
    assert information_preservation_check(-1.0, 2.5, 0.0, p) == 0.0


def test_information_preservation_generic_value():
    # 1 - 4*0.09/(0.09 - 0.04) * 0.1 = 0.28
    p = ModelParams(r=0.02, sigma=0.3)
    res = information_preservation_check(0.0, 1.0, 0.1, p)
    assert res == pytest.approx(0.28, abs=1e-15)


def test_information_preservation_errors():
    p = ModelParams(r=0.03125, sigma=0.25)
    with pytest.raises(ValueError, match="theta_x"):
        information_preservation_check(0.0, 0.0, 0.1, p)
    with pytest.raises(ValueError, match="theta_xy = 0"):
        information_preservation_check(0.0, 1.0, 0.1, p)


def test_surprise_condition_balanced():
    # at sigma^2 = 2r the condition reads b = -2a
    p = ModelParams(r=0.03125, sigma=0.25)
    assert surprise_condition(1.0, -2.0, p) == 0.0
    assert surprise_condition(0.3, -0.6, p) == pytest.approx(0.0, abs=1e-16)


def test_surprise_condition_on_the_line():
    p = ModelParams(r=0.05, sigma=0.2)
    a = 0.5 - p.r / (p.sigma * p.sigma)
    assert surprise_condition(a, 0.0, p) == 0.0


def test_surprise_condition_generic():
    p = ModelParams(r=0.02, sigma=0.2)
    assert surprise_condition(0.1, 0.2, p) == pytest.approx(0.2, rel=1e-12)


def test_surprise_condition_needs_positive_sigma():
    with pytest.raises(ValueError, match="sigma"):
        surprise_condition(0.1, 0.2, ModelParams(sigma=0.0))


# ---------------------------------------------------------------------------
# Merton-Garman martingale condition
# ---------------------------------------------------------------------------

def test_mg_condition_special_drift_cancels():
    # mu = -(zeta^2/2 + rho zeta) makes the condition vanish at y = 0
    p = ModelParams(lambda_=0.0, mu=-0.5, zeta=1.0, rho=0.0, alpha=1.0)
    assert mg_condition_lhs(p, 0.0) == 0.0


def test_mg_condition_vectorizes():
    p = ModelParams(lambda_=0.01, mu=0.1, zeta=0.5, rho=0.5, alpha=1.0)
    ys = np.array([-2.0, -1.0, 0.0])
    vals = mg_condition_lhs(p, ys)
    assert vals.shape == (3,)
    single = mg_condition_lhs(p, -1.0)
    assert vals[1] == single


def test_mg_report_flat_variance_dynamics():
    # lambda = mu = zeta = 0: the condition is identically zero and only
    # discretization residue remains
    rep = mg_martingale_report(ModelParams(r=0.05), GRID)
    assert rep.condition_lhs == 0.0
    assert rep.residual_norm < 1e-3
    assert rep.satisfied


def test_mg_report_generic_parameters_fail():
    p = ModelParams(lambda_=0.01, mu=0.1, zeta=0.5, rho=0.5, alpha=1.0)
    rep = mg_martingale_report(p, GRID)
    assert not rep.satisfied
    assert rep.residual_norm > 1e-3
    d = rep.to_dict()
    assert set(d) == {"residual_norm", "condition_lhs", "satisfied"}


def test_mg_report_rowwise_matches_analytic():
    # interior relative residual row by row is |condition(y)| e^-y + O(h^2)
    p = ModelParams(r=0.02, lambda_=0.3, mu=-0.3, zeta=0.3, alpha=1.0, rho=-0.3)
    from gauge_hamilton import build_mg_hamiltonian, sample
    f = sample(lambda x, y: np.exp(x + y), GRID)
    rel = np.abs(build_mg_hamiltonian(p, GRID).apply(f).values2d / f.values2d)
    for j in (1, 10, 19):
        yj = GRID.y_axis.points[j]
        analytic = abs(float(mg_condition_lhs(p, yj))) * math.exp(-yj)
        assert rel[1:-1, j].max() == pytest.approx(analytic, abs=0.06)


def _row_gap(params, n):
    """Max over rows of |interior relative residual of H e^{x+y} - |condition| e^-y|."""
    from gauge_hamilton import build_mg_hamiltonian, sample
    grid = make_grid_2d(3.5, 5.5, n, -4.0, -1.0, (n + 1) // 2)
    f = sample(lambda x, y: np.exp(x + y), grid)
    rel = np.abs(build_mg_hamiltonian(params, grid).apply(f).values2d / f.values2d)
    y = grid.y_axis.points
    analytic = np.abs(mg_condition_lhs(params, y)) * np.exp(-y)
    return max(abs(rel[1:-1, j].max() - analytic[j]) for j in range(1, grid.ny - 1))


@pytest.mark.parametrize("params", [
    ModelParams(r=0.02, lambda_=0.3, mu=-0.3, zeta=0.3, alpha=1.0, rho=-0.3, vol_vol_half=True),
    ModelParams(r=0.05, lambda_=0.5, mu=-0.5, zeta=0.5, alpha=0.8, rho=0.2, vol_vol_half=True),
    ModelParams(r=0.0, lambda_=0.2, mu=-0.2, zeta=0.4, alpha=1.2, rho=-0.5, vol_vol_half=True),
])
def test_mg_condition_follows_halved_vol_of_vol(params):
    # the halved d2/dy2 coefficient cancels the zeta^2/2 of the d/dy one on
    # e^{x+y}; with the written condition the gap stalled near 0.045
    g41, g81 = _row_gap(params, 41), _row_gap(params, 81)
    assert g41 <= 0.09
    assert g41 / g81 >= 3.0


def test_mg_report_rejects_bad_tolerance():
    with pytest.raises(ValueError, match="tolerance"):
        mg_martingale_report(ModelParams(), GRID, tolerance=0.0)


def test_mg_report_names_non_finite_tolerance():
    # a NaN tolerance used to report satisfied=False, an infinite one True
    for tolerance in (math.nan, math.inf):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            mg_martingale_report(ModelParams(), GRID, tolerance=tolerance)


def test_momentum_ratio_names_non_finite_omega():
    for omega in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="omega must be finite"):
            momentum_ratio(omega)


@pytest.mark.parametrize("args, field", [
    ((1.0, math.nan, 1.0), "mu"),
    ((math.nan, -3.0, 2.0), "a_coeff"),
    ((1.0, -3.0, math.inf), "lambda_"),
])
def test_martingale_roots_names_non_finite_coefficients(args, field):
    # a NaN drift used to report no_equilibrium=True
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        martingale_roots(*args)


# ---------------------------------------------------------------------------
# equilibrium roots
# ---------------------------------------------------------------------------

def test_roots_two_equilibria():
    rs = martingale_roots(1.0, -3.0, 2.0)
    assert rs.roots_expy == (1.0, 2.0)
    assert rs.roots_y == (0.0, math.log(2.0))
    assert not rs.no_equilibrium


def test_roots_none_when_negative():
    rs = martingale_roots(1.0, 2.0, 1.0)  # double root u = -1
    assert rs.no_equilibrium
    assert rs.roots_y == ()


def test_roots_double_root_reported_once():
    rs = martingale_roots(1.5, -3.0, 1.5)
    assert rs.roots_expy == (1.0,)
    assert rs.roots_y == (0.0,)


def test_roots_stable_under_cancellation():
    # the naive quadratic formula recovers the small root of
    # (u - 2)(u - 1e-6) only to ~1e-10 relative; the stable form is exact
    rs = martingale_roots(1.0, -2.000001, 0.000002)
    assert rs.roots_expy[0] == 1e-6
    assert rs.roots_expy[1] == pytest.approx(2.0, rel=1e-14)


def test_roots_reject_degenerate_quadratic():
    with pytest.raises(ValueError, match="a_coeff"):
        martingale_roots(0.0, 1.0, 1.0)


def test_root_set_validates_residual():
    with pytest.raises(ValueError, match="residual"):
        RootSet(a_coeff=1.0, mu=-3.0, lambda_=2.0,
                roots_y=(0.5,), roots_expy=(math.exp(0.5),), no_equilibrium=False)


def test_root_set_to_dict():
    d = martingale_roots(1.0, -3.0, 2.0).to_dict()
    assert d["roots_expy"] == [1.0, 2.0]
    assert d["no_equilibrium"] is False


# ---------------------------------------------------------------------------
# gauge Hamiltonian martingale family
# ---------------------------------------------------------------------------

def test_gauge_sums_examples():
    one, other = gauge_martingale_sums(ModelParams(r=0.02, sigma=0.2))
    assert one == 1.0
    assert other == pytest.approx(-1.0, rel=1e-12)
    assert gauge_martingale_sums(ModelParams(r=0.0, sigma=0.3)) == (1.0, 0.0)
    one, other = gauge_martingale_sums(ModelParams(r=0.05, sigma=0.2))
    assert other == pytest.approx(-2.5, rel=1e-12)
    with pytest.raises(ValueError, match="sigma"):
        gauge_martingale_sums(ModelParams(sigma=0.0))


def test_gauge_quadratic_roots_and_factorization():
    p = ModelParams(r=0.05, sigma=0.2)
    assert gauge_quadratic(p, 1.0) == 0.0
    _, c2 = gauge_martingale_sums(p)
    assert abs(gauge_quadratic(p, c2)) < 1e-15
    for c in (-1.0, 0.5, 2.0, 3.7):
        sig2 = p.sigma ** 2
        factored = -0.5 * sig2 * (c - 1.0) * (c + 2.0 * p.r / sig2)
        assert gauge_quadratic(p, c) == pytest.approx(factored, rel=1e-12, abs=1e-18)


def test_gauge_residual_annihilated_pairs():
    p = ModelParams(r=0.05, sigma=0.2)
    fine = make_grid_2d(3.5, 5.5, 81, -4.0, -1.0, 41)
    for (a, b) in ((1.0, 0.0), (0.25, 0.75), (-1.0, -1.5)):
        coarse_res = gauge_martingale_residual(p, a, b, GRID)
        fine_res = gauge_martingale_residual(p, a, b, fine)
        assert coarse_res < 1e-3
        assert 3.5 < coarse_res / fine_res < 4.5


def test_gauge_residual_generic_pair():
    # a + b = 2 at r = 0.02: quadratic value -0.06, residual approaches 0.06
    p = ModelParams(r=0.02, sigma=0.2)
    res = gauge_martingale_residual(p, 1.2, 0.8, GRID)
    assert res == pytest.approx(0.06, abs=2e-4)
    assert res >= abs(gauge_quadratic(p, 2.0))


# ---------------------------------------------------------------------------
# coefficient audit
# ---------------------------------------------------------------------------

def test_volcoeff_four_blocks_agree_exactly():
    p = ModelParams(lambda_=0.02, mu=-0.3, zeta=0.3, alpha=1.0, rho=-0.3)
    rep = volcoeff_audit(p, GRID)
    for term in ("second_x", "first_x", "first_y", "cross_xy"):
        assert rep.deviations[term] == 0.0
    # leftover block differs by exactly e^y/2, largest at the top row
    assert rep.deviations["second_y"] == 0.5 * math.exp(-1.0)
    assert rep.second_y_matches_half_sig2
    assert rep.vol_vol_half is False


def test_volcoeff_alpha_does_not_matter():
    # substituted products collapse to e^y for any alpha, including 3/2
    for alpha in (0.8, 1.0, 1.5):
        rep = volcoeff_audit(ModelParams(zeta=0.5, alpha=alpha, rho=0.2), GRID)
        assert rep.deviations["cross_xy"] == 0.0
        assert rep.deviations["second_x"] == 0.0


def test_volcoeff_with_conventional_half():
    p = ModelParams(lambda_=0.02, mu=-0.3, zeta=0.3, alpha=1.0, rho=-0.3,
                    vol_vol_half=True)
    rep = volcoeff_audit(p, GRID)
    assert all(v == 0.0 for v in rep.deviations.values())
    assert not rep.second_y_matches_half_sig2
    assert rep.vol_vol_half is True
    d = rep.to_dict()
    assert d["vol_vol_half"] is True
    assert set(d["deviations"]) == {"second_x", "first_x", "first_y",
                                    "cross_xy", "second_y"}
