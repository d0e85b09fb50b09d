"""Closed forms, backward evolution, and the two PDE pricers."""

import functools
import itertools
import math
import os
import subprocess
import sys
import threading
import time
import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg.lapack import dgttrf, dgttrs

from gauge_hamilton import (
    EvolveError,
    FarFieldBoundary,
    GridFunction,
    InputError,
    LinearOperator,
    ModelParams,
    OptionContract,
    PriceSurface,
    bs_closed_form,
    bs_delta,
    build_bs_hamiltonian,
    build_gauge_hamiltonian,
    build_mg_hamiltonian,
    default_grid_1d,
    evolve,
    hamiltonian_terms,
    make_grid_1d,
    make_grid_2d,
    momentum_operator,
    price_bs,
    price_mg,
    simulate_mg,
    mc_price,
    beta_field,
    solve_mg,
    terminal_payoff,
)
from gauge_hamilton import pricing
from gauge_hamilton.pricing import (_band_dia, _band_solver, _dia_band, _relative_residual,
                                    _split_directions, _theta_band)

from dia_reference import csr_diagonals, identity_operator

P = ModelParams(r=0.05, sigma=0.2)
CALL = OptionContract("call", 100.0, 1.0)
PUT = OptionContract("put", 100.0, 1.0)

# benchmark value for r=0.05, sigma=0.2, K=S0=100, T=1
BENCHMARK_CALL = 10.450583572185565


def lognormal_expectation(params, contract, s0):
    """Independent price: discounted payoff integrated against the exact
    terminal density of geometric Brownian motion."""
    r, sig, t = params.r, params.sigma, contract.maturity
    m = math.log(s0) + (r - 0.5 * sig * sig) * t
    sd = sig * math.sqrt(t)

    def integrand(z):
        s = math.exp(m + sd * z)
        return float(contract.payoff(s)) * math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)

    # integrate each side of the payoff kink separately
    z_kink = (math.log(contract.strike) - m) / sd
    total, err_total = 0.0, 0.0
    for lo, hi in ((-12.0, z_kink), (z_kink, 12.0)):
        val, err = quad(integrand, lo, hi, limit=200)
        total += val
        err_total += err
    assert err_total < 1e-10
    return math.exp(-r * t) * total


# ---------------------------------------------------------------------------
# contracts and payoffs
# ---------------------------------------------------------------------------

def test_contract_payoff_examples():
    call = OptionContract("call", 42.0, 1.0)
    assert call.payoff(42.0) == 0.0
    assert call.payoff(47.0) == 5.0
    put = OptionContract("put", 50.0, 1.0)
    assert put.payoff(0.0) == 50.0
    np.testing.assert_array_equal(call.payoff([40.0, 42.0, 45.0]), [0.0, 0.0, 3.0])


def test_contract_validation():
    with pytest.raises(ValueError, match="kind"):
        OptionContract("straddle", 100.0, 1.0)
    with pytest.raises(ValueError, match="strike"):
        OptionContract("call", 0.0, 1.0)
    with pytest.raises(ValueError, match="maturity"):
        OptionContract("call", 100.0, 0.0)
    with pytest.raises(ValueError, match="premium"):
        OptionContract("call", 100.0, 1.0, premium=-1.0)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_contract_rejects_non_finite_strike(bad):
    # an infinite strike used to reach evolve and fail there with a NaN residual
    with pytest.raises(ValueError, match="strike must be positive and finite"):
        OptionContract("call", bad, 1.0)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_contract_rejects_non_finite_maturity(bad):
    # an infinite maturity used to fail late, with "grid bounds must be finite"
    with pytest.raises(ValueError, match="maturity must be positive and finite"):
        OptionContract("put", 100.0, bad)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_contract_rejects_non_finite_premium(bad):
    # NaN slipped past the sign check, and the holder's profit came out nan or -inf
    with pytest.raises(ValueError, match="premium must be nonnegative and finite"):
        OptionContract("call", 100.0, 1.0, premium=bad)


def test_terminal_payoff_grids():
    g = make_grid_1d(math.log(50.0), math.log(200.0), 41)
    f = terminal_payoff(CALL, g)
    np.testing.assert_allclose(f.values, np.maximum(np.exp(g.points) - 100.0, 0.0),
                               rtol=1e-15)
    g2 = make_grid_2d(math.log(50.0), math.log(200.0), 21, -4.0, -1.0, 11)
    f2 = terminal_payoff(CALL, g2).values2d
    assert np.array_equal(f2[:, 0], f2[:, -1])  # constant across variance


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_closed_form_benchmark_value():
    got = bs_closed_form(P, CALL, 100.0)
    assert got == pytest.approx(BENCHMARK_CALL, rel=1e-15)
    # and against a quadrature of the terminal density
    assert got == pytest.approx(lognormal_expectation(P, CALL, 100.0), abs=1e-9)


def test_closed_form_put_and_parity():
    call = bs_closed_form(P, CALL, 100.0)
    put = bs_closed_form(P, PUT, 100.0)
    assert put == pytest.approx(lognormal_expectation(P, PUT, 100.0), abs=1e-9)
    assert call - put == pytest.approx(100.0 - 100.0 * math.exp(-0.05), rel=1e-12)


def test_closed_form_zero_volatility():
    p0 = ModelParams(r=0.05, sigma=0.0)
    itm = OptionContract("call", 90.0, 1.0)
    assert bs_closed_form(p0, itm, 100.0) == 100.0 - 90.0 * math.exp(-0.05)
    assert bs_closed_form(p0, OptionContract("put", 90.0, 1.0), 100.0) == 0.0
    # continuous in sigma at the limit
    tiny = bs_closed_form(ModelParams(r=0.05, sigma=1e-8), itm, 100.0)
    assert tiny == pytest.approx(100.0 - 90.0 * math.exp(-0.05), rel=1e-9)


def test_closed_form_validates_spot():
    with pytest.raises(ValueError, match="s0"):
        bs_closed_form(P, CALL, 0.0)


def test_delta_properties():
    d_call = bs_delta(P, CALL, 100.0, 1.0)
    assert 0.0 < d_call < 1.0
    assert bs_delta(P, PUT, 100.0, 1.0) == d_call - 1.0
    p0 = ModelParams(r=0.05, sigma=0.0)
    assert bs_delta(p0, CALL, 100.0, 1.0) == 1.0   # forward in the money
    assert bs_delta(p0, CALL, 90.0, 1.0) == 0.0
    with pytest.raises(ValueError, match="tau"):
        bs_delta(P, CALL, 100.0, 0.0)


# ---------------------------------------------------------------------------
# backward evolution
# ---------------------------------------------------------------------------

# the far-field faces of the evolve tests on small boxes
FAR_FIELD = FarFieldBoundary(CALL, P.r)


def test_evolve_pure_discounting():
    # H = r I has the exact solution e^{-r T} inside the box; trapezoidal
    # stepping with no startup damping reproduces it to 1e-10
    g = make_grid_1d(0.0, 1.0, 11)
    h = identity_operator(g) * 0.07
    surf = evolve(h, GridFunction(g, np.ones(11)), maturity=2.0,
                  n_steps=10_000, boundary=FAR_FIELD, rannacher=0)
    assert np.abs(surf.values[1:-1] - math.exp(-0.14)).max() < 1e-10


def test_evolve_validation():
    g = make_grid_1d(0.0, 1.0, 11)
    h = identity_operator(g)
    ones = GridFunction(g, np.ones(11))
    with pytest.raises(ValueError, match="grid mismatch"):
        evolve(h, GridFunction(make_grid_1d(0.0, 2.0, 11), np.ones(11)), 1.0, 10,
               boundary=FAR_FIELD)
    with pytest.raises(ValueError, match="n_steps"):
        evolve(h, ones, 1.0, 0, boundary=FAR_FIELD)
    # theta is 1/2 or 1: True used to run theta = 1, and 0.0 and 0.75 the
    # explicit and first-order schemes
    for bad in (1.5, True, math.nan, 0.75, 0.5000001, 0.0):
        with pytest.raises(InputError, match=rf"^theta_scheme must be 0.5 or 1, got {bad}$"):
            evolve(h, ones, 1.0, 10, theta_scheme=bad, boundary=FAR_FIELD)
    for good in (1, np.float64(0.5), np.float32(1.0)):   # ints and numpy floats equal to them
        evolve(h, ones, 1.0, 10, theta_scheme=good, boundary=FAR_FIELD)
    with pytest.raises(ValueError, match="maturity"):
        evolve(h, ones, -1.0, 10, boundary=FAR_FIELD)


def test_evolve_1d_requires_a_boundary():
    # the boundary-free 1D step is gone: boundary is a required keyword, so
    # a call without one fails in Python's call check, on either grid
    g = make_grid_1d(0.0, 1.0, 11)
    message = "missing 1 required keyword-only argument: 'boundary'$"
    with pytest.raises(TypeError, match=message):
        evolve(identity_operator(g), GridFunction(g, np.ones(11)), 1.0, 10)
    with pytest.raises(TypeError, match=message):
        evolve(build_mg_hamiltonian(ADI_P, ADI_GRID), terminal_payoff(CALL, ADI_GRID), 1.0, 10)


@pytest.mark.parametrize("field, bad", [("n_steps", 10.0), ("n_steps", 0), ("n_steps", True),
                                        ("rannacher", -1), ("rannacher", 2.5),
                                        ("rannacher", True)])
def test_evolve_step_counts_must_be_integers(field, bad):
    # rannacher = -1, 2.5 and True used to run 0, 3 and 1 startup steps, and
    # n_steps = 10.0 failed with a TypeError from range
    g = make_grid_1d(0.0, 1.0, 11)
    kwargs = dict(n_steps=10, rannacher=2, boundary=FAR_FIELD)
    kwargs[field] = bad
    least = 1 if field == "n_steps" else 0
    with pytest.raises(ValueError, match=rf"^{field} must be an integer >= {least}, got {bad}$"):
        evolve(identity_operator(g), GridFunction(g, np.ones(11)), 1.0, **kwargs)
    kwargs[field] = np.int64(3)   # numpy integers are integers
    evolve(identity_operator(g), GridFunction(g, np.ones(11)), 1.0, **kwargs)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_far_field_boundary_rejects_non_finite_rate(bad):
    # a NaN rate used to surface as a NaN residual at step 1, naming neither
    # the boundary nor the rate
    with pytest.raises(ValueError, match=rf"^rate must be finite, got {bad}$"):
        FarFieldBoundary(CALL, bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_evolve_names_non_finite_maturity(bad):
    # used to fail late, with "Factor is exactly singular"
    g = make_grid_1d(0.0, 1.0, 11)
    with pytest.raises(ValueError, match="maturity must be positive and finite"):
        evolve(identity_operator(g), GridFunction(g, np.ones(11)), bad, 10,
               boundary=FAR_FIELD)


def test_evolve_singular_system():
    # I + theta dt H collapses to zero inside the box for H = -2I, dt = 1:
    # gttrf meets a zero pivot in the first row after the pinned end row
    g = make_grid_1d(0.0, 1.0, 11)
    h = identity_operator(g) * -2.0
    with pytest.raises(EvolveError, match="factorization failed: zero pivot in row 2$"):
        evolve(h, GridFunction(g, np.ones(11)), 1.0, 1, theta_scheme=0.5,
               boundary=FAR_FIELD, rannacher=0)


def test_evolve_keeps_two_slices():
    g = make_grid_1d(0.0, 1.0, 11)
    h = identity_operator(g) * 0.05
    surf = evolve(h, GridFunction(g, np.ones(11)), 1.0, 4, boundary=FAR_FIELD)
    assert surf.dt == 0.25
    assert surf.prev_values is not None
    # previous slice sits one step closer to maturity, so it is larger
    # inside the box
    assert np.all(surf.prev_values[1:-1] > surf.values[1:-1])


# ---------------------------------------------------------------------------
# Black-Scholes PDE pricing
# ---------------------------------------------------------------------------

def test_pde_matches_closed_form():
    got = price_bs(P, CALL, 100.0)
    assert abs(got - BENCHMARK_CALL) / BENCHMARK_CALL < 2e-4


def test_pde_put_call_parity():
    call = price_bs(P, CALL, 100.0)
    put = price_bs(P, PUT, 100.0)
    gap = call - put - (100.0 - 100.0 * math.exp(-0.05))
    assert abs(gap) < 1e-3


def test_pde_second_order_convergence():
    # strike at a grid node so the payoff kink does not pollute the order
    w = 5 * 0.2
    def err(n, steps):
        grid = make_grid_1d(math.log(100.0) - w, math.log(100.0) + w, n)
        return abs(price_bs(P, CALL, 100.0, grid=grid, n_steps=steps) - BENCHMARK_CALL)
    ratio = err(201, 100) / err(401, 200)
    assert 3.0 < ratio < 5.0


def test_pde_call_monotone_in_price():
    g = default_grid_1d(100.0, 0.2, 1.0, n=201)
    surf = evolve(build_bs_hamiltonian(P, g), terminal_payoff(CALL, g), 1.0, 100,
                  boundary=FarFieldBoundary(CALL, P.r))
    assert np.all(np.diff(surf.values) >= -1e-9)


def test_pde_implicit_euler_stays_nonnegative():
    g = default_grid_1d(100.0, 0.2, 1.0, n=201)
    surf = evolve(build_bs_hamiltonian(P, g), terminal_payoff(CALL, g), 1.0, 100,
                  theta_scheme=1.0, boundary=FarFieldBoundary(CALL, P.r))
    assert surf.values.min() > -1e-12


def test_far_field_values():
    g = default_grid_1d(100.0, 0.2, 1.0, n=21)
    lo, hi = FarFieldBoundary(CALL, 0.05).x_values(g, 1.0)
    assert lo == 0.0
    assert hi == pytest.approx(math.exp(g.x_max) - 100.0 * math.exp(-0.05), rel=1e-12)
    lo_p, hi_p = FarFieldBoundary(PUT, 0.05).x_values(g, 1.0)
    assert hi_p == 0.0
    assert lo_p == pytest.approx(100.0 * math.exp(-0.05) - math.exp(g.x_min), rel=1e-12)


# ---------------------------------------------------------------------------
# surfaces
# ---------------------------------------------------------------------------

def test_surface_interpolation():
    g = make_grid_1d(0.0, 1.0, 11)
    surf = PriceSurface(g, g.points ** 2, g.points ** 2, 0.1)
    assert surf.interpolate(0.5) == pytest.approx(0.25, abs=1e-12)
    assert surf.interpolate(0.55) == pytest.approx((0.25 + 0.36) / 2, abs=1e-12)
    with pytest.raises(ValueError, match="outside"):
        surf.interpolate(1.5)
    g2 = make_grid_2d(0.0, 1.0, 5, 0.0, 1.0, 5)
    surf2 = PriceSurface(g2, g2.xs + g2.ys, g2.xs + g2.ys, 0.1)
    assert surf2.interpolate(0.3, 0.4) == pytest.approx(0.7, abs=1e-12)
    with pytest.raises(ValueError, match="both x and y"):
        surf2.interpolate(0.3)
    with pytest.raises(ValueError, match="outside"):
        surf2.interpolate(0.3, 2.0)


def test_surface_validation():
    g = make_grid_1d(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="finite"):
        PriceSurface(g, np.array([1.0, np.nan, 1.0, 1.0, 1.0]), np.ones(5), 0.1)
    with pytest.raises(TypeError):
        PriceSurface(g, np.ones(5), np.ones(5), 0.1).values2d


def test_surface_checks_the_previous_slice_and_the_step():
    # a previous slice of the wrong shape used to be accepted and fail later
    # in beta_field with numpy's broadcast error, naming no field
    g = make_grid_2d(3.5, 5.5, 21, -4.0, -1.0, 11)
    v = np.ones(g.n_points)
    assert g.n_points == 231
    for prev in (np.ones(5), np.full(g.n_points, np.nan), np.full(g.n_points, np.inf)):
        with pytest.raises(ValueError, match="prev_values"):
            PriceSurface(g, v, prev_values=prev, dt=0.1)
    for dt in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            PriceSurface(g, v, prev_values=v, dt=dt)
    with pytest.raises(ValueError, match=r"prev_values: values must have shape \(231,\)"):
        PriceSurface(g, v, prev_values=2.0 * v.reshape(g.shape), dt=0.1)


# ---------------------------------------------------------------------------
# Merton-Garman pricing
# ---------------------------------------------------------------------------

@settings(max_examples=6, deadline=None)
@given(s0=st.floats(20.0, 500.0), moneyness=st.floats(0.85, 1.2), v0=st.floats(0.04, 0.16),
       maturity=st.floats(0.5, 2.0), r=st.floats(0.0, 0.08))
@example(s0=100.0, moneyness=1.0, v0=0.04, maturity=1.0, r=0.05)
def test_mg_degenerate_matches_bs(s0, moneyness, v0, maturity, r):
    # frozen variance: zeta = lambda = mu = 0 prices like Black-Scholes with
    # sigma = sqrt(v0).  The worst corner measured, v0 0.04, T 0.5, r 0,
    # K/s0 1.2, errs by 1.47e-3
    call = OptionContract("call", moneyness * s0, maturity)
    got = price_mg(ModelParams(r=r, zeta=0.0, lambda_=0.0, mu=0.0), call, s0, v0)
    closed = bs_closed_form(ModelParams(r=r, sigma=math.sqrt(v0)), call, s0)
    assert abs(got - closed) / closed < 2e-3


def test_mg_deep_in_the_money():
    pm = ModelParams(r=0.05, lambda_=0.01, mu=-0.5, zeta=0.5, alpha=1.0, rho=-0.5)
    got = price_mg(pm, OptionContract("call", 1e-8, 1.0), 100.0, 0.04)
    assert abs(got - 100.0) / 100.0 < 5e-3


def test_mg_agrees_with_simulation():
    # generator-consistent diffusion (the conventional 1/2) so the operator
    # prices the same dynamics the sampler integrates
    pm = ModelParams(r=0.05, phi=0.05, lambda_=0.01, mu=-0.5, zeta=0.5,
                     alpha=1.0, rho=-0.5, vol_vol_half=True)
    pde = price_mg(pm, CALL, 100.0, 0.04)
    ens = simulate_mg(pm, 100.0, 0.04, 1.0, n_steps=150, n_paths=60_000, seed=11)
    mc, se = mc_price(ens, CALL, 0.05)
    assert abs(pde - mc) <= 3.0 * se


def test_mg_surface_carries_time_slices():
    pm = ModelParams(r=0.05, zeta=0.3, lambda_=0.02, mu=-0.3, rho=-0.3)
    g = make_grid_2d(math.log(100.0) - 1.0, math.log(100.0) + 1.0, 41,
                     math.log(0.04) - 2.0, math.log(0.04) + 1.0, 21)
    surf = solve_mg(pm, CALL, g, n_steps=20)
    assert surf.dt == pytest.approx(0.05)
    assert surf.prev_values.shape == surf.values.shape


def test_price_bs_put_outside_the_box_names_its_bound():
    # strike 50 lies beyond the given box (the default one, which price_bs
    # widens only when it makes the grid itself); the far-field put value
    # drives the price slightly negative
    p = ModelParams(r=0.0, sigma=0.05)
    with pytest.raises(EvolveError, match=r"put price .* no-arbitrage box \[0, K e\^\{-rT\} = 50.0\]"):
        price_bs(p, OptionContract("put", 50.0, 3.0), 100.0,
                 grid=default_grid_1d(100.0, 0.05, 3.0))


# the corners of a scan of K 50-200, sigma 0.05-0.4, T 0.1-3, r 0-0.05 at s0
# 100, where the strike of many contracts lies beyond the 5 sigma sqrt(T) box
@pytest.mark.parametrize("kind", ["call", "put"])
@pytest.mark.parametrize("strike", [50.0, 200.0])
@pytest.mark.parametrize("sigma", [0.05, 0.4])
@pytest.mark.parametrize("maturity", [0.1, 3.0])
@pytest.mark.parametrize("r", [0.0, 0.05])
def test_price_bs_default_box_covers_the_strike(kind, strike, sigma, maturity, r):
    p, c = ModelParams(r=r, sigma=sigma), OptionContract(kind, strike, maturity)
    g = default_grid_1d(100.0, sigma, maturity)
    margin = sigma * math.sqrt(maturity)
    covered = g.x_min + margin <= math.log(strike) <= g.x_max - margin
    # price_bs raises EvolveError if the price leaves the no-arbitrage box
    assert abs(price_bs(p, c, 100.0) - bs_closed_form(p, c, 100.0)) <= 2e-3
    if covered:
        assert price_bs(p, c, 100.0) == price_bs(p, c, 100.0, grid=g)


@settings(max_examples=60, deadline=None)
@given(sigma=st.floats(0.1, 0.4), maturity=st.floats(0.1, 2.0), r=st.floats(0.0, 0.08),
       moneyness=st.floats(0.85, 1.2), s0=st.floats(20.0, 500.0),
       sigma2=st.floats(0.1, 0.4), moneyness2=st.floats(0.85, 1.2))
def test_price_bs_parity_and_bounds(sigma, maturity, r, moneyness, s0, sigma2, moneyness2):
    p = ModelParams(r=r, sigma=sigma)
    strike = moneyness * s0
    call = price_bs(p, OptionContract("call", strike, maturity), s0)
    put = price_bs(p, OptionContract("put", strike, maturity), s0)
    pv_strike = strike * math.exp(-r * maturity)
    assert abs(call - put - (s0 - pv_strike)) <= 1e-3
    assert max(s0 - pv_strike, 0.0) <= call <= s0
    # calls fall as K rises and rise with sigma, on each pair whose closed
    # forms differ by more than twice the PDE's error; that error is at most
    # 2.5e-3 per 100 of spot here (2.2e-3 measured at sigma 0.4, T 2, K = s0)
    tol = 2.5e-5 * s0
    lo_k, hi_k = sorted((moneyness, moneyness2))
    lo_sigma, hi_sigma = sorted((sigma, sigma2))
    at_strike = OptionContract("call", strike, maturity)
    for cheap, dear in (((p, OptionContract("call", hi_k * s0, maturity)),
                         (p, OptionContract("call", lo_k * s0, maturity))),
                        ((ModelParams(r=r, sigma=lo_sigma), at_strike),
                         (ModelParams(r=r, sigma=hi_sigma), at_strike))):
        if bs_closed_form(*dear, s0) - bs_closed_form(*cheap, s0) > 2.0 * tol:
            assert price_bs(*cheap, s0) < price_bs(*dear, s0)


def test_price_mg_validates_spot_and_variance():
    with pytest.raises(ValueError):
        price_mg(ModelParams(r=0.05), CALL, -1.0, 0.04)
    with pytest.raises(ValueError):
        price_mg(ModelParams(r=0.05), CALL, 100.0, 0.0)


# ---------------------------------------------------------------------------
# 2D ADI stepping
# ---------------------------------------------------------------------------

# the grid and model of the two-option hedge tests, with the generator's 1/2
ADI_GRID = make_grid_2d(math.log(100.0) - 1.0, math.log(100.0) + 1.0, 41,
                        math.log(0.04) - 2.0, math.log(0.04) + 1.0, 21)
ADI_P = ModelParams(r=0.04, lambda_=0.02, mu=-0.3, zeta=0.3, alpha=1.0, rho=-0.3,
                    vol_vol_half=True)


def test_evolve_2d_validation():
    payoff = terminal_payoff(CALL, ADI_GRID)
    h = build_mg_hamiltonian(ADI_P, ADI_GRID)
    with pytest.raises(TypeError, match="boundary"):
        evolve(h, payoff, 1.0, 10)
    # the factored form reaches two points along each axis: no tridiagonal sweep
    wide = build_gauge_hamiltonian(ADI_P, ADI_GRID, form="factored")
    with pytest.raises(ValueError, match="three-point stencils"):
        evolve(wide, payoff, 1.0, 10, boundary=FarFieldBoundary(CALL, ADI_P.r))


@pytest.mark.parametrize("model", ["mg", "gauge"])
def test_direction_split_matches_named_terms(model):
    params = ModelParams(r=0.05, sigma=0.3, lambda_=0.02, mu=-0.3, zeta=0.4,
                         alpha=0.8, rho=-0.6)
    if model == "mg":
        h = build_mg_hamiltonian(params, ADI_GRID)
    else:
        h = build_gauge_hamiltonian(params, ADI_GRID, form="expanded")
    t = {name: op.matrix for name, op in hamiltonian_terms(params, ADI_GRID, model).items()}
    a1, a2, a0 = _split_directions(h)
    rows = np.flatnonzero(ADI_GRID.interior_mask(1))
    expected = (-(t["second_x"] + t["first_x"]) - 0.5 * t["potential"],
                -(t["second_y"] + t["first_y"]) - 0.5 * t["potential"],
                -t["cross_xy"])
    for got, want in zip((a1, a2, a0), expected):
        scale = np.abs(want[rows]).max()
        assert np.abs((got - want)[rows]).max() <= 1e-13 * scale


@settings(max_examples=40, deadline=None)
@example(model="mg", alpha=0.8, rho=-0.6, vol_vol_half=False, nx=41, ny=21, seed=0)
@example(model="gauge", alpha=0.8, rho=-0.6, vol_vol_half=False, nx=41, ny=21, seed=0)
@given(model=st.sampled_from(["mg", "gauge"]), alpha=st.floats(0.3, 1.5),
       rho=st.one_of(st.just(0.0), st.floats(-0.95, 0.95)), vol_vol_half=st.booleans(),
       nx=st.integers(5, 40), ny=st.integers(5, 24), seed=st.integers(0, 2 ** 32 - 1))
def test_direction_split_matches_named_terms_generated(model, alpha, rho, vol_vol_half, nx,
                                                      ny, seed):
    params = ModelParams(r=0.05, sigma=0.3, lambda_=0.02, mu=-0.3, zeta=0.4,
                         alpha=alpha, rho=rho, vol_vol_half=vol_vol_half)
    grid = make_grid_2d(math.log(100.0) - 1.0, math.log(100.0) + 1.0, nx,
                        math.log(0.04) - 2.0, math.log(0.04) + 1.0, ny)
    if model == "mg":
        h = build_mg_hamiltonian(params, grid)
    else:
        h = build_gauge_hamiltonian(params, grid, form="expanded")
    t = {name: op.matrix for name, op in hamiltonian_terms(params, grid, model).items()}
    a1, a2, a0 = _split_directions(h)
    inner = grid.interior_mask(1)
    rows = np.flatnonzero(inner)
    expected = (-(t["second_x"] + t["first_x"]) - 0.5 * t["potential"],
                -(t["second_y"] + t["first_y"]) - 0.5 * t["potential"],
                -t["cross_xy"])
    u = np.random.default_rng(seed).standard_normal(grid.n_points)
    # the potential A1 and A2 share is what is left of H's diagonal: a
    # difference of numbers as large as H's largest entry
    scale = np.abs(h.matrix[rows]).max()
    for got, want in zip((a1, a2, a0), expected):
        # diagonals, offsets ascending, so each row sums in column order
        assert isinstance(got, sp.dia_matrix) and np.all(np.diff(got.offsets) > 0)
        assert np.abs((got - want)[rows]).max() <= 1e-13 * scale
        # the product on the kept rows; the face rows are left zero
        product = got @ u
        assert np.abs(product - want @ u)[rows].max() <= 1e-12 * scale * np.abs(u).max()
        assert not product[~inner].any()
    # each sweep reads only its own direction: A1 couples the points of an
    # x-line (offsets a multiple of ny), A2 those of a y-line
    assert np.all(a1.offsets % ny == 0) and np.all(np.abs(a2.offsets) < ny)


def test_mg_adi_second_order_in_time():
    call = OptionContract("call", 100.0, 1.0)
    ref = solve_mg(ADI_P, call, ADI_GRID, n_steps=2560).values
    err = [np.abs(solve_mg(ADI_P, call, ADI_GRID, n_steps=n).values - ref).max()
           for n in (20, 40, 80)]
    assert 3.5 <= err[0] / err[1] <= 4.5
    assert 3.5 <= err[1] / err[2] <= 4.5


def test_mg_surface_previous_slice_is_one_step_back():
    # beta_field reads dC/dt off (prev_values - values) / dt
    call = OptionContract("call", 100.0, 1.0)
    h = build_mg_hamiltonian(ADI_P, ADI_GRID)
    surf = solve_mg(ADI_P, call, ADI_GRID, n_steps=20)
    shorter = evolve(h, terminal_payoff(call, ADI_GRID), 0.95, 19,
                     boundary=FarFieldBoundary(call, ADI_P.r))
    assert surf.dt == pytest.approx(0.05, rel=1e-15)
    assert shorter.dt == pytest.approx(surf.dt, rel=1e-15)
    assert np.abs(surf.prev_values - shorter.values).max() <= 1e-12 * np.abs(surf.values).max()


# ---------------------------------------------------------------------------
# theta-step systems
# ---------------------------------------------------------------------------

def projector_systems(m, theta, dt, replaced):
    """The theta-step matrices as sparse sums and projector products, the
    ``replaced`` rows of both made identity rows: the construction the band
    assembly replaces, kept as its reference."""
    n = m.shape[0]
    identity = sp.identity(n, format="csr")
    a = identity + (theta * dt) * m
    b = identity - ((1.0 - theta) * dt) * m
    if replaced is not None:
        keep = np.ones(n)
        keep[replaced] = 0.0
        projector = sp.diags(keep, format="csr")
        pinned = sp.csr_matrix((np.ones(replaced.size), (replaced, replaced)), shape=(n, n))
        a = projector @ a + pinned
        b = projector @ b + pinned
    return a.tocsr(), b.tocsr()


def band_storage(m, replaced=()):
    """M in LAPACK band storage as the band stepper reads it: its diagonals
    without the ``replaced`` rows, as a 3 x n band."""
    rows = np.ones(m.shape[0], dtype=bool)
    rows[list(replaced)] = False
    return _dia_band(*csr_diagonals(m, rows))


def reference_band_storage(m, replaced=()):
    """The band reader that the shared diagonal reader replaced, kept as its
    reference: a non-canonical matrix summed in a copy, then each live entry
    (i, j) stored at [ku + i - j, j]."""
    n = m.shape[0]
    if not m.has_canonical_format:
        m = m.copy()
        m.sum_duplicates()
    rows = np.repeat(np.arange(n), np.diff(m.indptr))
    steps = m.indices - rows
    live = np.ones(n, dtype=bool)
    live[np.asarray(replaced, dtype=np.intp)] = False
    live = live[rows] & (m.data != 0.0)
    steps = steps[live]
    kl = max(1, -int(steps.min(initial=0)))
    ku = max(1, int(steps.max(initial=0)))
    band = np.zeros((kl + ku + 1, n), order="F")
    band[ku - steps, m.indices[live]] = m.data[live]
    return band, kl, ku


def band_systems(m, theta, dt, replaced=()):
    """The two sides of a 1D theta step as the band stepper assembles them:
    the bands of I + theta dt M and of I - (1-theta) dt M, the ``replaced``
    rows identity rows in both."""
    stored = band_storage(m, replaced)
    return _theta_band(stored, theta * dt), _theta_band(stored, -((1.0 - theta) * dt))


def band_to_dense(band):
    n = band.shape[1]
    dense = np.zeros((n, n))
    for k in (-1, 0, 1):
        rows = np.arange(max(0, -k), n - max(0, k))
        dense[rows, rows + k] = band[1 - k, rows + k]
    return dense


def assert_same_csr(got, want):
    """Equal values on an equal pattern; ``got`` sorted and free of zeros."""
    want = want.sorted_indices()
    assert got.has_sorted_indices and np.all(got.data != 0.0)
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.data, want.data)


THETA_GRID = make_grid_1d(3.5, 5.5, 41)


def tridiagonal(grid, below, main, above):
    """The operator on a 1D grid with constant diagonals below, on and above
    the main one: its end rows stay inside the band, as if the stencil's
    neighbours past the ends were zero."""
    data = np.array([np.full(grid.n, v) for v in (below, main, above)])
    data[0, -1] = data[2, 0] = 0.0   # the slots outside the matrix
    return LinearOperator(grid, (np.arange(-1, 2), data))


def zero_padded_bs(grid):
    """The Black-Scholes stencil -(sigma^2/2) d2 + (sigma^2/2 - r) d1 + r on
    every row, the end rows too."""
    half, invh2, inv2h = 0.5 * P.sigma ** 2, 1.0 / grid.h ** 2, 0.5 / grid.h
    return tridiagonal(grid, -half * invh2 - (half - P.r) * inv2h, 2.0 * half * invh2 + P.r,
                       -half * invh2 + (half - P.r) * inv2h)


def zero_padded_momentum(grid):
    """0.3 d/dx, central on every row: no row holds a diagonal entry."""
    return tridiagonal(grid, -0.3 * 0.5 / grid.h, 0.0, 0.3 * 0.5 / grid.h)


THETA_OPERATORS = {"bs": lambda: build_bs_hamiltonian(P, THETA_GRID),
                   "bs-zero-padded": lambda: zero_padded_bs(THETA_GRID),
                   "momentum": lambda: zero_padded_momentum(THETA_GRID),
                   "zero": lambda: identity_operator(THETA_GRID) * 0.0}


@pytest.mark.parametrize("operator", THETA_OPERATORS)
@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("with_boundary", [False, True])
def test_theta_systems_match_projector_construction(operator, theta, with_boundary):
    h = THETA_OPERATORS[operator]().matrix
    dt = 0.01
    replaced = np.array([0, THETA_GRID.n - 1]) if with_boundary else None
    if operator == "bs" and not with_boundary:
        # the one-sided end rows reach three columns: no tridiagonal system
        with pytest.raises(ValueError, match="three-point stencils"):
            band_systems(h, theta, dt)
        return
    bands = band_systems(h, theta, dt, () if replaced is None else replaced)
    for band, want in zip(bands, projector_systems(h, theta, dt, replaced), strict=True):
        # every entry bit for bit, zeros as +0
        assert band.flags.f_contiguous and band.shape == (3, THETA_GRID.n)
        np.testing.assert_array_equal(band_to_dense(band).view(np.int64),
                                      want.toarray().view(np.int64))


def test_theta_band_stores_cancelled_diagonal_as_plus_zero():
    # 1 + s m_ii = 0 exactly: I + s M stores no entry there, the band a +0
    m = sp.csr_matrix(np.array([[2.0, 1.0], [0.0, 4.0]]))
    want = sp.identity(2, format="csr") + (-0.5) * m
    assert want.nnz == 2
    band = _theta_band(band_storage(m), -0.5)
    np.testing.assert_array_equal(band_to_dense(band).view(np.int64),
                                  want.toarray().view(np.int64))


def test_evolve_steps_operator_without_stored_diagonal():
    # a 1D theta step on H = 0.3 d/dx (central on every row): I + s H needs
    # its whole diagonal inserted, which must not go through a
    # SparseEfficiencyWarning
    g = make_grid_1d(0.0, 1.0, 21)
    h = zero_padded_momentum(g)
    assert not h.matrix.diagonal().any()
    u0 = np.sin(np.pi * g.points)
    dense = h.matrix.toarray()
    boundary = FarFieldBoundary(CALL, 0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        surf = evolve(h, GridFunction(g, u0), 0.5, 5, theta_scheme=1.0, boundary=boundary)
    want = u0.copy()
    a = np.eye(g.n) + 0.1 * dense
    a[[0, -1]] = np.eye(g.n)[[0, -1]]
    for step in range(5):
        rhs = want.copy()
        rhs[[0, -1]] = boundary.x_values(g, 0.1 * (step + 1))
        want = np.linalg.solve(a, rhs)
    np.testing.assert_allclose(surf.values, want, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# 1D theta steps on LAPACK band factors
# ---------------------------------------------------------------------------

def dense_theta_steps(h, u0, maturity, n_steps, theta, boundary):
    """evolve's 1D stepping (two implicit startup steps) with dense matrices
    and np.linalg.solve."""
    g, dt = h.grid, maturity / n_steps
    m, eye = h.matrix.toarray(), np.eye(h.grid.n)
    values = u0.copy()
    for step in range(n_steps):
        th = 1.0 if step < 2 else theta
        a, b = eye + th * dt * m, eye - (1.0 - th) * dt * m
        rhs = b @ values
        a[[0, -1]] = eye[[0, -1]]
        rhs[[0, -1]] = boundary.x_values(g, (step + 1) * dt)
        values = np.linalg.solve(a, rhs)
    return values


def superlu_theta_steps(h, u0, maturity, n_steps, theta, boundary):
    """The 1D stepping evolve did before the band factors: the same systems,
    one SuperLU factor per theta, kept as a reference."""
    g, dt = h.grid, maturity / n_steps
    replaced = np.array([0, g.n - 1])
    systems = {}
    values = u0.copy()
    for step in range(n_steps):
        th = 1.0 if step < 2 else theta
        if th not in systems:
            a, b = projector_systems(h.matrix, th, dt, replaced)
            systems[th] = b, spla.splu(a.tocsc())
        b, lu = systems[th]
        rhs = b @ values
        rhs[[0, -1]] = boundary.x_values(g, (step + 1) * dt)
        values = lu.solve(rhs)
    return values


BS_STEP_CASES = dict(
    sigma=st.floats(0.05, 0.5),
    r=st.floats(0.0, 0.1),
    theta=st.sampled_from([0.5, 1.0]),
    kind=st.sampled_from(["call", "put"]),
)


@settings(max_examples=40, deadline=None)
@given(**BS_STEP_CASES, n=st.integers(11, 81), dt=st.floats(1e-3, 0.05),
       n_steps=st.integers(1, 6))
def test_1d_theta_steps_match_dense_solves(sigma, r, theta, kind, n, dt, n_steps):
    params, contract = ModelParams(r=r, sigma=sigma), OptionContract(kind, 100.0, 1.0)
    g = default_grid_1d(100.0, sigma, 1.0, n=n)
    h = build_bs_hamiltonian(params, g)
    u0, boundary = terminal_payoff(contract, g), FarFieldBoundary(contract, r)
    got = evolve(h, u0, n_steps * dt, n_steps, theta, boundary=boundary).values
    want = dense_theta_steps(h, u0.values, n_steps * dt, n_steps, theta, boundary)
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@settings(max_examples=20, deadline=None)
@given(**BS_STEP_CASES, maturity=st.floats(0.1, 3.0), moneyness=st.floats(0.8, 1.2))
def test_1d_theta_steps_match_superlu_stepping(sigma, r, theta, kind, maturity, moneyness):
    params = ModelParams(r=r, sigma=sigma)
    contract = OptionContract(kind, 100.0 * moneyness, maturity)
    g = default_grid_1d(100.0, sigma, maturity)
    assert g.n == 401
    h, boundary = build_bs_hamiltonian(params, g), FarFieldBoundary(contract, r)
    u0 = terminal_payoff(contract, g)
    got = evolve(h, u0, maturity, 200, theta, boundary=boundary).values
    want = superlu_theta_steps(h, u0.values, maturity, 200, theta, boundary)
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def offset_solution(solve):
    return lambda rhs: solve(rhs) + 1e-6


def nan_solution(solve):
    return lambda rhs: np.full_like(solve(rhs), np.nan)


def spoil_solves(monkeypatch, spoil, every=1):
    """Spoil the solve of every ``every``-th system that evolve factors: each
    solve that _band_solver returns, whole or split, goes through ``spoil``."""
    band_solver, made = pricing._band_solver, itertools.count(1)

    def spoiled(*args):
        solve = band_solver(*args)
        return spoil(solve) if next(made) % every == 0 else solve
    monkeypatch.setattr(pricing, "_band_solver", spoiled)


def force_split(monkeypatch, split):
    """Cut every 2D sweep system in two, or none, whatever the grid's size and
    the CPUs available."""
    monkeypatch.setattr(pricing, "_cpu_count", lambda: 2 if split else 1)
    monkeypatch.setattr(pricing, "SPLIT_MIN_ROWS", 0)


def bs_call_1d():
    g = default_grid_1d(100.0, 0.2, 1.0, n=401)
    return build_bs_hamiltonian(P, g), terminal_payoff(CALL, g), FarFieldBoundary(CALL, P.r)


def mg_call_2d():
    return (build_mg_hamiltonian(ADI_P, ADI_GRID), terminal_payoff(CALL, ADI_GRID),
            FarFieldBoundary(CALL, ADI_P.r))


# each stepping path, a problem it steps, and whether its 2D sweep systems
# are cut in two and solved on two threads
STEP_PATHS = {
    "tridiagonal": (bs_call_1d, False),
    "adi": (mg_call_2d, False),
    "adi-split": (mg_call_2d, True),
}


@pytest.mark.parametrize("spoil", [offset_solution, nan_solution])
@pytest.mark.parametrize("path", list(STEP_PATHS))
def test_step_residual_check_fires(monkeypatch, spoil, path):
    problem, split = STEP_PATHS[path]
    force_split(monkeypatch, split)
    h, u0, boundary = problem()
    evolve(h, u0, 1.0, 10, boundary=boundary)   # passes unspoiled
    spoil_solves(monkeypatch, spoil)
    with pytest.raises(EvolveError, match=r"linear solve at step 1/10 has relative residual"):
        evolve(h, u0, 1.0, 10, boundary=boundary)


def one_entry_solution(value, position):
    """Spoil a solve so that its solution holds ``value`` at one position."""
    def spoil(solve):
        def solve_one(rhs):
            x = solve(rhs)
            x[x.size // 2 if position == "middle" else position] = value
            return x
        return solve_one
    return spoil


@pytest.mark.parametrize("position", [0, "middle", -1])
@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("path", list(STEP_PATHS))
def test_step_residual_check_sees_one_non_finite_entry(monkeypatch, path, value, position):
    # one bad entry in a long solution: a max|r| that skipped it would pass
    problem, split = STEP_PATHS[path]
    force_split(monkeypatch, split)
    h, u0, boundary = problem()
    assert u0.values.size >= 401
    spoil_solves(monkeypatch, one_entry_solution(value, position))
    rel = "inf" if value == math.inf else "nan"
    with pytest.raises(EvolveError, match=rf"^linear solve at step 1/10 has relative residual "
                                          rf"{rel} \(tolerance 1e-10\)$"):
        evolve(h, u0, 1.0, 10, boundary=boundary)


def test_adi_steps_make_no_csr_product(monkeypatch):
    # -H is read once, as diagonals: the explicit products and the sweep
    # residuals are DIA products, and no matrix is converted to CSR
    h, u0, boundary = mg_call_2d()
    want = evolve(h, u0, 1.0, 10, boundary=boundary)

    def refuse(*args, **kwargs):
        raise AssertionError("a CSR product or conversion in a 2D step")
    # the public product operators, which every scipy release names alike
    for name in ("__matmul__", "__rmatmul__", "dot"):
        monkeypatch.setattr(sp.csr_matrix, name, refuse)
    monkeypatch.setattr(sp.dia_matrix, "tocsr", refuse)
    got = evolve(h, u0, 1.0, 10, boundary=boundary)
    np.testing.assert_array_equal(got.values, want.values)


# (theta_scheme, rannacher, n_steps) and the number of phases evolve
# marches: two when 0 < rannacher < n_steps and theta_scheme = 1/2, else one
PHASE_CASES = [((0.5, 2, 10), 2), ((0.5, 1, 2), 2), ((0.5, 0, 10), 1), ((1.0, 2, 10), 1),
               ((0.5, 2, 2), 1), ((0.5, 7, 3), 1), ((0.5, 1, 1), 1)]


@pytest.mark.parametrize("two_d", [False, True], ids=["1d", "2d"])
def test_evolve_holds_one_thetas_systems_at_a_time(monkeypatch, two_d):
    # each phase's systems are factored once, as the phase begins, and every
    # band and factor of the startup is released before the main phase's
    # first band is factored, so no step holds both phases' systems
    refs, alive = [], []
    band_solver = pricing._band_solver

    def tracked(band, *args):
        alive.append([ref() is not None for ref in refs])
        solve = band_solver(band, *args)
        refs.extend([weakref.ref(band), weakref.ref(solve)])
        return solve
    monkeypatch.setattr(pricing, "_band_solver", tracked)
    if two_d:
        grid, h = ADI_GRID, build_mg_hamiltonian(ADI_P, ADI_GRID)
    else:
        grid = default_grid_1d(100.0, 0.2, 1.0, n=101)
        h = build_bs_hamiltonian(P, grid)
    per_phase = 2 if two_d else 1   # an x- and a y-sweep in 2D
    for (theta, rannacher, n_steps), phases in PHASE_CASES:
        refs.clear()
        alive.clear()
        evolve(h, terminal_payoff(CALL, grid), 1.0, n_steps, theta,
               boundary=FarFieldBoundary(CALL, P.r), rannacher=rannacher)
        assert len(alive) == phases * per_phase, (theta, rannacher, n_steps)
        if phases == 2:
            assert alive[per_phase] == [False] * 2 * per_phase


def counting_views(monkeypatch):
    """Count every CSR view an operator makes: the list of operators that
    made one."""
    made, view = [], LinearOperator.matrix
    counted = functools.cached_property(lambda op: made.append(op) or view.func(op))
    counted.__set_name__(LinearOperator, "matrix")
    monkeypatch.setattr(LinearOperator, "matrix", counted)
    return made


@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_pricing_makes_no_csr_view(monkeypatch, theta):
    # build_* -> evolve reads the diagonals the builder wrote: no operator
    # on the way makes its CSR view, in 1D and in 2D
    made = counting_views(monkeypatch)
    g = default_grid_1d(100.0, 0.2, 1.0, n=101)
    h = build_bs_hamiltonian(P, g)
    evolve(h, terminal_payoff(CALL, g), 1.0, 10, theta, boundary=FarFieldBoundary(CALL, P.r))
    h2 = build_mg_hamiltonian(ADI_P, ADI_GRID)
    evolve(h2, terminal_payoff(CALL, ADI_GRID), 1.0, 5, theta,
           boundary=FarFieldBoundary(CALL, ADI_P.r))
    price_bs(P, CALL, 100.0, n_steps=10, theta_scheme=theta)
    solve_mg(ADI_P, CALL, ADI_GRID, n_steps=5, theta_scheme=theta)
    assert made == []
    # the count sees a view when one is made, and only once per operator
    assert h2.matrix.nnz == h2.matrix.nnz
    assert made == [h2]


def test_beta_field_makes_no_csr_view(monkeypatch):
    # H C and p_y C are DIA products on the diagonals, bit for bit the
    # products of the CSR views they replace
    surface = solve_mg(ADI_P, CALL, ADI_GRID, n_steps=5)
    c = surface.values
    h, p_y = build_mg_hamiltonian(ADI_P, ADI_GRID), momentum_operator(ADI_GRID, "y")
    numerator = (surface.prev_values - c) / surface.dt - h.matrix @ c
    c_v = np.exp(-ADI_GRID.ys) * (p_y.matrix @ c)
    with np.errstate(invalid="ignore", divide="ignore"):
        want = np.where(np.abs(c_v) >= 1e-6, numerator / c_v, np.nan)
    want[~ADI_GRID.interior_mask(1)] = np.nan
    made = counting_views(monkeypatch)
    got = beta_field(surface, ADI_P)
    assert made == []
    np.testing.assert_array_equal(got.values.view(np.int64), want.view(np.int64))


# the spoiled y-sweep solution and the relative residual its check reports:
# grid points 0 and -1 lie on the x faces, whose pinned rows' residuals are
# y - rhs; +inf at a y face meets the folded near row's stored zero
Y_SWEEP_SPOILS = {
    "offset": (offset_solution, r"\d\S*"),
    "nan": (nan_solution, "nan"),
    **{f"{value}-{position}": (one_entry_solution(value, position), rel)
       for value, rel in ((math.nan, "nan"), (math.inf, "inf"))
       for position in (0, "middle", -1)},
    "inf-y-face": (one_entry_solution(math.inf, ADI_GRID.ny), "nan"),
}


@pytest.mark.parametrize("case, split", [
    *(pytest.param(case, False, id=case) for case in Y_SWEEP_SPOILS),
    *(pytest.param(case, True, id=f"{case}-split") for case in Y_SWEEP_SPOILS)])
def test_y_sweep_residual_check_fires(monkeypatch, case, split):
    # the x-sweep solves are left alone, so their checks pass: the y-sweep's
    # own check, on its folded band before the face extrapolation, must fire.
    # Each ADI phase factors its x-sweep's system, then its y-sweep's, so
    # every second system is a y-sweep's
    spoil, rel = Y_SWEEP_SPOILS[case]
    force_split(monkeypatch, split)
    h, u0, boundary = mg_call_2d()
    spoil_solves(monkeypatch, spoil, every=2)
    with pytest.raises(EvolveError, match=rf"^linear solve at step 1/10 has relative residual "
                                          rf"{rel} \(tolerance 1e-10\)$"):
        evolve(h, u0, 1.0, 10, boundary=boundary)


# the sweeps' systems cut in two: the later piece solved on a helper thread

@settings(max_examples=200, deadline=None)
@given(sizes=st.tuples(st.integers(3, 40), st.integers(3, 40)),
       seed=st.integers(0, 2 ** 32 - 1), pivot_share=st.sampled_from([0.0, 0.3, 1.0]),
       zero_pivot=st.none() | st.integers(0, 79), coupled=st.integers(0, 1))
def test_split_band_solve_is_the_whole_band_solve(sizes, seed, pivot_share, zero_pivot,
                                                  coupled):
    # a band that is block-diagonal at the cut, with rows whose subdiagonal
    # outweighs the diagonal, so gttrf pivots: the pieces' solves, one on the
    # helper, give the whole band's gttrf/gttrs solution bit for bit, and a
    # zero pivot is reported at the whole band's row.  scipy's gttrf takes
    # three rows or more; a grid axis has five points or more
    cut, n = sizes[0], sum(sizes)
    rng = np.random.default_rng(seed)
    band = np.asfortranarray(rng.uniform(-1.0, 1.0, (3, n)))
    band[1, rng.random(n) < pivot_share] *= 1e-3
    band[2, cut - 1] = band[0, cut] = 0.0
    if zero_pivot is not None and zero_pivot < n:
        # row k's diagonal, its subdiagonal entry and the one below its
        # diagonal 0: gttrf cannot pivot there, and U(k, k) comes out 0
        k = zero_pivot
        band[1, k] = band[2, max(k - 1, 0)] = band[2, k] = 0.0
    rhs = rng.uniform(-1.0, 1.0, n)
    *factors, info = dgttrf(band[2, :-1], band[1], band[0, 1:])
    with pricing._SweepHelper() as helper:
        if info > 0:
            with pytest.raises(EvolveError, match=rf"zero pivot in row {info}$"):
                _band_solver(band, cut, helper)
            return
        want = dgttrs(*factors, rhs)[0]
        got = _band_solver(band, cut, helper)(rhs)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        band[(2, 0)[coupled], (cut - 1, cut)[coupled]] = 0.5
        with pytest.raises(ValueError, match=rf"couples rows {cut - 1} and {cut} across"):
            _band_solver(band, cut, helper)


def failing_on_the_helper(monkeypatch):
    """Make every dgttrs call on the sweep helper's thread raise."""
    solve = pricing.dgttrs

    def off_the_helper_only(*args, **kwargs):
        if threading.current_thread().name == "sweep-helper":
            raise RuntimeError("the helper's piece failed")
        return solve(*args, **kwargs)
    monkeypatch.setattr(pricing, "dgttrs", off_the_helper_only)


def raised_within(seconds, call):
    """The exception ``call()`` raises, None if it returns, run on a thread
    joined with a timeout: a helper that never reports back fails the test
    instead of hanging it."""
    raised = []

    def run():
        try:
            call()
        except BaseException as exc:
            raised.append(exc)
        else:
            raised.append(None)
    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(timeout=seconds)
    assert not caller.is_alive(), f"no outcome within {seconds} s"
    return raised[0]


def test_split_solve_re_raises_the_helpers_error(monkeypatch):
    # the caller's piece is solved and the helper waited for before the
    # helper's error is raised; the helper then serves the next solve
    rng = np.random.default_rng(3)
    band = np.asfortranarray(rng.uniform(-1.0, 1.0, (3, 12)))
    band[1] += 4.0
    band[2, 4] = band[0, 5] = 0.0
    rhs = rng.uniform(-1.0, 1.0, 12)
    want = _band_solver(band)(rhs)
    with pricing._SweepHelper() as helper:
        solve = _band_solver(band, 5, helper)
        with monkeypatch.context() as patch:
            failing_on_the_helper(patch)
            error = raised_within(60.0, lambda: solve(rhs))
        assert isinstance(error, RuntimeError) and str(error) == "the helper's piece failed"
        np.testing.assert_array_equal(solve(rhs).view(np.int64), want.view(np.int64))


def test_sweep_helper_holds_no_task_past_its_wait():
    # a task holds its piece's factors and solution: none outlives the wait,
    # so the startup's pieces are gone before the main phase's are factored
    piece = np.ones(3)
    held = weakref.ref(piece)
    with pricing._SweepHelper() as helper:
        helper.start(lambda piece=piece: piece.sum())
        del piece
        helper.wait()
        assert held() is None


def test_sweep_helper_stops_with_a_task_still_handed_on():
    # the split solve always waits for its helper, but an interrupt in that
    # wait would reach the helper's exit with a task it has not taken: the
    # task is dropped, and the thread still stops and is joined
    gate, ran, helper = threading.Event(), [], pricing._SweepHelper()

    def handed_on_and_left():
        with helper:
            helper.start(gate.wait)
            while not helper._go.locked():   # until the helper has taken its task
                time.sleep(0.001)
            helper.start(lambda: ran.append(True))
            threading.Timer(0.1, gate.set).start()
    assert raised_within(60.0, handed_on_and_left) is None
    assert not helper._thread.is_alive() and ran == []


def recording_cuts(monkeypatch):
    """The cut of every system evolve factors, None for one left whole."""
    cuts, band_solver = [], pricing._band_solver

    def recorded(band, cut=None, helper=None):
        cuts.append(cut)
        return band_solver(band, cut, helper)
    monkeypatch.setattr(pricing, "_band_solver", recorded)
    return cuts


@pytest.mark.parametrize("form", ["mg", "expanded"])
@pytest.mark.parametrize("theta", [0.5, 1.0])
@pytest.mark.parametrize("shape, split_cuts", [((41, 21), [12 * 41, 23 * 21]),
                                               ((12, 6), [3 * 12, 7 * 6])], ids=["41x21", "12x6"])
def test_split_sweeps_step_bit_for_bit_as_whole_ones(monkeypatch, form, theta, shape, split_cuts):
    # the calling thread takes the first 11/20 of the grid lines, rounded:
    # the x-sweep is cut after 12 of 21 x lines, the y-sweep after 23 of 41
    # y lines; surfaces and prev_values are bit for bit the unsplit ones, for
    # calls and puts, whatever the startup
    assert pricing.CALLER_SHARE == 0.55
    nx, ny = shape
    grid = make_grid_2d(math.log(100.0) - 1.0, math.log(100.0) + 1.0, nx,
                        math.log(0.04) - 2.0, math.log(0.04) + 1.0, ny)
    h = (build_mg_hamiltonian(ADI_P, grid) if form == "mg" else
         build_gauge_hamiltonian(ADI_P, grid, form="expanded"))
    cuts = recording_cuts(monkeypatch)
    for contract, rannacher in itertools.product((CALL, PUT), range(3)):
        surfaces = []
        for split in (False, True):
            force_split(monkeypatch, split)
            cuts.clear()
            surfaces.append(evolve(h, terminal_payoff(contract, grid), 1.0, 6, theta,
                                   boundary=FarFieldBoundary(contract, ADI_P.r),
                                   rannacher=rannacher))
            sweep_cuts = split_cuts if split else [None, None]
            assert cuts == sweep_cuts * (2 if 0 < rannacher and theta < 1.0 else 1)
        whole, pieces = surfaces
        for name in ("values", "prev_values"):
            np.testing.assert_array_equal(getattr(pieces, name).view(np.int64),
                                          getattr(whole, name).view(np.int64))


@pytest.mark.parametrize("theta, rannacher, phases", [(0.5, 2, 2), (1.0, 0, 1)])
def test_a_split_sweep_system_is_factored_once(monkeypatch, theta, rannacher, phases):
    # each theta phase factors its x-sweep's and its y-sweep's whole band
    # with one gttrf, and the split solves run on slices of those factors
    force_split(monkeypatch, True)
    factor, factored = pricing.dgttrf, []

    def counted(dl, d, du, *args, **kwargs):
        factored.append(d.shape[0])
        return factor(dl, d, du, *args, **kwargs)
    monkeypatch.setattr(pricing, "dgttrf", counted)
    cuts = recording_cuts(monkeypatch)
    h, u0, boundary = mg_call_2d()
    evolve(h, u0, 1.0, 6, theta, boundary=boundary, rannacher=rannacher)
    assert len(cuts) == 2 * phases and None not in cuts
    assert factored == [ADI_GRID.n_points] * (2 * phases)


@pytest.mark.parametrize("cpus, ny, cut", [(2, 100, True), (2, 98, False), (1, 100, False)])
def test_sweeps_split_on_two_cpus_when_the_workers_piece_reaches_the_break_even(
        monkeypatch, cpus, ny, cut):
    # on 36 x 100 the caller takes 55 of 100 x lines and 20 of 36 y lines,
    # so the helper's pieces hold 45 x lines of 36 points and 16 y lines of
    # 100, 1620 and 1600 rows, the break-even; on 36 x 98 they hold 44 x
    # lines and 16 y lines, 1584 and 1568 rows
    assert (pricing.SPLIT_MIN_ROWS, pricing.CALLER_SHARE) == (1600, 0.55)
    monkeypatch.setattr(pricing, "_cpu_count", lambda: cpus)
    grid = make_grid_2d(math.log(100.0) - 1.0, math.log(100.0) + 1.0, 36,
                        math.log(0.04) - 2.0, math.log(0.04) + 1.0, ny)
    cuts = recording_cuts(monkeypatch)
    evolve(build_mg_hamiltonian(ADI_P, grid), terminal_payoff(CALL, grid), 1.0, 1,
           boundary=FarFieldBoundary(CALL, ADI_P.r))
    assert cuts == ([55 * 36, 20 * ny] if cut else [None, None])


def test_cpu_count_reads_the_affinity_mask_where_there_is_one(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert pricing._cpu_count() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    assert pricing._cpu_count() == (os.cpu_count() or 1)


def test_no_thread_outlives_evolve(monkeypatch):
    # the sweep helper runs while the split sweeps solve, and is joined when
    # evolve returns, when the helper's own piece raises, and when a
    # residual check raises
    force_split(monkeypatch, True)
    h, u0, boundary = mg_call_2d()
    before, during = threading.active_count(), []

    def counting(solve):
        return lambda rhs: during.append(threading.active_count()) or solve(rhs)
    spoil_solves(monkeypatch, counting)
    evolve(h, u0, 1.0, 10, boundary=boundary)
    assert threading.active_count() == before and set(during[1:]) == {before + 1}
    with monkeypatch.context() as patch:
        failing_on_the_helper(patch)
        error = raised_within(60.0, lambda: evolve(h, u0, 1.0, 10, boundary=boundary))
    assert isinstance(error, RuntimeError) and str(error) == "the helper's piece failed"
    assert threading.active_count() == before
    spoil_solves(monkeypatch, nan_solution)
    with pytest.raises(EvolveError, match="relative residual nan"):
        evolve(h, u0, 1.0, 10, boundary=boundary)
    assert threading.active_count() == before


def numpy_relative_residual(resid, rhs):
    """The step check's measure by numpy reductions, kept as the reference
    for the BLAS one."""
    return float(np.abs(resid).max()) / max(1.0, float(np.abs(rhs).max()))


def same_float(a, b):
    return (math.isnan(a) and math.isnan(b)) or np.float64(a).view(np.int64) == np.float64(b).view(np.int64)


# signed zeros, subnormals, the extremes and the non-finite values, and "tie":
# minus the largest magnitude so far, a tie for idamax to break
NORM_MARKS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1.7976931348623157e308,
              math.inf, -math.inf, math.nan, "tie"]


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 20001), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from([0.0, 1e-320, 1e-310, 1e-300, 1e-10, 1.0, 1e10, 1e300]),
       marks=st.lists(st.tuples(st.sampled_from([0, 1]), st.integers(0, 20000),
                                st.sampled_from(NORM_MARKS)), max_size=4))
def test_relative_residual_matches_numpy_reductions(n, seed, scale, marks):
    # lengths straddle the SIMD widths of the BLAS kernels; scale 0 gives
    # zeros of both signs, the small scales subnormals
    vectors = scale * np.random.default_rng(seed).standard_normal((2, n))
    for which, at, mark in marks:
        v = vectors[which]
        v[at % n] = -np.abs(v).max() if mark == "tie" else mark
    resid, rhs = vectors
    resid[np.isnan(rhs)] = math.nan   # as in resid = A x - rhs
    if np.isfinite(resid).all():
        # max|r| itself, bit for bit
        assert same_float(_relative_residual(resid, np.zeros(1)), float(np.abs(resid).max()))
    # NaN exactly where the numpy measure is NaN, bit for bit elsewhere
    assert same_float(_relative_residual(resid, rhs), numpy_relative_residual(resid, rhs))


SURFACE_DIGEST = f"""
import hashlib, sys
from gauge_hamilton import (FarFieldBoundary, LogGrid1D, LogGrid2D, ModelParams, OptionContract,
                            build_bs_hamiltonian, build_mg_hamiltonian, default_grid_1d,
                            evolve, terminal_payoff)
c = OptionContract("call", 100.0, 1.0)
if sys.argv[1] == "adi":
    p, g = {ADI_P!r}, {ADI_GRID!r}
    cases = [(build_mg_hamiltonian(p, g), FarFieldBoundary(c, p.r))]
else:
    p = ModelParams(r=0.05, sigma=0.2)
    g = default_grid_1d(100.0, 0.2, 1.0, n=int(sys.argv[1]))
    cases = [(build_bs_hamiltonian(p, g), FarFieldBoundary(c, p.r))]
for h, boundary in cases:
    surface = evolve(h, terminal_payoff(c, g), 1.0, 200, boundary=boundary)
    for values in (surface.values, surface.prev_values):
        print(hashlib.sha256(values.tobytes()).hexdigest())
"""


@pytest.mark.parametrize("case", ["401", "20001", "adi"])
def test_surfaces_do_not_depend_on_blas_threads(case):
    # the 1D explicit products and residuals are BLAS gbmv calls, and every
    # solve is LAPACK; a surface must come out byte-equal whatever thread
    # count the BLAS runs with
    src = os.path.dirname(os.path.dirname(pricing.__file__))
    digests = []
    for threads in ("1", "2"):
        path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(path))
        run = subprocess.run([sys.executable, "-c", SURFACE_DIGEST, case], env=env,
                             capture_output=True, text=True, check=True, timeout=300)
        digests.append(run.stdout.split())
    # values and previous slice
    assert len(digests[0]) == 2 and digests[0] == digests[1]


def sparse_tridiagonal(s):
    """Diagonals by the sparse triu/tril test that reading the CSR arrays
    replaced, kept as its reference."""
    if np.any((sp.triu(s, 2) + sp.tril(s, -2)).data):
        raise ValueError("ADI stepping needs three-point stencils along each axis")
    return s.diagonal(-1), s.diagonal(), s.diagonal(1)


def sweep_rows(grid):
    """The rows the ADI sweeps replace: the x faces' Dirichlet rows, then
    the y faces' rows."""
    nx, ny = grid.nx, grid.ny
    bottom = np.arange(1, nx - 1) * ny
    return np.concatenate([np.arange(ny), (nx - 1) * ny + np.arange(ny), bottom, bottom + ny - 1])


def sweep_systems(h, theta, dt):
    """The x-sweep band, in x-line order, and the y-sweep band before its
    face fold, as the ADI stepper assembles them."""
    nx, ny = h.grid.nx, h.grid.ny
    a1, a2, _ = _split_directions(h)
    x_lines = np.arange(h.grid.n_points).reshape(nx, ny).T.ravel()
    return (_theta_band(_dia_band(a1.offsets, a1.data, ny, x_lines), -theta * dt),
            _theta_band(_dia_band(a2.offsets, a2.data), -theta * dt))


def projector_sweep_systems(h, theta, dt):
    """The same two systems by the projector construction, in CSR, the
    x-sweep's permuted to x-line order."""
    nx, ny, n = h.grid.nx, h.grid.ny, h.grid.n_points
    a1, a2, _ = _split_directions(h)
    replaced = sweep_rows(h.grid)
    x_lines = np.arange(n).reshape(nx, ny).T.ravel()
    sys_x = projector_systems(-a1, theta, dt, replaced)[0]
    return (sys_x[x_lines][:, x_lines].tocsr(), projector_systems(-a2, theta, dt, replaced)[0])


def assert_same_diagonals(band, want):
    assert band.shape[0] == 3
    for g, w in zip((band[2, :-1], band[1], band[0, 1:]), want, strict=True):
        np.testing.assert_array_equal(g.view(np.int64), w.view(np.int64))


@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_band_reader_matches_sparse_construction(theta):
    h = build_mg_hamiltonian(ADI_P, ADI_GRID)
    # the x-sweep band, in x-line order, against the diagonals of the whole
    # system permuted to x-line order; the DIA matrix the residual checks
    # multiply by has the reference's pattern and values, once its stored
    # zeros are dropped
    for got, want in zip(sweep_systems(h, theta, 0.01), projector_sweep_systems(h, theta, 0.01),
                         strict=True):
        assert_same_diagonals(got, sparse_tridiagonal(want))
        residual = _band_dia(got)
        assert residual.data.flags.c_contiguous and np.all(np.diff(residual.offsets) > 0)
        residual = residual.tocsr()
        residual.eliminate_zeros()
        assert_same_csr(residual, want)
    h = build_bs_hamiltonian(P, THETA_GRID)
    a, _ = projector_systems(h.matrix, theta, 0.01, np.array([0, THETA_GRID.n - 1]))
    assert_same_diagonals(band_storage(a), sparse_tridiagonal(a))
    # no boundary: the one-sided end rows reach three columns, refused
    a, _ = projector_systems(h.matrix, theta, 0.01, None)
    with pytest.raises(ValueError, match="three-point stencils"):
        band_storage(a)


def test_band_reader_copies_no_matrix(monkeypatch):
    # the same operator, canonical and with each row reversed and its first
    # entry split in two halves: equal bands, and the caller's arrays as
    # they were; neither matrix is copied, summed or sorted
    a = projector_systems(build_bs_hamiltonian(P, THETA_GRID).matrix, 0.5, 0.01, None)[0].copy()
    a.sum_duplicates()
    assert a.has_canonical_format
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    order = np.lexsort((-a.indices, rows))
    data = np.concatenate([[0.5 * a.data[order][0]], a.data[order]])
    data[1] *= 0.5
    indices = np.concatenate([a.indices[order][:1], a.indices[order]])
    indptr = a.indptr + np.minimum(np.arange(a.indptr.size), 1)
    messy = sp.csr_matrix((data, indices, indptr), shape=a.shape)
    assert not messy.has_canonical_format and messy.nnz == a.nnz + 1
    before = [x.copy() for m in (a, messy) for x in (m.data, m.indices, m.indptr)]
    called = []
    for name in ("copy", "sum_duplicates", "sort_indices", "sorted_indices"):
        method = getattr(type(a), name)
        monkeypatch.setattr(type(a), name, lambda m, *args, name=name, method=method:
                            called.append(name) or method(m, *args))
    # without the one-sided end rows, which reach three columns, the band
    # is tridiagonal
    band, messy_band = (band_storage(m, [0, THETA_GRID.n - 1]) for m in (a, messy))
    np.testing.assert_array_equal(band.view(np.int64), messy_band.view(np.int64))
    assert called == []
    for got, want in zip((x for m in (a, messy) for x in (m.data, m.indices, m.indptr)), before):
        np.testing.assert_array_equal(got, want)


def scrambled(m, rng):
    """``m`` stored with each row's entries in a random order and about a
    third of them split into two halves, which sum back exactly."""
    coo = m.tocoo()
    split = rng.random(coo.nnz) < 0.3
    rows = np.concatenate([coo.row, coo.row[split]])
    cols = np.concatenate([coo.col, coo.col[split]])
    data = np.concatenate([np.where(split, 0.5, 1.0) * coo.data, 0.5 * coo.data[split]])
    order = np.lexsort((rng.random(rows.size), rows))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=m.shape[0]))])
    return sp.csr_matrix((data[order], cols[order], indptr), shape=m.shape)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["random", "bs", "mg", "gauge"]), n=st.integers(5, 30),
       ny=st.integers(5, 12), scramble=st.booleans(), mask_rows=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_diagonals_match_dense_reference(kind, n, ny, scramble, mask_rows, seed):
    rng = np.random.default_rng(seed)
    params = ModelParams(r=0.05, sigma=0.3, lambda_=0.02, mu=-0.3, zeta=0.4, alpha=0.8,
                         rho=-0.6)
    if kind == "random":
        # any pattern, unsorted, with duplicates and stored zeros; small
        # integers, so duplicates sum exactly in any order
        nnz = int(rng.integers(0, 4 * n))
        rows = np.sort(rng.integers(0, n, nnz))
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
        m = sp.csr_matrix((rng.integers(-3, 4, nnz).astype(float), rng.integers(0, n, nnz),
                           indptr), shape=(n, n))
    elif kind == "bs":
        m = build_bs_hamiltonian(params, make_grid_1d(3.5, 5.5, n)).matrix
    else:
        grid = make_grid_2d(3.6, 5.6, n, -5.2, -2.2, ny)
        m = (build_mg_hamiltonian(params, grid) if kind == "mg" else
             build_gauge_hamiltonian(params, grid, form="expanded")).matrix
    if scramble:
        m = scrambled(m, rng)
    size = m.shape[0]
    keep = rng.random(size) < 0.7 if mask_rows else np.ones(size, dtype=bool)
    before = [x.copy() for x in (m.data, m.indices, m.indptr)]
    offsets, data = csr_diagonals(m, keep)
    for got, want in zip((m.data, m.indices, m.indptr), before):
        np.testing.assert_array_equal(got, want)
    # every offset of a stored nonzero entry on a kept row, and the main
    # diagonal, ascending
    rows = np.repeat(np.arange(size), np.diff(m.indptr))
    live = keep[rows] & (m.data != 0.0)
    np.testing.assert_array_equal(offsets, np.union1d(0, (m.indices - rows)[live]))
    dense = m.toarray()
    dense[~keep] = 0.0
    assert data.shape == (offsets.size, size)
    for o, got in zip(offsets, data):
        want = np.zeros(size)
        cols = np.arange(max(0, o), size + min(0, o))
        want[cols] = dense[cols - o, cols]
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("operator", THETA_OPERATORS)
@pytest.mark.parametrize("replaced", [(), (0, THETA_GRID.n - 1)])
@pytest.mark.parametrize("scramble", [False, True])
def test_band_reader_matches_reference_band_storage(operator, replaced, scramble):
    m = THETA_OPERATORS[operator]().matrix
    if scramble:
        m = scrambled(m, np.random.default_rng(7))
    want, want_kl, want_ku = reference_band_storage(m, replaced)
    if (want_kl, want_ku) != (1, 1):
        # the one-sided end rows, kept, reach three columns: refused
        assert operator == "bs" and replaced == () and (want_kl, want_ku) == (3, 3)
        with pytest.raises(ValueError, match="three-point stencils"):
            band_storage(m, replaced)
        return
    band = band_storage(m, replaced)
    assert band.flags.f_contiguous
    np.testing.assert_array_equal(band.view(np.int64), want.view(np.int64))


def test_band_reader_rejects_five_point_sweeps():
    # the factored form reaches two points along each axis: both sweep
    # systems are pentadiagonal along their lines, at theta = 0 too
    wide = build_gauge_hamiltonian(ADI_P, ADI_GRID, form="factored")
    a1, a2, _ = _split_directions(wide)
    assert a1.offsets.tolist() == [-2 * ADI_GRID.ny, -ADI_GRID.ny, 0, ADI_GRID.ny,
                                   2 * ADI_GRID.ny]
    assert a2.offsets.tolist() == [-2, -1, 0, 1, 2]
    for want in projector_sweep_systems(wide, 0.5, 0.01):
        with pytest.raises(ValueError, match="three-point stencils"):
            sparse_tridiagonal(want)
    for theta in (0.0, 0.5):
        with pytest.raises(ValueError, match="three-point stencils"):
            sweep_systems(wide, theta, 0.01)
    with pytest.raises(ValueError, match="three-point stencils"):
        evolve(wide, terminal_payoff(CALL, ADI_GRID), 1.0, 10,
               boundary=FarFieldBoundary(CALL, ADI_P.r))


@pytest.mark.parametrize("theta", [0.5, 1.0])
@pytest.mark.parametrize("case", ["1d", "2d"])
def test_wide_systems_are_refused_before_any_factorization(monkeypatch, case, theta):
    # every theta-system is tridiagonal: an operator whose interior rows
    # reach two points along an axis (d @ d in 1D, the factored gauge form
    # in 2D) is refused at evolve's entry, at every theta, before any system
    # is factored
    if case == "1d":
        d = momentum_operator(THETA_GRID)
        h, grid = d @ d, THETA_GRID
    else:
        h, grid = build_gauge_hamiltonian(ADI_P, ADI_GRID, form="factored"), ADI_GRID
    factored = []
    monkeypatch.setattr(pricing, "_band_solver", lambda band, *args: factored.append(band) or
                        _band_solver(band, *args))
    with pytest.raises(ValueError, match="^theta-stepping needs three-point stencils "
                                         "along each axis$"):
        evolve(h, terminal_payoff(CALL, grid), 1.0, 10, theta, boundary=FAR_FIELD)
    assert factored == []


# ---------------------------------------------------------------------------
# the shared delta, non-finite inputs, and surfaces built on GridFunction
# ---------------------------------------------------------------------------

def _erf_delta(params, contract, s, tau):
    """The scalar delta before it shared the array arithmetic: math.erf CDF."""
    st = params.sigma * math.sqrt(tau)
    d1 = (math.log(s / contract.strike) + (params.r + 0.5 * params.sigma ** 2) * tau) / st
    d = 0.5 * (1.0 + math.erf(d1 / math.sqrt(2.0)))
    return d if contract.kind == "call" else d - 1.0


def test_scalar_delta_stays_within_1e15_of_erf_formula():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(4000):
        params = ModelParams(r=rng.uniform(0.0, 0.1), sigma=rng.uniform(0.02, 1.0))
        contract = OptionContract(str(rng.choice(["call", "put"])), 100.0, 2.0)
        s, tau = 100.0 * math.exp(rng.uniform(-2.0, 2.0)), rng.uniform(1e-3, 2.0)
        d = bs_delta(params, contract, s, tau)
        assert type(d) is float
        worst = max(worst, abs(d - _erf_delta(params, contract, s, tau)))
    assert worst <= 1e-15


@pytest.mark.parametrize("sigma", [0.25, 0.0])
def test_delta_on_an_array_is_the_scalar_delta_per_spot(sigma):
    params = ModelParams(r=0.04, sigma=sigma)
    s = np.linspace(60.0, 150.0, 37)
    for contract in (CALL, PUT):
        d = bs_delta(params, contract, s, 0.6)
        assert isinstance(d, np.ndarray) and d.shape == s.shape
        assert d.tolist() == [bs_delta(params, contract, float(x), 0.6) for x in s]


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_delta_rejects_bad_spot_and_tau(bad):
    with pytest.raises(ValueError, match="tau must be positive and finite"):
        bs_delta(P, CALL, 100.0, bad)
    with pytest.raises(ValueError, match="s must be positive and finite"):
        bs_delta(P, CALL, bad, 1.0)
    with pytest.raises(ValueError, match="s must be positive and finite"):
        bs_delta(P, CALL, np.array([100.0, bad]), 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_pricers_name_a_non_finite_spot_or_variance(bad):
    with pytest.raises(ValueError, match="s0 must be positive and finite"):
        bs_closed_form(P, CALL, bad)
    with pytest.raises(ValueError, match="s0 must be positive and finite"):
        price_bs(P, CALL, bad)
    with pytest.raises(ValueError, match="s0 must be positive and finite"):
        price_bs(P, CALL, bad, grid=make_grid_1d(3.0, 6.0, 21))
    with pytest.raises(ValueError, match="s0 must be positive and finite"):
        price_mg(ModelParams(r=0.05), CALL, bad, 0.04)
    with pytest.raises(ValueError, match="v0 must be positive and finite"):
        price_mg(ModelParams(r=0.05), CALL, 100.0, bad)


def test_surface_validates_as_a_grid_function():
    g = make_grid_2d(0.0, 1.0, 5, 0.0, 1.0, 6)
    with pytest.raises(ValueError, match=r"values must have shape \(30,\), got \(29,\)"):
        PriceSurface(g, np.ones(29), np.ones(30), 0.1)
    with pytest.raises(ValueError, match="finite"):
        PriceSurface(g, np.full(30, np.inf), np.ones(30), 0.1)
    surface = PriceSurface(g, np.arange(30), np.ones(30), 0.1)
    assert surface.values.dtype == float
    assert np.array_equal(surface.values2d, np.arange(30.0).reshape(5, 6))
