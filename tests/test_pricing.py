"""Closed forms, backward evolution, and the two PDE pricers."""

import io
import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import quad

from gauge_hamilton import (
    EvolveError,
    FarFieldBoundary,
    GridFunction,
    LogGrid2D,
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
    identity_operator,
    make_grid_1d,
    make_grid_2d,
    momentum_operator,
    price_bs,
    price_mg,
    simulate_mg,
    mc_price,
    solve_mg,
    terminal_payoff,
)
from gauge_hamilton.pricing import (_boundary_rows, _split_directions, _theta_matrix,
                                    _theta_systems)

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

def test_evolve_pure_discounting():
    # H = r I has the exact solution e^{-r T}; trapezoidal stepping with no
    # startup damping reproduces it to 1e-10
    g = make_grid_1d(0.0, 1.0, 11)
    h = identity_operator(g) * 0.07
    surf = evolve(h, GridFunction(g, np.ones(11)), maturity=2.0,
                  n_steps=10_000, rannacher=0)
    assert np.abs(surf.values - math.exp(-0.14)).max() < 1e-10


def test_evolve_validation():
    g = make_grid_1d(0.0, 1.0, 11)
    h = identity_operator(g)
    ones = GridFunction(g, np.ones(11))
    with pytest.raises(ValueError, match="grid mismatch"):
        evolve(h, GridFunction(make_grid_1d(0.0, 2.0, 11), np.ones(11)), 1.0, 10)
    with pytest.raises(ValueError, match="n_steps"):
        evolve(h, ones, 1.0, 0)
    with pytest.raises(ValueError, match="theta_scheme"):
        evolve(h, ones, 1.0, 10, theta_scheme=1.5)
    with pytest.raises(ValueError, match="maturity"):
        evolve(h, ones, -1.0, 10)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_evolve_names_non_finite_maturity(bad):
    # used to fail late, with "Factor is exactly singular"
    g = make_grid_1d(0.0, 1.0, 11)
    with pytest.raises(ValueError, match="maturity must be positive and finite"):
        evolve(identity_operator(g), GridFunction(g, np.ones(11)), bad, 10)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1e-10])
def test_evolve_rejects_residual_tol_that_disables_the_check(bad):
    # rel > nan is never true, so a NaN tolerance passed every solve unchecked
    g = make_grid_1d(0.0, 1.0, 11)
    with pytest.raises(ValueError, match="residual_tol must be positive and finite"):
        evolve(identity_operator(g), GridFunction(g, np.ones(11)), 1.0, 10,
               residual_tol=bad)


def test_evolve_singular_system():
    # I + theta dt H collapses to the zero matrix for H = -2I, dt = 1
    g = make_grid_1d(0.0, 1.0, 11)
    h = identity_operator(g) * -2.0
    with pytest.raises(EvolveError, match="factorization"):
        evolve(h, GridFunction(g, np.ones(11)), 1.0, 1, theta_scheme=0.5,
               rannacher=0)


def test_evolve_explicit_warns_when_unstable():
    g = default_grid_1d(100.0, 0.2, 1.0, n=201)
    h = build_bs_hamiltonian(P, g)
    with pytest.warns(RuntimeWarning, match="unstable"):
        try:
            evolve(h, terminal_payoff(CALL, g), 1.0, 1, theta_scheme=0.0)
        except EvolveError:
            pass  # divergence may also trip the residual check


def test_evolve_keeps_two_slices():
    g = make_grid_1d(0.0, 1.0, 11)
    h = identity_operator(g) * 0.05
    surf = evolve(h, GridFunction(g, np.ones(11)), 1.0, 4)
    assert surf.dt == 0.25
    assert surf.prev_values is not None
    # previous slice sits one step closer to maturity, so it is larger
    assert np.all(surf.prev_values > surf.values)


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
    surf = PriceSurface(g, g.points ** 2, 0.0)
    assert surf.interpolate(0.5) == pytest.approx(0.25, abs=1e-12)
    assert surf.interpolate(0.55) == pytest.approx((0.25 + 0.36) / 2, abs=1e-12)
    with pytest.raises(ValueError, match="outside"):
        surf.interpolate(1.5)
    g2 = make_grid_2d(0.0, 1.0, 5, 0.0, 1.0, 5)
    surf2 = PriceSurface(g2, (g2.xs + g2.ys), 0.0)
    assert surf2.interpolate(0.3, 0.4) == pytest.approx(0.7, abs=1e-12)
    with pytest.raises(ValueError, match="both x and y"):
        surf2.interpolate(0.3)
    with pytest.raises(ValueError, match="outside"):
        surf2.interpolate(0.3, 2.0)


def test_surface_csv_header():
    g = make_grid_1d(0.0, 1.0, 5)
    buf = io.StringIO()
    PriceSurface(g, np.ones(5), 0.0).to_csv(buf)
    lines = buf.getvalue().split("\n")
    assert lines[0] == "# t=0"
    assert lines[1] == "x,value"


def test_surface_validation():
    g = make_grid_1d(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="finite"):
        PriceSurface(g, np.array([1.0, np.nan, 1.0, 1.0, 1.0]), 0.0)
    with pytest.raises(TypeError):
        PriceSurface(g, np.ones(5), 0.0).values2d


def test_surface_checks_the_previous_slice_and_the_step():
    # a previous slice of the wrong shape used to be accepted and fail later
    # in beta_field with numpy's broadcast error, naming no field
    g = make_grid_2d(3.5, 5.5, 21, -4.0, -1.0, 11)
    v = np.ones(g.n_points)
    assert g.n_points == 231
    for prev in (np.ones(5), np.full(g.n_points, np.nan), np.full(g.n_points, np.inf)):
        with pytest.raises(ValueError, match="prev_values"):
            PriceSurface(g, v, 0.0, prev_values=prev, dt=0.1)
    for dt in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            PriceSurface(g, v, 0.0, prev_values=v, dt=dt)
    surface = PriceSurface(g, v, 0.0, prev_values=2.0 * v.reshape(g.shape), dt=0.1)
    assert surface.prev_values.shape == (g.n_points,)


# ---------------------------------------------------------------------------
# Merton-Garman pricing
# ---------------------------------------------------------------------------

def test_mg_degenerate_matches_bs():
    # frozen variance: zeta = lambda = mu = 0 prices like Black-Scholes
    # with sigma = sqrt(v0)
    pm = ModelParams(r=0.05, zeta=0.0, lambda_=0.0, mu=0.0)
    got = price_mg(pm, CALL, 100.0, 0.04)
    assert abs(got - BENCHMARK_CALL) / BENCHMARK_CALL < 2e-3


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
    # strike 50 lies beyond the default box; the far-field put value drives
    # the price slightly negative
    p = ModelParams(r=0.0, sigma=0.05)
    with pytest.raises(EvolveError, match=r"put price .* no-arbitrage box \[0, K e\^\{-rT\} = 50.0\]"):
        price_bs(p, OptionContract("put", 50.0, 3.0), 100.0)


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
    with pytest.raises(ValueError, match="boundary"):
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
    """The theta-step matrices as sparse sums and projector products: the
    construction ``_theta_systems`` replaces, kept as its reference."""
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
        b = projector @ b
    return a.tocsr(), b.tocsr()


def assert_same_csr(got, want):
    """Equal values on an equal pattern; ``got`` sorted and free of zeros."""
    want = want.sorted_indices()
    assert got.has_sorted_indices and np.all(got.data != 0.0)
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.data, want.data)


THETA_GRID = make_grid_1d(3.5, 5.5, 41)


@pytest.mark.parametrize("operator", ["bs", "bs-zero-padded", "momentum", "zero"])
@pytest.mark.parametrize("theta", [0.5, 1.0])
@pytest.mark.parametrize("with_boundary", [False, True])
def test_theta_systems_match_projector_construction(operator, theta, with_boundary):
    h = {"bs": lambda: build_bs_hamiltonian(P, THETA_GRID),
         "bs-zero-padded": lambda: build_bs_hamiltonian(P, THETA_GRID, "zero-padded"),
         # zero-padded first difference: no row stores a diagonal entry
         "momentum": lambda: momentum_operator(THETA_GRID, policy="zero-padded") * 0.3,
         "zero": lambda: identity_operator(THETA_GRID) * 0.0}[operator]().matrix
    dt = 0.01
    replaced = np.concatenate(_boundary_rows(THETA_GRID)[:2]) if with_boundary else None
    a, b = _theta_systems(h, theta, dt, () if replaced is None else replaced)
    want_a, want_b = projector_systems(h, theta, dt, replaced)
    assert_same_csr(a, want_a)
    assert_same_csr(b, want_b)


def test_theta_matrix_drops_cancelled_diagonal():
    # 1 + s m_ii = 0 exactly: the entry is not stored, as in I + s M
    m = sp.csr_matrix(np.array([[2.0, 1.0], [0.0, 4.0]]))
    got = _theta_matrix(m, -0.5)
    assert_same_csr(got, sp.identity(2, format="csr") + (-0.5) * m)
    assert got.nnz == 2


def test_evolve_steps_operator_without_stored_diagonal():
    # a 1D theta step on H = 0.3 d/dx (zero-padded): I + s H needs its whole
    # diagonal inserted, which must not go through a SparseEfficiencyWarning
    g = make_grid_1d(0.0, 1.0, 21)
    h = momentum_operator(g, policy="zero-padded") * 0.3
    assert not h.matrix.diagonal().any()
    u0 = np.sin(np.pi * g.points)
    dense = h.matrix.toarray()
    for boundary in (None, FarFieldBoundary(CALL, 0.05)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            surf = evolve(h, GridFunction(g, u0), 0.5, 5, theta_scheme=1.0,
                          boundary=boundary)
        want = u0.copy()
        a = np.eye(g.n) + 0.1 * dense
        for step in range(5):
            rhs = want.copy()
            if boundary is not None:
                a[[0, -1]] = np.eye(g.n)[[0, -1]]
                rhs[[0, -1]] = boundary.x_values(g, 0.1 * (step + 1))
            want = np.linalg.solve(a, rhs)
        np.testing.assert_allclose(surf.values, want, rtol=0.0, atol=1e-12)


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


def surface_csv_by_hand(surface):
    """PriceSurface.to_csv before write_grid_function_csv went through
    core.write_csv: the time line, then the grid function rows."""
    out = io.StringIO()
    out.write(f"# t={surface.valuation_time:.17g}\n")
    grid = surface.grid
    if isinstance(grid, LogGrid2D):
        out.write("x,y,value\n")
        for x, y, v in zip(grid.xs, grid.ys, surface.values):
            out.write(f"{x:.17g},{y:.17g},{v:.17g}\n")
    else:
        out.write("x,value\n")
        for x, v in zip(grid.points, surface.values):
            out.write(f"{x:.17g},{v:.17g}\n")
    return out.getvalue()


def test_surface_csv_bytes_match_hand_written_rows(tmp_path):
    g1 = default_grid_1d(100.0, 0.2, 1.0, n=31)
    s1 = evolve(build_bs_hamiltonian(P, g1), terminal_payoff(CALL, g1), 1.0, 10,
                boundary=FarFieldBoundary(CALL, P.r))
    s2 = solve_mg(ADI_P, CALL, make_grid_2d(3.6, 5.6, 9, -5.0, -1.0, 7), n_steps=4)
    for surface in (s1, s2, PriceSurface(g1, g1.points / 3.0, 0.25)):
        buf = io.StringIO()
        surface.to_csv(buf)
        assert buf.getvalue() == surface_csv_by_hand(surface)
        surface.to_csv(tmp_path / "surface.csv")
        assert (tmp_path / "surface.csv").read_text() == surface_csv_by_hand(surface)


def test_surface_validates_as_a_grid_function():
    g = make_grid_2d(0.0, 1.0, 5, 0.0, 1.0, 6)
    with pytest.raises(ValueError, match=r"values must have shape \(30,\), got \(29,\)"):
        PriceSurface(g, np.ones(29), 0.0)
    with pytest.raises(ValueError, match="finite"):
        PriceSurface(g, np.full(30, np.inf), 0.0)
    surface = PriceSurface(g, np.arange(30), 0.0)
    assert surface.values.dtype == float
    assert np.array_equal(surface.values2d, np.arange(30.0).reshape(5, 6))
