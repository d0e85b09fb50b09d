"""Discrete Hamiltonians, gauge operators, and their algebra."""

import dataclasses
import io
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from gauge_hamilton import (
    GaugeField,
    GridFunction,
    LinearOperator,
    LogGrid1D,
    ModelParams,
    apply,
    build_bs_hamiltonian,
    build_gauge_hamiltonian,
    build_mg_hamiltonian,
    build_transformed_bs,
    commutator,
    gauge_operator,
    hamiltonian_terms,
    hermiticity_defect,
    identity_operator,
    make_grid_1d,
    make_grid_2d,
    momentum_operator,
    sample,
    smooth_probe_functions,
)
from gauge_hamilton.operators import (BOUNDARY_POLICIES, _diagonals, _difference_blocks,
                                      _first_difference, _second_difference, _sum)
from gauge_hamilton.pricing import _kept_diagonals

GRID_1D = make_grid_1d(3.5, 5.5, 41)
GRID_2D = make_grid_2d(3.5, 5.5, 41, -4.0, -1.0, 21)
P = ModelParams(r=0.05, sigma=0.2)
MG_P = ModelParams(r=0.05, lambda_=0.02, mu=-0.3, zeta=0.3, alpha=1.0, rho=-0.3)


def interior(values, grid, depth=1):
    return values[grid.interior_mask(depth)]


# ---------------------------------------------------------------------------
# difference stencils
# ---------------------------------------------------------------------------

def test_first_difference_on_smooth_function():
    # d/dx e^x = e^x, central difference error ~ h^2/6
    err = []
    for n in (41, 81):
        g = make_grid_1d(3.5, 5.5, n)
        f = sample(np.exp, g)
        out = momentum_operator(g).apply(f)
        rel = np.abs(interior(out.values, g) / interior(f.values, g) - 1.0)
        err.append(rel.max())
    assert err[0] < 1e-3
    assert 3.5 < err[0] / err[1] < 4.5


def test_one_sided_endpoint_rows():
    g = make_grid_1d(0.0, 2.0, 5)
    inv2h = 1.0 / (2.0 * g.h)
    row0 = momentum_operator(g).matrix[0].toarray().ravel()
    np.testing.assert_array_equal(row0, [-3 * inv2h, 4 * inv2h, -inv2h, 0.0, 0.0])


def test_zero_padded_endpoint_rows():
    g = make_grid_1d(0.0, 2.0, 5)
    inv2h = 1.0 / (2.0 * g.h)
    row0 = momentum_operator(g, policy="zero-padded").matrix[0].toarray().ravel()
    np.testing.assert_array_equal(row0, [0.0, inv2h, 0.0, 0.0, 0.0])


def test_momentum_axis_validation():
    with pytest.raises(ValueError, match="x axis"):
        momentum_operator(GRID_1D, axis="y")
    with pytest.raises(ValueError, match="axis"):
        momentum_operator(GRID_2D, axis="z")
    with pytest.raises(ValueError, match="boundary policy"):
        momentum_operator(GRID_1D, policy="reflect")


def test_momentum_2d_y_axis_acts_along_y():
    f = sample(lambda x, y: y * y, GRID_2D)
    out = momentum_operator(GRID_2D, axis="y").apply(f).values2d
    ys = GRID_2D.y_axis.points
    # exact for quadratics
    np.testing.assert_allclose(out[1:-1, 1:-1], np.broadcast_to(2 * ys[1:-1], (39, 19)),
                               rtol=1e-12)


def dense_first_difference(n, h, policy):
    """Row-by-row reference for the first-difference stencil."""
    m = np.zeros((n, n))
    inv2h = 1.0 / (2.0 * h)
    for i in range(1, n - 1):
        m[i, i - 1], m[i, i + 1] = -inv2h, inv2h
    if policy == "one-sided-interior":
        m[0, :3] = [-3.0 * inv2h, 4.0 * inv2h, -inv2h]
        m[-1, -3:] = [inv2h, -4.0 * inv2h, 3.0 * inv2h]
    else:
        m[0, 1], m[-1, -2] = inv2h, -inv2h
    return m


def dense_second_difference(n, h, policy):
    """Row-by-row reference for the second-difference stencil."""
    m = np.zeros((n, n))
    invh2 = 1.0 / (h * h)
    for i in range(1, n - 1):
        m[i, i - 1], m[i, i], m[i, i + 1] = invh2, -2.0 * invh2, invh2
    if policy == "one-sided-interior":
        m[0, :4] = [2.0 * invh2, -5.0 * invh2, 4.0 * invh2, -invh2]
        m[-1, -4:] = [-invh2, 4.0 * invh2, -5.0 * invh2, 2.0 * invh2]
    else:
        m[0, :2] = [-2.0 * invh2, invh2]
        m[-1, -2:] = [invh2, -2.0 * invh2]
    return m


STENCIL_CASES = dict(
    n=st.integers(5, 60),
    h=st.floats(1e-3, 10.0),
    policy=st.sampled_from(BOUNDARY_POLICIES),
)


def csr_view(diagonals, n):
    """The CSR view of a stencil's diagonals."""
    return LinearOperator(make_grid_1d(0.0, 1.0, n), diagonals).matrix


@settings(max_examples=80, deadline=None)
@given(**STENCIL_CASES)
def test_stencils_match_dense_reference(n, h, policy):
    for build, reference, frozen in (
            (_first_difference, dense_first_difference, _reference_first_difference),
            (_second_difference, dense_second_difference, _reference_second_difference)):
        offsets, data = build(n, h, policy)
        dense = reference(n, h, policy)
        assert data.shape == (offsets.size, n) and np.all(np.diff(offsets) > 0)
        view = csr_view((offsets, data), n)
        np.testing.assert_array_equal(view.toarray(), dense)
        # the stored pattern is exactly the nonzero pattern: every diagonal
        # holds an entry, and a slot without one is +0
        assert np.count_nonzero(data) == np.count_nonzero(dense)
        assert data.any(axis=1).all() and not np.signbit(data[data == 0.0]).any()
        # the CSR stencil the diagonals replaced, bit for bit
        assert_same_csr(view, frozen(n, h, policy))


@settings(max_examples=80, deadline=None)
@given(**STENCIL_CASES, a=st.floats(-10.0, 10.0), b=st.floats(-10.0, 10.0),
       c=st.floats(-10.0, 10.0), x0=st.floats(-5.0, 5.0))
def test_stencils_exact_on_low_degree_polynomials(n, h, policy, a, b, c, x0):
    x = x0 + h * np.arange(n)
    linear = a + b * x
    quadratic = linear + c * x * x
    # every row of a one-sided closure is exact; zero-padded end rows drop
    # a neighbour and are exact only inside
    rows = slice(None) if policy == "one-sided-interior" else slice(1, -1)
    # below the normal range rounding is absolute, one subnormal step, not
    # relative, so each bound carries that term next to eps * magnitude
    eps, tiny = np.finfo(float).eps, np.finfo(float).smallest_subnormal
    d1 = csr_view(_first_difference(n, h, policy), n) @ linear
    np.testing.assert_allclose(d1[rows], b, rtol=0.0,
                               atol=64 * (eps * np.abs(linear).max() + tiny) / h)
    d2 = csr_view(_second_difference(n, h, policy), n) @ quadratic
    np.testing.assert_allclose(d2[rows], 2.0 * c, rtol=0.0,
                               atol=256 * (eps * np.abs(quadratic).max() + tiny) / (h * h))


# ---------------------------------------------------------------------------
# LinearOperator mechanics
# ---------------------------------------------------------------------------

def test_operator_validation():
    import scipy.sparse as sp
    with pytest.raises(ValueError, match="shape"):
        LinearOperator(GRID_1D, sp.identity(7, format="csr"))
    bad = sp.csr_matrix(np.full((41, 41), np.nan))
    with pytest.raises(ValueError, match="finite"):
        LinearOperator(GRID_1D, bad)


def test_apply_grid_mismatch():
    other = make_grid_1d(0.0, 1.0, 41)
    f = sample(np.exp, other)
    with pytest.raises(ValueError, match="grid mismatch"):
        build_bs_hamiltonian(P, GRID_1D).apply(f)


@pytest.mark.parametrize("policy", BOUNDARY_POLICIES)
def test_apply_is_the_csr_views_product_bit_for_bit(policy):
    # the DIA product sums each row in ascending column order, as the sorted
    # CSR view's product does; a masked (NaN) point reaches only the rows
    # with an entry in its column
    d = momentum_operator(GRID_1D, policy=policy)
    ops = [build_bs_hamiltonian(P, GRID_1D, policy), d @ d,
           build_mg_hamiltonian(MG_P, GRID_2D, policy),
           build_gauge_hamiltonian(MG_P, GRID_2D, "factored", policy),
           momentum_operator(GRID_2D, "y", policy)]
    rng = np.random.default_rng(3)
    for op in ops:
        u = rng.standard_normal(op.grid.n_points)
        for masked in (False, True):
            if masked:
                u[u.size // 2] = np.nan
            got = op.apply(GridFunction(op.grid, u, allow_masked=masked)).values
            want = op.matrix @ u
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        assert np.isnan(got).sum() == np.count_nonzero(op.matrix[:, u.size // 2].toarray())


def test_operator_algebra_and_reach():
    p = momentum_operator(GRID_1D)
    assert p.stencil_reach == 1
    assert (p @ p).stencil_reach == 2
    assert (p + p).stencil_reach == 1
    assert (2.0 * p).max_abs() == 2.0 * p.max_abs()
    assert (-p).max_abs() == p.max_abs()
    assert (p - p).max_abs() == 0.0
    f = sample(np.sin, GRID_1D)
    assert np.array_equal(apply(p, f).values, p.apply(f).values)


def test_to_coo_csv():
    buf = io.StringIO()
    identity_operator(make_grid_1d(0.0, 1.0, 5)).to_coo_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "row,col,value"
    assert len(lines) == 6
    assert lines[1].split(",") == ["0", "0", "1"]


def coo_csv_by_hand(op):
    """to_coo_csv before it went through core.write_csv."""
    coo = op.matrix.tocoo()
    out = io.StringIO()
    out.write("row,col,value\n")
    for r, c, v in zip(coo.row, coo.col, coo.data):
        out.write(f"{r},{c},{v:.17g}\n")
    return out.getvalue()


@pytest.mark.parametrize("op", [build_bs_hamiltonian(P, GRID_1D),
                                build_mg_hamiltonian(MG_P, make_grid_2d(0.0, 1.0, 7, -1.0, 0.0, 6))],
                         ids=["bs-1d", "mg-2d"])
def test_to_coo_csv_bytes_match_hand_written_rows(op, tmp_path):
    buf = io.StringIO()
    op.to_coo_csv(buf)
    assert buf.getvalue() == coo_csv_by_hand(op)
    op.to_coo_csv(tmp_path / "op.csv")
    assert (tmp_path / "op.csv").read_text() == coo_csv_by_hand(op)


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------

def test_constant_annihilation_all_models():
    # derivative stencils sum to zero, so H 1 = r; merged-matrix rows
    # accumulate the terms in column order and keep only rounding residue
    ones1 = GridFunction(GRID_1D, np.ones(41))
    ones2 = GridFunction(GRID_2D, np.ones(GRID_2D.n_points))
    for h, f, g in (
        (build_bs_hamiltonian(P, GRID_1D), ones1, GRID_1D),
        (build_mg_hamiltonian(MG_P, GRID_2D), ones2, GRID_2D),
        (build_gauge_hamiltonian(ModelParams(r=0.05), GRID_2D), ones2, GRID_2D),
    ):
        out = h.apply(f)
        assert np.abs(interior(out.values, g) - 0.05).max() < 1e-13


def test_bs_annihilates_exponential_at_second_order():
    # H e^x = 0 in the continuum; discrete residual is O(h^2)
    err = []
    for n in (41, 81):
        g = make_grid_1d(3.5, 5.5, n)
        f = sample(np.exp, g)
        out = build_bs_hamiltonian(P, g).apply(f)
        err.append(np.abs(interior(out.values, g) / interior(f.values, g)).max())
    assert err[0] < 1e-4
    assert 3.5 < err[0] / err[1] < 4.5


def test_bs_2d_acts_only_along_x():
    f = sample(lambda x, y: np.exp(x) + 0.0 * y, GRID_2D)
    out = build_bs_hamiltonian(P, GRID_2D).apply(f).values2d
    # every y column sees the same 1D action
    assert np.array_equal(out[:, 5], out[:, 10])


def test_hamiltonian_terms_keys_and_errors():
    assert set(hamiltonian_terms(P, GRID_1D, "bs")) == {"second_x", "first_x", "potential"}
    full = {"second_x", "first_x", "first_y", "cross_xy", "second_y", "potential"}
    assert set(hamiltonian_terms(MG_P, GRID_2D, "mg")) == full
    assert set(hamiltonian_terms(P, GRID_2D, "gauge")) == full
    with pytest.raises(ValueError, match="unknown model"):
        hamiltonian_terms(P, GRID_1D, "heston")
    with pytest.raises(TypeError):
        build_mg_hamiltonian(MG_P, GRID_1D)
    with pytest.raises(TypeError):
        build_gauge_hamiltonian(P, GRID_1D)
    with pytest.raises(ValueError, match="form"):
        build_gauge_hamiltonian(P, GRID_2D, form="weird")


def test_mg_with_flat_variance_matches_local_gauge_blocks():
    # zeta = lambda = mu = 0 removes every y term; what is left is the
    # local-volatility x action shared with the gauge operator
    flat = ModelParams(r=0.05, zeta=0.0, lambda_=0.0, mu=0.0)
    mg = hamiltonian_terms(flat, GRID_2D, "mg")
    ga = hamiltonian_terms(flat, GRID_2D, "gauge")
    for name in ("second_x", "first_x", "potential"):
        assert (mg[name].matrix != ga[name].matrix).nnz == 0
    for name in ("first_y", "cross_xy", "second_y"):
        assert mg[name].max_abs() == 0.0


def test_mg_vol_vol_half_halves_one_block():
    half = ModelParams(r=0.05, zeta=0.4, alpha=1.2, vol_vol_half=True)
    full = ModelParams(r=0.05, zeta=0.4, alpha=1.2, vol_vol_half=False)
    t_half = hamiltonian_terms(half, GRID_2D, "mg")["second_y"]
    t_full = hamiltonian_terms(full, GRID_2D, "mg")["second_y"]
    assert (t_half.matrix * 2.0 != t_full.matrix).nnz == 0


def test_gauge_sigma_modes():
    loc = build_gauge_hamiltonian(ModelParams(r=0.05, sigma_local=True), GRID_2D)
    const = build_gauge_hamiltonian(ModelParams(r=0.05, sigma=0.2, sigma_local=False), GRID_2D)
    assert (loc.matrix != const.matrix).nnz > 0
    # constant mode must not depend on y: compare two interior x rows at
    # different y (same stencil values)
    ny = GRID_2D.ny
    r1 = const.matrix[5 * ny + 5].toarray().ravel()
    r2 = const.matrix[5 * ny + 10].toarray().ravel()
    np.testing.assert_array_equal(np.sort(r1[r1 != 0]), np.sort(r2[r2 != 0]))


def test_factored_form_reach_and_convergence():
    fac = build_gauge_hamiltonian(P, GRID_2D, form="factored")
    exp = build_gauge_hamiltonian(P, GRID_2D, form="expanded")
    assert fac.stencil_reach == 2
    assert exp.stencil_reach == 1
    # gap between the forms shrinks at second order; compare the same
    # physical points of two refinements (coarse points = fine[::2, ::2])
    probe = smooth_probe_functions(GRID_2D, 1, seed=42)[0]

    def gap(nx, ny):
        g = make_grid_2d(3.5, 5.5, nx, -4.0, -1.0, ny)
        f = sample(probe, g)
        d = build_gauge_hamiltonian(P, g, form="factored").apply(f).values \
            - build_gauge_hamiltonian(P, g, form="expanded").apply(f).values
        return d.reshape(g.shape)

    mask = np.outer(GRID_2D.x_axis.interior_mask(2), GRID_2D.y_axis.interior_mask(2))
    coarse = np.abs(gap(41, 21)[mask]).max()
    fine = np.abs(gap(81, 41)[::2, ::2][mask]).max()
    assert 3.5 < coarse / fine < 4.5


def collapse_row_over_y(matrix, ny, row):
    """Exact per-x-column sums of one 2D operator row."""
    sl = matrix.getrow(row)
    groups = {}
    for col, val in zip(sl.indices, sl.data):
        groups.setdefault(int(col) // ny, []).append(float(val))
    return {xi: math.fsum(v) for xi, v in groups.items()}


def test_gauge_constant_sigma_collapses_to_bs_stencil():
    # summed over y neighbours, every interior row of the constant-sigma
    # gauge operator is bit for bit the 1D Black-Scholes stencil
    p = ModelParams(r=0.05, sigma=0.2, sigma_local=False)
    h2 = build_gauge_hamiltonian(p, GRID_2D)
    h1 = build_bs_hamiltonian(p, GRID_1D).matrix.tocsr()
    nx, ny = GRID_2D.shape
    for i in (1, 7, nx // 2, nx - 2):
        want = {int(c): float(v) for c, v in zip(h1.getrow(i).indices, h1.getrow(i).data)}
        for j in (1, ny // 2, ny - 2):
            got = collapse_row_over_y(h2.matrix, ny, i * ny + j)
            assert got == want


def test_gauge_constant_sigma_matvec_matches_bs():
    p = ModelParams(r=0.05, sigma=0.2, sigma_local=False)
    h2 = build_gauge_hamiltonian(p, GRID_2D)
    h1 = build_bs_hamiltonian(p, GRID_1D)
    for probe in smooth_probe_functions(GRID_2D, 5, seed=3, y_constant=True):
        out2 = h2.apply(sample(probe, GRID_2D)).values2d
        out1 = h1.apply(sample(probe, GRID_1D)).values
        scale = np.abs(out1[1:-1]).max()
        # matvec accumulates the cancelling y terms in between the x terms,
        # so agreement is to rounding, not bitwise
        assert np.abs(out2[1:-1, 1:-1] - out1[1:-1, None]).max() <= 1e-13 * scale


# ---------------------------------------------------------------------------
# hermiticity
# ---------------------------------------------------------------------------

def test_hermiticity_defect_zero_at_balance_point():
    # sigma^2 = 2r exactly in floats: 0.25^2 = 0.0625 = 2 * 0.03125
    h = build_bs_hamiltonian(ModelParams(r=0.03125, sigma=0.25), GRID_1D)
    assert hermiticity_defect(h) == 0.0


def test_hermiticity_defect_nonzero_off_balance():
    h = build_bs_hamiltonian(ModelParams(r=0.05, sigma=0.2), GRID_1D)
    d = hermiticity_defect(h)
    # the skew part is the drift: |sigma^2/2 - r| / h = 0.03 / 0.05
    assert d == pytest.approx(0.6, rel=1e-12)


def test_hermiticity_defect_of_symmetric_operator():
    assert hermiticity_defect(identity_operator(GRID_1D)) == 0.0
    p = momentum_operator(GRID_1D)
    assert hermiticity_defect(p) > 0.0  # first difference is antisymmetric
    assert hermiticity_defect(p @ p, depth=2) == 0.0


@pytest.mark.parametrize("depth", [-1, 11, 2.5])
def test_hermiticity_defect_refuses_a_vacuous_interior(depth):
    # depth -1 and 11 used to report 0.0 from a mask holding one point or
    # none, on an operator whose interior defect is 0.3
    h = build_bs_hamiltonian(P, make_grid_1d(3.5, 5.5, 21))
    assert hermiticity_defect(h, depth=1) == pytest.approx(0.3, rel=1e-12)
    with pytest.raises(ValueError, match="^depth must be"):
        hermiticity_defect(h, depth=depth)


# ---------------------------------------------------------------------------
# gauge fields and transformations
# ---------------------------------------------------------------------------

def test_gauge_operator_diagonal_values():
    g = make_grid_1d(0.0, 1.0, 5)
    u = gauge_operator(GaugeField.linear_x(1.0), g)
    diag = u.matrix.diagonal()
    assert diag[0] == 1.0
    assert diag[-1] == math.exp(1.0)
    np.testing.assert_array_equal(diag, np.exp(g.points))


def test_gauge_operator_inverse():
    u = gauge_operator(GaugeField.linear_x(1.0), GRID_1D)
    u_inv = gauge_operator(GaugeField.linear_x(-1.0), GRID_1D)
    prod = (u @ u_inv).matrix.diagonal()
    np.testing.assert_allclose(prod, 1.0, atol=1e-12)


def test_gauge_operator_overflow():
    g = make_grid_1d(0.0, 800.0, 9)
    with pytest.raises(ValueError, match="overflow"):
        gauge_operator(GaugeField.linear_x(1.0), g)


def test_gauge_fields_must_be_finite_on_the_grid():
    log_x = GaugeField(theta=lambda x, y: np.log(x), theta_x=lambda x, y: 1.0 / x,
                       theta_y=lambda x, y: 0.0 * x, theta_xy=lambda x, y: 0.0 * x, omega=1.0)
    with np.errstate(divide="ignore"):
        with pytest.raises(ValueError, match="non-finite theta -inf at grid index 0"):
            gauge_operator(log_x, make_grid_1d(0.0, 1.0, 5))
        with pytest.raises(ValueError, match=r"non-finite theta_x inf at grid index \(0, 0\)"):
            build_transformed_bs(P, log_x, make_grid_2d(0.0, 1.0, 5, 0.0, 1.0, 5))


def test_commutator_with_linear_field_is_large():
    u = gauge_operator(GaugeField.linear_x(1.0), GRID_1D)
    h = build_bs_hamiltonian(P, GRID_1D)
    c = commutator(u, h)
    assert c.max_abs() > 1e-6
    # and on every normalized probe the action itself is visibly nonzero
    for probe in smooth_probe_functions(GRID_1D, 5, seed=2024):
        act = c.apply(sample(probe, GRID_1D)).values
        assert np.abs(interior(act, GRID_1D)).max() > 1e-6


def test_commutator_with_constant_field_vanishes_exactly():
    u = gauge_operator(GaugeField.constant(1.0), GRID_1D)
    h = build_bs_hamiltonian(P, GRID_1D)
    assert commutator(u, h).max_abs() == 0.0
    assert commutator(h, identity_operator(GRID_1D)).max_abs() == 0.0


def test_transformed_bs_reduces_to_bs():
    # omega = 0 leaves the operator untouched in every convention
    field = GaugeField.linear_x(0.0)
    h = build_bs_hamiltonian(P, GRID_1D)
    for conv in ("direct", "left", "right"):
        t = build_transformed_bs(P, field, GRID_1D, conv)
        assert (t.matrix != h.matrix).nnz == 0
    # constant theta: direct adds nothing, sandwiches cancel to rounding
    const = GaugeField.constant(1.0, value=0.7)
    assert (build_transformed_bs(P, const, GRID_1D, "direct").matrix != h.matrix).nnz == 0
    for conv in ("left", "right"):
        t = build_transformed_bs(P, const, GRID_1D, conv)
        np.testing.assert_allclose(t.matrix.toarray(), h.matrix.toarray(),
                                   rtol=1e-13, atol=1e-30)


def test_left_convention_matches_analytic_conjugation():
    # U^-1 H U = H - sigma^2 w dx - (sigma^2/2) w^2 + (sigma^2/2 - r) w
    # for theta = x; the discrete sandwich converges to it at second order
    field = GaugeField.linear_x(0.5)
    sig2, om = P.sigma ** 2, 0.5

    def gap(n):
        g = make_grid_1d(3.5, 5.5, n)
        left = build_transformed_bs(P, field, g, "left")
        analytic = (build_bs_hamiltonian(P, g)
                    + (-sig2 * om) * momentum_operator(g)
                    + (om * (0.5 * sig2 - P.r) - 0.5 * sig2 * om * om) * identity_operator(g))
        worst = 0.0
        for probe in smooth_probe_functions(g, 3, seed=8):
            f = sample(probe, g)
            d = left.apply(f).values - analytic.apply(f).values
            worst = max(worst, np.abs(interior(d, g)).max())
        return worst

    e1, e2 = gap(41), gap(81)
    assert e1 < 0.05
    assert 3.5 < e1 / e2 < 4.5


def test_transform_convention_validation():
    with pytest.raises(ValueError, match="convention"):
        build_transformed_bs(P, GaugeField.linear_x(1.0), GRID_1D, "middle")


def test_smooth_probes_are_bounded_and_reusable():
    probes = smooth_probe_functions(GRID_2D, 4, seed=1)
    fine = make_grid_2d(3.5, 5.5, 81, -4.0, -1.0, 41)
    for probe in probes:
        coarse_vals = sample(probe, GRID_2D).values2d
        fine_vals = sample(probe, fine).values2d
        assert np.abs(coarse_vals).max() <= 1.0 + 1e-12
        # shared physical points evaluate identically
        assert np.array_equal(fine_vals[::2, ::2], coarse_vals)
    flat = smooth_probe_functions(GRID_2D, 2, seed=1, y_constant=True)
    for probe in flat:
        v = sample(probe, GRID_2D).values2d
        assert np.array_equal(v[:, 0], v[:, -1])


# ---------------------------------------------------------------------------
# one difference-block builder for both grid types
# ---------------------------------------------------------------------------
# The per-grid-type constructions the builder replaced are kept below as
# the reference, on the CSR stencils and Kronecker products the diagonal
# build replaced: every builder's CSR view must store the canonical form of
# the same CSR arrays, bit for bit.

def _reference_stencil(n, band, first, last):
    """CSR matrix from an interior band and two end rows, as the stencils
    were assembled before they were written as diagonals."""
    offsets, coeffs = band
    k = len(offsets)
    inner = n - 2
    indices = np.concatenate([first[0], (np.arange(1, n - 1)[:, None] + offsets).ravel(),
                              last[0]])
    data = np.concatenate([first[1], np.tile(coeffs, inner), last[1]])
    indptr = np.concatenate([[0], len(first[0]) + k * np.arange(inner + 1), [indices.size]])
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def _reference_first_difference(n, h, policy):
    inv2h = 1.0 / (2.0 * h)
    if policy == "one-sided-interior":
        first = ((0, 1, 2), (-3.0 * inv2h, 4.0 * inv2h, -inv2h))
        last = ((n - 3, n - 2, n - 1), (inv2h, -4.0 * inv2h, 3.0 * inv2h))
    else:
        first, last = ((1,), (inv2h,)), ((n - 2,), (-inv2h,))
    return _reference_stencil(n, ((-1, 1), (-inv2h, inv2h)), first, last)


def _reference_second_difference(n, h, policy):
    invh2 = 1.0 / (h * h)
    if policy == "one-sided-interior":
        first = ((0, 1, 2, 3), (2.0 * invh2, -5.0 * invh2, 4.0 * invh2, -invh2))
        last = ((n - 4, n - 3, n - 2, n - 1), (-invh2, 4.0 * invh2, -5.0 * invh2, 2.0 * invh2))
    else:
        first = ((0, 1), (-2.0 * invh2, invh2))
        last = ((n - 2, n - 1), (invh2, -2.0 * invh2))
    return _reference_stencil(n, ((-1, 0, 1), (invh2, -2.0 * invh2, invh2)), first, last)


def _reference_blocks_2d(grid, policy):
    d1x = _reference_first_difference(grid.nx, grid.hx, policy)
    d1y = _reference_first_difference(grid.ny, grid.hy, policy)
    d2x = _reference_second_difference(grid.nx, grid.hx, policy)
    d2y = _reference_second_difference(grid.ny, grid.hy, policy)
    ix = sp.identity(grid.nx)
    iy = sp.identity(grid.ny)
    return {
        "dx": sp.kron(d1x, iy, format="csr"),
        "dy": sp.kron(ix, d1y, format="csr"),
        "dxx": sp.kron(d2x, iy, format="csr"),
        "dyy": sp.kron(ix, d2y, format="csr"),
        "dxy": sp.kron(d1x, d1y, format="csr"),
    }


def _reference_blocks(grid, policy):
    if isinstance(grid, LogGrid1D):
        return {"dx": _reference_first_difference(grid.n, grid.h, policy),
                "dxx": _reference_second_difference(grid.n, grid.h, policy)}
    return _reference_blocks_2d(grid, policy)


def _reference_transformed_direct(params, gauge, grid, policy):
    blocks = _reference_blocks(grid, policy)
    half_sig2 = 0.5 * params.sigma * params.sigma
    h_bs = (-half_sig2 * blocks["dxx"] + (half_sig2 - params.r) * blocks["dx"]
            + params.r * sp.identity(grid.n_points, format="csr"))
    coords = (grid.points, np.zeros(grid.n)) if isinstance(grid, LogGrid1D) else (grid.xs, grid.ys)
    tx = gauge.theta_x(*coords)
    sig2, om = params.sigma * params.sigma, gauge.omega
    extra = (sp.diags(sig2 * om * tx, format="csr") @ blocks["dx"]
             + sp.diags(0.5 * sig2 * om * (1.0 + om) * tx * tx
                        + om * (0.5 * sig2 - params.r) * tx, format="csr"))
    return h_bs + extra


def canonical(m):
    """A copy of ``m`` in CSR with sorted columns, duplicates summed and no
    stored zero."""
    m = sp.csr_matrix(m, copy=True)
    m.sum_duplicates()
    m.eliminate_zeros()
    return m


def assert_same_csr(got, want):
    """``got`` is canonical and stores the arrays of ``want``'s canonical
    form, bit for bit."""
    want = canonical(want)
    assert got.shape == want.shape
    assert got.has_canonical_format and np.all(got.data != 0.0)
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


WAVY = GaugeField(theta=lambda x, y: np.sin(x) + 0.3 * y,
                  theta_x=lambda x, y: np.cos(x),
                  theta_y=lambda x, y: np.full_like(x, 0.3),
                  theta_xy=lambda x, y: np.zeros_like(x), omega=0.4)


@pytest.mark.parametrize("policy", BOUNDARY_POLICIES)
@pytest.mark.parametrize("grid", [GRID_1D, GRID_2D], ids=["1d", "2d"])
def test_block_builder_stores_the_reference_arrays(grid, policy):
    for name, want in _reference_blocks(grid, policy).items():
        (got,) = _difference_blocks(grid, policy, name)
        assert_same_csr(LinearOperator(grid, _sum(grid.n_points, [got]), policy).matrix, want)
    blocks = _reference_blocks(grid, policy)
    assert_same_csr(momentum_operator(grid, "x", policy).matrix, blocks["dx"])
    if not isinstance(grid, LogGrid1D):
        assert_same_csr(momentum_operator(grid, "y", policy).matrix, blocks["dy"])
        d = blocks["dx"] + blocks["dy"]
        sig2 = np.exp(grid.ys)
        factored = (sp.diags(-0.5 * sig2, format="csr") @ (d @ d)
                    + sp.diags(0.5 * sig2 - P.r, format="csr") @ d
                    + P.r * sp.identity(grid.n_points, format="csr"))
        assert_same_csr(build_gauge_hamiltonian(P, grid, "factored", policy).matrix, factored)
    for gauge in (GaugeField.linear_x(0.7), WAVY):
        assert_same_csr(build_transformed_bs(P, gauge, grid, "direct", policy).matrix,
                        _reference_transformed_direct(P, gauge, grid, policy))


def test_block_builder_rejects_y_blocks_on_1d_grids():
    for name in ("dy", "dyy", "dxy"):
        with pytest.raises(ValueError, match="x axis"):
            _difference_blocks(GRID_1D, "one-sided-interior", name)


# ---------------------------------------------------------------------------
# one coefficient table for the three Hamiltonians; the algebra combines
# ---------------------------------------------------------------------------
# The per-model term constructions the table replaced are kept below as the
# reference: every term, Hamiltonian and combined operator must store the
# same CSR arrays, bit for bit.

def _reference_terms(params, grid, model, policy):
    blocks = _reference_blocks(grid, policy)
    n, r = grid.n_points, params.r

    def diag(values):
        return sp.diags(values, format="csr")

    if model == "bs":
        half_sig2 = 0.5 * params.sigma * params.sigma
        return {
            "second_x": -half_sig2 * blocks["dxx"],
            "first_x": (half_sig2 - r) * blocks["dx"],
            "potential": r * sp.identity(n, format="csr"),
        }
    if model == "mg":
        y = grid.ys
        ey = np.exp(y)
        zeta2 = params.zeta * params.zeta
        coef_yy = zeta2 * np.exp(2.0 * y * (params.alpha - 1.0))
        if params.vol_vol_half:
            coef_yy = 0.5 * coef_yy
        return {
            "second_x": diag(-0.5 * ey) @ blocks["dxx"],
            "first_x": diag(-(r - 0.5 * ey)) @ blocks["dx"],
            "first_y": diag(-(params.lambda_ * np.exp(-y) + params.mu
                              - 0.5 * zeta2 * np.exp(2.0 * y * (params.alpha - 1.0))))
            @ blocks["dy"],
            "cross_xy": diag(-params.rho * params.zeta
                             * np.exp(y * (params.alpha - 0.5))) @ blocks["dxy"],
            "second_y": diag(-coef_yy) @ blocks["dyy"],
            "potential": r * sp.identity(n, format="csr"),
        }
    sig2 = np.exp(grid.ys) if params.sigma_local else np.full(n, params.sigma * params.sigma)
    return {
        "second_x": diag(-0.5 * sig2) @ blocks["dxx"],
        "first_x": diag(0.5 * sig2 - r) @ blocks["dx"],
        "first_y": diag(0.5 * sig2 - r) @ blocks["dy"],
        "cross_xy": diag(-sig2) @ blocks["dxy"],
        "second_y": diag(-0.5 * sig2) @ blocks["dyy"],
        "potential": r * sp.identity(n, format="csr"),
    }


def _reference_sum(terms):
    total = None
    for mat in terms.values():
        total = mat if total is None else total + mat
    return total


TABLE_PARAMS = [
    ModelParams(r=0.05, sigma=0.2, lambda_=0.02, mu=-0.3, zeta=0.3, alpha=1.0, rho=-0.3),
    ModelParams(r=0.03, sigma=0.25, lambda_=0.01, mu=-0.2, zeta=0.5, alpha=0.5, rho=-0.5,
                vol_vol_half=True, sigma_local=False),
]
BUILDERS = {
    "bs": build_bs_hamiltonian,
    "mg": build_mg_hamiltonian,
    "gauge": build_gauge_hamiltonian,
}


@pytest.mark.parametrize("policy", BOUNDARY_POLICIES)
@pytest.mark.parametrize("params", TABLE_PARAMS, ids=["default", "half-constant"])
@pytest.mark.parametrize("grid, model", [(GRID_1D, "bs"), (GRID_2D, "bs"), (GRID_2D, "mg"),
                                         (GRID_2D, "gauge")],
                         ids=["bs-1d", "bs-2d", "mg", "gauge"])
def test_coefficient_table_stores_the_reference_arrays(grid, model, params, policy):
    want = _reference_terms(params, grid, model, policy)
    got = hamiltonian_terms(params, grid, model, policy)
    assert list(got) == list(want)
    for name, op in got.items():
        assert_same_csr(op.matrix, want[name])
        assert op.boundary_policy == policy and op.stencil_reach == 1
    h = BUILDERS[model](params, grid, policy=policy)
    assert_same_csr(h.matrix, _reference_sum(want))
    assert h.boundary_policy == policy and h.stencil_reach == 1


GENERATED_GRIDS = st.one_of(
    st.tuples(st.just("bs"), st.integers(5, 60), st.none()),
    st.tuples(st.sampled_from(["bs", "mg", "gauge"]), st.integers(5, 30), st.integers(5, 20)))


@settings(max_examples=80, deadline=None)
@given(case=GENERATED_GRIDS, policy=st.sampled_from(BOUNDARY_POLICIES),
       r=st.floats(0.0, 0.1), sigma=st.floats(0.05, 0.6), alpha=st.floats(0.3, 1.5),
       rho=st.one_of(st.just(0.0), st.floats(-0.95, 0.95)), vol_vol_half=st.booleans(),
       sigma_local=st.booleans())
def test_generated_operators_store_the_kronecker_arrays(case, policy, r, sigma, alpha, rho,
                                                         vol_vol_half, sigma_local):
    model, nx, ny = case
    grid = (make_grid_1d(3.5, 5.5, nx) if ny is None else
            make_grid_2d(3.5, 5.5, nx, -4.0, -1.0, ny))
    params = ModelParams(r=r, sigma=sigma, lambda_=0.02, mu=-0.3, zeta=0.4, alpha=alpha,
                         rho=rho, vol_vol_half=vol_vol_half, sigma_local=sigma_local)
    want = _reference_terms(params, grid, model, policy)
    got = hamiltonian_terms(params, grid, model, policy)
    assert list(got) == list(want)
    for name, op in got.items():
        assert_same_csr(op.matrix, want[name])
    reference = _reference_sum(want)
    h = BUILDERS[model](params, grid, policy=policy)
    assert_same_csr(h.matrix, reference)
    # the rows a theta-stepper reads: all of them or the interior in 1D,
    # the interior in 2D, read off the diagonals as off the reference CSR
    for depth in ((0, 1) if ny is None else (1,)):
        rows = grid.interior_mask(depth)
        (offsets, data), (want_offsets, want_data) = (_kept_diagonals(h, rows),
                                                      _diagonals(reference, rows))
        np.testing.assert_array_equal(offsets, want_offsets)
        np.testing.assert_array_equal(data.view(np.int64), want_data.view(np.int64))


@pytest.mark.parametrize("policy", BOUNDARY_POLICIES)
@pytest.mark.parametrize("grid", [GRID_1D, GRID_2D], ids=["1d", "2d"])
def test_operator_algebra_stores_the_reference_arrays(grid, policy):
    h = build_bs_hamiltonian(P, grid, policy)
    for gauge in (GaugeField.linear_x(0.7), WAVY):
        u = gauge_operator(gauge, grid)
        u_inv = gauge_operator(GaugeField(gauge.theta, gauge.theta_x, gauge.theta_y,
                                          gauge.theta_xy, -gauge.omega), grid)
        left = build_transformed_bs(P, gauge, grid, "left", policy)
        right = build_transformed_bs(P, gauge, grid, "right", policy)
        assert_same_csr(left.matrix, u_inv.matrix @ h.matrix @ u.matrix)
        assert_same_csr(right.matrix, u.matrix @ h.matrix @ u_inv.matrix)
        assert left.boundary_policy == right.boundary_policy == policy
        for a, b in ((u, h), (h, u), (h, momentum_operator(grid, "x", policy))):
            c = commutator(a, b)
            assert_same_csr(c.matrix, a.matrix @ b.matrix - b.matrix @ a.matrix)
            assert c.boundary_policy == a.boundary_policy
            assert (a @ b).boundary_policy == (a + b).boundary_policy == a.boundary_policy
            assert c.stencil_reach == a.stencil_reach + b.stencil_reach


def test_operator_is_a_grid_a_matrix_a_policy_and_a_reach():
    # the matrix is held as its diagonals; a matrix given in their place is
    # read into them, and the CSR view is made from them
    assert [f.name for f in dataclasses.fields(LinearOperator)] == [
        "grid", "diagonals", "boundary_policy", "stencil_reach"]
    eye = sp.identity(GRID_1D.n, format="csr")
    op = LinearOperator(GRID_1D, eye, "zero-padded", 0)
    assert op.stencil_reach == 0
    offsets, data = op.diagonals
    assert offsets.tolist() == [0] and np.array_equal(data, np.ones((1, GRID_1D.n)))
    assert_same_csr(op.matrix, eye)
    assert op.matrix is op.matrix
    with pytest.raises(TypeError, match="LinearOperator"):
        commutator(op, op.matrix)
    with pytest.raises(ValueError, match="grid mismatch"):
        commutator(op, identity_operator(make_grid_1d(3.5, 5.5, 43)))
