"""Discrete Hamiltonians, gauge operators, and their algebra."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from click.testing import CliRunner
from hypothesis import strategies as st

from gauge_hamilton import (
    GaugeField,
    GridFunction,
    InputError,
    LinearOperator,
    LogGrid1D,
    ModelParams,
    OptionContract,
    beta_field,
    build_bs_hamiltonian,
    build_gauge_hamiltonian,
    build_mg_hamiltonian,
    build_transformed_bs,
    bs_closed_form,
    commutator,
    default_grid_2d,
    gauge_operator,
    hamiltonian_terms,
    hermiticity_defect,
    make_grid_1d,
    make_grid_2d,
    momentum_operator,
    sample,
    smooth_probe_functions,
    solve_mg,
)
from gauge_hamilton.cli import main
from gauge_hamilton.gauge_analysis import _bs_limit_residual, _check_bs_limit
from gauge_hamilton.operators import (_difference_blocks, _first_difference, _second_difference,
                                      _sum)
from gauge_hamilton.pricing import _kept_diagonals

from dia_reference import (csr_bs_limit_residual, csr_diagonals, csr_hermiticity_defect,
                           identity_operator, scaled)

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


def test_momentum_axis_validation():
    with pytest.raises(ValueError, match="x axis"):
        momentum_operator(GRID_1D, axis="y")
    with pytest.raises(ValueError, match="axis"):
        momentum_operator(GRID_2D, axis="z")


def test_momentum_2d_y_axis_acts_along_y():
    f = sample(lambda x, y: y * y, GRID_2D)
    out = momentum_operator(GRID_2D, axis="y").apply(f).values2d
    ys = GRID_2D.y_axis.points
    # exact for quadratics
    np.testing.assert_allclose(out[1:-1, 1:-1], np.broadcast_to(2 * ys[1:-1], (39, 19)),
                               rtol=1e-12)


def dense_first_difference(n, h):
    """Row-by-row reference for the first-difference stencil."""
    m = np.zeros((n, n))
    inv2h = 1.0 / (2.0 * h)
    for i in range(1, n - 1):
        m[i, i - 1], m[i, i + 1] = -inv2h, inv2h
    m[0, :3] = [-3.0 * inv2h, 4.0 * inv2h, -inv2h]
    m[-1, -3:] = [inv2h, -4.0 * inv2h, 3.0 * inv2h]
    return m


def dense_second_difference(n, h):
    """Row-by-row reference for the second-difference stencil."""
    m = np.zeros((n, n))
    invh2 = 1.0 / (h * h)
    for i in range(1, n - 1):
        m[i, i - 1], m[i, i], m[i, i + 1] = invh2, -2.0 * invh2, invh2
    m[0, :4] = [2.0 * invh2, -5.0 * invh2, 4.0 * invh2, -invh2]
    m[-1, -4:] = [-invh2, 4.0 * invh2, -5.0 * invh2, 2.0 * invh2]
    return m


STENCIL_CASES = dict(
    n=st.integers(5, 60),
    h=st.floats(1e-3, 10.0),
)


def csr_view(diagonals, n):
    """The CSR view of a stencil's diagonals."""
    return LinearOperator(make_grid_1d(0.0, 1.0, n), diagonals).matrix


@settings(max_examples=80, deadline=None)
@given(**STENCIL_CASES)
def test_stencils_match_dense_reference(n, h):
    for build, reference, frozen in (
            (_first_difference, dense_first_difference, _reference_first_difference),
            (_second_difference, dense_second_difference, _reference_second_difference)):
        offsets, data = build(n, h)
        dense = reference(n, h)
        assert data.shape == (offsets.size, n) and np.all(np.diff(offsets) > 0)
        view = csr_view((offsets, data), n)
        np.testing.assert_array_equal(view.toarray(), dense)
        # the stored pattern is exactly the nonzero pattern: every diagonal
        # holds an entry, and a slot without one is +0
        assert np.count_nonzero(data) == np.count_nonzero(dense)
        assert data.any(axis=1).all() and not np.signbit(data[data == 0.0]).any()
        # the CSR stencil the diagonals replaced, bit for bit
        assert_same_csr(view, frozen(n, h))


# multiples of 1/8 in [-10, 10]
EIGHTHS = st.integers(-80, 80).map(lambda m: m / 8.0)


@settings(max_examples=80, deadline=None)
@given(n=STENCIL_CASES["n"], h=st.integers(-10, 3).map(lambda k: 2.0 ** k), a=EIGHTHS,
       b=EIGHTHS, c=EIGHTHS, x0=st.integers(-5 * 1024, 5 * 1024).map(lambda m: m / 1024.0))
def test_stencils_exact_on_low_degree_polynomials(n, h, a, b, c, x0):
    # every row is exact, the one-sided end rows too.  The inputs are
    # dyadic, so each sample a + b x + c x^2 is exact (it spans at most 45
    # bits) and the bounds cover only the stencil's own rounding; with
    # samples that cancel (b x + c x^2 near 0 from terms near 3) their own
    # rounding, over h^2, used to exceed the second difference's bound
    x = x0 + h * np.arange(n)
    linear = a + b * x
    quadratic = linear + c * x * x
    # below the normal range rounding is absolute, one subnormal step, not
    # relative, so each bound carries that term next to eps * magnitude
    eps, tiny = np.finfo(float).eps, np.finfo(float).smallest_subnormal
    d1 = csr_view(_first_difference(n, h), n) @ linear
    np.testing.assert_allclose(d1, b, rtol=0.0,
                               atol=64 * (eps * np.abs(linear).max() + tiny) / h)
    d2 = csr_view(_second_difference(n, h), n) @ quadratic
    np.testing.assert_allclose(d2, 2.0 * c, rtol=0.0,
                               atol=256 * (eps * np.abs(quadratic).max() + tiny) / (h * h))


# ---------------------------------------------------------------------------
# LinearOperator mechanics
# ---------------------------------------------------------------------------

def test_operator_validation():
    offsets = np.arange(-1, 2)
    with pytest.raises(ValueError, match="shape"):
        LinearOperator(GRID_1D, (offsets, np.ones((3, 7))))
    with pytest.raises(ValueError, match="shape"):
        LinearOperator(GRID_1D, (offsets, np.ones((2, GRID_1D.n))))
    with pytest.raises(ValueError, match="finite"):
        LinearOperator(GRID_1D, (offsets, np.full((3, GRID_1D.n), np.nan)))


def test_operator_refuses_diagonals_that_are_not_arrays():
    # Python lists in place of the offsets or the data used to raise
    # AttributeError from the layout check
    grid = make_grid_1d(0.0, 1.0, 5)
    with pytest.raises(ValueError, match=r"^diagonals must be a pair of numpy arrays "
                                         r"\(offsets, data\); got list and ndarray$"):
        LinearOperator(grid, ([0], np.ones((1, 5))))
    with pytest.raises(ValueError, match=r"^diagonals must be a pair of numpy arrays "
                                         r"\(offsets, data\); got ndarray and list$"):
        LinearOperator(grid, (np.array([0]), [[1.0] * 5]))


BAD_DIAGONALS = {
    "scalar-offsets": (np.array(0), np.ones((1, 5))),
    "complex-data": (np.array([0]), np.ones((1, 5), dtype=complex)),
    "bool-data": (np.array([0]), np.ones((1, 5), dtype=bool)),
    "string-data": (np.array([0]), np.full((1, 5), "1.0")),
}


@pytest.mark.parametrize("case", BAD_DIAGONALS)
def test_operator_refuses_diagonals_that_are_not_real_rows(case):
    # a 0-d offset array raised TypeError, and so did string data, from numpy;
    # complex and bool data were taken as they were
    with pytest.raises(ValueError, match=r"^diagonals need one-dimensional offsets and real "
                                         r"floating-point data; got offsets of shape"):
        LinearOperator(make_grid_1d(0.0, 1.0, 5), BAD_DIAGONALS[case])


def split_main(offsets, data):
    """The main diagonal listed twice, its entries split in two halves."""
    k = offsets.tolist().index(0)
    half = 0.5 * data[k:k + 1]
    return np.insert(offsets, k, 0), np.concatenate([data[:k], half, half, data[k + 1:]])


BAD_LAYOUTS = {
    "main-split-in-two": split_main,
    "main-missing": lambda o, d: (o[o != 0], d[o != 0]),
    "float-offsets": lambda o, d: (o.astype(float), d),
    "descending": lambda o, d: (o[::-1], d[::-1]),
    "offset-n": lambda o, d: (np.append(o, 41), np.vstack([d, np.ones(41)])),
    "offset-minus-n": lambda o, d: (np.insert(o, 0, -41), np.vstack([np.ones(41), d])),
}


@pytest.mark.parametrize("layout", BAD_LAYOUTS)
def test_operator_refuses_a_bad_offset_layout(layout):
    # layouts the DIA readers would misread: with its main diagonal split
    # in two, the band reader kept only the second half, and the ATM call
    # on 401 points priced at 33521.3 instead of 10.39
    offsets, data = BAD_LAYOUTS[layout](*build_bs_hamiltonian(P, GRID_1D).diagonals)
    with pytest.raises(ValueError, match=r"^diagonals need integer offsets, strictly ascending, "
                                         r"0 among them and each in \(-41, 41\); got"):
        LinearOperator(GRID_1D, (offsets, data))


def test_apply_grid_mismatch():
    other = make_grid_1d(0.0, 1.0, 41)
    f = sample(np.exp, other)
    with pytest.raises(ValueError, match="grid mismatch"):
        build_bs_hamiltonian(P, GRID_1D).apply(f)


def test_apply_is_the_csr_views_product_bit_for_bit():
    # the DIA product sums each row in ascending column order, as the sorted
    # CSR view's product does; a grid function holding a NaN is refused
    d = momentum_operator(GRID_1D)
    ops = [build_bs_hamiltonian(P, GRID_1D), d @ d,
           build_mg_hamiltonian(MG_P, GRID_2D),
           build_gauge_hamiltonian(MG_P, GRID_2D, "factored"),
           momentum_operator(GRID_2D, "y")]
    rng = np.random.default_rng(3)
    for op in ops:
        u = rng.standard_normal(op.grid.n_points)
        for masked in (False, True):
            got = op.apply(GridFunction(op.grid, u, allow_masked=masked)).values
            np.testing.assert_array_equal(got.view(np.int64), (op.matrix @ u).view(np.int64))
        u[u.size // 2] = np.nan
        with pytest.raises(ValueError, match="^f must hold no NaN"):
            op.apply(GridFunction(op.grid, u, allow_masked=True))


def interior_offsets(op, depth=1):
    """The offsets of the diagonals holding an entry of an interior row."""
    return _kept_diagonals(op, op.grid.interior_mask(depth))[0].tolist()


def test_operator_algebra_and_reach():
    # a product's interior rows reach as far as its factors' reaches added,
    # a sum's as far as the farther term's; read off the diagonals
    p = momentum_operator(GRID_1D)
    assert interior_offsets(p) == [-1, 0, 1]
    assert interior_offsets(p @ p, depth=2) == [-2, 0, 2]
    assert interior_offsets(p + p) == [-1, 0, 1]
    assert (p + p).max_abs() == 2.0 * p.max_abs()
    assert (p - p).max_abs() == 0.0


def test_difference_adds_the_negated_diagonals():
    # a - b is a + (-1) b entry for entry, +0 where an entry cancels
    ops = [(build_bs_hamiltonian(P, GRID_1D), momentum_operator(GRID_1D)),
           (build_mg_hamiltonian(MG_P, GRID_2D), build_gauge_hamiltonian(P, GRID_2D)),
           (build_gauge_hamiltonian(P, GRID_2D, "factored"), momentum_operator(GRID_2D, "y"))]
    for a, b in ops + [(b, a) for a, b in ops] + [(a, a) for a, _ in ops]:
        got, want = (a - b).diagonals, (a + scaled(b, -1.0)).diagonals
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1].view(np.int64), want[1].view(np.int64))


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


def same_diagonals(a, b) -> bool:
    """The same offsets and the same bits in every entry."""
    return (np.array_equal(a.diagonals[0], b.diagonals[0])
            and np.array_equal(a.diagonals[1].view(np.int64), b.diagonals[1].view(np.int64)))


@settings(max_examples=100, deadline=None)
@given(nx=st.integers(5, 41), ny=st.integers(5, 41), x_min=st.floats(-3.0, 6.0),
       x_width=st.floats(0.5, 4.0), y_min=st.floats(-8.0, 1.0), y_width=st.floats(0.5, 6.0),
       r=st.floats(0.0, 0.2), sign=st.sampled_from([-1.0, 1.0]))
def test_mg_special_case_is_the_local_gauge_hamiltonian(nx, ny, x_min, x_width, y_min, y_width,
                                                         r, sign):
    # the paper's special case: at alpha = 3/2, zeta = rho = +-1, lambda = 0
    # and mu = r the Merton-Garman coefficients are the sigma-local gauge
    # ones, so with the halved vol-of-vol term the operators are equal bit
    # for bit; without it every term agrees but second_y, exactly twice the
    # gauge's
    grid = make_grid_2d(x_min, x_min + x_width, nx, y_min, y_min + y_width, ny)
    gauge = ModelParams(r=r, sigma_local=True)
    mg = ModelParams(r=r, alpha=1.5, zeta=sign, rho=sign, lambda_=0.0, mu=r, vol_vol_half=True)
    assert same_diagonals(build_mg_hamiltonian(mg, grid), build_gauge_hamiltonian(gauge, grid))
    full = hamiltonian_terms(dataclasses.replace(mg, vol_vol_half=False), grid, "mg")
    local = hamiltonian_terms(gauge, grid, "gauge")
    assert list(full) == list(local)
    for name in local:
        if name == "second_y":
            assert same_diagonals(full[name], scaled(local[name], 2.0))
        else:
            assert same_diagonals(full[name], local[name])


def test_mg_vol_vol_half_halves_one_block():
    half = ModelParams(r=0.05, zeta=0.4, alpha=1.2, vol_vol_half=True)
    full = ModelParams(r=0.05, zeta=0.4, alpha=1.2, vol_vol_half=False)
    t_half = hamiltonian_terms(half, GRID_2D, "mg")["second_y"]
    t_full = hamiltonian_terms(full, GRID_2D, "mg")["second_y"]
    assert (t_half.matrix * 2.0 != t_full.matrix).nnz == 0


@settings(max_examples=100, deadline=None)
@given(zeta=st.one_of(st.just(0.0), st.floats(0.0, 5.0)), alpha=st.floats(-200.0, 200.0),
       rho=st.floats(-1.0, 1.0))
@example(zeta=0.3, alpha=-60.0, rho=0.0)
@example(zeta=0.0, alpha=-60.0, rho=0.5)
@example(zeta=1.0, alpha=-42.1, rho=0.0)   # powers finite, second_y entries not
def test_mg_powers_of_v_are_finite_or_refused_naming_alpha(zeta, alpha, rho):
    # an overflowing power of V printed numpy's RuntimeWarnings and then
    # "operator entries must be finite"; with zeta = 0, where alpha plays no
    # part, 0 * inf made a NaN
    grid = default_grid_2d(100.0, 0.04, 1.0, nx=21, ny=11)   # the default box
    params = ModelParams(zeta=zeta, alpha=alpha, rho=rho)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            h = build_mg_hamiltonian(params, grid)
        except InputError as exc:
            assert exc.field == "alpha"
            assert zeta != 0.0
            return
    assert np.isfinite(h.diagonals[1]).all()
    if zeta == 0.0:
        same = build_mg_hamiltonian(dataclasses.replace(params, alpha=1.0), grid)
        assert h.diagonals[1].tobytes() == same.diagonals[1].tobytes()


def test_mg_zeta_whose_own_factor_overflows_is_named():
    # zeta^2 = 1e308 is finite, zeta^2 times the second_y stencil is not, and
    # alpha = 1 plays no part: it failed as "operator entries must be finite"
    grid = default_grid_2d(100.0, 0.04, 1.0, nx=21, ny=11)
    with pytest.raises(InputError) as info:
        build_mg_hamiltonian(ModelParams(zeta=1e154), grid)
    assert info.value.field == "zeta"


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
    # the composed form's interior rows reach two points along each axis,
    # the expanded form's one
    ny = GRID_2D.ny
    fac = build_gauge_hamiltonian(P, GRID_2D, form="factored")
    exp = build_gauge_hamiltonian(P, GRID_2D, form="expanded")
    assert interior_offsets(fac, depth=2) == [a * ny + b for a in range(-2, 3)
                                              for b in range(-2, 3) if a * b == 0 or
                                              abs(a) == abs(b) == 1]
    assert interior_offsets(exp) == [a * ny + b for a in (-1, 0, 1) for b in (-1, 0, 1)]
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


def bs_residual(params, contract, n):
    """max |dC/dtau + H C| over |x - ln 100| <= 0.5, on the box ln 100 +- 1
    with n points: C is the closed-form price at the remaining time
    tau = contract.maturity, and dC/dtau its centred difference with
    dtau = 1e-4."""
    x0 = math.log(100.0)
    grid = make_grid_1d(x0 - 1.0, x0 + 1.0, n)
    spots = np.exp(grid.points)

    def price(tau):
        at_tau = dataclasses.replace(contract, maturity=tau)
        return np.array([bs_closed_form(params, at_tau, s) for s in spots])
    tau, dtau = contract.maturity, 1e-4
    dc = (price(tau + dtau) - price(tau - dtau)) / (2.0 * dtau)
    hc = build_bs_hamiltonian(params, grid).apply(GridFunction(grid, price(tau))).values
    return np.abs(dc + hc)[np.abs(grid.points - x0) <= 0.5].max()


@settings(max_examples=40, deadline=None)
@given(r=st.floats(0.0, 0.1), sigma=st.floats(0.1, 0.4), moneyness=st.floats(0.8, 1.25),
       tau=st.floats(0.25, 1.0), kind=st.sampled_from(["call", "put"]))
def test_bs_operator_is_second_order_on_the_exact_price(r, sigma, moneyness, tau, kind):
    # the exact price's residual falls by a factor 3.75-4.00 from 101 to 201
    # points over this domain (least 3.748 in a 1960-point grid scan and 5000
    # random draws, at sigma near 0.1 and tau near 0.25); the bound leaves a
    # margin of 0.25 below that least factor, and a first-order term gives 2
    params, contract = ModelParams(r=r, sigma=sigma), OptionContract(kind, 100.0 * moneyness, tau)
    assert bs_residual(params, contract, 101) / bs_residual(params, contract, 201) >= 3.5


def mg_symbol(params, a, b, y, vol_vol_half):
    """H e^{ax+by} / e^{ax+by} at log-variance y, from build_mg_hamiltonian's
    docstring: each derivative of the state is a power of a or b times it,
    with the last coefficient halved under ``vol_vol_half``."""
    ey, zeta2 = np.exp(y), params.zeta ** 2
    v2, v1 = np.exp(2.0 * y * (params.alpha - 1.0)), np.exp(y * (params.alpha - 0.5))
    return (-(ey / 2.0) * a * a - (params.r - ey / 2.0) * a
            - (params.lambda_ * np.exp(-y) + params.mu - (zeta2 / 2.0) * v2) * b
            - params.rho * params.zeta * v1 * a * b
            - (0.5 if vol_vol_half else 1.0) * zeta2 * v2 * b * b + params.r)


def mg_exponential_residual(params, a, b, nx, ny, vol_vol_half):
    """max |H f / f - symbol| for f = e^{ax+by} on the check box with nx x ny
    points, over the interior points of its 101 x 41 coarsening, so that two
    refinements compare the same locations."""
    grid = make_grid_2d(3.5, 5.5, nx, -4.0, -1.0, ny)
    f = sample(lambda x, y: np.exp(a * x + b * y), grid)
    action = build_mg_hamiltonian(params, grid).apply(f).values / f.values
    gap = np.abs(action - mg_symbol(params, a, b, grid.ys, vol_vol_half)).reshape(grid.shape)
    stride = (nx - 1) // 100
    return gap[::stride, ::stride][1:-1, 1:-1].max()


@settings(max_examples=60, deadline=None)
@given(r=st.floats(0.0, 0.1), lambda_=st.floats(0.0, 0.1), mu=st.floats(0.0, 0.5),
       zeta=st.floats(0.0, 1.0), alpha=st.floats(0.0, 2.0), rho=st.floats(0.0, 1.0),
       vol_vol_half=st.booleans(), a=st.floats(2.5, 3.0), cb=st.floats(1.5, 2.5))
def test_mg_operator_is_second_order_on_exponential_states(r, lambda_, mu, zeta, alpha, rho,
                                                           vol_vol_half, a, cb):
    # at any alpha: the residual falls by 3.9997-4.014 from 101x41 to 201x81
    # (6000 draws, parameters often at their bounds); the bound leaves 0.1.
    # On these states every term's O(h^2) error has one sign, so no two cancel
    # and the O(h^4) rest stays below 2 % of them.  Outside them they can:
    # a = -0.25, b = 2, lambda = mu = r = 0, zeta = 1, alpha = 2 read 1.49
    params = ModelParams(r=r, lambda_=lambda_, mu=mu, zeta=zeta, alpha=alpha, rho=rho,
                         vol_vol_half=vol_vol_half)
    b = cb * (2.0 if vol_vol_half else 1.0)   # c b in [1.5, 2.5], c the last coefficient's 1 or 1/2
    coarse, fine = (mg_exponential_residual(params, a, b, nx, ny, vol_vol_half)
                    for nx, ny in ((101, 41), (201, 81)))
    assert coarse / fine >= 3.9


@pytest.mark.parametrize("vol_vol_half", [False, True])
def test_mg_exponential_residual_tells_the_conventions_apart(vol_vol_half):
    # read against the other convention's symbol, the residual is O(1): it
    # does not fall under refinement
    params = dataclasses.replace(MG_P, vol_vol_half=vol_vol_half)
    coarse, fine = (mg_exponential_residual(params, 2.5, 3.0, nx, ny, not vol_vol_half)
                    for nx, ny in ((101, 41), (201, 81)))
    assert coarse / fine < 1.1


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
    # the second difference: central, so symmetric, on the interior rows
    assert hermiticity_defect(hamiltonian_terms(P, GRID_1D)["second_x"]) == 0.0


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
    with pytest.raises(ValueError, match="overflow") as info:
        gauge_operator(GaugeField.linear_x(1.0), g)
    assert info.value.field == "omega"


@pytest.mark.parametrize("convention", ["left", "right"])
def test_gauge_products_name_omega_when_they_overflow(convention):
    # max |omega theta| = 709.5 keeps U finite, but e^709.5 times the
    # stencil's entries overflows in U H: the commutator and the sandwich
    # failed as "operator entries must be finite", which names no field
    g = make_grid_1d(3.5, 5.5, 41)
    h = build_bs_hamiltonian(ModelParams(sigma=0.2), g)
    gauge = GaugeField.linear_x(129.0)
    assert np.isfinite(gauge_operator(gauge, g).max_abs())   # alone, U is finite
    with pytest.raises(InputError, match=r"^omega is too large: e\^\(omega\*theta\) times the "
                                         r"operator overflows, max \|omega\*theta\| = 709\.5$"):
        commutator(gauge_operator(gauge, g, h), h)
    with pytest.raises(InputError, match="^omega is too large: e"):
        build_transformed_bs(ModelParams(sigma=0.2), gauge, g, convention)
    # just below the rule, every product is finite
    omega = 128.3
    assert np.isfinite(commutator(gauge_operator(GaugeField.linear_x(omega), g, h), h).max_abs())
    assert np.isfinite(build_transformed_bs(ModelParams(sigma=0.2), GaugeField.linear_x(omega), g,
                                            convention).max_abs())


def test_transformed_bs_names_omega_when_its_shift_overflows():
    # omega = 1e200 overflowed sigma^2 omega (1+omega)/2 and failed as
    # "operator entries must be finite", which names no field
    with pytest.raises(InputError, match="^omega is too large: the shift's potential") as info:
        build_transformed_bs(ModelParams(sigma=0.2), GaugeField.linear_x(1e200), GRID_1D)
    assert info.value.field == "omega"
    # with r = 1e300 the shift's two terms overflowed with opposite signs, and
    # numpy warned of the NaN their sum made before the refusal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="^omega is too large: the shift's potential"):
            build_transformed_bs(ModelParams(sigma=1e-8, r=1e300), GaugeField.linear_x(1e300),
                                 GRID_1D)


@pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
def test_gauge_field_refuses_non_finite_omega(omega):
    # a NaN omega used to fail as "operator entries must be finite", and an
    # infinite one warned (invalid value in multiply) in build_transformed_bs
    makers = (GaugeField.linear_x, GaugeField.constant,
              lambda w: GaugeField(theta=lambda x, y: x, theta_x=lambda x, y: 1.0 + 0.0 * x,
                                   omega=w))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for make in makers:
            with pytest.raises(ValueError, match=f"^omega must be finite, got {omega}$"):
                make(omega)


def test_gauge_fields_must_be_finite_on_the_grid():
    log_x = GaugeField(theta=lambda x, y: np.log(x), theta_x=lambda x, y: 1.0 / x, omega=1.0)
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
    const = GaugeField.constant(0.7)
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
                    + scaled(momentum_operator(g), -sig2 * om)
                    + scaled(identity_operator(g), om * (0.5 * sig2 - P.r) - 0.5 * sig2 * om * om))
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


@pytest.mark.parametrize("count", [0, -2, 1.0, True])
def test_smooth_probes_refuse_a_count_below_one(count):
    with pytest.raises(ValueError, match="^count must be an integer >= 1"):
        smooth_probe_functions(GRID_1D, count)


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


def _reference_first_difference(n, h):
    inv2h = 1.0 / (2.0 * h)
    first = ((0, 1, 2), (-3.0 * inv2h, 4.0 * inv2h, -inv2h))
    last = ((n - 3, n - 2, n - 1), (inv2h, -4.0 * inv2h, 3.0 * inv2h))
    return _reference_stencil(n, ((-1, 1), (-inv2h, inv2h)), first, last)


def _reference_second_difference(n, h):
    invh2 = 1.0 / (h * h)
    first = ((0, 1, 2, 3), (2.0 * invh2, -5.0 * invh2, 4.0 * invh2, -invh2))
    last = ((n - 4, n - 3, n - 2, n - 1), (-invh2, 4.0 * invh2, -5.0 * invh2, 2.0 * invh2))
    return _reference_stencil(n, ((-1, 0, 1), (invh2, -2.0 * invh2, invh2)), first, last)


def _reference_blocks_2d(grid):
    d1x = _reference_first_difference(grid.nx, grid.hx)
    d1y = _reference_first_difference(grid.ny, grid.hy)
    d2x = _reference_second_difference(grid.nx, grid.hx)
    d2y = _reference_second_difference(grid.ny, grid.hy)
    ix = sp.identity(grid.nx)
    iy = sp.identity(grid.ny)
    return {
        "first_x": sp.kron(d1x, iy, format="csr"),
        "first_y": sp.kron(ix, d1y, format="csr"),
        "second_x": sp.kron(d2x, iy, format="csr"),
        "second_y": sp.kron(ix, d2y, format="csr"),
        "cross_xy": sp.kron(d1x, d1y, format="csr"),
    }


def _reference_blocks(grid):
    if isinstance(grid, LogGrid1D):
        return {"first_x": _reference_first_difference(grid.n, grid.h),
                "second_x": _reference_second_difference(grid.n, grid.h)}
    return _reference_blocks_2d(grid)


def _reference_transformed_direct(params, gauge, grid):
    blocks = _reference_blocks(grid)
    half_sig2 = 0.5 * params.sigma * params.sigma
    h_bs = (-half_sig2 * blocks["second_x"] + (half_sig2 - params.r) * blocks["first_x"]
            + params.r * sp.identity(grid.n_points, format="csr"))
    coords = (grid.points, np.zeros(grid.n)) if isinstance(grid, LogGrid1D) else (grid.xs, grid.ys)
    tx = gauge.theta_x(*coords)
    sig2, om = params.sigma * params.sigma, gauge.omega
    extra = (sp.diags(sig2 * om * tx, format="csr") @ blocks["first_x"]
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
                  theta_x=lambda x, y: np.cos(x), omega=0.4)


@pytest.mark.parametrize("grid", [GRID_1D, GRID_2D], ids=["1d", "2d"])
def test_block_builder_stores_the_reference_arrays(grid):
    for name, want in _reference_blocks(grid).items():
        (got,) = _difference_blocks(grid, name)
        assert_same_csr(LinearOperator(grid, _sum(grid.n_points, [got])).matrix, want)
    blocks = _reference_blocks(grid)
    assert_same_csr(momentum_operator(grid, "x").matrix, blocks["first_x"])
    if not isinstance(grid, LogGrid1D):
        assert_same_csr(momentum_operator(grid, "y").matrix, blocks["first_y"])
        d = blocks["first_x"] + blocks["first_y"]
        sig2 = np.exp(grid.ys)
        factored = (sp.diags(-0.5 * sig2, format="csr") @ (d @ d)
                    + sp.diags(0.5 * sig2 - P.r, format="csr") @ d
                    + P.r * sp.identity(grid.n_points, format="csr"))
        assert_same_csr(build_gauge_hamiltonian(P, grid, "factored").matrix, factored)
    for gauge in (GaugeField.linear_x(0.7), WAVY):
        assert_same_csr(build_transformed_bs(P, gauge, grid, "direct").matrix,
                        _reference_transformed_direct(P, gauge, grid))


def test_block_builder_rejects_y_blocks_on_1d_grids():
    for name in ("first_y", "second_y", "cross_xy"):
        with pytest.raises(ValueError, match="x axis"):
            _difference_blocks(GRID_1D, name)


# ---------------------------------------------------------------------------
# one coefficient table for the three Hamiltonians; the algebra combines
# ---------------------------------------------------------------------------
# The per-model term constructions the table replaced are kept below as the
# reference: every term, Hamiltonian and combined operator must store the
# same CSR arrays, bit for bit.

def _reference_terms(params, grid, model):
    blocks = _reference_blocks(grid)
    n, r = grid.n_points, params.r

    def diag(values):
        return sp.diags(values, format="csr")

    if model == "bs":
        half_sig2 = 0.5 * params.sigma * params.sigma
        return {
            "second_x": -half_sig2 * blocks["second_x"],
            "first_x": (half_sig2 - r) * blocks["first_x"],
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
            "second_x": diag(-0.5 * ey) @ blocks["second_x"],
            "first_x": diag(-(r - 0.5 * ey)) @ blocks["first_x"],
            "first_y": diag(-(params.lambda_ * np.exp(-y) + params.mu
                              - 0.5 * zeta2 * np.exp(2.0 * y * (params.alpha - 1.0))))
            @ blocks["first_y"],
            "cross_xy": diag(-params.rho * params.zeta
                             * np.exp(y * (params.alpha - 0.5))) @ blocks["cross_xy"],
            "second_y": diag(-coef_yy) @ blocks["second_y"],
            "potential": r * sp.identity(n, format="csr"),
        }
    sig2 = np.exp(grid.ys) if params.sigma_local else np.full(n, params.sigma * params.sigma)
    return {
        "second_x": diag(-0.5 * sig2) @ blocks["second_x"],
        "first_x": diag(0.5 * sig2 - r) @ blocks["first_x"],
        "first_y": diag(0.5 * sig2 - r) @ blocks["first_y"],
        "cross_xy": diag(-sig2) @ blocks["cross_xy"],
        "second_y": diag(-0.5 * sig2) @ blocks["second_y"],
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


@pytest.mark.parametrize("params", TABLE_PARAMS, ids=["default", "half-constant"])
@pytest.mark.parametrize("grid, model", [(GRID_1D, "bs"), (GRID_2D, "bs"), (GRID_2D, "mg"),
                                         (GRID_2D, "gauge")],
                         ids=["bs-1d", "bs-2d", "mg", "gauge"])
def test_coefficient_table_stores_the_reference_arrays(grid, model, params):
    want = _reference_terms(params, grid, model)
    got = hamiltonian_terms(params, grid, model)
    assert list(got) == list(want)
    for name, op in got.items():
        assert_same_csr(op.matrix, want[name])
    assert_same_csr(BUILDERS[model](params, grid).matrix, _reference_sum(want))


def test_builders_take_only_the_one_boundary_closure():
    # the BS and MG builders keep the policy keyword bench/workloads.py
    # passes: its one value builds what the default builds, and any other
    # name is refused
    for build, params, grid in ((build_bs_hamiltonian, P, GRID_1D),
                                (build_mg_hamiltonian, MG_P, GRID_2D)):
        assert_same_csr(build(params, grid, policy="one-sided-interior").matrix,
                        build(params, grid).matrix)
        for policy in ("zero-padded", "reflect"):
            with pytest.raises(ValueError, match=f"^unknown boundary policy '{policy}'"):
                build(params, grid, policy=policy)


GENERATED_GRIDS = st.one_of(
    st.tuples(st.just("bs"), st.integers(5, 60), st.none()),
    st.tuples(st.sampled_from(["bs", "mg", "gauge"]), st.integers(5, 30), st.integers(5, 20)))


@settings(max_examples=80, deadline=None)
@given(case=GENERATED_GRIDS, r=st.floats(0.0, 0.1), sigma=st.floats(0.05, 0.6),
       alpha=st.floats(0.3, 1.5), rho=st.one_of(st.just(0.0), st.floats(-0.95, 0.95)),
       vol_vol_half=st.booleans(), sigma_local=st.booleans())
def test_generated_operators_store_the_kronecker_arrays(case, r, sigma, alpha, rho,
                                                         vol_vol_half, sigma_local):
    model, nx, ny = case
    grid = (make_grid_1d(3.5, 5.5, nx) if ny is None else
            make_grid_2d(3.5, 5.5, nx, -4.0, -1.0, ny))
    params = ModelParams(r=r, sigma=sigma, lambda_=0.02, mu=-0.3, zeta=0.4, alpha=alpha,
                         rho=rho, vol_vol_half=vol_vol_half, sigma_local=sigma_local)
    want = _reference_terms(params, grid, model)
    got = hamiltonian_terms(params, grid, model)
    assert list(got) == list(want)
    for name, op in got.items():
        assert_same_csr(op.matrix, want[name])
    reference = _reference_sum(want)
    h = BUILDERS[model](params, grid)
    assert_same_csr(h.matrix, reference)
    # the rows a theta-stepper reads: all of them or the interior in 1D,
    # the interior in 2D, read off the diagonals as off the reference CSR
    for depth in ((0, 1) if ny is None else (1,)):
        rows = grid.interior_mask(depth)
        (offsets, data), (want_offsets, want_data) = (_kept_diagonals(h, rows),
                                                      csr_diagonals(reference, rows))
        np.testing.assert_array_equal(offsets, want_offsets)
        np.testing.assert_array_equal(data.view(np.int64), want_data.view(np.int64))


@pytest.mark.parametrize("grid", [GRID_1D, GRID_2D], ids=["1d", "2d"])
def test_operator_algebra_stores_the_reference_arrays(grid):
    h = build_bs_hamiltonian(P, grid)
    for gauge in (GaugeField.linear_x(0.7), WAVY):
        u = gauge_operator(gauge, grid)
        u_inv = gauge_operator(GaugeField(gauge.theta, gauge.theta_x, -gauge.omega), grid)
        left = build_transformed_bs(P, gauge, grid, "left")
        right = build_transformed_bs(P, gauge, grid, "right")
        assert_same_csr(left.matrix, u_inv.matrix @ h.matrix @ u.matrix)
        assert_same_csr(right.matrix, u.matrix @ h.matrix @ u_inv.matrix)
        for a, b in ((u, h), (h, u), (h, momentum_operator(grid, "x"))):
            c = commutator(a, b)
            assert_same_csr(c.matrix, a.matrix @ b.matrix - b.matrix @ a.matrix)


def test_operator_is_a_grid_and_its_diagonals():
    # the matrix is held as its diagonals, and the CSR view is made from
    # them on first use
    assert [f.name for f in dataclasses.fields(LinearOperator)] == ["grid", "diagonals"]
    eye = sp.identity(GRID_1D.n, format="csr")
    op = LinearOperator(GRID_1D, (np.zeros(1, dtype=int), np.ones((1, GRID_1D.n))))
    assert_same_csr(op.matrix, eye)
    assert op.matrix is op.matrix
    with pytest.raises(TypeError, match="LinearOperator"):
        commutator(op, op.matrix)
    with pytest.raises(ValueError, match="grid mismatch"):
        commutator(op, identity_operator(make_grid_1d(3.5, 5.5, 43)))


PRODUCT_FACTORS = ("momentum-x", "momentum-y", "bs", "mg", "gauge", "u-linear", "u-constant")


def product_factor(name, grid, params, omega):
    """One factor of a generated product; None where the grid has no y axis."""
    two_d = not isinstance(grid, LogGrid1D)
    if name == "momentum-x":
        return momentum_operator(grid, "x")
    if name == "bs":
        return build_bs_hamiltonian(params, grid)
    if name == "u-linear":
        return gauge_operator(GaugeField.linear_x(omega), grid)
    if name == "u-constant":
        return gauge_operator(GaugeField.constant(omega), grid)
    if not two_d:
        return None
    if name == "momentum-y":
        return momentum_operator(grid, "y")
    return (build_mg_hamiltonian(params, grid) if name == "mg" else
            build_gauge_hamiltonian(params, grid, "expanded"))


@settings(max_examples=60, deadline=None)
@given(nx=st.integers(5, 30), ny=st.one_of(st.none(), st.integers(5, 12)),
       left=st.sampled_from(PRODUCT_FACTORS), right=st.sampled_from(PRODUCT_FACTORS),
       omega=st.floats(-1.0, 1.0), sigma=st.floats(0.05, 0.6), rho=st.floats(-0.95, 0.95),
       sigma_local=st.booleans())
def test_products_on_the_diagonals_are_the_csr_products(nx, ny, left, right, omega, sigma, rho,
                                                        sigma_local):
    # (a @ b)'s diagonals, byte for byte, are the reference reader's
    # diagonals of the CSR views' product: every sum in the same order,
    # the empty diagonals dropped and no -0
    grid = (make_grid_1d(3.5, 5.5, nx) if ny is None else
            make_grid_2d(3.5, 5.5, nx, -4.0, -1.0, ny))
    params = ModelParams(r=0.05, sigma=sigma, lambda_=0.02, mu=-0.3, zeta=0.4, alpha=0.8,
                         rho=rho, sigma_local=sigma_local)
    a, b = (product_factor(name, grid, params, omega) for name in (left, right))
    assume(a is not None and b is not None)
    offsets, data = (a @ b).diagonals
    want_offsets, want_data = csr_diagonals(a.matrix @ b.matrix,
                                            np.ones(grid.n_points, dtype=bool))
    assert offsets.tolist() == want_offsets.tolist()
    assert data.dtype == want_data.dtype and data.shape == want_data.shape
    assert data.tobytes() == want_data.tobytes()


# ---------------------------------------------------------------------------
# the readers on the diagonals against the CSR readers they replaced
# ---------------------------------------------------------------------------

def generated_operator(grid, offsets, rng):
    """An operator on ``grid`` with diagonals at ``offsets`` (folded into
    (-n, n), the main one added) whose entries mix +0, -0 and nonzeros of
    several magnitudes."""
    n = grid.n_points
    offsets = np.array(sorted({0, *(o % (2 * n - 1) - (n - 1) for o in offsets)}))
    data = rng.standard_normal((offsets.size, n)) * 10.0 ** rng.integers(-3, 4, (offsets.size, n))
    kind = rng.integers(0, 4, data.shape)
    data[kind == 0] = 0.0
    data[kind == 1] = -0.0
    return LinearOperator(grid, (offsets, data))


@settings(max_examples=100, deadline=None)
@given(nx=st.integers(5, 12), ny=st.one_of(st.none(), st.integers(5, 8)),
       offsets=st.lists(st.integers(0, 10 ** 6), max_size=8),
       offsets_1d=st.lists(st.integers(0, 10 ** 6), max_size=4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_diagonal_readers_are_the_csr_readers_bit_for_bit(nx, ny, offsets, offsets_1d, seed):
    # apply, hermiticity_defect and the bs-limit residual read the
    # diagonals; the CSR view stores no zero, so -0 and +0 entries must
    # read as absent
    grid = (make_grid_1d(3.5, 5.5, nx) if ny is None else
            make_grid_2d(3.5, 5.5, nx, -4.0, -1.0, ny))
    rng = np.random.default_rng(seed)
    op = generated_operator(grid, offsets, rng)
    u = rng.standard_normal(grid.n_points)
    assert op.apply(GridFunction(grid, u)).values.tobytes() == (op.matrix @ u).tobytes()
    assert (hermiticity_defect(op).hex()
            == csr_hermiticity_defect(op.matrix, grid.interior_mask(1)).hex())
    if ny is not None:
        h1 = generated_operator(grid.x_axis, offsets_1d, rng)
        assert (_bs_limit_residual(op, h1).hex()
                == csr_bs_limit_residual(op.matrix, h1.matrix, nx, ny).hex())


@pytest.mark.parametrize("nx, ny", [(41, 21), (9, 5), (101, 41)])
def test_bs_limit_residual_on_spoiled_operators_is_the_row_walks(nx, ny):
    # the check passes with the constant-sigma gauge operator; with the
    # sigma-local form or the Merton-Garman operator in its place the
    # residual is large, and the diagonal reader gives the row walk's value
    grid = make_grid_2d(3.5, 5.5, nx, -4.0, -1.0, ny)
    h1 = build_bs_hamiltonian(P, grid.x_axis)
    constant = build_gauge_hamiltonian(dataclasses.replace(P, sigma_local=False), grid)
    assert _bs_limit_residual(constant, h1) == 0.0
    assert [rec["residual"] for rec in _check_bs_limit(P, 1.0)] == [0.0]   # on the check box
    for spoiled in (build_gauge_hamiltonian(dataclasses.replace(P, sigma_local=True), grid),
                    build_mg_hamiltonian(MG_P, grid)):
        got = _bs_limit_residual(spoiled, h1)
        assert got > 1.0
        assert got == csr_bs_limit_residual(spoiled.matrix, h1.matrix, nx, ny)


def test_no_library_path_reads_the_csr_view(monkeypatch):
    # with the CSR view made to fail, the CLI's check, surface and
    # martingale runs and the library's readers run and print as before
    runs = [["check", "--what", "all"],
            *(["surface", "--hamiltonian", model] for model in ("bs", "mg", "gauge")),
            ["surface", "--hamiltonian", "gauge", "--form", "factored"],
            ["martingale", "--mu", "-3", "--lambda", "2", "--report-grid", "--zeta", "0.5"]]
    grid = make_grid_2d(math.log(100.0) - 1.0, math.log(100.0) + 1.0, 21,
                        math.log(0.04) - 2.0, math.log(0.04) + 1.0, 11)

    def outputs():
        runner = CliRunner()
        results = [runner.invoke(main, args, catch_exceptions=False) for args in runs]
        h = build_mg_hamiltonian(MG_P, grid)
        surface = solve_mg(MG_P, OptionContract("call", 100.0, 1.0), grid, n_steps=5)
        c = GridFunction(grid, surface.values)
        return ([(r.exit_code, r.output) for r in results],
                [hermiticity_defect(h), h.apply(c).values.tobytes(),
                 beta_field(surface, MG_P).values.tobytes()])

    before = outputs()
    assert all(code == 0 for code, _ in before[0])

    def refuse(self):
        raise AssertionError("the CSR view was read")
    monkeypatch.setattr(LinearOperator, "matrix", property(refuse))
    with pytest.raises(AssertionError, match="CSR view"):
        identity_operator(GRID_1D).matrix
    assert outputs() == before
