"""Grids, grid functions, and parameter validation."""

import io
import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gauge_hamilton import (
    GridFunction,
    HedgeTestResult,
    InputError,
    LogGrid1D,
    LogGrid2D,
    MartingaleReport,
    ModelParams,
    OptionContract,
    VolcoeffReport,
    default_grid_1d,
    default_grid_2d,
    delta_hedge_test,
    make_grid_1d,
    make_grid_2d,
    martingale_roots,
    mg_martingale_report,
    sample,
    volcoeff_audit,
)
from gauge_hamilton.core import EXP_LIMIT, check_positive, text_output, write_csv


def test_input_error_is_a_value_error_naming_its_field():
    with pytest.raises(ValueError) as info:
        ModelParams(r=-0.1)
    exc = info.value
    assert type(exc) is InputError
    assert (exc.field, exc.rule) == ("r", "must be nonnegative, got -0.1")
    assert str(exc) == "r must be nonnegative, got -0.1"


@pytest.mark.parametrize("name", ["sigma", "zeta"])
def test_model_params_refuse_a_volatility_whose_square_overflows(name):
    # sigma = 1e200 used to fail in the operator build, as "operator entries
    # must be finite", which names no field
    with pytest.raises(InputError, match=rf"^{name} must have a finite square, got 1e\+200$"):
        ModelParams(**{name: 1e200})
    assert getattr(ModelParams(**{name: 1e150}), name) == 1e150


def test_default_grids_refuse_a_box_whose_exponential_overflows():
    # v0 = 1e300 widened the x box to ln s0 + 5e150, and e^x overflowed in
    # terminal_payoff as "grid function values must be finite"
    with pytest.raises(InputError, match=r"^v0 must keep the top of the price box, 5e\+150, "):
        default_grid_2d(100.0, 1e300, 1.0)
    with pytest.raises(InputError, match=r"^sigma must keep the top of the price box, 5e\+150, "):
        default_grid_1d(100.0, 1e150, 1.0)
    # a box whose top stays below the limit is kept: 4.6 + 5 * 140 = 704.6
    assert default_grid_1d(100.0, 140.0, 1.0).x_max < EXP_LIMIT
    # the variance box's top, ln v0 + 2 = 711.7, overflowed in e^y with numpy's
    # warnings, though the price box is narrow at T = 1e-306
    with pytest.raises(InputError, match=r"^v0 must keep the top of the variance box, 711.727, "):
        default_grid_2d(100.0, 1.7e308, 1e-306)
    assert default_grid_2d(100.0, 1e307, 1e-306).y_axis.x_max < EXP_LIMIT


def test_grid_1d_spacing_and_points():
    g = make_grid_1d(-1.0, 1.0, 5)
    assert g.h == 0.5
    assert g.n_points == 5
    np.testing.assert_array_equal(g.points, [-1.0, -0.5, 0.0, 0.5, 1.0])


def test_grid_2d_square():
    g = make_grid_2d(-1.0, 1.0, 5, -1.0, 1.0, 5)
    assert g.n_points == 25
    assert g.hx == 0.5 and g.hy == 0.5
    assert g.shape == (5, 5)


def test_grid_2d_spacings():
    g = make_grid_2d(-3.0, 3.0, 201, -4.0, 0.0, 101)
    assert g.hx == pytest.approx(0.03, rel=1e-15)
    assert g.hy == pytest.approx(0.04, rel=1e-15)


def test_grid_rejects_reversed_bounds():
    with pytest.raises(ValueError, match="x_max must exceed x_min"):
        make_grid_1d(1.0, -1.0, 11)
    with pytest.raises(ValueError, match="x_max must exceed x_min"):
        make_grid_2d(1.0, -1.0, 11, 0.0, 1.0, 11)
    with pytest.raises(ValueError, match="y_max must exceed y_min"):
        make_grid_2d(-1.0, 1.0, 11, 2.0, 2.0, 11)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["x_min", "x_max", "y_min", "y_max"])
def test_grid_names_a_non_finite_bound(field, bad):
    # y_min = NaN used to report "y_max must exceed y_min", and x_max = inf
    # "grid bounds must be finite"
    bounds = {"x_min": -1.0, "x_max": 1.0, "y_min": -2.0, "y_max": 0.0, field: bad}
    with pytest.raises(ValueError, match=rf"^{field} must be finite, got {bad!r}$"):
        make_grid_2d(bounds["x_min"], bounds["x_max"], 11, bounds["y_min"], bounds["y_max"], 11)
    if field.startswith("x"):
        with pytest.raises(ValueError, match=rf"^{field} must be finite, got {bad!r}$"):
            make_grid_1d(bounds["x_min"], bounds["x_max"], 11)


def test_grid_rejects_too_few_points():
    with pytest.raises(ValueError):
        make_grid_1d(0.0, 1.0, 4)
    with pytest.raises(ValueError, match="ny"):
        make_grid_2d(0.0, 1.0, 11, 0.0, 1.0, 3)


def test_grid_rejects_non_integer_point_counts():
    # a float count used to be accepted and fail later in interior_mask or
    # the operator build with numpy's "'float' object cannot be interpreted"
    with pytest.raises(ValueError, match=r"^n must be an integer >= 5, got 5\.0$"):
        LogGrid1D(0.0, 1.0, 5.0)
    with pytest.raises(ValueError, match=r"^nx must be an integer >= 5, got 5\.0$"):
        make_grid_2d(0.0, 1.0, 5.0, 0.0, 1.0, 5)
    with pytest.raises(ValueError, match=r"^ny must be an integer >= 5, got 7\.0$"):
        make_grid_2d(0.0, 1.0, 5, 0.0, 1.0, 7.0)
    with pytest.raises(ValueError, match=r"^n must be an integer >= 5, got 41\.0$"):
        default_grid_1d(100.0, 0.2, 1.0, n=41.0)
    # the joint grid names its own counts, and checks both before any axis
    with pytest.raises(ValueError, match=r"^nx must be an integer >= 5, got 201\.0$"):
        default_grid_2d(100.0, 0.04, 1.0, nx=201.0)
    with pytest.raises(ValueError, match=r"^ny must be an integer >= 5, got 81\.0$"):
        default_grid_2d(100.0, 0.04, 1.0, ny=81.0)
    with pytest.raises(ValueError, match=r"^ny must be an integer >= 5, got 3$"):
        default_grid_2d(100.0, 0.04, 1.0, nx=np.int64(41), ny=3)
    assert default_grid_2d(100.0, 0.04, 1.0, nx=np.int64(41), ny=np.int32(21)).shape == (41, 21)
    with pytest.raises(ValueError, match="n must be an integer"):
        make_grid_1d(0.0, 1.0, True)
    # numpy integers are integers
    assert make_grid_1d(0.0, 1.0, np.int64(7)).n_points == 7
    assert make_grid_2d(0.0, 1.0, np.int32(5), 0.0, 1.0, np.int64(6)).shape == (5, 6)


def test_flat_layout_row_major():
    g = make_grid_2d(0.0, 1.0, 5, 10.0, 11.0, 6)
    # index (i, j) -> i*ny + j, x outer, y inner
    assert g.unravel(2 * 6 + 3) == (2, 3)
    assert g.unravel(13) == (2, 1)
    np.testing.assert_array_equal(g.xs[:6], np.zeros(6))
    np.testing.assert_array_equal(g.ys[:6], g.y_axis.points)


def test_interior_mask_depth():
    g = make_grid_1d(0.0, 1.0, 7)
    m1 = g.interior_mask()
    assert m1.sum() == 5 and not m1[0] and not m1[-1]
    m2 = g.interior_mask(2)
    assert m2.sum() == 3
    g2 = make_grid_2d(0.0, 1.0, 5, 0.0, 1.0, 7)
    assert g2.interior_mask().sum() == 3 * 5
    assert g2.interior_mask(2).sum() == 1 * 3


@pytest.mark.parametrize("depth", [-1, 11, 12, 2.5, True, "1"])
def test_interior_mask_rejects_a_depth_that_leaves_no_interior(depth):
    # -1 used to keep only the last point, 11 and 12 none, and 2.5 failed
    # inside numpy's slicing
    g = make_grid_1d(0.0, 1.0, 21)
    assert g.interior_mask(10).sum() == 1 and g.interior_mask(0).all()
    with pytest.raises(ValueError, match="^depth must be"):
        g.interior_mask(depth)


def test_interior_mask_checks_each_axis_of_a_2d_grid():
    g = make_grid_2d(0.0, 1.0, 41, 0.0, 1.0, 5)
    assert g.interior_mask(2).sum() == 37 * 1
    with pytest.raises(ValueError, match=r"^depth must be below n/2 = 2.5, got 3$"):
        g.interior_mask(3)


def test_sample_exponential_corner():
    g = make_grid_2d(-1.0, 1.0, 5, -1.0, 1.0, 5)
    f = sample(lambda x, y: np.exp(x + y), g)
    # corner (x, y) = (1, 1)
    assert f.values[4 * 5 + 4] == pytest.approx(7.389056, abs=1e-6)
    assert f.values[4 * 5 + 4] == math.exp(2.0)


def test_sample_product_exact():
    g = make_grid_2d(-2.0, 2.0, 9, -1.0, 3.0, 9)
    f = sample(lambda x, y: x * y, g)
    assert np.array_equal(f.values, g.xs * g.ys)


def test_sample_is_linear():
    g = make_grid_1d(-1.0, 2.0, 13)
    f = lambda x: np.sin(x)
    h = lambda x: x ** 2
    combo = sample(lambda x: 2.0 * f(x) + 3.0 * h(x), g)
    parts = 2.0 * sample(f, g).values + 3.0 * sample(h, g).values
    assert np.array_equal(combo.values, parts)


def test_sample_broadcasts_constants():
    g = make_grid_1d(0.0, 1.0, 6)
    f = sample(lambda x: 1.0, g)
    np.testing.assert_array_equal(f.values, np.ones(6))


def test_sample_rejects_non_finite():
    g = make_grid_1d(-1.0, 1.0, 5)
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match="non-finite sample"):
            sample(lambda x: np.log(x), g)  # log of negative points
        g2 = make_grid_2d(-1.0, 1.0, 5, -1.0, 1.0, 5)
        with pytest.raises(ValueError, match="grid index"):
            sample(lambda x, y: 1.0 / (x + y), g2)


def test_grid_function_validation():
    g = make_grid_1d(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="shape"):
        GridFunction(g, np.ones(4))
    with pytest.raises(ValueError, match="^non-finite grid function value nan at grid index 1$"):
        GridFunction(g, np.array([1.0, np.nan, 1.0, 1.0, 1.0]))
    values = np.ones(30)
    values[8] = -np.inf
    with pytest.raises(ValueError, match=r"^non-finite grid function value -inf at grid index "
                                         r"\(1, 2\)$"):
        GridFunction(make_grid_2d(0.0, 1.0, 5, 0.0, 1.0, 6), values)
    masked = GridFunction(g, np.array([1.0, np.nan, 1.0, 1.0, 1.0]), allow_masked=True)
    np.testing.assert_array_equal(np.isnan(masked.values), [False, True, False, False, False])
    with pytest.raises(ValueError):
        GridFunction(g, np.array([1.0, np.inf, 1.0, 1.0, 1.0]), allow_masked=True)


def test_grid_function_2d_reshape():
    # values are flat; values2d is the (nx, ny) view, and a 2D-shaped array is refused
    g = make_grid_2d(0.0, 1.0, 5, 0.0, 1.0, 6)
    f = GridFunction(g, np.arange(30.0))
    assert np.array_equal(f.values2d, np.arange(30.0).reshape(5, 6))
    with pytest.raises(ValueError, match=r"values must have shape \(30,\), got \(5, 6\)"):
        GridFunction(g, np.arange(30.0).reshape(5, 6))
    g1 = make_grid_1d(0.0, 1.0, 5)
    with pytest.raises(TypeError):
        GridFunction(g1, np.zeros(5)).values2d


def test_csv_round_trip_2d():
    g = make_grid_2d(-1.0, 1.0, 5, -1.0, 1.0, 5)
    f = sample(lambda x, y: np.exp(x + y) / 3.0, g)
    buf = io.StringIO()
    write_csv(buf, ("x", "y", "value"), (g.xs, g.ys, f.values))
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "x,y,value"
    assert len(lines) == 26
    parsed = np.array([[float(t) for t in ln.split(",")] for ln in lines[1:]])
    # 17 significant digits reproduce the doubles exactly
    assert np.array_equal(parsed[:, 0], g.xs)
    assert np.array_equal(parsed[:, 2], f.values)


def test_csv_1d_columns():
    g = make_grid_1d(0.0, 2.0, 5)
    buf = io.StringIO()
    write_csv(buf, ("x", "value"), (g.xs, sample(lambda x: x / 7.0, g).values))
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "x,value"
    assert float(lines[3].split(",")[1]) == 1.0 / 7.0


def test_text_output_closes_only_what_it_opens(tmp_path):
    buf = io.StringIO()
    with text_output(buf) as fh:
        fh.write("a\n")
    assert fh is buf and not buf.closed
    path = tmp_path / "out.csv"
    with text_output(path) as fh:
        fh.write("b\n")
    assert fh.closed
    assert path.read_text() == "b\n"
    with pytest.raises(RuntimeError):
        with text_output(path) as fh:
            raise RuntimeError("writer failed")
    assert fh.closed


@settings(max_examples=500, deadline=None)
@given(low=st.floats(-1e100, 1e100), ulps=st.floats(0.0, 16.0), n=st.integers(5, 1000))
def test_a_grid_axis_is_refused_exactly_when_its_points_collapse(low, ulps, n):
    # the spacing rule reads the points only at or below four ulps of the
    # larger |end|; |low| >= 1e-100 keeps 1/h^2 finite, so only a collapse
    # can refuse the axis
    high = low + ulps * math.ulp(abs(low)) * (n - 1)
    assume(abs(low) >= 1e-100 and high > low)
    distinct = bool(np.all(np.diff(LogGrid1D(low, high, n).points) > 0.0))
    try:
        make_grid_2d(low, high, n, 0.0, 1.0, 5)
    except InputError as exc:
        assert not distinct and exc.field == "x_max" and "points distinct" in exc.rule
    else:
        assert distinct


def test_default_grids():
    g = default_grid_1d(100.0, 0.2, 1.0)
    assert g.n == 401
    assert g.x_min == pytest.approx(math.log(100.0) - 1.0)
    assert g.x_max == pytest.approx(math.log(100.0) + 1.0)
    g2 = default_grid_2d(100.0, 0.04, 1.0)
    assert isinstance(g2, LogGrid2D)
    assert (g2.nx, g2.ny) == (201, 81)
    assert g2.x_axis == default_grid_1d(100.0, math.sqrt(0.04), 1.0, n=201)
    assert g2.y_axis.x_min == pytest.approx(math.log(0.04) - 5.0)
    assert g2.y_axis.x_max == pytest.approx(math.log(0.04) + 2.0)
    # distinct points, though unevenly rounded against ln s0, are kept (the
    # price on them fails its first step's residual check instead)
    assert default_grid_1d(100.0, 1e-13, 1.0).n == 401
    with pytest.raises(ValueError):
        default_grid_1d(-5.0, 0.2, 1.0)
    with pytest.raises(ValueError):
        default_grid_2d(100.0, 0.0, 1.0)


def test_params_defaults_and_validation():
    p = ModelParams()
    assert p.sigma == 0.2 and p.alpha == 1.0
    assert p.vol_vol_half is False
    assert p.sigma_local is True
    with pytest.raises(ValueError, match="sigma"):
        ModelParams(sigma=-0.1)
    with pytest.raises(ValueError, match="r must"):
        ModelParams(r=-0.01)
    with pytest.raises(ValueError, match="rho"):
        ModelParams(rho=1.5)
    with pytest.raises(ValueError, match="finite"):
        ModelParams(mu=float("nan"))


def test_params_frozen():
    p = ModelParams()
    with pytest.raises(AttributeError):
        p.sigma = 0.5


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_default_grids_name_bad_spot_and_variance(bad):
    with pytest.raises(ValueError, match="s0 must be positive and finite"):
        default_grid_1d(bad, 0.2, 1.0)
    with pytest.raises(ValueError, match="s0 must be positive and finite"):
        default_grid_2d(bad, 0.04, 1.0)
    with pytest.raises(ValueError, match="v0 must be positive and finite"):
        default_grid_2d(100.0, bad, 1.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_default_grids_name_non_finite_sigma_and_maturity(bad):
    # both used to fail with only "grid bounds must be finite"
    with pytest.raises(ValueError, match="sigma must be nonnegative and finite"):
        default_grid_1d(100.0, bad, 1.0)
    with pytest.raises(ValueError, match="maturity must be positive and finite"):
        default_grid_1d(100.0, 0.2, bad)
    with pytest.raises(ValueError, match="maturity must be positive and finite"):
        default_grid_2d(100.0, 0.04, bad)


def test_default_grids_reject_negative_sigma():
    # a negative sigma used to fall back silently to a box of +-1 around ln s0
    with pytest.raises(ValueError, match="sigma must be nonnegative and finite"):
        default_grid_1d(100.0, -0.2, 1.0)
    assert default_grid_1d(100.0, 0.0, 1.0).x_max == pytest.approx(math.log(100.0) + 1.0)


def test_check_positive_names_the_field():
    check_positive("width", 1e-300)
    for bad in (0.0, -2.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match=f"width must be positive and finite, got {bad}"):
            check_positive("width", bad)


# ---------------------------------------------------------------------------
# one CSV writer, against the hand-written loops it replaced
# ---------------------------------------------------------------------------

def grid_function_csv_by_hand(gf):
    """A grid function's table, x (and y) then the value, written row by row."""
    out = io.StringIO()
    if isinstance(gf.grid, LogGrid2D):
        out.write("x,y,value\n")
        for x, y, v in zip(gf.grid.xs, gf.grid.ys, gf.values):
            out.write(f"{x:.17g},{y:.17g},{v:.17g}\n")
    else:
        out.write("x,value\n")
        for x, v in zip(gf.grid.points, gf.values):
            out.write(f"{x:.17g},{v:.17g}\n")
    return out.getvalue()


def test_write_csv_formats_every_value_with_17_digits():
    buf = io.StringIO()
    ints = np.array([0, 7, 123456789], dtype=np.int32)
    floats = np.array([0.1, -1e-300, 2.0 ** 60])
    write_csv(buf, ("i", "a", "b"), (ints, floats, [1, 1.0 / 3.0, -0.0]))
    assert buf.getvalue() == ("i,a,b\n"
                              "0,0.10000000000000001,1\n"
                              "7,-1e-300,0.33333333333333331\n"
                              "123456789,1.152921504606847e+18,-0\n")
    empty = io.StringIO()
    write_csv(empty, ("only",), ([],))
    assert empty.getvalue() == "only\n"


@pytest.mark.parametrize("two_d", [False, True])
def test_grid_function_csv_bytes_match_hand_written_rows(two_d, tmp_path):
    if two_d:
        gf = sample(lambda x, y: np.exp(x + y) / 3.0, make_grid_2d(-1.0, 1.3, 7, -2.0, 0.1, 6))
    else:
        gf = sample(lambda x: np.sin(x) / 7.0, make_grid_1d(-0.3, 2.9, 17))
    header = ("x", "y", "value") if two_d else ("x", "value")
    columns = (gf.grid.xs, gf.grid.ys, gf.values) if two_d else (gf.grid.xs, gf.values)
    buf = io.StringIO()
    write_csv(buf, header, columns)
    assert buf.getvalue() == grid_function_csv_by_hand(gf)
    write_csv(tmp_path / "gf.csv", header, columns)
    assert (tmp_path / "gf.csv").read_text() == grid_function_csv_by_hand(gf)


# ---------------------------------------------------------------------------
# every report goes through dataclasses.asdict; its JSON is the JSON of the
# per-class to_dict methods it replaced
# ---------------------------------------------------------------------------

def old_to_dict(report):
    if isinstance(report, MartingaleReport):
        return {"residual_norm": report.residual_norm,
                "condition_lhs": report.condition_lhs,
                "satisfied": report.satisfied}
    if isinstance(report, VolcoeffReport):
        return {"deviations": dict(report.deviations),
                "second_y_matches_half_sig2": report.second_y_matches_half_sig2,
                "vol_vol_half": report.vol_vol_half}
    if isinstance(report, HedgeTestResult):
        return {"mean_error": report.mean_error, "std_error": report.std_error,
                "stderr": report.stderr, "n_paths": report.n_paths,
                "n_steps": report.n_steps}
    return {"a_coeff": report.a_coeff, "mu": report.mu, "lambda_": report.lambda_,
            "roots_y": list(report.roots_y), "roots_expy": list(report.roots_expy),
            "no_equilibrium": report.no_equilibrium}


def test_report_to_dict_matches_per_class_methods():
    grid = make_grid_2d(3.5, 5.5, 11, -4.0, -1.0, 7)
    mg = ModelParams(lambda_=0.01, mu=-0.5, zeta=0.5, alpha=0.5, rho=-0.5)
    reports = [
        mg_martingale_report(mg, grid),
        martingale_roots(1.0, -3.0, 2.0),
        martingale_roots(1.0, 1.0, 1.0),   # no roots: empty tuples
        volcoeff_audit(mg, grid),
        delta_hedge_test(ModelParams(r=0.03, sigma=0.2, phi=0.03),
                         OptionContract("call", 100.0, 1.0), 100.0, 5, 50, seed=1),
    ]
    for report in reports:
        d = asdict(report)
        expected = old_to_dict(report)
        assert (json.dumps(d, indent=2, sort_keys=True)
                == json.dumps(expected, indent=2, sort_keys=True))
        assert list(d) == list(expected)
    assert reports[2].roots_y == () and asdict(reports[2])["roots_y"] == ()
    volc = reports[3]
    assert asdict(volc)["deviations"] is not volc.deviations
