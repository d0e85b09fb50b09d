"""Grids, grid functions, and parameter validation."""

import io
import math

import numpy as np
import pytest

from gauge_hamilton import (
    GridFunction,
    HedgeTestResult,
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
    write_grid_function_csv,
)
from gauge_hamilton.core import check_positive, text_output, write_csv


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
    with pytest.raises(ValueError, match="n must be an integer"):
        make_grid_1d(0.0, 1.0, True)
    # numpy integers are integers
    assert make_grid_1d(0.0, 1.0, np.int64(7)).n_points == 7
    assert make_grid_2d(0.0, 1.0, np.int32(5), 0.0, 1.0, np.int64(6)).shape == (5, 6)


def test_flat_layout_row_major():
    g = make_grid_2d(0.0, 1.0, 5, 10.0, 11.0, 6)
    # index (i, j) -> i*ny + j, x outer, y inner
    assert g.index(2, 3) == 2 * 6 + 3
    assert g.unravel(13) == (2, 1)
    np.testing.assert_array_equal(g.xs[:6], np.zeros(6))
    np.testing.assert_array_equal(g.ys[:6], g.y_axis.points)
    with pytest.raises(IndexError):
        g.index(5, 0)


def test_interior_mask_depth():
    g = make_grid_1d(0.0, 1.0, 7)
    m1 = g.interior_mask()
    assert m1.sum() == 5 and not m1[0] and not m1[-1]
    m2 = g.interior_mask(2)
    assert m2.sum() == 3
    g2 = make_grid_2d(0.0, 1.0, 5, 0.0, 1.0, 7)
    assert g2.interior_mask().sum() == 3 * 5
    assert g2.interior_mask(2).sum() == 1 * 3


def test_sample_exponential_corner():
    g = make_grid_2d(-1.0, 1.0, 5, -1.0, 1.0, 5)
    f = sample(lambda x, y: np.exp(x + y), g)
    # corner (x, y) = (1, 1)
    assert f.values[g.index(4, 4)] == pytest.approx(7.389056, abs=1e-6)
    assert f.values[g.index(4, 4)] == math.exp(2.0)


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
    with pytest.raises(ValueError, match="finite"):
        GridFunction(g, np.array([1.0, np.nan, 1.0, 1.0, 1.0]))
    masked = GridFunction(g, np.array([1.0, np.nan, 1.0, 1.0, 1.0]), allow_masked=True)
    np.testing.assert_array_equal(masked.mask, [True, False, True, True, True])
    with pytest.raises(ValueError):
        GridFunction(g, np.array([1.0, np.inf, 1.0, 1.0, 1.0]), allow_masked=True)


def test_grid_function_2d_reshape():
    g = make_grid_2d(0.0, 1.0, 5, 0.0, 1.0, 6)
    f = GridFunction(g, np.arange(30.0).reshape(5, 6))
    assert f.values.shape == (30,)
    assert np.array_equal(f.values2d, np.arange(30.0).reshape(5, 6))
    g1 = make_grid_1d(0.0, 1.0, 5)
    with pytest.raises(TypeError):
        GridFunction(g1, np.zeros(5)).values2d


def test_csv_round_trip_2d():
    g = make_grid_2d(-1.0, 1.0, 5, -1.0, 1.0, 5)
    f = sample(lambda x, y: np.exp(x + y) / 3.0, g)
    buf = io.StringIO()
    f.to_csv(buf)
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
    write_grid_function_csv(sample(lambda x: x / 7.0, g), buf)
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

def test_default_grids():
    g = default_grid_1d(100.0, 0.2, 1.0)
    assert g.n == 401
    assert g.x_min == pytest.approx(math.log(100.0) - 1.0)
    assert g.x_max == pytest.approx(math.log(100.0) + 1.0)
    g2 = default_grid_2d(100.0, 0.04, 1.0)
    assert isinstance(g2, LogGrid2D)
    assert (g2.nx, g2.ny) == (201, 81)
    assert g2.y_axis.x_min == pytest.approx(math.log(0.04) - 5.0)
    assert g2.y_axis.x_max == pytest.approx(math.log(0.04) + 2.0)
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
    with pytest.raises(ValueError, match="omega"):
        ModelParams(omega=-1.0)
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
    with pytest.raises(ValueError, match="sigma must be nonnegative and finite"):
        default_grid_2d(100.0, 0.04, 1.0, sigma=bad)
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
    """write_grid_function_csv before it went through write_csv."""
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
    buf = io.StringIO()
    write_grid_function_csv(gf, buf)
    assert buf.getvalue() == grid_function_csv_by_hand(gf)
    gf.to_csv(tmp_path / "gf.csv")
    assert (tmp_path / "gf.csv").read_text() == grid_function_csv_by_hand(gf)


# ---------------------------------------------------------------------------
# one to_dict for every report, against the per-class methods it replaced
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
        d = report.to_dict()
        expected = old_to_dict(report)
        assert d == expected
        assert list(d) == list(expected)
        assert [type(v) for v in d.values()] == [type(v) for v in expected.values()]
    volc = reports[3]
    assert volc.to_dict()["deviations"] is not volc.deviations
