"""Grids, grid functions, and parameter validation."""

import io
import math

import numpy as np
import pytest

from gauge_hamilton import (
    GridFunction,
    LogGrid2D,
    ModelParams,
    default_grid_1d,
    default_grid_2d,
    make_grid_1d,
    make_grid_2d,
    sample,
    write_grid_function_csv,
)
from gauge_hamilton.core import text_output


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
