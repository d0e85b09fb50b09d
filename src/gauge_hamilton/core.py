"""Model parameters, log-space grids, and grid functions.

Everything downstream works in log coordinates: x = ln S for the security
price and y = ln V for the variance.  Grids are uniform in each coordinate
and 2D data is stored flat in row-major order (x outer, y inner), so the
flat index of point (i, j) is i * ny + j.
"""

from __future__ import annotations

import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence, TextIO, Union

import numpy as np

__all__ = [
    "InputError",
    "ModelParams",
    "LogGrid1D",
    "LogGrid2D",
    "GridFunction",
    "make_grid_1d",
    "make_grid_2d",
    "sample",
    "default_grid_1d",
    "default_grid_2d",
]

_SCALAR_FIELDS = ("r", "sigma", "phi", "lambda_", "mu", "zeta", "alpha", "rho")
EXP_LIMIT = math.log(np.finfo(float).max)  # ~709.78: e^x overflows above it


class InputError(ValueError):
    """A caller's value breaks an input rule.  ``field`` names the value and
    ``rule`` says what it must be; the message is the two joined."""

    def __init__(self, field: str, rule: str):
        super().__init__(f"{field} {rule}")
        self.field, self.rule = field, rule


def require(ok: bool, field: str, rule: str) -> None:
    """Raise InputError(field, rule) unless ``ok``."""
    if not ok:
        raise InputError(field, rule)


def check_positive(name: str, value: float) -> None:
    """Raise an InputError naming ``name`` unless ``value`` is positive and finite."""
    require(math.isfinite(value) and value > 0.0, name, f"must be positive and finite, got {value}")


def check_nonnegative(name: str, value: float) -> None:
    """Raise an InputError naming ``name`` unless ``value`` is nonnegative and finite."""
    require(math.isfinite(value) and value >= 0.0, name,
            f"must be nonnegative and finite, got {value}")


def check_finite(name: str, value: float) -> None:
    """Raise an InputError naming ``name`` unless ``value`` is finite."""
    require(math.isfinite(value), name, f"must be finite, got {value!r}")


def check_integer(name: str, value, least: int) -> None:
    """Raise an InputError naming ``name`` unless ``value`` is an integer (a
    Python or numpy one, not a bool) of at least ``least``."""
    require(not isinstance(value, bool) and isinstance(value, numbers.Integral)
            and value >= least, name, f"must be an integer >= {least}, got {value}")


@dataclass(frozen=True)
class ModelParams:
    """Scalar coefficients shared by the Hamiltonians and the simulators.

    r, phi, lambda_ and mu are rates (1/time), sigma is a volatility
    (1/sqrt(time)), zeta scales the variance noise V^alpha, and alpha and
    rho are dimensionless; the gauge strength omega lives on GaugeField.
    ``vol_vol_half`` toggles the conventional 1/2 on the second
    y-derivative coefficient of the Merton-Garman operator; the default
    keeps the coefficient as zeta^2 V^(2(alpha-1)) without it.
    ``sigma_local`` makes the gauge Hamiltonian read sigma^2 = e^y pointwise
    instead of using the constant ``sigma`` field.
    """

    r: float = 0.0          # risk-free rate
    sigma: float = 0.2      # constant volatility
    phi: float = 0.0        # expected return used by the real-world simulator
    lambda_: float = 0.0    # additive variance drift
    mu: float = 0.0         # multiplicative variance drift
    zeta: float = 0.0       # volatility-of-volatility scale
    alpha: float = 1.0      # variance diffusion exponent
    rho: float = 0.0        # correlation of the two Brownian noises
    vol_vol_half: bool = False
    sigma_local: bool = True

    def __post_init__(self):
        for name in _SCALAR_FIELDS:
            check_finite(name, getattr(self, name))
        require(self.r >= 0.0, "r", f"must be nonnegative, got {self.r}")
        require(self.sigma >= 0.0, "sigma", f"must be nonnegative, got {self.sigma}")
        require(-1.0 <= self.rho <= 1.0, "rho", f"must lie in [-1, 1], got {self.rho}")
        for name in ("sigma", "zeta"):   # the operators' coefficients hold their squares
            value = getattr(self, name)
            require(math.isfinite(value * value), name, f"must have a finite square, got {value}")


@dataclass(frozen=True)
class LogGrid1D:
    """Uniform grid on [x_min, x_max] with n points; h = (x_max-x_min)/(n-1)."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        check_finite("x_min", self.x_min)
        check_finite("x_max", self.x_max)
        require(self.x_max > self.x_min, "x_max", "must exceed x_min")
        check_integer("n", self.n, 5)

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    @property
    def points(self) -> np.ndarray:
        # x_min + i*h by construction, so coordinates reconstruct exactly
        return self.x_min + np.arange(self.n) * self.h

    @property
    def n_points(self) -> int:
        return self.n

    @property
    def xs(self) -> np.ndarray:
        return self.points

    @property
    def x_axis(self) -> LogGrid1D:
        return self  # so x bounds read alike on 1D and 2D grids

    def interior_mask(self, depth: int = 1) -> np.ndarray:
        """The points at least ``depth`` points inside either end; depth 0
        is every point.  An empty mask is refused: 2 depth must be below n."""
        check_integer("depth", depth, 0)
        require(2 * depth < self.n, "depth", f"must be below n/2 = {self.n / 2:g}, got {depth}")
        mask = np.zeros(self.n, dtype=bool)
        mask[depth:self.n - depth] = True
        return mask


@dataclass(frozen=True)
class LogGrid2D:
    """Tensor grid: x_axis holds ln S, y_axis holds ln V."""

    x_axis: LogGrid1D
    y_axis: LogGrid1D

    @property
    def nx(self) -> int:
        return self.x_axis.n

    @property
    def ny(self) -> int:
        return self.y_axis.n

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    @property
    def n_points(self) -> int:
        return self.nx * self.ny

    @property
    def hx(self) -> float:
        return self.x_axis.h

    @property
    def hy(self) -> float:
        return self.y_axis.h

    @property
    def xs(self) -> np.ndarray:
        """Flat x coordinate of every grid point, row-major."""
        return np.repeat(self.x_axis.points, self.ny)

    @property
    def ys(self) -> np.ndarray:
        """Flat y coordinate of every grid point, row-major."""
        return np.tile(self.y_axis.points, self.nx)

    def unravel(self, k: int) -> tuple[int, int]:
        return divmod(k, self.ny)

    def interior_mask(self, depth: int = 1) -> np.ndarray:
        mx = self.x_axis.interior_mask(depth)
        my = self.y_axis.interior_mask(depth)
        return np.outer(mx, my).ravel()


Grid = Union[LogGrid1D, LogGrid2D]


def make_grid_1d(x_min: float, x_max: float, n: int) -> LogGrid1D:
    return LogGrid1D(x_min, x_max, n)


def make_grid_2d(x_min: float, x_max: float, nx: int,
                 y_min: float, y_max: float, ny: int) -> LogGrid2D:
    """Build a 2D log grid, validating each axis by name."""
    check_integer("nx", nx, 5)
    check_integer("ny", ny, 5)
    for name, value in (("x_min", x_min), ("x_max", x_max), ("y_min", y_min), ("y_max", y_max)):
        check_finite(name, value)
    for axis, low, high, n in (("x", x_min, x_max, nx), ("y", y_min, y_max, ny)):
        require(high > low, f"{axis}_max", f"must exceed {axis}_min")
        _check_spacing(f"{axis}_max", f"exceed {axis}_min by", low, high, n)
    return LogGrid2D(LogGrid1D(x_min, x_max, nx), LogGrid1D(y_min, y_max, ny))


def _check_spacing(field: str, must: str, low: float, high: float, n: int) -> None:
    """Raise an InputError naming ``field`` unless h = (high - low)/(n - 1) has
    the finite 1/h^2 the stencils hold and keeps the n points low + i h apart;
    an h above four ulps of the larger |end| does, so only a finer one reads them."""
    h = (high - low) / (n - 1)
    rule = f"must {must} a width whose grid spacing h"
    require(h * h > 0.0 and math.isfinite(1.0 / (h * h)), field,
            f"{rule} has a finite 1/h^2, got h = {h:g}")
    require(h > 4.0 * math.ulp(max(abs(low), abs(high)))
            or bool(np.all(np.diff(low + np.arange(n) * h) > 0.0)), field,
            f"{rule} keeps all {n} points distinct, got h = {h:g}")


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Values attached to every point of a grid, one per point, flat and
    row-major (``values2d`` is the (nx, ny) view on a 2D grid).

    Values must be finite unless ``allow_masked`` is set, in which case NaN
    marks points deliberately left undefined (used by diagnostic fields).
    """

    grid: Grid
    values: np.ndarray
    allow_masked: bool = False

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.grid.n_points,):
            raise ValueError(
                f"values must have shape ({self.grid.n_points},), got {vals.shape}")
        if self.allow_masked:
            if np.any(np.isinf(vals)):
                raise ValueError("grid function values must not be infinite")
        elif not np.all(np.isfinite(vals)):
            finite_on_grid(vals, self.grid, "grid function value")   # raises, naming the index

    @property
    def values2d(self) -> np.ndarray:
        if not isinstance(self.grid, LogGrid2D):
            raise TypeError("values2d requires a 2D grid")
        return self.values.reshape(self.grid.shape)


def sample(f: Callable, grid: Grid) -> GridFunction:
    """Evaluate ``f`` at every grid point.

    On a 1D grid ``f`` takes x; on a 2D grid it takes (x, y) and is called
    with flat coordinate arrays, so numpy expressions vectorize directly.
    """
    if isinstance(grid, LogGrid2D):
        raw = f(grid.xs, grid.ys)
    else:
        raw = f(grid.points)
    return GridFunction(grid, finite_on_grid(raw, grid, "sample"))


def finite_on_grid(raw, grid: Grid, what: str) -> np.ndarray:
    """``raw`` broadcast to one value per grid point, as a new array; a
    ValueError names ``what`` and the first grid index where it is not finite."""
    vals = np.broadcast_to(np.asarray(raw, dtype=float), (grid.n_points,)).copy()
    bad = ~np.isfinite(vals)
    if np.any(bad):
        k = int(np.flatnonzero(bad)[0])
        where = grid.unravel(k) if isinstance(grid, LogGrid2D) else k
        raise ValueError(f"non-finite {what} {float(vals[k])} at grid index {where}")
    return vals


@contextmanager
def text_output(target) -> Iterator[TextIO]:
    """Yield a text handle to write to: ``target`` itself when it has a
    ``write`` method, which is left open, or else the file at that path,
    opened for writing and closed on exit."""
    if hasattr(target, "write"):
        yield target
    else:
        with open(target, "w") as fh:
            yield fh


def write_csv(target, header: Sequence[str], columns: Iterable[Iterable]) -> None:
    """CSV with one row per index of the equal-length ``columns``; every
    value is written with 17 significant digits, so doubles read back
    exactly and integers print as integers."""
    with text_output(target) as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def default_grid_1d(s0: float, sigma: float, maturity: float, n: int = 401) -> LogGrid1D:
    """Price grid centred on ln s0, five sigma*sqrt(T) wide on each side."""
    return _price_axis(s0, sigma, maturity, n, "sigma")


def _price_axis(s0: float, sigma: float, maturity: float, n: int, field: str) -> LogGrid1D:
    """default_grid_1d's box; an InputError names ``field``, the input that
    sets sigma, when e^x overflows at the box's top, when the half-width
    is lost against ln s0, so the box has no width, or when its spacing
    breaks make_grid_2d's rule."""
    check_positive("s0", s0)
    check_positive("maturity", maturity)
    check_nonnegative("sigma", sigma)
    half = 5.0 * sigma * math.sqrt(maturity)
    if half <= 0:
        half = 1.0  # degenerate sigma: any bounded box works
    x0 = math.log(s0)
    require(x0 + half <= EXP_LIMIT, field, f"must keep the top of the price box, {x0 + half:g}, "
                                           f"below ln(max float) = {EXP_LIMIT:.2f}")
    require(x0 - half < x0 + half, field, f"must give the price box a width: its half-width "
                                          f"{half:g} is lost against ln s0 = {x0:g}")
    axis = LogGrid1D(x0 - half, x0 + half, n)
    _check_spacing(field, f"give the price box around ln s0 = {x0:g}", axis.x_min, axis.x_max, n)
    return axis


def default_grid_2d(s0: float, v0: float, maturity: float,
                    nx: int = 201, ny: int = 81) -> LogGrid2D:
    """Joint grid: x as in default_grid_1d with sigma = sqrt(v0), y covering
    [ln v0 - 5, ln v0 + 2]; an InputError names v0 when e^x or e^y
    overflows at the top of its box."""
    check_positive("v0", v0)
    check_integer("nx", nx, 5)
    check_integer("ny", ny, 5)
    x_axis = _price_axis(s0, math.sqrt(v0), maturity, nx, "v0")
    y0 = math.log(v0)
    require(y0 + 2.0 <= EXP_LIMIT, "v0", f"must keep the top of the variance box, {y0 + 2.0:g}, "
                                         f"below ln(max float) = {EXP_LIMIT:.2f}")
    return LogGrid2D(x_axis, LogGrid1D(y0 - 5.0, y0 + 2.0, ny))
