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
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Iterator, Sequence, TextIO, Union

import numpy as np

__all__ = [
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

_SCALAR_FIELDS = ("r", "sigma", "phi", "lambda_", "mu", "zeta", "alpha", "rho", "omega")


def check_positive(name: str, value: float) -> None:
    """Raise a ValueError naming ``name`` unless ``value`` is positive and finite."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def check_integer(name: str, value, least: int) -> None:
    """Raise a ValueError naming ``name`` unless ``value`` is an integer (a
    Python or numpy one, not a bool) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value}")


class Record:
    """Base of the report dataclasses: ``to_dict`` walks the fields, turning
    tuples into lists and copying dicts, so the result is ready for JSON."""

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            elif isinstance(value, dict):
                value = dict(value)
            out[f.name] = value
        return out


@dataclass(frozen=True)
class ModelParams:
    """Scalar coefficients shared by the Hamiltonians and the simulators.

    r, phi, lambda_ and mu are rates (1/time), sigma is a volatility
    (1/sqrt(time)), zeta scales the variance noise V^alpha, and alpha, rho,
    omega are dimensionless.  ``vol_vol_half`` toggles the conventional 1/2
    on the second y-derivative coefficient of the Merton-Garman operator;
    the default keeps the coefficient as zeta^2 V^(2(alpha-1)) without it.
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
    omega: float = 0.0      # gauge transformation strength
    vol_vol_half: bool = False
    sigma_local: bool = True

    def __post_init__(self):
        for name in _SCALAR_FIELDS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.r < 0.0:
            raise ValueError(f"r must be nonnegative, got {self.r}")
        if self.sigma < 0.0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [-1, 1], got {self.rho}")
        if self.omega == -1.0:
            raise ValueError("omega must not equal -1 (degenerate transformation)")


@dataclass(frozen=True)
class LogGrid1D:
    """Uniform grid on [x_min, x_max] with n points; h = (x_max-x_min)/(n-1)."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValueError("grid bounds must be finite")
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")
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

    def index(self, i: int, j: int) -> int:
        if not (0 <= i < self.nx and 0 <= j < self.ny):
            raise IndexError(f"grid index ({i}, {j}) outside shape {self.shape}")
        return i * self.ny + j

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
    if not x_max > x_min:
        raise ValueError("x_max must exceed x_min")
    if not y_max > y_min:
        raise ValueError("y_max must exceed y_min")
    return LogGrid2D(LogGrid1D(x_min, x_max, nx), LogGrid1D(y_min, y_max, ny))


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Values attached to every point of a grid, stored flat and row-major.

    Values must be finite unless ``allow_masked`` is set, in which case NaN
    marks points deliberately left undefined (used by diagnostic fields).
    """

    grid: Grid
    values: np.ndarray
    allow_masked: bool = False

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 2 and isinstance(self.grid, LogGrid2D) and vals.shape == self.grid.shape:
            vals = vals.ravel()
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.grid.n_points,):
            raise ValueError(
                f"values must have shape ({self.grid.n_points},), got {vals.shape}")
        if self.allow_masked:
            if np.any(np.isinf(vals)):
                raise ValueError("grid function values must not be infinite")
        elif not np.all(np.isfinite(vals)):
            raise ValueError("grid function values must be finite")

    @property
    def values2d(self) -> np.ndarray:
        if not isinstance(self.grid, LogGrid2D):
            raise TypeError("values2d requires a 2D grid")
        return self.values.reshape(self.grid.shape)

    @property
    def mask(self) -> np.ndarray:
        """True where the value is defined (non-NaN)."""
        return ~np.isnan(self.values)

    def to_csv(self, path) -> None:
        write_grid_function_csv(self, path)


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


def write_grid_function_csv(gf: GridFunction, path) -> None:
    """CSV with 17 significant digits; 2D grids get columns x,y,value."""
    if isinstance(gf.grid, LogGrid2D):
        write_csv(path, ("x", "y", "value"), (gf.grid.xs, gf.grid.ys, gf.values))
    else:
        write_csv(path, ("x", "value"), (gf.grid.xs, gf.values))


def default_grid_1d(s0: float, sigma: float, maturity: float, n: int = 401) -> LogGrid1D:
    """Price grid centred on ln s0, five sigma*sqrt(T) wide on each side."""
    check_positive("s0", s0)
    check_positive("maturity", maturity)
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise ValueError(f"sigma must be nonnegative and finite, got {sigma}")
    half = 5.0 * sigma * math.sqrt(maturity)
    if half <= 0:
        half = 1.0  # degenerate sigma: any bounded box works
    x0 = math.log(s0)
    return LogGrid1D(x0 - half, x0 + half, n)


def default_grid_2d(s0: float, v0: float, maturity: float,
                    nx: int = 201, ny: int = 81,
                    sigma: float | None = None) -> LogGrid2D:
    """Joint grid: x as in default_grid_1d with sigma = sqrt(v0) unless
    given, y covering [ln v0 - 5, ln v0 + 2]."""
    check_positive("v0", v0)
    if sigma is None:
        sigma = math.sqrt(v0)
    x_axis = default_grid_1d(s0, sigma, maturity, n=nx)
    y0 = math.log(v0)
    return LogGrid2D(x_axis, LogGrid1D(y0 - 5.0, y0 + 2.0, ny))
