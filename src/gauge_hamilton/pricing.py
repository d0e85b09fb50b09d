"""Option contracts and pricing by backward evolution of a Hamiltonian.

The pricing equation dC/dt = H C is a final-value problem: the payoff is
known at maturity and the operator is evolved backwards.  In remaining
time tau = T - t this is dC/dtau = -H C.  On 1D grids it is discretized by
the theta scheme

    (I + theta dtau H) C_new = (I - (1-theta) dtau H) C_old,

solved with one sparse LU factor per theta.  On 2D grids the operator
A = -H is split by stencil direction into A1 (along x), A2 (along y) and
the mixed part A0, and each step is a Craig-Sneyd ADI step: an explicit
stage of the whole operator, an implicit x-sweep with I - theta dtau A1
and a y-sweep with I - theta dtau A2, then a correction with the explicit
mixed term and the two sweeps again.  Each sweep system is tridiagonal
along its grid lines and is solved with LAPACK's gttrf/gttrs.

theta = 1/2 (Crank-Nicolson in 1D, Craig-Sneyd in 2D) with a short fully
implicit startup is the default; the startup damps the oscillations the
payoff kink would otherwise feed into the averaged scheme.  In 2D the
startup steps, and every step when theta = 1, are Douglas steps: the same
sweeps with theta = 1 and no correction stage.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.special import ndtr

from .core import (GridFunction, LogGrid1D, LogGrid2D, ModelParams, check_positive,
                   default_grid_1d, default_grid_2d, text_output,
                   write_grid_function_csv)
from .operators import LinearOperator, build_bs_hamiltonian, build_mg_hamiltonian

__all__ = [
    "OptionContract",
    "EvolveError",
    "FarFieldBoundary",
    "PriceSurface",
    "terminal_payoff",
    "bs_closed_form",
    "bs_delta",
    "evolve",
    "price_bs",
    "solve_mg",
    "price_mg",
]


@dataclass(frozen=True)
class OptionContract:
    kind: str            # "call" or "put"
    strike: float
    maturity: float
    premium: float = 0.0  # paid up front; only profit queries use it

    def __post_init__(self):
        if self.kind not in ("call", "put"):
            raise ValueError(f"kind must be 'call' or 'put', got {self.kind!r}")
        check_positive("strike", self.strike)
        check_positive("maturity", self.maturity)
        if not (math.isfinite(self.premium) and self.premium >= 0.0):
            raise ValueError(f"premium must be nonnegative and finite, got {self.premium}")

    def payoff(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if self.kind == "call":
            return np.maximum(s - self.strike, 0.0)
        return np.maximum(self.strike - s, 0.0)


def terminal_payoff(contract: OptionContract, grid) -> GridFunction:
    """Payoff sampled on the grid; constant across y on 2D grids."""
    return GridFunction(grid, contract.payoff(np.exp(grid.xs)))


def _norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def bs_closed_form(params: ModelParams, contract: OptionContract, s0: float) -> float:
    """Black-Scholes price from the cumulative normal.

    sigma = 0 is handled as the deterministic limit, where the option is
    worth its discounted intrinsic value on the forward.
    """
    check_positive("s0", s0)
    k, t = contract.strike, contract.maturity
    r, sigma = params.r, params.sigma
    disc = math.exp(-r * t)
    if sigma == 0.0:
        forward_gap = s0 - k * disc
        return max(forward_gap, 0.0) if contract.kind == "call" else max(-forward_gap, 0.0)
    st = sigma * math.sqrt(t)
    d1 = (math.log(s0 / k) + (r + 0.5 * sigma * sigma) * t) / st
    d2 = d1 - st
    if contract.kind == "call":
        return s0 * _norm_cdf(d1) - k * disc * _norm_cdf(d2)
    return k * disc * _norm_cdf(-d2) - s0 * _norm_cdf(-d1)


def bs_delta(params: ModelParams, contract: OptionContract, s, tau: float):
    """Analytic dC/dS with remaining time tau, at a spot or an array of
    spots; a float for a scalar ``s``."""
    check_positive("tau", tau)
    s = np.asarray(s, dtype=float)
    if not np.all(np.isfinite(s) & (s > 0.0)):
        raise ValueError("s must be positive and finite")
    r, sigma = params.r, params.sigma
    if sigma == 0.0:
        d = (s > contract.strike * math.exp(-r * tau)).astype(float)
    else:
        st = sigma * math.sqrt(tau)
        d = ndtr((np.log(s / contract.strike) + (r + 0.5 * sigma ** 2) * tau) / st)
    d = d if contract.kind == "call" else d - 1.0
    return float(d) if d.ndim == 0 else d


class EvolveError(RuntimeError):
    """Raised when a time step's linear solve fails or loses accuracy."""


@dataclass(frozen=True)
class FarFieldBoundary:
    """Dirichlet values on the x faces plus linear extrapolation in y.

    Calls: C = 0 at x_min and C = e^x - K e^{-r tau} at x_max; puts are
    mirrored.  On 2D grids the y faces carry zero-second-derivative rows,
    which lets the solution stay linear in V at the edge of the box.
    """

    contract: OptionContract
    rate: float

    def x_values(self, grid, tau: float) -> tuple[float, float]:
        pv_strike = self.contract.strike * math.exp(-self.rate * tau)
        if self.contract.kind == "call":
            return 0.0, math.exp(grid.x_axis.x_max) - pv_strike
        return pv_strike - math.exp(grid.x_axis.x_min), 0.0


def _boundary_rows(grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat indices of the rows a FarFieldBoundary replaces.

    Returns (low, high, y_faces): the Dirichlet rows on the x_min and x_max
    faces and, on 2D grids, the index of point (i, 0) for every interior i;
    the linearity rows sit at the two ends of each of those y lines.
    """
    if isinstance(grid, LogGrid1D):
        return np.array([0]), np.array([grid.n - 1]), np.array([], dtype=int)
    ny = grid.ny
    return (np.arange(ny), (grid.nx - 1) * ny + np.arange(ny),
            np.arange(1, grid.nx - 1) * ny)


def _theta_matrix(m: sp.csr_matrix, s: float, pinned=(), zeroed=()) -> sp.csr_matrix:
    """I + s M in CSR, with the rows ``pinned`` made identity rows and the
    rows ``zeroed`` made zero rows.

    M's data is scaled and 1 is added to its stored diagonal; a row that
    stores no diagonal entry gets an explicit zero there first.  The
    replaced rows are edited in place, and entries that come out exactly
    zero are dropped, as a sparse sum would drop them.
    """
    n = m.shape[0]
    a = sp.csr_matrix(m, copy=True)
    a.sum_duplicates()
    rows = np.repeat(np.arange(n), np.diff(a.indptr))
    diag = np.flatnonzero(a.indices == rows)
    if diag.size < n:
        missing = np.setdiff1d(np.arange(n), rows[diag])
        a = sp.csr_matrix((np.concatenate([a.data, np.zeros(missing.size)]),
                           (np.concatenate([rows, missing]),
                            np.concatenate([a.indices, missing]))), shape=(n, n))
        rows = np.repeat(np.arange(n), np.diff(a.indptr))
        diag = np.flatnonzero(a.indices == rows)
    # one diagonal entry per row now, so diag[i] is row i's
    a.data *= s
    a.data[diag] += 1.0
    pinned = np.asarray(pinned, dtype=np.intp)
    cleared = np.zeros(n, dtype=bool)
    cleared[pinned] = True
    cleared[np.asarray(zeroed, dtype=np.intp)] = True
    a.data[cleared[rows]] = 0.0
    a.data[diag[pinned]] = 1.0
    a.eliminate_zeros()
    return a


def _theta_systems(m: sp.csr_matrix, theta: float, dt: float, replaced=()):
    """The two sides of a 1D theta step: I + theta dt M with the ``replaced``
    rows pinned, and I - (1-theta) dt M with them zeroed."""
    return (_theta_matrix(m, theta * dt, pinned=replaced),
            _theta_matrix(m, -((1.0 - theta) * dt), zeroed=replaced))


@dataclass(frozen=True, eq=False)
class PriceSurface:
    """Solution of the backward evolution at the valuation time.

    ``prev_values`` is the slice one time step ``dt`` closer to maturity,
    kept so time derivatives can be formed without re-solving; when given,
    it must be finite on the grid and ``dt`` positive and finite.
    """

    grid: object
    values: np.ndarray
    valuation_time: float
    prev_values: Optional[np.ndarray] = None
    dt: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "values", GridFunction(self.grid, self.values).values)
        if self.prev_values is not None:
            try:
                prev = GridFunction(self.grid, self.prev_values).values
            except ValueError as exc:
                raise ValueError(f"prev_values: {exc}") from None
            object.__setattr__(self, "prev_values", prev)
        if self.dt is not None:
            check_positive("dt", self.dt)

    values2d = GridFunction.values2d

    def interpolate(self, x: float, y: float | None = None) -> float:
        """Linear (bilinear on 2D grids) interpolation at a query point."""
        if isinstance(self.grid, LogGrid2D):
            if y is None:
                raise ValueError("2D surface needs both x and y")
            ax, ay = self.grid.x_axis, self.grid.y_axis
            if not (ax.x_min <= x <= ax.x_max and ay.x_min <= y <= ay.x_max):
                raise ValueError(f"query point ({x}, {y}) outside grid box")
            fx = np.clip((x - ax.x_min) / ax.h, 0, ax.n - 1)
            fy = np.clip((y - ay.x_min) / ay.h, 0, ay.n - 1)
            i0 = min(int(fx), ax.n - 2)
            j0 = min(int(fy), ay.n - 2)
            tx, ty = fx - i0, fy - j0
            v = self.values2d
            return float((1 - tx) * (1 - ty) * v[i0, j0] + tx * (1 - ty) * v[i0 + 1, j0]
                         + (1 - tx) * ty * v[i0, j0 + 1] + tx * ty * v[i0 + 1, j0 + 1])
        g = self.grid
        if not g.x_min <= x <= g.x_max:
            raise ValueError(f"query point {x} outside grid box")
        fx = np.clip((x - g.x_min) / g.h, 0, g.n - 1)
        i0 = min(int(fx), g.n - 2)
        tx = fx - i0
        return float((1 - tx) * self.values[i0] + tx * self.values[i0 + 1])

    def to_csv(self, path) -> None:
        with text_output(path) as fh:
            fh.write(f"# t={self.valuation_time:.17g}\n")
            write_grid_function_csv(GridFunction(self.grid, self.values), fh)


def evolve(h: LinearOperator, terminal: GridFunction, maturity: float,
           n_steps: int, theta_scheme: float = 0.5,
           boundary: Optional[FarFieldBoundary] = None,
           rannacher: int = 2,
           residual_tol: float = 1e-10) -> PriceSurface:
    """March the terminal condition back to the valuation time.

    The first ``rannacher`` steps are fully implicit (theta = 1), the rest
    use ``theta_scheme``.  Every linear solve is checked: a relative
    residual above ``residual_tol`` raises EvolveError.

    On 1D grids each step is a theta step solved by sparse LU.  With no
    boundary object the operator's own one-sided rows act on the ends; a
    FarFieldBoundary replaces the end rows of the implicit system with
    Dirichlet rows and feeds the time-dependent values through the
    right-hand side.

    On 2D grids each step is a Craig-Sneyd ADI step (a Douglas step when
    theta = 1) built on the direction split of -H, and ``boundary`` is
    required.  The Dirichlet rows of the x faces are imposed in both
    sweeps.  The linearity row of each y face is substituted into its
    neighbour row, so the y-sweep stays tridiagonal, and the face value is
    extrapolated from the two nearest rows after the sweep.  The mixed
    term only ever acts explicitly.
    """
    if terminal.grid != h.grid:
        raise ValueError("grid mismatch: terminal condition not on the operator grid")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if not 0.0 <= theta_scheme <= 1.0:
        raise ValueError("theta_scheme must lie in [0, 1]")
    check_positive("maturity", maturity)
    check_positive("residual_tol", residual_tol)
    grid = h.grid
    two_d = isinstance(grid, LogGrid2D)
    if two_d and boundary is None:
        raise ValueError("boundary is required on 2D grids: the ADI sweeps "
                         "take their face rows from a FarFieldBoundary")
    dt = maturity / n_steps

    if theta_scheme < 0.5 and h.matrix.nnz:
        # explicit component: estimate the spectral bound by Gershgorin
        row_sums = np.asarray(np.abs(h.matrix).sum(axis=1)).ravel()
        bound = float(row_sums.max())
        if bound > 0 and dt * (1.0 - 2.0 * theta_scheme) * bound > 2.0:
            warnings.warn(
                f"explicit step may be unstable: dt = {dt:g} exceeds "
                f"{2.0 / ((1.0 - 2.0 * theta_scheme) * bound):g} "
                f"(Gershgorin bound {bound:g})", RuntimeWarning)

    advance = (_adi_stepper if two_d else _lu_stepper)(h, dt, boundary)

    def check(a, new, rhs):
        resid = a @ new - rhs
        scale = max(1.0, float(np.abs(rhs).max()))
        rel = float(np.abs(resid).max()) / scale
        if not np.all(np.isfinite(new)) or rel > residual_tol:
            raise EvolveError(
                f"linear solve at step {step + 1}/{n_steps} has relative residual "
                f"{rel:g} (tolerance {residual_tol:g})")

    startup = min(rannacher, n_steps) if theta_scheme < 1.0 else 0
    values = terminal.values.copy()
    prev = values
    for step in range(n_steps):
        theta = 1.0 if step < startup else theta_scheme
        new = advance(values, theta, (step + 1) * dt, check)
        prev = values
        values = new
    return PriceSurface(grid=grid, values=values, valuation_time=0.0,
                        prev_values=prev, dt=dt)


def _lu_stepper(h: LinearOperator, dt: float, boundary: Optional[FarFieldBoundary]):
    """Theta steps on a 1D grid, one sparse LU factor per theta."""
    grid = h.grid
    low, high, _ = _boundary_rows(grid)
    replaced = () if boundary is None else np.concatenate([low, high])

    @functools.cache
    def get_system(theta: float):
        a, b = _theta_systems(h.matrix, theta, dt, replaced)
        try:
            lu = spla.splu(a.tocsc())
        except RuntimeError as exc:
            raise EvolveError(f"implicit matrix factorization failed: {exc}") from exc
        return a, b, lu

    def advance(values, theta, tau_new, check):
        a, b, lu = get_system(theta)
        rhs = b @ values
        if boundary is not None:
            g_low, g_high = boundary.x_values(grid, tau_new)
            rhs[low] = g_low
            rhs[high] = g_high
        new = lu.solve(rhs)
        check(a, new, rhs)
        return new

    return advance


def _split_directions(h: LinearOperator) -> tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]:
    """Split A = -H on a 2D grid into its x, y and mixed parts (A1, A2, A0).

    An off-diagonal entry belongs to A1 when its row and column share the
    y index j, to A2 when they share the x index i, and to A0 otherwise.
    Every difference stencil annihilates constants, so each direction's
    diagonal is minus its off-diagonal row sum; the rest of the diagonal,
    the potential, is shared equally by A1 and A2.
    """
    n, ny = h.grid.n_points, h.grid.ny
    a = (-h.matrix).tocoo()
    ri, rj = np.divmod(a.row, ny)
    ci, cj = np.divmod(a.col, ny)
    off = a.row != a.col
    a1, a2, a0 = (sp.csr_matrix((a.data[m], (a.row[m], a.col[m])), shape=(n, n))
                  for m in (off & (rj == cj), off & (ri == ci), (ri != ci) & (rj != cj)))
    d1 = -np.asarray(a1.sum(axis=1)).ravel()
    d2 = -np.asarray(a2.sum(axis=1)).ravel()
    half_rest = 0.5 * (-h.matrix.diagonal() - d1 - d2)
    return (a1 + sp.diags(d1 + half_rest, format="csr"),
            a2 + sp.diags(d2 + half_rest, format="csr"), a0)


def _tridiagonal(s: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sub-, main and super-diagonal of a matrix that must be tridiagonal."""
    if np.any((sp.triu(s, 2) + sp.tril(s, -2)).data):
        raise ValueError("ADI stepping needs three-point stencils along each axis")
    return s.diagonal(-1), s.diagonal(), s.diagonal(1)


def _gttrf(dl: np.ndarray, d: np.ndarray, du: np.ndarray) -> tuple:
    """LU factors of a tridiagonal matrix, as dgttrs takes them."""
    dl, d, du, du2, ipiv, info = dgttrf(dl, d, du)
    if info > 0:
        raise EvolveError(f"implicit matrix factorization failed: zero pivot in row {info}")
    return dl, d, du, du2, ipiv


def _adi_stepper(h: LinearOperator, dt: float, boundary: FarFieldBoundary):
    """Craig-Sneyd (theta < 1) or Douglas (theta = 1) steps on a 2D grid.

    Each sweep solves one tridiagonal system per theta, factored once:
    the x-sweep in x-line order (all points of a y index j contiguous),
    the y-sweep in the grid's own order.  A sweep's residual is checked
    against its unmodified system, whose y-face rows in the y-sweep are the
    [1, -2, 1] linearity rows.
    """
    grid = h.grid
    nx, ny, n = grid.nx, grid.ny, grid.n_points
    a1, a2, a0 = _split_directions(h)
    low, high, bottom = _boundary_rows(grid)
    top = bottom + ny - 1
    faces = np.concatenate([bottom, top])
    dirichlet = np.concatenate([low, high])
    replaced = np.concatenate([dirichlet, faces])
    keep = np.ones(n)
    keep[replaced] = 0.0
    inward = np.repeat([1, -1], bottom.size)[:, None] * np.arange(3)
    linearity = sp.csr_matrix((np.tile([1.0, -2.0, 1.0], faces.size),
                               (np.repeat(faces, 3), (faces[:, None] + inward).ravel())),
                              shape=(n, n))
    x_lines = np.arange(n).reshape(nx, ny).T.ravel()

    @functools.cache
    def get_system(theta: float):
        sys_x = _theta_matrix(a1, -(theta * dt), pinned=replaced)
        body_y = _theta_matrix(a2, -(theta * dt), pinned=dirichlet, zeroed=faces)
        dl, d, du = _tridiagonal(body_y)
        d[faces] = 1.0  # solved as identity rows; sys_y keeps the linearity rows
        # fold C(i,0) = 2 C(i,1) - C(i,2) into row (i,1), likewise at the top
        k = bottom + 1
        c = dl[k - 1]
        d[k] += 2.0 * c
        du[k] -= c
        dl[k - 1] = 0.0
        k = top - 1
        c = du[k]
        d[k] += 2.0 * c
        dl[k - 1] -= c
        du[k] = 0.0
        return (sys_x, _gttrf(*_tridiagonal(sys_x[x_lines][:, x_lines])),
                body_y + linearity, _gttrf(dl, d, du))

    def advance(values, theta, tau_new, check):
        sys_x, lu_x, sys_y, lu_y = get_system(theta)
        g_low, g_high = boundary.x_values(grid, tau_new)
        tdt = theta * dt
        a0u, a1u, a2u = a0 @ values, a1 @ values, a2 @ values

        def boundary_rhs(v):
            rhs = keep * v
            rhs[low] = g_low
            rhs[high] = g_high
            return rhs

        def sweeps(y0):
            rhs = boundary_rhs(y0 - tdt * a1u)
            y1 = dgttrs(*lu_x, rhs.reshape(nx, ny).T.ravel())[0].reshape(ny, nx).T.ravel()
            check(sys_x, y1, rhs)
            rhs = boundary_rhs(y1 - tdt * a2u)
            y2 = dgttrs(*lu_y, rhs)[0]
            y2[bottom] = 2.0 * y2[bottom + 1] - y2[bottom + 2]
            y2[top] = 2.0 * y2[top - 1] - y2[top - 2]
            check(sys_y, y2, rhs)
            return y2

        y0 = values + dt * (a0u + a1u + a2u)
        new = sweeps(y0)
        if theta < 1.0:
            new = sweeps(y0 + 0.5 * dt * (a0 @ new - a0u))
        return new

    return advance


def _in_no_arbitrage_box(price: float, contract: OptionContract, s0: float,
                         rate: float) -> float:
    """``price`` if it lies in [0, s0] (call) or [0, K e^{-rT}] (put); else the
    solve diverged or the strike lies beyond the grid, and EvolveError says so."""
    bound, upper = (("s0", s0) if contract.kind == "call" else
                    ("K e^{-rT}", contract.strike * math.exp(-rate * contract.maturity)))
    if not 0.0 <= price <= upper:
        raise EvolveError(f"{contract.kind} price {price!r} leaves the no-arbitrage box "
                          f"[0, {bound} = {upper!r}]")
    return price


def price_bs(params: ModelParams, contract: OptionContract, s0: float,
             grid: LogGrid1D | None = None, n_steps: int = 200,
             theta_scheme: float = 0.5) -> float:
    """Backward-evolved Black-Scholes price at ln s0, in the no-arbitrage box."""
    check_positive("s0", s0)
    if grid is None:
        grid = default_grid_1d(s0, params.sigma, contract.maturity)
    h = build_bs_hamiltonian(params, grid)
    surface = evolve(h, terminal_payoff(contract, grid), contract.maturity,
                     n_steps, theta_scheme,
                     boundary=FarFieldBoundary(contract, params.r))
    return _in_no_arbitrage_box(surface.interpolate(math.log(s0)), contract, s0, params.r)


def solve_mg(params: ModelParams, contract: OptionContract, grid: LogGrid2D,
             n_steps: int = 150, theta_scheme: float = 0.5) -> PriceSurface:
    """Full Merton-Garman price surface on the grid."""
    h = build_mg_hamiltonian(params, grid)
    return evolve(h, terminal_payoff(contract, grid), contract.maturity,
                  n_steps, theta_scheme,
                  boundary=FarFieldBoundary(contract, params.r))


def price_mg(params: ModelParams, contract: OptionContract, s0: float, v0: float,
             grid: LogGrid2D | None = None, n_steps: int = 150,
             theta_scheme: float = 0.5) -> float:
    """Merton-Garman price at spot s0 and variance v0, in the no-arbitrage box."""
    check_positive("s0", s0)
    check_positive("v0", v0)
    if grid is None:
        grid = default_grid_2d(s0, v0, contract.maturity)
    surface = solve_mg(params, contract, grid, n_steps, theta_scheme)
    return _in_no_arbitrage_box(surface.interpolate(math.log(s0), math.log(v0)),
                                contract, s0, params.r)
