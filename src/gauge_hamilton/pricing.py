"""Option contracts and pricing by backward evolution of a Hamiltonian.

The pricing equation dC/dt = H C is a final-value problem: the payoff is
known at maturity and the operator is evolved backwards.  In remaining
time tau = T - t this is dC/dtau = -H C.  On 1D grids it is discretized by
the theta scheme

    (I + theta dtau H) C_new = (I - (1-theta) dtau H) C_old,

and on 2D grids by ADI sweeps that solve systems of the same kind.  Every
one of these theta-systems, I + s M with its boundary rows pinned or
zeroed, is assembled in one representation, LAPACK band storage: M's
diagonals are read off its CSR arrays once, each theta's systems are built
from them, and each implicit system has one LU factor per theta, gttrf/gttrs
when it is tridiagonal, gbtrf/gbtrs with its own band widths when an
operator's one-sided end rows reach further.  In 1D the explicit product
and each step's residual are BLAS gbmv calls on the bands, and no
scipy.sparse call is made inside the step loop.  On 2D grids the operator
A = -H is split by stencil direction into A1 (along x), A2 (along y) and
the mixed part A0, and each step is a Craig-Sneyd ADI step: an explicit
stage of the whole operator, an implicit x-sweep with I - theta dtau A1
and a y-sweep with I - theta dtau A2, then a correction with the explicit
mixed term and the two sweeps again.  Each sweep system is tridiagonal
along its grid lines, so both are solved with gttrf/gttrs; the explicit
products stay CSR, and each sweep's residual is a CSR product with a
matrix made from the same band.

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
from scipy.linalg.blas import dgbmv
from scipy.linalg.lapack import dgbtrf, dgbtrs, dgttrf, dgttrs
from scipy.special import ndtr

from .core import (GridFunction, LogGrid1D, LogGrid2D, ModelParams, check_integer,
                   check_positive, default_grid_1d, default_grid_2d, text_output,
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

    def __post_init__(self):
        if not math.isfinite(self.rate):
            raise ValueError(f"rate must be finite, got {self.rate}")

    def x_values(self, grid, tau: float) -> tuple[float, float]:
        pv_strike = self.contract.strike * math.exp(-self.rate * tau)
        if self.contract.kind == "call":
            return 0.0, math.exp(grid.x_axis.x_max) - pv_strike
        return pv_strike - math.exp(grid.x_axis.x_min), 0.0


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
    residual above ``residual_tol``, or one that is not finite, raises
    EvolveError.

    On 1D grids each step is a theta step in LAPACK band storage: a gbmv
    product with the explicit side, the solve on tridiagonal factors (banded
    ones when the system is wider), and the residual as one more gbmv on
    the implicit side.  With no boundary object the operator's own
    one-sided rows act on the ends; a FarFieldBoundary replaces the end
    rows of the implicit system with Dirichlet rows and feeds the
    time-dependent values through the right-hand side.

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
    check_integer("n_steps", n_steps, 1)
    check_integer("rannacher", rannacher, 0)
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

    advance = (_adi_stepper if two_d else _band_stepper)(h, dt, boundary)

    def check(resid, rhs):
        rel = float(np.abs(resid).max()) / max(1.0, float(np.abs(rhs).max()))
        if not rel <= residual_tol:   # NaN and inf fail too
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


def _check_pivots(info: int) -> None:
    if info > 0:
        raise EvolveError(f"implicit matrix factorization failed: zero pivot in row {info}")


def _band_storage(m: sp.csr_matrix, stride: int = 1) -> tuple[np.ndarray, int]:
    """A banded CSR matrix in LAPACK band storage, its points in line order.

    Every stored entry must lie a multiple of ``stride`` columns from its
    row's diagonal, so the matrix couples only the points of a line, the
    indices equal modulo ``stride``.  Point q * stride + j is stored at
    j * n / stride + q (with stride 1, the matrix's own order), and entry
    (i, j) of the matrix in that order at [ku + i - j, j].  kl and ku, the
    bands below and above the main diagonal, are at least one each.
    Duplicate entries are summed in a copy.  Returns (band, ku).
    """
    n = m.shape[0]
    m = sp.csr_matrix(m, copy=True)
    m.sum_duplicates()
    rows = np.repeat(np.arange(n), np.diff(m.indptr))
    steps, off_lattice = np.divmod(m.indices - rows, stride)
    if off_lattice.any():
        raise ValueError(f"matrix has entries off the diagonals of stride {stride}")
    kl = max(1, -int(steps.min(initial=0)))
    ku = max(1, int(steps.max(initial=0)))
    band = np.zeros((kl + ku + 1, n))
    band[ku - steps, m.indices % stride * (n // stride) + m.indices // stride] = m.data
    return band, ku


def _theta_band(hb: np.ndarray, ku: int, s: float, replaced=(),
                pinned: bool = False) -> tuple[np.ndarray, int, int]:
    """I + s H in LAPACK band storage, with the ``replaced`` rows made
    identity rows when ``pinned`` and zero rows otherwise.

    ``hb`` holds H as _band_storage stores it, ``ku`` diagonals above the
    main one.  H is scaled and 1 is added on the diagonal; a product that
    vanishes is stored as +0.  The outer diagonals that come out all zero
    are trimmed, down to one on each side.  Returns (band, kl, ku), the
    band in Fortran order as gbmv takes it.
    """
    n = hb.shape[1]
    band = s * hb
    band[band == 0.0] = 0.0   # +0 where a product vanished
    band[ku] += 1.0
    replaced = np.asarray(replaced, dtype=np.intp)
    offsets = np.arange(ku + 1 - hb.shape[0], ku + 1)
    cols = replaced[:, None] + offsets   # row i's entry at offset k sits in column i + k
    inside = (cols >= 0) & (cols < n)
    band[np.broadcast_to(ku - offsets, cols.shape)[inside], cols[inside]] = 0.0
    if pinned:
        band[ku, replaced] = 1.0
    kept = ku - np.flatnonzero(band.any(axis=1))
    top, low = max(1, int(kept.max(initial=0))), max(1, -int(kept.min(initial=0)))
    return np.asfortranarray(band[ku - top:ku + low + 1]), low, top


def _band_csr(band: np.ndarray, ku: int) -> sp.csr_matrix:
    """The CSR matrix of a band in LAPACK storage, its zeros not stored."""
    n = band.shape[1]
    return sp.dia_matrix((band, np.arange(ku, ku - band.shape[0], -1)), shape=(n, n)).tocsr()


def _band_solver(band: np.ndarray, kl: int, ku: int):
    """The solve of a band system on its LAPACK LU factors: gttrf/gttrs when
    it is tridiagonal, gbtrf/gbtrs when wider rows reach further."""
    if kl == ku == 1:
        dl, d, du, du2, ipiv, info = dgttrf(band[2, :-1], band[1], band[0, 1:])
        _check_pivots(info)
        return lambda rhs: dgttrs(dl, d, du, du2, ipiv, rhs)[0]
    ab = np.zeros((2 * kl + ku + 1, band.shape[1]), order="F")   # kl spare rows on top
    ab[kl:] = band
    lu, ipiv, info = dgbtrf(ab, kl, ku)
    _check_pivots(info)
    return lambda rhs: dgbtrs(lu, kl, ku, rhs, ipiv)[0]


def _band_stepper(h: LinearOperator, dt: float, boundary: Optional[FarFieldBoundary]):
    """Theta steps on a 1D grid in LAPACK band storage.

    H's diagonals are read once.  Each theta's two systems are assembled in
    band storage and the implicit one is factored, once; every step is then
    a gbmv product with the explicit band, the solve, and a gbmv residual
    on the implicit band.
    """
    grid, n = h.grid, h.grid.n
    hb, ku = _band_storage(h.matrix)
    replaced = () if boundary is None else (0, n - 1)

    @functools.cache
    def get_system(theta: float):
        a = _theta_band(hb, ku, theta * dt, replaced, pinned=True)
        b = _theta_band(hb, ku, -((1.0 - theta) * dt), replaced)
        return a, b, _band_solver(*a)

    def advance(values, theta, tau_new, check):
        (a, a_kl, a_ku), (b, b_kl, b_ku), solve = get_system(theta)
        rhs = dgbmv(n, n, b_kl, b_ku, 1.0, b, values)
        if boundary is not None:
            rhs[0], rhs[-1] = boundary.x_values(grid, tau_new)
        new = solve(rhs)
        check(dgbmv(n, n, a_kl, a_ku, 1.0, a, new, beta=-1.0, y=rhs), rhs)
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
    a = -h.matrix
    a.sum_duplicates()   # sorted columns, so each part's rows come out sorted
    rows = np.repeat(np.arange(n), np.diff(a.indptr))
    ri, rj = np.divmod(rows, ny)
    ci, cj = np.divmod(a.indices, ny)
    off = rows != a.indices

    def part(mask):
        kept = np.flatnonzero(mask)
        return sp.csr_matrix((a.data[kept], a.indices[kept], np.searchsorted(kept, a.indptr)),
                             shape=(n, n))

    a1, a2, a0 = (part(m) for m in (off & (rj == cj), off & (ri == ci),
                                    (ri != ci) & (rj != cj)))
    d1 = -np.asarray(a1.sum(axis=1)).ravel()
    d2 = -np.asarray(a2.sum(axis=1)).ravel()
    half_rest = 0.5 * (-h.matrix.diagonal() - d1 - d2)
    return (a1 + sp.diags(d1 + half_rest, format="csr"),
            a2 + sp.diags(d2 + half_rest, format="csr"), a0)


def _adi_stepper(h: LinearOperator, dt: float, boundary: FarFieldBoundary):
    """Craig-Sneyd (theta < 1) or Douglas (theta = 1) steps on a 2D grid.

    A1 and A2 are read into band storage once: A1 at stride ny, so the
    x-sweep works in x-line order (all points of a y index j contiguous),
    A2 in the grid's own order.  Each theta's two sweep systems are
    assembled there with _theta_band and factored once, tridiagonally.  A
    sweep's residual is checked by a CSR product built from the same band:
    the x-sweep's in x-line order, the y-sweep's with the [1, -2, 1]
    linearity rows of its y faces written in where the solve folds them.
    """
    grid = h.grid
    nx, ny, n = grid.nx, grid.ny, grid.n_points
    a1, a2, a0 = _split_directions(h)
    # the Dirichlet rows of the x faces, and the linearity rows at the two
    # ends of every interior y line
    low, high = np.arange(ny), (nx - 1) * ny + np.arange(ny)
    bottom = np.arange(1, nx - 1) * ny
    faces = np.concatenate([bottom, bottom + ny - 1])
    replaced = np.concatenate([low, high, faces])
    keep = np.ones(n)
    keep[replaced] = 0.0
    inward = np.repeat([1, -1], bottom.size)[:, None] * np.arange(3)
    near, far = (faces[:, None] + inward[:, 1:]).T   # the two rows inward of each face
    stored_x = _band_storage(a1, ny)
    stored_y = _band_storage(a2)
    replaced_x = replaced % ny * nx + replaced // ny   # their x-line positions

    def sweep_band(stored, s, rows):
        band, kl, ku = _theta_band(*stored, s, rows, pinned=True)
        if kl > 1 or ku > 1:
            raise ValueError("ADI stepping needs three-point stencils along each axis")
        return band

    @functools.cache
    def get_system(theta: float):
        band_x = sweep_band(stored_x, -(theta * dt), replaced_x)
        band_y = sweep_band(stored_y, -(theta * dt), replaced)
        sys_y = np.pad(band_y, ((1, 1), (0, 0)))   # ku = 2 holds the linearity rows
        sys_y[2 - inward, faces[:, None] + inward] = [1.0, -2.0, 1.0]
        # fold C(face) = 2 C(near) - C(far) into row near; the face rows stay
        # identity rows, and the face values are extrapolated after the solve
        c = band_y[1 + near - faces, faces]
        band_y[1, near] += 2.0 * c
        band_y[1 + near - far, far] -= c
        band_y[1 + near - faces, faces] = 0.0
        return (_band_csr(band_x, 1), _band_solver(band_x, 1, 1),
                _band_csr(sys_y, 2), _band_solver(band_y, 1, 1))

    def advance(values, theta, tau_new, check):
        sys_x, solve_x, sys_y, solve_y = get_system(theta)
        g_low, g_high = boundary.x_values(grid, tau_new)
        tdt = theta * dt
        a0u, a1u, a2u = a0 @ values, a1 @ values, a2 @ values

        def boundary_rhs(v):
            rhs = keep * v
            rhs[low] = g_low
            rhs[high] = g_high
            return rhs

        def sweeps(y0):
            rhs = boundary_rhs(y0 - tdt * a1u).reshape(nx, ny).T.ravel()
            y1 = solve_x(rhs)
            check(sys_x @ y1 - rhs, rhs)
            rhs = boundary_rhs(y1.reshape(ny, nx).T.ravel() - tdt * a2u)
            y2 = solve_y(rhs)
            y2[faces] = 2.0 * y2[near] - y2[far]
            check(sys_y @ y2 - rhs, rhs)
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


def _cover_strike(grid: LogGrid1D, strike: float) -> LogGrid1D:
    """``grid``, or, when ln K lies beyond it or within a tenth of its width
    of an edge (sigma sqrt(T) on default_grid_1d's box), the box widened to
    reach that margin past ln K, on as many points."""
    margin = 0.1 * (grid.x_max - grid.x_min)
    k = math.log(strike)
    if grid.x_min + margin <= k <= grid.x_max - margin:
        return grid
    return LogGrid1D(min(grid.x_min, k - margin), max(grid.x_max, k + margin), grid.n)


def price_bs(params: ModelParams, contract: OptionContract, s0: float,
             grid: LogGrid1D | None = None, n_steps: int = 200,
             theta_scheme: float = 0.5) -> float:
    """Backward-evolved Black-Scholes price at ln s0, in the no-arbitrage box.

    With no ``grid`` the box is default_grid_1d's, widened to cover the
    strike when ln K lies within a tenth of its width (sigma sqrt(T)) of an
    edge or beyond it.
    """
    check_positive("s0", s0)
    if grid is None:
        grid = _cover_strike(default_grid_1d(s0, params.sigma, contract.maturity),
                             contract.strike)
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
