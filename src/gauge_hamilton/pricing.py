"""Option contracts and pricing by backward evolution of a Hamiltonian.

The pricing equation dC/dt = H C is a final-value problem: the payoff is
known at maturity and the operator is evolved backwards.  In remaining
time tau = T - t this is dC/dtau = -H C.  On 1D grids it is discretized by
the theta scheme

    (I + theta dtau H) C_new = (I - (1-theta) dtau H) C_old,

and on 2D grids by ADI sweeps that solve systems of the same kind.  Every
grid is a box with far-field faces (FarFieldBoundary), whose rows the
steppers replace, and every theta-system is tridiagonal along its grid
lines: an operator whose interior rows reach further than one point along
an axis is refused at evolve's entry.  An operator is held as its
diagonals in DIA layout (operators.LinearOperator), and each stepper reads
them once, by one reader for 1D and 2D grids (_kept_diagonals): the
diagonals less the boundary rows, with no CSR matrix made on the way.
Every theta-system, I + s M with its boundary rows identity rows, is
scaled from M's three diagonals in LAPACK band storage, which is DIA
storage row for row, and each implicit system has one gttrf/gttrs LU
factor.  In 1D the explicit product and the residual are BLAS gbmv calls
on the bands, and max|r| is BLAS idamax's entry: the step loop makes no
scipy.sparse call and no temporary array.  On 2D grids the
operator A = -H is split by stencil direction into A1 (along x), A2 (along
y) and the mixed part A0, and each step is a Craig-Sneyd ADI step: an
explicit stage of the whole operator, an implicit x-sweep with
I - theta dtau A1 and a y-sweep with I - theta dtau A2, then a correction
with the explicit mixed term and the two sweeps again.  The three parts
are DIA matrices of -H's diagonals, every explicit product is a DIA
product, and the sweep bands are written from the same diagonals.  Each
sweep's residual is a DIA product on the band that was factored.  The 2D
step makes no CSR product.  A sweep's system is block-diagonal by grid
line: on large grids, when two CPUs are available, it is factored once,
cut between two lines, and its two pieces are solved at once on their
slices of the factors, the later one on a helper thread that evolve starts
and joins, handed each piece through a pair of locks (a 13 us round trip,
half a ThreadPoolExecutor's).  The cut falls between two identity rows, so
the solutions, and every price, are the same at any CPU count.

theta_scheme is one of two schemes.  1/2, the default, is Crank-Nicolson
in 1D and Craig-Sneyd in 2D after a short fully implicit startup, which
damps the oscillations the payoff kink would otherwise feed into the
averaged scheme.  1 is fully implicit in 1D and Douglas in 2D: the same
sweeps with theta = 1 and no correction stage, which the startup steps
take too.  evolve marches two theta phases in turn, the startup at
theta = 1 and then the theta_scheme steps.
Each phase builds and factors its systems once, as it begins, and the
startup's are dropped before the main phase's are built, so only one
phase's systems are held at a time.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import os
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dasum, dgbmv, idamax
from scipy.linalg.lapack import dgttrf, dgttrs

from .core import (GridFunction, LogGrid1D, LogGrid2D, ModelParams, check_finite, check_integer,
                   check_positive, default_grid_1d, default_grid_2d, require)
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

RESIDUAL_TOL = 1e-10   # the largest relative residual evolve accepts from a linear solve
# A 2D sweep system is solved on two threads when the helper's piece holds
# SPLIT_MIN_ROWS rows or more; the calling thread takes the first
# CALLER_SHARE of the grid lines, as the helper begins its piece only once
# it has woken from the handoff.  _band_solver's solve, whole against split,
# on a 2-vCPU Xeon VM, lines of 201 points: 16281 rows, 222 vs 143 us at
# share 0.5, 133 at 0.55, 144 at 0.6 (medians of 2000); at 0.55, with
# 1407/1608/2010/3618 rows on the helper, 64/73/83/152 vs 67/70/72/120 us
# (medians of 3000), so the break-even lies near 1600 rows
SPLIT_MIN_ROWS = 1600
CALLER_SHARE = 0.55


@dataclass(frozen=True)
class OptionContract:
    kind: str            # "call" or "put"
    strike: float
    maturity: float
    premium: float = 0.0  # paid up front; only profit queries use it

    def __post_init__(self):
        require(self.kind in ("call", "put"), "kind", f"must be 'call' or 'put', got {self.kind!r}")
        check_positive("strike", self.strike)
        check_positive("maturity", self.maturity)
        require(math.isfinite(self.premium) and self.premium >= 0.0, "premium",
                f"must be nonnegative and finite, got {self.premium}")

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
    require(np.all(np.isfinite(s) & (s > 0.0)), "s", "must be positive and finite")
    r, sigma = params.r, params.sigma
    if sigma == 0.0:
        d = (s > contract.strike * math.exp(-r * tau)).astype(float)
    else:
        # imported here: scipy.special costs tens of ms at import, for this alone
        from scipy.special import ndtr
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
        check_finite("rate", self.rate)

    def x_values(self, grid, tau: float) -> tuple[float, float]:
        pv_strike = self.contract.strike * math.exp(-self.rate * tau)
        if self.contract.kind == "call":
            return 0.0, math.exp(grid.x_axis.x_max) - pv_strike
        return pv_strike - math.exp(grid.x_axis.x_min), 0.0


@dataclass(frozen=True, eq=False)
class PriceSurface:
    """Solution of the backward evolution at the valuation time, t = 0.

    ``prev_values`` is the slice one time step ``dt`` closer to maturity,
    kept so time derivatives can be formed without re-solving; it must be
    finite on the grid and ``dt`` positive and finite.
    """

    grid: object
    values: np.ndarray
    prev_values: np.ndarray
    dt: float

    def __post_init__(self):
        object.__setattr__(self, "values", GridFunction(self.grid, self.values).values)
        try:
            prev = GridFunction(self.grid, self.prev_values).values
        except ValueError as exc:
            raise ValueError(f"prev_values: {exc}") from None
        object.__setattr__(self, "prev_values", prev)
        check_positive("dt", self.dt)

    values2d = GridFunction.values2d

    def interpolate(self, x: float, y: float | None = None) -> float:
        """Linear (bilinear on 2D grids) interpolation at a query point."""
        if isinstance(self.grid, LogGrid2D):
            require(y is not None, "y", "is required: a 2D surface needs both x and y")
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


def evolve(h: LinearOperator, terminal: GridFunction, maturity: float,
           n_steps: int, theta_scheme: float = 0.5, *,
           boundary: FarFieldBoundary, rannacher: int = 2) -> PriceSurface:
    """March the terminal condition back to the valuation time.

    ``theta_scheme`` is 1/2 (Crank-Nicolson; Craig-Sneyd in 2D) or 1 (fully
    implicit; Douglas in 2D); any other value, a bool or NaN among them,
    raises InputError before any work.  The march has two phases: the
    startup, whose first ``rannacher`` steps are fully implicit (none when
    theta_scheme = 1), and the main phase, whose steps use
    ``theta_scheme``.  Each phase's systems are built and factored once,
    when it begins, and the startup's are dropped before the main phase's
    are built: only one phase's systems are held at a time.  Every linear
    solve is checked: a relative residual max|r| / max(1, max|rhs|) above
    ``RESIDUAL_TOL``, or one that is not finite, raises EvolveError.  The
    maxima are read at idamax's index; OpenBLAS's idamax may skip a NaN, so
    a NaN is caught by dasum.

    ``boundary`` gives the face rows of every theta-system, on either grid.
    Every theta-system is tridiagonal along its grid lines: H's interior
    rows may reach one point along each axis, and a wider operator raises
    ValueError here, at either theta_scheme.

    On 1D grids each step is a theta step in LAPACK band storage: a gbmv
    product with the explicit side, the solve on tridiagonal factors, and
    the residual as one more gbmv on the implicit side.  The end rows of
    the implicit system are Dirichlet rows, and the FarFieldBoundary's
    time-dependent values are fed through the right-hand side.

    On 2D grids each step is a Craig-Sneyd ADI step (a Douglas step when
    theta = 1) built on the direction split of -H.  The Dirichlet rows of
    the x faces are imposed in both sweeps.  The linearity row of each y
    face is substituted into its neighbour row, so the y-sweep stays
    tridiagonal, and the face value is extrapolated from the two nearest
    rows after the sweep.  The mixed term only ever acts explicitly.  The
    explicit products are DIA products on the diagonals of -H's direction
    split, and each sweep is checked on the band it factored: the y-sweep
    on its folded band, before the face values are extrapolated.  When two
    CPUs are available and the grid is large enough (SPLIT_MIN_ROWS), each
    sweep's system is cut between two grid lines and the two pieces are
    solved at once, the later one on a helper thread that is joined before
    evolve returns or raises; the surface is bit for bit the one a single
    thread gives.
    """
    require(terminal.grid == h.grid, "terminal", "must live on the operator grid (grid mismatch)")
    check_integer("n_steps", n_steps, 1)
    check_integer("rannacher", rannacher, 0)
    require(isinstance(theta_scheme, numbers.Real) and not isinstance(theta_scheme, bool)
            and theta_scheme in (0.5, 1.0), "theta_scheme", f"must be 0.5 or 1, got {theta_scheme}")
    check_positive("maturity", maturity)
    grid = h.grid
    dt = maturity / n_steps
    with contextlib.ExitStack() as scope:   # joins a sweep helper on the way out
        systems = (_adi_stepper(h, dt, boundary, scope) if isinstance(grid, LogGrid2D)
                   else _band_stepper(h, dt, boundary))

        def check(resid, rhs):
            rel = _relative_residual(resid, rhs)
            if not rel <= RESIDUAL_TOL:   # NaN and inf fail too
                raise EvolveError(
                    f"linear solve at step {step + 1}/{n_steps} has relative residual "
                    f"{rel:g} (tolerance {RESIDUAL_TOL:g})")

        startup = min(rannacher, n_steps) if theta_scheme < 1.0 else 0
        values = terminal.values.copy()
        for theta, steps in ((1.0, range(startup)), (theta_scheme, range(startup, n_steps))):
            if steps:
                advance = systems(theta, check)
                for step in steps:
                    prev, values = values, advance(values, (step + 1) * dt)
                del advance   # frees the startup's systems before the main phase's are built
    return PriceSurface(grid=grid, values=values, prev_values=prev, dt=dt)


def _relative_residual(resid: np.ndarray, rhs: np.ndarray) -> float:
    """max|resid| / max(1, max|rhs|); NaN when resid = A x - rhs holds a NaN."""
    return (math.nan if math.isnan(dasum(resid)) else
            math.fabs(resid[idamax(resid)]) / max(1.0, math.fabs(rhs[idamax(rhs)])))


def _kept_diagonals(h: LinearOperator, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """H's diagonals on the ``rows`` it keeps (a boolean mask), as a reader
    of H's CSR view on those rows would give them: the other rows' entries
    +0, and the diagonals with no nonzero entry left dropped, all but the
    main one.  H is not copied or written.  Returns (offsets, data)."""
    offsets, data = h.diagonals
    n = rows.size
    kept = []
    for o, row in zip(offsets.tolist(), data):
        lo, hi = max(o, 0), n + min(o, 0)   # the columns of rows 0..n-1
        entries = np.where(rows[lo - o:hi - o], row[lo:hi], 0.0)
        if o == 0 or entries.any():
            kept.append((o, lo, hi, entries))
    out = np.zeros((len(kept), n))
    for k, (_, lo, hi, entries) in enumerate(kept):
        out[k, lo:hi] = entries
    return np.array([o for o, *_ in kept]), out


def _dia_band(offsets: np.ndarray, data: np.ndarray, step: int = 1,
              order=slice(None)) -> np.ndarray:
    """Diagonals in DIA layout, as _kept_diagonals returns them (offsets
    ascending, 0 among them), in LAPACK tridiagonal band storage: offset
    q * ``step`` on band row 1 - q, and band column k holding the
    diagonals' column ``order[k]``.  The one width check of the steppers:
    an offset more than one ``step`` from the diagonal raises ValueError.
    Returns the 3 x n band in Fortran order, for gbmv."""
    q = offsets // step
    if q[0] < -1 or q[-1] > 1:
        raise ValueError("theta-stepping needs three-point stencils along each axis")
    band = np.zeros((3, data.shape[1]), order="F")
    band[1 - q] = data[:, order]
    return band


def _theta_band(band: np.ndarray, s: float) -> np.ndarray:
    """I + s M in LAPACK band storage, from M's band as _dia_band writes it.

    M's band holds no entry on the rows a stepper replaces, so those come
    out identity rows.  M is scaled and 1 is added on the diagonal; a
    product that vanishes is stored as +0.
    """
    band = s * band
    band += 0.0   # +0 where a product vanished
    band[1] += 1.0
    return band


def _band_dia(band: np.ndarray) -> sp.dia_matrix:
    """The DIA matrix of a tridiagonal band in LAPACK storage, whose row k is
    offset 1 - k aligned by column: the rows reversed, so the offsets ascend
    and a row's product sums in column order, C-contiguous for the
    product."""
    n = band.shape[1]
    return sp.dia_matrix((np.ascontiguousarray(band[::-1]), np.arange(-1, 2)), shape=(n, n))


class _SweepHelper:
    """One helper thread that runs the tasks it is handed, one at a time,
    through a lock pair: ``start`` releases ``go`` and the helper takes the
    task; the helper releases ``done`` when the task ends, and ``wait``
    acquires it and re-raises what the task raised.  As a context manager
    it starts the thread, and on exit hands it None, which stops it, and
    joins it."""

    def __init__(self):
        self._go, self._done = threading.Lock(), threading.Lock()
        self._go.acquire()
        self._done.acquire()
        self._task = self._error = None
        self._thread = threading.Thread(target=self._serve, name="sweep-helper", daemon=True)

    def _serve(self):
        while True:
            self._go.acquire()
            task, self._task = self._task, None
            if task is None:
                return
            try:
                task()
            except BaseException as exc:   # the caller re-raises it; the helper lives on
                self._error = exc
            del task   # the piece it solves is not held past its solve
            self._done.release()

    def start(self, task):
        self._task = task
        self._go.release()

    def wait(self):
        self._done.acquire()
        error, self._error = self._error, None
        if error is not None:
            raise error

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._task = None
        if self._go.locked():   # else a task handed on is still to be taken: it is None now
            self._go.release()
        self._thread.join()


def _band_solver(band: np.ndarray, cut: Optional[int] = None,
                 helper: Optional[_SweepHelper] = None):
    """The solve of a tridiagonal band system on its LAPACK gttrf/gttrs LU
    factors; a zero pivot raises EvolveError naming its row.

    The whole band is factored once.  With a ``cut``, ``solve`` hands the
    later piece to the ``helper``, solves the first one on the calling
    thread, each with gttrs on its slice of the factors (the later piece's
    pivots less the cut), and then waits for the helper, whose error, if
    its piece raised, it re-raises.  A no-op round trip through the
    helper's lock pair takes 13 us, against 24 us through a
    ThreadPoolExecutor (medians of 5000 on a 2-vCPU Xeon VM).  The band
    must not couple the two rows at the cut (ValueError otherwise): both
    entries there are 0, so gttrf never pivots across the cut and its
    multiplier there is 0, and the slices are bit for bit each piece's own
    factors.
    """
    if cut is not None and (band[2, cut - 1] != 0.0 or band[0, cut] != 0.0):
        raise ValueError(f"the band couples rows {cut - 1} and {cut} across its cut")
    dl, d, du, du2, ipiv, info = dgttrf(band[2, :-1], band[1], band[0, 1:])
    if info > 0:
        raise EvolveError(f"implicit matrix factorization failed: zero pivot in row {info}")
    if cut is None:
        return lambda rhs: dgttrs(dl, d, du, du2, ipiv, rhs)[0]
    first = (dl[:cut - 1], d[:cut], du[:cut - 1], du2[:cut - 2], ipiv[:cut])
    later = (dl[cut:], d[cut:], du[cut:], du2[cut:], ipiv[cut:] - cut)

    def solve(rhs):
        x = rhs.copy()
        helper.start(lambda: dgttrs(*later, x[cut:], overwrite_b=1))
        try:
            dgttrs(*first, x[:cut], overwrite_b=1)
        finally:
            helper.wait()
        return x
    return solve


def _band_stepper(h: LinearOperator, dt: float, boundary: FarFieldBoundary):
    """Theta steps on a 1D grid in LAPACK band storage.

    H's diagonals, less the two end rows, are read once.  ``systems(theta,
    check)`` scales a phase's two systems from them and factors the
    implicit one, and returns that phase's ``advance(values, tau_new)``:
    a gbmv product with the explicit band, the boundary values in the end
    rows, the solve, and a gbmv residual on the implicit band, which
    ``check(resid, rhs)`` judges.
    """
    grid, n = h.grid, h.grid.n
    stored = _dia_band(*_kept_diagonals(h, grid.interior_mask(1)))

    def systems(theta: float, check):
        a = _theta_band(stored, theta * dt)
        b = _theta_band(stored, -((1.0 - theta) * dt))
        solve = _band_solver(a)

        def advance(values, tau_new):
            rhs = dgbmv(n, n, 1, 1, 1.0, b, values)
            rhs[0], rhs[-1] = boundary.x_values(grid, tau_new)
            new = solve(rhs)
            check(dgbmv(n, n, 1, 1, 1.0, a, new, beta=-1.0, y=rhs), rhs)
            return new
        return advance

    return systems


def _split_directions(h: LinearOperator) -> tuple[sp.dia_matrix, sp.dia_matrix, sp.dia_matrix]:
    """Split A = -H on a 2D grid into its x, y and mixed parts (A1, A2, A0)
    on the interior rows, the rows the ADI sweeps keep; the face rows are
    left zero.

    An entry at offset di ny + dj from its row belongs to A1 when dj = 0, to
    A2 when di = 0, and to A0 otherwise, and each diagonal goes whole to one
    part by its offset: A1 takes the multiples of ny, A2 the offsets within
    ny // 2 of the main diagonal, A0 the rest.  That is exact for the
    three-point stencils the sweeps take: the kept rows are interior, so
    their +-1 entries never cross a grid line, and a pure-y entry two to
    ny // 2 points out lands in A2, whose band _dia_band then refuses.
    Every difference stencil annihilates constants, so each direction's
    diagonal is minus the sum of its other diagonals, in ascending offset
    order; the rest of the diagonal, the potential, is shared equally by A1
    and A2.  Each part is a DIA matrix holding the offsets of its nonzero
    entries, ascending, so a row's product sums in column order.
    """
    grid = h.grid
    n, ny = grid.n_points, grid.ny
    offsets, a = _kept_diagonals(h, grid.interior_mask(1))
    np.subtract(0.0, a, out=a)   # A = -H, its empty slots +0
    main = offsets == 0
    diagonal = a[main][0]
    a[main] = 0.0
    along_x = offsets % ny == 0   # the main diagonal among them
    along_y = (np.abs(offsets) <= ny // 2) & ~along_x

    def dia(kept):
        return sp.dia_matrix((a[kept], offsets[kept]), shape=(n, n))

    a1, a2, a0 = dia(along_x), dia(along_y | main), dia(~(along_x | along_y))
    # each row's sum, as a product with ones: in ascending offset order
    ones = np.ones(n)
    d1, d2 = -(a1 @ ones), -(a2 @ ones)
    half_rest = 0.5 * (diagonal - d1 - d2)
    a1.data[a1.offsets == 0] = d1 + half_rest
    a2.data[a2.offsets == 0] = d2 + half_rest
    return a1, a2, a0


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _adi_stepper(h: LinearOperator, dt: float, boundary: FarFieldBoundary,
                 scope: contextlib.ExitStack):
    """Craig-Sneyd (theta = 1/2) or Douglas (theta = 1) steps on a 2D grid.

    -H is read once, as the diagonals of its direction split; every product
    of a step is a DIA product.  The sweep bands are written from the same
    diagonals, with the rows the sweeps replace left zero: A1's in x-line
    order (all points of a y index j contiguous), A2's in the grid's own
    order.  ``systems(theta, check)`` scales a phase's two sweep systems
    from them, the replaced rows identity rows, factors them once,
    tridiagonally, and returns that phase's ``advance(values, tau_new)``.
    LAPACK band storage is DIA storage, so a sweep's residual is a DIA
    product on the band that was factored, the y-sweep's on its folded band
    before the face values are extrapolated; a replaced row's residual is
    y - rhs, so no stored zero meets a non-finite entry there.

    With two CPUs, a sweep whose helper's piece would hold SPLIT_MIN_ROWS
    rows or more is solved on two threads; ``scope`` joins the helper.
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
    x_lines = np.arange(n).reshape(nx, ny).T.ravel()   # the grid point at each x-line position
    stored_x = _dia_band(a1.offsets, a1.data, ny, x_lines)
    stored_y = _dia_band(a2.offsets, a2.data)
    replaced_x = replaced % ny * nx + replaced // ny   # their x-line positions
    two_cpus = _cpu_count() >= 2

    def cut(lines, length):
        # after the caller's share of the lines: between two x-face rows in
        # the x-sweep, two y-face (or x-face) rows in the y-sweep
        first = round(CALLER_SHARE * lines)
        return first * length if two_cpus and (lines - first) * length >= SPLIT_MIN_ROWS else None
    cut_x, cut_y = cut(ny, nx), cut(nx, ny)
    helper = (None if cut_x is None and cut_y is None else
              scope.enter_context(_SweepHelper()))

    def residual(band, rows):
        dia = _band_dia(band)

        def resid(y, rhs):
            r = dia @ y
            r -= rhs
            r[rows] = y[rows] - rhs[rows]
            return r
        return resid

    def systems(theta: float, check):
        band_x = _theta_band(stored_x, -(theta * dt))
        band_y = _theta_band(stored_y, -(theta * dt))
        # fold C(face) = 2 C(near) - C(far) into row near; the face rows stay
        # identity rows, and the face values are extrapolated after the solve
        c = band_y[1 + near - faces, faces]
        band_y[1, near] += 2.0 * c
        band_y[1 + near - far, far] -= c
        band_y[1 + near - faces, faces] = 0.0
        solve_x, resid_x = _band_solver(band_x, cut_x, helper), residual(band_x, replaced_x)
        solve_y, resid_y = _band_solver(band_y, cut_y, helper), residual(band_y, replaced)

        def advance(values, tau_new):
            g_low, g_high = boundary.x_values(grid, tau_new)
            a0u, a1u, a2u = a0 @ values, a1 @ values, a2 @ values
            y0 = a0u + a1u
            y0 += a2u
            y0 *= dt
            y0 += values
            a1u *= theta * dt
            a2u *= theta * dt

            def boundary_rhs(rhs):
                rhs *= keep
                rhs[low] = g_low
                rhs[high] = g_high
                return rhs

            def sweeps(y0):
                rhs = boundary_rhs(y0 - a1u).reshape(nx, ny).T.ravel()
                y1 = solve_x(rhs)
                check(resid_x(y1, rhs), rhs)
                rhs = y1.reshape(ny, nx).T.flatten()
                rhs -= a2u
                boundary_rhs(rhs)
                y2 = solve_y(rhs)
                check(resid_y(y2, rhs), rhs)
                y2[faces] = 2.0 * y2[near] - y2[far]
                return y2

            new = sweeps(y0)
            if theta < 1.0:
                correction = a0 @ new
                correction -= a0u
                correction *= 0.5 * dt
                correction += y0
                new = sweeps(correction)
            return new
        return advance

    return systems


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


def _cover_strike(grid, contract: OptionContract):
    """``grid``, an edge moved where ln K lies beyond it or within a tenth of
    its width of it (sigma sqrt(T) on default_grid_1d's box) to reach that
    margin past ln K, on as many points; on a 2D grid, its x axis.  A 1D
    grid may move either edge.  A 2D grid moves only the edge where the
    option's far-field value goes negative, the top for a call and the
    bottom for a put: toward an in-the-money strike a wider box only
    coarsens the grid (a 2D call at K = 1e-8 then prices above s0)."""
    axis = grid.x_axis
    margin = 0.1 * (axis.x_max - axis.x_min)
    k = math.log(contract.strike)
    low, high = min(axis.x_min, k - margin), max(axis.x_max, k + margin)
    if isinstance(grid, LogGrid1D):
        return LogGrid1D(low, high, axis.n)
    low, high = (axis.x_min, high) if contract.kind == "call" else (low, axis.x_max)
    return LogGrid2D(LogGrid1D(low, high, axis.n), grid.y_axis)


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
        grid = _cover_strike(default_grid_1d(s0, params.sigma, contract.maturity), contract)
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
    """Merton-Garman price at spot s0 and variance v0, in the no-arbitrage box.

    With no ``grid`` the box is default_grid_2d's, its x axis widened as
    price_bs widens its box, but only toward an out-of-the-money strike.
    """
    check_positive("s0", s0)
    check_positive("v0", v0)
    if grid is None:
        grid = _cover_strike(default_grid_2d(s0, v0, contract.maturity), contract)
    surface = solve_mg(params, contract, grid, n_steps, theta_scheme)
    return _in_no_arbitrage_box(surface.interpolate(math.log(s0), math.log(v0)),
                                contract, s0, params.r)
