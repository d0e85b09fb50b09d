"""Path simulation and simulation-based cross checks.

Randomness comes from counter-based Philox streams keyed per block of
paths, so results depend only on (seed, n_paths, n_steps) and never on how
blocks are scheduled.  A block's worker draws one (2, BLOCK) slab of
normals per step, always the full block width, and advances its paths in
place through a few preallocated buffers.  Paths are stored step-major, as
(n_steps + 1, n_paths) arrays in which each time slice is contiguous;
``PathEnsemble`` exposes their transposes, so callers still index
[path, step].  Reductions assemble full arrays and use numpy's pairwise
summation, keeping means bit-reproducible.

The security follows log-Euler steps (exact in law for constant variance);
the variance follows Euler steps with a reflecting floor.  Both simulators
consume the same block of draws per step, so a Merton-Garman run with the
variance frozen reproduces the GBM paths of the same seed exactly.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import GridFunction, LogGrid2D, ModelParams, Record, check_positive, write_csv
from .operators import build_mg_hamiltonian, momentum_operator
from .pricing import OptionContract, PriceSurface, bs_closed_form, bs_delta

__all__ = [
    "PathEnsemble",
    "correlated_normals",
    "simulate_gbm",
    "simulate_mg",
    "mc_price",
    "HedgeTestResult",
    "delta_hedge_test",
    "hedge_coefficients",
    "beta_field",
    "read_paths_binary",
]

BLOCK = 1 << 14          # paths per RNG stream
V_FLOOR_DEFAULT = 1e-8
_MAGIC = b"MGPATHS1"
_WRITE_CHUNK = 4096       # paths per path-major copy in to_binary
_SCHEME_CODES = {"log_euler": 0, "euler": 1}
_SCHEME_NAMES = {v: k for k, v in _SCHEME_CODES.items()}


def _block_rng(seed: int, block: int) -> np.random.Generator:
    # one Philox stream per block: same key, block index in the high
    # counter word, so streams never overlap
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, block]))


def _blocks(n_paths: int):
    for b in range(0, (n_paths + BLOCK - 1) // BLOCK):
        start = b * BLOCK
        yield b, start, min(BLOCK, n_paths - start)


def correlated_normals(rho: float, n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """n draws of the correlated pair (z1, rho z1 + sqrt(1-rho^2) z2)."""
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [-1, 1], got {rho}")
    rng = _block_rng(seed, 0)
    z = rng.standard_normal((2, n))
    return z[0], rho * z[0] + math.sqrt(1.0 - rho * rho) * z[1]


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Simulated paths on a shared time axis.

    s_paths has shape (n_paths, n_steps + 1); v_paths matches it or is None
    for constant-variance runs.  From the simulators both are transposed
    views of step-major (n_steps + 1, n_paths) storage, so a time slice
    such as ``s_paths[:, -1]`` is contiguous.  ``phi`` records the drift
    the paths were generated under; risk-neutral pricing insists on phi = r.
    """

    times: np.ndarray
    s_paths: np.ndarray
    v_paths: Optional[np.ndarray]
    seed: int
    scheme: str
    phi: float

    def __post_init__(self):
        if self.scheme not in _SCHEME_CODES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.s_paths.shape[1] != self.times.shape[0]:
            raise ValueError("path array does not match the time axis")

    @property
    def n_paths(self) -> int:
        return self.s_paths.shape[0]

    @property
    def n_steps(self) -> int:
        return self.times.shape[0] - 1

    @property
    def maturity(self) -> float:
        return float(self.times[-1])

    def slices_to_csv(self, path) -> None:
        """First and last time slice of every path."""
        header = ["path", "s_first", "s_last"]
        columns = [range(self.n_paths), self.s_paths[:, 0], self.s_paths[:, -1]]
        if self.v_paths is not None:
            header += ["v_first", "v_last"]
            columns += [self.v_paths[:, 0], self.v_paths[:, -1]]
        write_csv(path, header, columns)

    def to_binary(self, path) -> None:
        """Row-major dump: magic, sizes, drift, seed, times, S, then V."""
        has_v = self.v_paths is not None
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            header = np.array([self.n_paths, self.times.shape[0], int(has_v),
                               _SCHEME_CODES[self.scheme]], dtype=np.uint64)
            fh.write(header.tobytes())
            fh.write(np.array([self.phi], dtype=np.float64).tobytes())
            fh.write(np.array([self.seed], dtype=np.int64).tobytes())
            fh.write(np.ascontiguousarray(self.times, dtype=np.float64).tobytes())
            # step-major paths are copied into path-major order a chunk of
            # paths at a time, so the copy stays small
            for paths in (self.s_paths, self.v_paths) if has_v else (self.s_paths,):
                for start in range(0, self.n_paths, _WRITE_CHUNK):
                    fh.write(np.ascontiguousarray(paths[start:start + _WRITE_CHUNK],
                                                  dtype=np.float64))


def read_paths_binary(path) -> PathEnsemble:
    """Read a dump written by ``PathEnsemble.to_binary``.

    The sizes in the header are checked against the file length before any
    data is read, so a truncated file or one with trailing bytes raises a
    ValueError that states both byte counts.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(8)
        if magic != _MAGIC:
            raise ValueError(f"not a paths dump: bad magic {magic!r}")
        fixed = 8 + 32 + 8 + 8
        if size < fixed:
            raise ValueError(f"paths dump is truncated: expected at least {fixed} "
                             f"bytes for the header, file has {size}")
        n_paths, n_times, has_v, scheme_code = (
            int(v) for v in np.frombuffer(fh.read(32), dtype=np.uint64))
        if has_v not in (0, 1):
            raise ValueError(f"paths dump has has_v flag {has_v}, expected 0 or 1")
        if scheme_code not in _SCHEME_NAMES:
            raise ValueError(f"paths dump has unknown scheme code {scheme_code}")
        expected = fixed + 8 * n_times * (1 + n_paths * (2 if has_v else 1))
        if size != expected:
            raise ValueError(f"paths dump size mismatch: header implies {expected} "
                             f"bytes, file has {size}")
        phi = float(np.frombuffer(fh.read(8), dtype=np.float64)[0])
        seed = int(np.frombuffer(fh.read(8), dtype=np.int64)[0])
        times = np.frombuffer(fh.read(8 * n_times), dtype=np.float64).copy()
        s = np.frombuffer(fh.read(8 * n_paths * n_times),
                          dtype=np.float64).reshape(n_paths, n_times).copy()
        v = None
        if has_v:
            v = np.frombuffer(fh.read(8 * n_paths * n_times),
                              dtype=np.float64).reshape(n_paths, n_times).copy()
    return PathEnsemble(times=times, s_paths=s, v_paths=v, seed=seed,
                        scheme=_SCHEME_NAMES[scheme_code], phi=phi)


def _validate_run(s0, maturity, n_steps, n_paths, threads):
    check_positive("s0", s0)
    check_positive("maturity", maturity)
    if n_steps < 1 or n_paths < 1:
        raise ValueError("n_steps and n_paths must be at least 1")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")


def _step_major(n_steps: int, n_paths: int, start: float) -> np.ndarray:
    out = np.empty((n_steps + 1, n_paths))
    out[0] = start
    return out


def _step_blocks(seed: int, n_paths: int, n_steps: int, threads: int, step) -> None:
    """Call ``step(k, cols, z, tmp)`` for every step k of every block.

    ``cols`` selects the block's paths in a step-major time slice, ``z`` is
    the (2, size) part of the step's draws that the block's paths use and
    ``tmp`` a (2, size) scratch buffer of the worker.  The full (2, BLOCK)
    slab is drawn even when a block is partly used, so a path's noise
    depends only on (seed, block, offset) and not on n_paths.  Up to
    ``threads`` workers write disjoint columns of the shared arrays.
    """
    def worker(block, start, size):
        rng = _block_rng(seed, block)
        draws = np.empty((2, BLOCK))
        z = draws[:, :size]
        tmp = np.empty((2, size))
        cols = slice(start, start + size)
        for k in range(n_steps):
            rng.standard_normal(out=draws)
            step(k, cols, z, tmp)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(lambda args: worker(*args), list(_blocks(n_paths))))


def _ensemble(maturity: float, seed: int, phi: float, log_s: np.ndarray,
              v: Optional[np.ndarray] = None) -> PathEnsemble:
    np.exp(log_s, out=log_s)
    return PathEnsemble(times=np.linspace(0.0, maturity, log_s.shape[0]),
                        s_paths=log_s.T, v_paths=None if v is None else v.T,
                        seed=seed, scheme="log_euler", phi=phi)


def simulate_gbm(params: ModelParams, s0: float, maturity: float,
                 n_steps: int, n_paths: int, seed: int,
                 threads: int = 1) -> PathEnsemble:
    """Geometric Brownian motion under drift phi via log-Euler steps,

        ln S_{k+1} = ln S_k + (phi - sigma^2/2) dt + sigma sqrt(dt) z,

    which is exact in law at every step, so n_steps only sets the sampling
    resolution of the stored paths.
    """
    _validate_run(s0, maturity, n_steps, n_paths, threads)
    dt = maturity / n_steps
    drift = (params.phi - 0.5 * params.sigma * params.sigma) * dt
    scale = params.sigma * math.sqrt(dt)
    log_s = _step_major(n_steps, n_paths, math.log(s0))

    def step(k, cols, z, tmp):
        # (ln S + drift) + (sigma sqrt(dt)) z1, in this order
        x_next = log_s[k + 1, cols]
        np.add(log_s[k, cols], drift, out=x_next)
        np.multiply(scale, z[0], out=tmp[0])
        np.add(x_next, tmp[0], out=x_next)

    _step_blocks(seed, n_paths, n_steps, threads, step)
    return _ensemble(maturity, seed, params.phi, log_s)


def simulate_mg(params: ModelParams, s0: float, v0: float, maturity: float,
                n_steps: int, n_paths: int, seed: int,
                v_floor: float = V_FLOOR_DEFAULT,
                threads: int = 1) -> PathEnsemble:
    """Joint price/variance paths,

        dV = (lambda + mu V) dt + zeta V^alpha dW2,
        ln S steps with the current variance,  corr(dW1, dW2) = rho.

    V uses Euler steps reflected at ``v_floor`` (|V| if it turns negative,
    never below the floor).  The second noise is built as
    rho z1 + sqrt(1 - rho^2) z2 from the same draw block GBM uses, so
    freezing the variance reproduces simulate_gbm paths for the same seed.
    """
    _validate_run(s0, maturity, n_steps, n_paths, threads)
    check_positive("v0", v0)
    if not (math.isfinite(v_floor) and v_floor >= 0.0):
        raise ValueError(f"v_floor must be finite and nonnegative, got {v_floor}")
    dt = maturity / n_steps
    sqdt = math.sqrt(dt)
    rho = params.rho
    rho_c = math.sqrt(1.0 - rho * rho)
    log_s = _step_major(n_steps, n_paths, math.log(s0))
    v = _step_major(n_steps, n_paths, v0)

    def step(k, cols, z, tmp):
        vk, x_next, v_next = v[k, cols], log_s[k + 1, cols], v[k + 1, cols]
        z2, t = tmp
        # the grouping and order of the plain expressions, evaluated left to
        # right, are kept, so the paths are bit for bit theirs:
        #   z2 = rho z1 + rho_c z2
        #   ln S' = ln S + (phi - 0.5 V) dt + sqrt(V) sqrt(dt) z1
        #   V' = max(|V + (lambda + mu V) dt + zeta V**alpha sqrt(dt) z2|, floor)
        np.multiply(rho, z[0], out=z2)
        np.multiply(rho_c, z[1], out=t)
        np.add(z2, t, out=z2)
        np.multiply(0.5, vk, out=t)
        np.subtract(params.phi, t, out=t)
        np.multiply(t, dt, out=t)
        np.add(log_s[k, cols], t, out=x_next)
        np.sqrt(vk, out=t)
        np.multiply(t, sqdt, out=t)
        np.multiply(t, z[0], out=t)
        np.add(x_next, t, out=x_next)
        np.multiply(params.mu, vk, out=t)
        np.add(params.lambda_, t, out=t)
        np.multiply(t, dt, out=t)
        np.add(vk, t, out=v_next)
        np.copyto(t, vk)
        t **= params.alpha  # as the ** operator: numpy maps some exponents (0.5) to sqrt
        np.multiply(params.zeta, t, out=t)
        np.multiply(t, sqdt, out=t)
        np.multiply(t, z2, out=t)
        np.add(v_next, t, out=v_next)
        np.abs(v_next, out=v_next)
        np.maximum(v_next, v_floor, out=v_next)

    _step_blocks(seed, n_paths, n_steps, threads, step)
    return _ensemble(maturity, seed, params.phi, log_s, v)


def mc_price(ensemble: PathEnsemble, contract: OptionContract,
             r: float) -> tuple[float, float]:
    """Discounted mean payoff and its standard error (sample std / sqrt n).

    The ensemble must have been generated risk-neutrally (phi = r) and run
    to the contract maturity.
    """
    if ensemble.phi != r:
        raise ValueError(
            f"risk-neutral pricing requires phi = r, ensemble has phi = {ensemble.phi}")
    if abs(ensemble.maturity - contract.maturity) > 1e-12:
        raise ValueError("ensemble horizon differs from contract maturity")
    discounted = math.exp(-r * contract.maturity) * contract.payoff(ensemble.s_paths[:, -1])
    n = discounted.shape[0]
    price = float(discounted.mean())
    stderr = float(discounted.std(ddof=1) / math.sqrt(n)) if n > 1 else float("inf")
    return price, stderr


@dataclass(frozen=True)
class HedgeTestResult(Record):
    mean_error: float    # mean terminal replication error
    std_error: float     # std of the terminal replication error
    stderr: float        # standard error of mean_error
    n_paths: int
    n_steps: int


def delta_hedge_test(params: ModelParams, contract: OptionContract, s0: float,
                     n_steps: int, n_paths: int, seed: int) -> HedgeTestResult:
    """Replicate the option with the analytic delta along simulated paths.

    The hedger sells the option at the model price, holds delta shares, and
    accrues cash at r between the n_steps rebalances.  The terminal error
    (portfolio minus payoff) has mean zero and standard deviation shrinking
    like 1/sqrt(n_steps); sigma = 0 replicates exactly.
    """
    ensemble = simulate_gbm(params, s0, contract.maturity, n_steps, n_paths, seed)
    s = ensemble.s_paths
    dt = contract.maturity / n_steps
    grow = math.exp(params.r * dt)

    delta = bs_delta(params, contract, s[:, 0], contract.maturity)
    cash = np.full(n_paths, bs_closed_form(params, contract, s0)) - delta * s[:, 0]
    for k in range(1, n_steps):
        cash = cash * grow
        tau = contract.maturity - k * dt
        new_delta = bs_delta(params, contract, s[:, k], tau)
        cash -= (new_delta - delta) * s[:, k]
        delta = new_delta
    portfolio = cash * grow + delta * s[:, -1]
    error = portfolio - contract.payoff(s[:, -1])
    mean = float(error.mean())
    std = float(error.std(ddof=1)) if n_paths > 1 else 0.0
    return HedgeTestResult(mean_error=mean, std_error=std,
                           stderr=std / math.sqrt(n_paths),
                           n_paths=n_paths, n_steps=n_steps)


def hedge_coefficients(c1: PriceSurface, c2: PriceSurface,
                       point: tuple[int, int],
                       params: ModelParams) -> tuple[float, float]:
    """Two-instrument hedge weights at a grid point.

    With Xi = sigma S dC/dS and Psi = zeta V^alpha dC/dV (sigma here is the
    local volatility sqrt(V)), the volatility exposure cancels with
    Gamma1 = -Psi1/Psi2 and the price exposure with
    Gamma2 = -(Xi1 + Gamma1 Xi2)/(sigma S).  Derivatives are central
    differences, so the point must be interior.
    """
    if c1.grid != c2.grid:
        raise ValueError("surfaces live on different grids")
    grid = c1.grid
    if not isinstance(grid, LogGrid2D):
        raise TypeError("hedge coefficients need 2D surfaces")
    i, j = point
    if not (1 <= i <= grid.nx - 2 and 1 <= j <= grid.ny - 2):
        raise ValueError(f"point {point} is not interior to the grid")
    x = grid.x_axis.points[i]
    y = grid.y_axis.points[j]

    def slopes(surface):
        v = surface.values2d
        dx = (v[i + 1, j] - v[i - 1, j]) / (2.0 * grid.hx)
        dy = (v[i, j + 1] - v[i, j - 1]) / (2.0 * grid.hy)
        return dx, dy

    dx1, dy1 = slopes(c1)
    dx2, dy2 = slopes(c2)
    # dC/dV = e^-y dC/dy, so Psi = zeta e^{(alpha-1) y} dC/dy
    psi_scale = params.zeta * math.exp((params.alpha - 1.0) * y)
    psi1, psi2 = psi_scale * dy1, psi_scale * dy2
    # Xi = sqrt(V) S dC/dS = e^{y/2} dC/dx
    xi_scale = math.exp(0.5 * y)
    xi1, xi2 = xi_scale * dx1, xi_scale * dx2
    if psi2 == 0.0:
        raise ValueError("second option insensitive to volatility: hedge undefined")
    gamma1 = -psi1 / psi2
    gamma2 = -(xi1 + gamma1 * xi2) / (math.exp(0.5 * y) * math.exp(x))
    return gamma1, gamma2


def beta_field(surface: PriceSurface, params: ModelParams,
               min_dcdv: float = 1e-6) -> GridFunction:
    """Market price of volatility risk implied by a solved surface,

        beta = (dC/dt - H C) / dC/dV,   H = build_mg_hamiltonian(params, grid),

    the residual of the equation solve_mg steps.  With ``vol_vol_half`` set
    this is the (S, V) formula

        beta = [dC/dt + r S dC/dS + (lambda + mu V) dC/dV
                + (V S^2/2) d2C/dS2 + rho zeta V^{1/2+alpha} S d2C/dSdV
                + (zeta^2/2) V^{2alpha} d2C/dV2 - r C] / dC/dV.

    dC/dt comes from the two stored time slices (first-order backward
    difference) and dC/dV = e^-y dC/dy from the central y block.  Points on
    the boundary or with |dC/dV| below ``min_dcdv`` are masked with NaN
    rather than extrapolated.  A surface that solves the pricing equation
    has beta = 0 up to discretization error.
    """
    grid = surface.grid
    if not isinstance(grid, LogGrid2D):
        raise TypeError("beta extraction needs a 2D surface")
    if surface.prev_values is None or surface.dt is None:
        raise ValueError("surface must carry two time slices (prev_values and dt)")
    c = surface.values
    h = build_mg_hamiltonian(params, grid).matrix
    numerator = (surface.prev_values - c) / surface.dt - h @ c
    c_v = np.exp(-grid.ys) * (momentum_operator(grid, "y").matrix @ c)
    with np.errstate(invalid="ignore", divide="ignore"):
        beta = np.where(np.abs(c_v) >= min_dcdv, numerator / c_v, np.nan)
    beta[~grid.interior_mask(1)] = np.nan
    return GridFunction(grid, beta, allow_masked=True)
