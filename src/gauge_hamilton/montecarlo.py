"""Path simulation and simulation-based cross checks.

Randomness comes from counter-based Philox streams keyed per block of
paths, so results depend only on (seed, n_paths, n_steps) and never on how
blocks are scheduled.  A block's worker draws one (2, BLOCK) slab of
normals per step, always the full block width, and writes each update of
its paths, stated as its formula, straight into the path arrays.  Paths
are stored step-major, as (n_steps + 1, n_paths) arrays in which each time
slice is contiguous; ``PathEnsemble`` exposes their transposes, so callers
still index [path, step].  Reductions assemble full arrays and use numpy's
pairwise summation, keeping means bit-reproducible.

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

from .core import (GridFunction, LogGrid2D, ModelParams, check_integer, check_positive,
                   require, write_csv)
from .operators import build_mg_hamiltonian, momentum_operator
from .pricing import OptionContract, PriceSurface, bs_closed_form, bs_delta

__all__ = [
    "PathEnsemble",
    "simulate_gbm",
    "simulate_mg",
    "mc_price",
    "HedgeTestResult",
    "delta_hedge_test",
    "beta_field",
    "read_paths_binary",
]

BLOCK = 1 << 14          # paths per RNG stream
V_FLOOR = 1e-8           # the variance paths' reflecting floor
_MAGIC = b"MGPATHS2"
# the dump's 64-byte header, native byte order; the seed is two words, low
# then high, so any seed below 2**128 fits, and scheme 0 is log-Euler
_HEADER = np.dtype([("magic", "S8"), ("n_paths", np.uint64), ("n_times", np.uint64),
                    ("has_v", np.uint64), ("scheme", np.uint64), ("phi", np.float64),
                    ("seed", np.uint64, (2,))])
_WORD = 2 ** 64 - 1       # the low 64 bits of a seed
_WRITE_CHUNK = 4096       # paths per path-major copy in to_binary


def _check_seed(seed) -> None:
    """A Philox key: an integer in [0, 2**128)."""
    check_integer("seed", seed, 0)
    require(seed < 2 ** 128, "seed", f"must be less than 2**128, got {seed}")


def _block_rng(seed: int, block: int) -> np.random.Generator:
    # one Philox stream per block: same key, block index in the high
    # counter word, so streams never overlap
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, block]))


def _blocks(n_paths: int):
    for b in range(0, (n_paths + BLOCK - 1) // BLOCK):
        start = b * BLOCK
        yield b, start, min(BLOCK, n_paths - start)


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
    phi: float

    def __post_init__(self):
        require(self.s_paths.shape[1] == self.times.shape[0], "s_paths",
                "must match the time axis")

    @property
    def n_paths(self) -> int:
        return self.s_paths.shape[0]

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
        """Row-major dump: the ``_HEADER`` record (magic MGPATHS2, sizes,
        scheme 0, drift, seed), then times, S and, if present, V."""
        _check_seed(self.seed)
        has_v = self.v_paths is not None
        header = np.array((_MAGIC, self.n_paths, self.times.shape[0], has_v, 0, self.phi,
                           (self.seed & _WORD, self.seed >> 64)), dtype=_HEADER)
        with open(path, "wb") as fh:
            fh.write(header.tobytes())
            fh.write(np.ascontiguousarray(self.times, dtype=np.float64).tobytes())
            # step-major paths are copied into path-major order a chunk of
            # paths at a time, so the copy stays small
            for paths in (self.s_paths, self.v_paths) if has_v else (self.s_paths,):
                for start in range(0, self.n_paths, _WRITE_CHUNK):
                    fh.write(np.ascontiguousarray(paths[start:start + _WRITE_CHUNK],
                                                  dtype=np.float64))


def read_paths_binary(path) -> PathEnsemble:
    """Read a dump written by ``PathEnsemble.to_binary``: an MGPATHS2
    ``_HEADER`` with scheme 0, any other magic or scheme is refused.  The
    sizes in the header are checked against the file length before any data
    is read, so a truncated file or one with trailing bytes raises a
    ValueError that states both byte counts.
    """
    fixed = _HEADER.itemsize
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        raw = fh.read(fixed)
        if not raw.startswith(_MAGIC):
            raise ValueError(f"not a paths dump: bad magic {raw[:len(_MAGIC)]!r}")
        if size < fixed:
            raise ValueError(f"paths dump is truncated: expected at least {fixed} "
                             f"bytes for the {_MAGIC.decode()} header, file has {size}")
        header = np.frombuffer(raw, dtype=_HEADER)[0]
        n_paths, n_times, has_v, scheme = (
            int(header[name]) for name in ("n_paths", "n_times", "has_v", "scheme"))
        if has_v not in (0, 1):
            raise ValueError(f"paths dump has has_v flag {has_v}, expected 0 or 1")
        if scheme != 0:
            raise ValueError(f"paths dump has unknown scheme code {scheme}")
        expected = fixed + 8 * n_times * (1 + n_paths * (2 if has_v else 1))
        if size != expected:
            raise ValueError(f"paths dump size mismatch: header implies {expected} "
                             f"bytes, file has {size}")
        low, high = (int(w) for w in header["seed"])
        times = np.frombuffer(fh.read(8 * n_times), dtype=np.float64).copy()
        s = np.frombuffer(fh.read(8 * n_paths * n_times),
                          dtype=np.float64).reshape(n_paths, n_times).copy()
        v = None
        if has_v:
            v = np.frombuffer(fh.read(8 * n_paths * n_times),
                              dtype=np.float64).reshape(n_paths, n_times).copy()
    return PathEnsemble(times=times, s_paths=s, v_paths=v, seed=low | high << 64,
                        phi=float(header["phi"]))


def _validate_run(s0, maturity, n_steps, n_paths, seed, threads):
    check_positive("s0", s0)
    check_positive("maturity", maturity)
    check_integer("n_steps", n_steps, 1)
    check_integer("n_paths", n_paths, 1)
    _check_seed(seed)
    check_integer("threads", threads, 1)


def _step_major(n_steps: int, n_paths: int, start: float) -> np.ndarray:
    out = np.empty((n_steps + 1, n_paths))
    out[0] = start
    return out


def _step_blocks(seed: int, n_paths: int, n_steps: int, threads: int, step) -> None:
    """Call ``step(k, cols, z)`` for every step k of every block.

    ``cols`` selects the block's paths in a step-major time slice and ``z``
    is the (2, size) part of the step's draws that the block's paths use.
    The full (2, BLOCK) slab is drawn even when a block is partly used, so a
    path's noise depends only on (seed, block, offset) and not on n_paths.
    Up to ``threads`` workers write disjoint columns of the shared arrays.
    Each enters numpy's per-thread error state once: a step that overflows
    does not warn, and the caller checks the terminal slices.
    """
    def worker(block, start, size):
        rng = _block_rng(seed, block)
        draws = np.empty((2, BLOCK))
        z = draws[:, :size]
        cols = slice(start, start + size)
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(n_steps):
                rng.standard_normal(out=draws)
                step(k, cols, z)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(lambda args: worker(*args), list(_blocks(n_paths))))


def _ensemble(maturity: float, seed: int, phi: float, log_s: np.ndarray,
              v: Optional[np.ndarray] = None) -> PathEnsemble:
    """The paths, prices taken out of logs; an InputError names the maturity
    when a terminal price is not finite, as when e^{ln S} overflows."""
    with np.errstate(over="ignore"):
        np.exp(log_s, out=log_s)
    bad = int(np.count_nonzero(~np.isfinite(log_s[-1])))
    require(bad == 0, "maturity", f"must keep every simulated terminal price finite, got "
                                  f"{maturity}: {bad} of {log_s.shape[1]} are not")
    return PathEnsemble(times=np.linspace(0.0, maturity, log_s.shape[0]),
                        s_paths=log_s.T, v_paths=None if v is None else v.T,
                        seed=seed, phi=phi)


def simulate_gbm(params: ModelParams, s0: float, maturity: float,
                 n_steps: int, n_paths: int, seed: int,
                 threads: int = 1) -> PathEnsemble:
    """Geometric Brownian motion under drift phi via log-Euler steps,

        ln S_{k+1} = ln S_k + (phi - sigma^2/2) dt + sigma sqrt(dt) z,

    which is exact in law at every step, so n_steps only sets the sampling
    resolution of the stored paths.
    """
    _validate_run(s0, maturity, n_steps, n_paths, seed, threads)
    dt = maturity / n_steps
    drift = (params.phi - 0.5 * params.sigma * params.sigma) * dt
    scale = params.sigma * math.sqrt(dt)
    log_s = _step_major(n_steps, n_paths, math.log(s0))

    def step(k, cols, z):
        np.add(log_s[k, cols] + drift, scale * z[0], out=log_s[k + 1, cols])

    _step_blocks(seed, n_paths, n_steps, threads, step)
    return _ensemble(maturity, seed, params.phi, log_s)


def simulate_mg(params: ModelParams, s0: float, v0: float, maturity: float,
                n_steps: int, n_paths: int, seed: int,
                threads: int = 1) -> PathEnsemble:
    """Joint price/variance paths,

        dV = (lambda + mu V) dt + zeta V^alpha dW2,
        ln S steps with the current variance,  corr(dW1, dW2) = rho.

    V uses Euler steps reflected at the constant V_FLOOR (|V| if it turns
    negative, never below the floor).  The second noise is built as
    rho z1 + sqrt(1 - rho^2) z2 from the same draw block GBM uses, so
    freezing the variance reproduces simulate_gbm paths for the same seed.
    An InputError names alpha, before any draw, unless zeta V^alpha is
    finite at v0 and at V_FLOOR.  A variance that leaves the floats never
    comes back, so the terminal variances are checked before the prices.
    An InputError names the flag of the larger term at v0: for the noise
    zeta v0^alpha sqrt(dt), alpha when alpha > 1 and zeta otherwise; for
    the drift (lambda + mu v0) dt, lambda when |lambda| > |mu v0| and mu
    otherwise.
    """
    _validate_run(s0, maturity, n_steps, n_paths, seed, threads)
    check_positive("v0", v0)
    v_floor = V_FLOOR   # read by every step as a local
    dt = maturity / n_steps
    sqdt = math.sqrt(dt)
    rho = params.rho
    rho_c = math.sqrt(1.0 - rho * rho)
    alpha = params.alpha if params.zeta != 0.0 else 1.0   # zeta = 0: 0 V^alpha is 0, whatever alpha
    with np.errstate(over="ignore"):   # refused below
        ends = params.zeta * np.array([v0, v_floor]) ** alpha
    require(np.isfinite(ends).all(), "alpha",
            f"must keep the noise term zeta V^alpha finite at v0 and at V_FLOOR = {v_floor}; "
            f"zeta = {params.zeta}, alpha = {params.alpha}")
    log_s = _step_major(n_steps, n_paths, math.log(s0))
    v = _step_major(n_steps, n_paths, v0)

    def step(k, cols, z):
        # each update is its formula, evaluated left to right, its last ufunc
        # writing into the path array; ** keeps numpy's scalar-power fast
        # paths (an exponent of 0.5 is sqrt)
        vk = v[k, cols]
        z2 = rho * z[0] + rho_c * z[1]
        np.add(log_s[k, cols] + (params.phi - 0.5 * vk) * dt, np.sqrt(vk) * sqdt * z[0],
               out=log_s[k + 1, cols])
        np.maximum(np.abs(vk + (params.lambda_ + params.mu * vk) * dt
                          + params.zeta * vk ** alpha * sqdt * z2), v_floor,
                   out=v[k + 1, cols])

    _step_blocks(seed, n_paths, n_steps, threads, step)
    bad = int(np.count_nonzero(~np.isfinite(v[-1])))
    drift = params.lambda_ + params.mu * v0
    noise = abs(ends[0]) * sqdt
    field = (("alpha" if params.alpha > 1.0 else "zeta") if noise > abs(drift) * dt else
             "lambda" if abs(params.lambda_) > abs(params.mu * v0) else "mu")
    require(bad == 0, field,
            f"must keep every simulated variance finite; zeta = {params.zeta}, alpha = "
            f"{params.alpha}, lambda = {params.lambda_}, mu = {params.mu}: {bad} of {n_paths} "
            f"paths are not")
    return _ensemble(maturity, seed, params.phi, log_s, v)


def mc_price(ensemble: PathEnsemble, contract: OptionContract,
             r: float) -> tuple[float, float]:
    """Discounted mean payoff and its standard error (sample std / sqrt n).

    The ensemble must have been generated risk-neutrally (phi = r) and run
    to the contract maturity.
    """
    require(ensemble.phi == r, "ensemble",
            f"must be risk-neutral, phi = r = {r}; got phi = {ensemble.phi}")
    require(abs(ensemble.maturity - contract.maturity) <= 1e-12, "ensemble",
            "horizon differs from contract maturity")
    discounted = math.exp(-r * contract.maturity) * contract.payoff(ensemble.s_paths[:, -1])
    n = discounted.shape[0]
    price = float(discounted.mean())
    stderr = float(discounted.std(ddof=1) / math.sqrt(n)) if n > 1 else float("inf")
    return price, stderr


@dataclass(frozen=True)
class HedgeTestResult:
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
    check_positive("min_dcdv", min_dcdv)
    c = GridFunction(grid, surface.values)
    numerator = ((surface.prev_values - c.values) / surface.dt
                 - build_mg_hamiltonian(params, grid).apply(c).values)
    c_v = np.exp(-grid.ys) * momentum_operator(grid, "y").apply(c).values
    with np.errstate(invalid="ignore", divide="ignore"):
        beta = np.where(np.abs(c_v) >= min_dcdv, numerator / c_v, np.nan)
    beta[~grid.interior_mask(1)] = np.nan
    return GridFunction(grid, beta, allow_masked=True)
