"""Discrete Hamiltonians and operator algebra on log grids.

All operators are real sparse matrices acting on flat row-major grid values.
Momentum blocks are plain first derivatives (no imaginary unit), so the
operators here are compositions of difference matrices with diagonal
coefficient matrices.  Interior stencils are second-order central; boundary
rows use one-sided second-order differences under the default policy.

Each 1D difference stencil is assembled directly as a CSR matrix from
index and value arrays: the interior band for rows 1..n-2 plus the two end
rows the boundary policy prescribes.  Columns are sorted and no zero is
stored, so sums, products and Kronecker blocks built from the stencils
have the pattern of their nonzeros.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from functools import reduce
from typing import Callable, Union

import numpy as np
import scipy.sparse as sp

from .core import GridFunction, LogGrid1D, LogGrid2D, ModelParams, finite_on_grid, write_csv

__all__ = [
    "BOUNDARY_POLICIES",
    "LinearOperator",
    "GaugeField",
    "identity_operator",
    "momentum_operator",
    "apply",
    "commutator",
    "hermiticity_defect",
    "build_bs_hamiltonian",
    "build_mg_hamiltonian",
    "build_gauge_hamiltonian",
    "build_transformed_bs",
    "gauge_operator",
    "hamiltonian_terms",
    "smooth_probe_functions",
]

BOUNDARY_POLICIES = ("one-sided-interior", "zero-padded")
TRANSFORM_CONVENTIONS = ("direct", "left", "right")

Grid = Union[LogGrid1D, LogGrid2D]


def _stencil(n: int, band: tuple, first: tuple, last: tuple) -> sp.csr_matrix:
    """CSR matrix from an interior band and two end rows.

    ``band`` is ((offsets), (values)) for rows 1..n-2, offsets ascending;
    ``first`` and ``last`` are ((columns), (values)) for rows 0 and n-1,
    columns ascending.  No value may be zero, so nothing zero is stored.
    """
    offsets, coeffs = band
    k = len(offsets)
    inner = n - 2
    indices = np.concatenate([first[0], (np.arange(1, n - 1)[:, None] + offsets).ravel(),
                              last[0]])
    data = np.concatenate([first[1], np.tile(coeffs, inner), last[1]])
    indptr = np.concatenate([[0], len(first[0]) + k * np.arange(inner + 1), [indices.size]])
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def _first_difference(n: int, h: float, policy: str) -> sp.csr_matrix:
    """d/dx: central (f[i+1]-f[i-1])/(2h) inside, policy-dependent ends."""
    inv2h = 1.0 / (2.0 * h)
    if policy == "one-sided-interior":
        first = ((0, 1, 2), (-3.0 * inv2h, 4.0 * inv2h, -inv2h))
        last = ((n - 3, n - 2, n - 1), (inv2h, -4.0 * inv2h, 3.0 * inv2h))
    else:  # zero-padded: out-of-range neighbours contribute nothing
        first, last = ((1,), (inv2h,)), ((n - 2,), (-inv2h,))
    return _stencil(n, ((-1, 1), (-inv2h, inv2h)), first, last)


def _second_difference(n: int, h: float, policy: str) -> sp.csr_matrix:
    """d2/dx2: central (f[i-1]-2f[i]+f[i+1])/h^2 inside."""
    invh2 = 1.0 / (h * h)
    if policy == "one-sided-interior":
        first = ((0, 1, 2, 3), (2.0 * invh2, -5.0 * invh2, 4.0 * invh2, -invh2))
        last = ((n - 4, n - 3, n - 2, n - 1), (-invh2, 4.0 * invh2, -5.0 * invh2, 2.0 * invh2))
    else:
        first = ((0, 1), (-2.0 * invh2, invh2))
        last = ((n - 2, n - 1), (invh2, -2.0 * invh2))
    return _stencil(n, ((-1, 0, 1), (invh2, -2.0 * invh2, invh2)), first, last)


def _check_policy(policy: str) -> None:
    if policy not in BOUNDARY_POLICIES:
        raise ValueError(f"unknown boundary policy {policy!r}; choose from {BOUNDARY_POLICIES}")


@dataclass(eq=False)
class LinearOperator:
    """A grid, a sparse matrix on it, the boundary policy its stencils were
    built under, and their stencil reach.

    ``+``, ``-``, ``@`` and scalar ``*`` are the operator algebra; the result
    keeps the left operand's policy.  stencil_reach records how many layers
    a row may reference; a product adds its factors' reaches, a sum keeps
    the larger, which matters when deciding how deep an "interior"
    comparison must sit.
    """

    grid: Grid
    matrix: sp.csr_matrix
    boundary_policy: str = "one-sided-interior"
    stencil_reach: int = 1

    def __post_init__(self):
        _check_policy(self.boundary_policy)
        # a CSR matrix is stored as given: the algebra wraps every intermediate result
        mat = self.matrix if isinstance(self.matrix, sp.csr_matrix) else sp.csr_matrix(self.matrix)
        n = self.grid.n_points
        if mat.shape != (n, n):
            raise ValueError(f"matrix shape {mat.shape} does not match grid size {n}")
        if mat.nnz and not np.all(np.isfinite(mat.data)):
            raise ValueError("operator entries must be finite")
        self.matrix = mat

    def apply(self, f: GridFunction) -> GridFunction:
        if f.grid != self.grid:
            raise ValueError("grid mismatch: operator and grid function live on different grids")
        return GridFunction(self.grid, self.matrix @ f.values, allow_masked=f.allow_masked)

    def _combine(self, other: "LinearOperator", op, reach) -> "LinearOperator":
        if not isinstance(other, LinearOperator):
            raise TypeError("expected a LinearOperator")
        if other.grid != self.grid:
            raise ValueError("grid mismatch: operators live on different grids")
        return LinearOperator(self.grid, op(self.matrix, other.matrix), self.boundary_policy,
                              reach(self.stencil_reach, other.stencil_reach))

    def __add__(self, other: "LinearOperator") -> "LinearOperator":
        return self._combine(other, operator.add, max)

    def __sub__(self, other: "LinearOperator") -> "LinearOperator":
        return self._combine(other, operator.sub, max)

    def __matmul__(self, other: "LinearOperator") -> "LinearOperator":
        return self._combine(other, operator.matmul, operator.add)

    def __mul__(self, scalar: float) -> "LinearOperator":
        return LinearOperator(self.grid, self.matrix * float(scalar), self.boundary_policy,
                              self.stencil_reach)

    __rmul__ = __mul__

    def __neg__(self) -> "LinearOperator":
        return self * -1.0

    def max_abs(self) -> float:
        """Largest absolute entry; 0 for an empty matrix."""
        return float(np.abs(self.matrix.data).max()) if self.matrix.nnz else 0.0

    def to_coo_csv(self, path) -> None:
        """Dump the matrix as row,col,value records for debugging."""
        coo = self.matrix.tocoo()
        write_csv(path, ("row", "col", "value"), (coo.row, coo.col, coo.data))


def identity_operator(grid: Grid) -> LinearOperator:
    return LinearOperator(grid, sp.identity(grid.n_points, format="csr"), stencil_reach=0)


def momentum_operator(grid: Grid, axis: str = "x",
                      policy: str = "one-sided-interior") -> LinearOperator:
    """First-derivative block along one axis (the momentum is real here)."""
    _check_policy(policy)
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    (mat,) = _difference_blocks(grid, policy, "d" + axis)
    return LinearOperator(grid, mat, policy)


def apply(op: LinearOperator, f: GridFunction) -> GridFunction:
    return op.apply(f)


def commutator(a: LinearOperator, b: LinearOperator) -> LinearOperator:
    return a @ b - b @ a


def hermiticity_defect(op: LinearOperator, depth: int = 1) -> float:
    """max |M - M^T| over the interior-by-interior submatrix.

    Boundary rows are excluded because one-sided closures are asymmetric by
    construction and say nothing about the operator itself.
    """
    idx = np.flatnonzero(op.grid.interior_mask(depth))
    sub = op.matrix[idx][:, idx]
    diff = (sub - sub.T).tocoo()
    return float(np.abs(diff.data).max()) if diff.nnz else 0.0


# ---------------------------------------------------------------------------
# Hamiltonian builders
# ---------------------------------------------------------------------------

# the x and the y stencil of each difference block; None is the identity
_BLOCK_STENCILS = {
    "dx": (_first_difference, None),
    "dy": (None, _first_difference),
    "dxx": (_second_difference, None),
    "dyy": (None, _second_difference),
    # 4-corner cross stencil: exactly the composition of the two
    # central first differences at interior points
    "dxy": (_first_difference, _first_difference),
}


def _difference_blocks(grid: Grid, policy: str, *names: str) -> tuple[sp.csr_matrix, ...]:
    """The named difference blocks on the flat grid, and no others.

    On a 1D grid an x block is the stencil itself; on a 2D grid a block is
    the Kronecker product of its x and y factors.
    """
    out = []
    for name in names:
        along_x, along_y = _BLOCK_STENCILS[name]
        if isinstance(grid, LogGrid1D):
            if along_y is not None:
                raise ValueError(f"1D grids only have an x axis, got block {name!r}")
            out.append(along_x(grid.n, grid.h, policy))
            continue
        fx = sp.identity(grid.nx) if along_x is None else along_x(grid.nx, grid.hx, policy)
        fy = sp.identity(grid.ny) if along_y is None else along_y(grid.ny, grid.hy, policy)
        out.append(sp.kron(fx, fy, format="csr"))
    return tuple(out)


def _diag(values: np.ndarray) -> sp.csr_matrix:
    return sp.diags(values, format="csr")


# the difference block each named derivative term acts through
_TERM_BLOCKS = {
    "second_x": "dxx",
    "first_x": "dx",
    "first_y": "dy",
    "cross_xy": "dxy",
    "second_y": "dyy",
}


def _term_coefficients(params: ModelParams, grid: Grid, model: str) -> dict:
    """Coefficient of each derivative term a model uses: a scalar, or an
    array over the flat grid evaluated at the output point."""
    r = params.r
    if model == "bs":
        half_sig2 = 0.5 * params.sigma * params.sigma
        return {"second_x": -half_sig2, "first_x": half_sig2 - r}
    if model == "mg":
        if not isinstance(grid, LogGrid2D):
            raise TypeError("the Merton-Garman Hamiltonian needs a 2D grid")
        y = grid.ys
        ey = np.exp(y)
        zeta2 = params.zeta * params.zeta
        coef_yy = zeta2 * np.exp(2.0 * y * (params.alpha - 1.0))
        return {
            "second_x": -0.5 * ey,
            "first_x": -(r - 0.5 * ey),
            "first_y": -(params.lambda_ * np.exp(-y) + params.mu
                         - 0.5 * zeta2 * np.exp(2.0 * y * (params.alpha - 1.0))),
            "cross_xy": -params.rho * params.zeta * np.exp(y * (params.alpha - 0.5)),
            "second_y": -(0.5 * coef_yy if params.vol_vol_half else coef_yy),
        }
    if model == "gauge":
        if not isinstance(grid, LogGrid2D):
            raise TypeError("the gauge Hamiltonian needs a 2D grid")
        sig2 = _gauge_sig2(params, grid)
        return {"second_x": -0.5 * sig2, "first_x": 0.5 * sig2 - r, "first_y": 0.5 * sig2 - r,
                "cross_xy": -sig2, "second_y": -0.5 * sig2}
    raise ValueError(f"unknown model {model!r}; choose bs, mg or gauge")


def hamiltonian_terms(params: ModelParams, grid: Grid, model: str = "bs",
                      policy: str = "one-sided-interior") -> dict[str, LinearOperator]:
    """Individual named terms of a Hamiltonian, before summation.

    Every model is the same table of derivative terms (second_x, first_x,
    first_y, cross_xy, second_y, each on its difference block) with its own
    coefficients, plus the potential r.  A scalar coefficient scales its
    block; an array multiplies it from the left as a diagonal.  Terms a
    model does not use are omitted.  The gauge model here is the expanded
    form; the factored form does not decompose into these terms.
    """
    _check_policy(policy)
    coefs = _term_coefficients(params, grid, model)
    blocks = _difference_blocks(grid, policy, *(_TERM_BLOCKS[name] for name in coefs))
    terms = {name: _diag(c) @ block if isinstance(c, np.ndarray) else c * block
             for (name, c), block in zip(coefs.items(), blocks)}
    terms["potential"] = params.r * sp.identity(grid.n_points, format="csr")
    return {name: LinearOperator(grid, mat, policy) for name, mat in terms.items()}


def _gauge_sig2(params: ModelParams, grid: LogGrid2D) -> np.ndarray:
    if params.sigma_local:
        return np.exp(grid.ys)
    return np.full(grid.n_points, params.sigma * params.sigma)


def build_bs_hamiltonian(params: ModelParams, grid: Grid,
                         policy: str = "one-sided-interior") -> LinearOperator:
    """Black-Scholes Hamiltonian in log price,

        H = -(sigma^2/2) d2/dx2 + (sigma^2/2 - r) d/dx + r.

    On a 2D grid the operator acts only along x, with identical y blocks.
    It annihilates e^x exactly in the continuum and is non-Hermitian unless
    sigma^2 = 2r, where the first-derivative coefficient vanishes.
    """
    return reduce(operator.add, hamiltonian_terms(params, grid, "bs", policy).values())


def build_mg_hamiltonian(params: ModelParams, grid: LogGrid2D,
                         policy: str = "one-sided-interior") -> LinearOperator:
    """Merton-Garman Hamiltonian in (x, y) = (ln S, ln V):

        H = -(e^y/2) d2/dx2 - (r - e^y/2) d/dx
            - (lambda e^-y + mu - (zeta^2/2) e^{2y(alpha-1)}) d/dy
            - rho zeta e^{y(alpha-1/2)} d2/dxdy
            - zeta^2 e^{2y(alpha-1)} d2/dy2 + r.

    With ``vol_vol_half`` the last coefficient is halved.  Variable
    coefficients multiply from the left (evaluated at the output point).
    """
    return reduce(operator.add, hamiltonian_terms(params, grid, "mg", policy).values())


def build_gauge_hamiltonian(params: ModelParams, grid: LogGrid2D,
                            form: str = "expanded",
                            policy: str = "one-sided-interior") -> LinearOperator:
    """Gauge-coupled Hamiltonian built from the momentum sum p_x + p_y.

    Factored form:  (sigma^2/2)(-p_x - p_y)(p_x + p_y)
                    + (sigma^2/2 - r)(p_x + p_y) + r,
    composed from discrete blocks, so its stencil reach is 2.  The expanded
    form assembles each second-order term with the direct stencils instead;
    the two differ by O(h^2) commutation errors of the difference matrices.
    sigma^2 is read as e^y pointwise when ``params.sigma_local`` is set,
    otherwise the constant ``params.sigma`` squared.
    """
    _check_policy(policy)
    if not isinstance(grid, LogGrid2D):
        raise TypeError("the gauge Hamiltonian needs a 2D grid")
    if form == "expanded":
        return reduce(operator.add, hamiltonian_terms(params, grid, "gauge", policy).values())
    if form != "factored":
        raise ValueError(f"form must be 'expanded' or 'factored', got {form!r}")
    dx, dy = _difference_blocks(grid, policy, "dx", "dy")
    sig2 = _gauge_sig2(params, grid)
    d = dx + dy
    mat = (_diag(-0.5 * sig2) @ (d @ d)
           + _diag(0.5 * sig2 - params.r) @ d
           + params.r * sp.identity(grid.n_points, format="csr"))
    return LinearOperator(grid, mat, policy, stencil_reach=2)


# ---------------------------------------------------------------------------
# Gauge fields and transformed operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaugeField:
    """A scalar field theta(x, y) with caller-supplied analytic derivatives.

    Only pointwise evaluation is ever needed, so the derivatives are plain
    callables; they must stay finite on the grid box.
    """

    theta: Callable
    theta_x: Callable
    theta_y: Callable
    theta_xy: Callable
    omega: float

    @classmethod
    def linear_x(cls, omega: float) -> "GaugeField":
        """theta(x, y) = x."""
        return cls(theta=lambda x, y: x,
                   theta_x=lambda x, y: np.ones_like(np.asarray(x, dtype=float)),
                   theta_y=lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
                   theta_xy=lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
                   omega=omega)

    @classmethod
    def constant(cls, omega: float, value: float = 1.0) -> "GaugeField":
        """theta(x, y) = value."""
        return cls(theta=lambda x, y: np.full_like(np.asarray(x, dtype=float), value),
                   theta_x=lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
                   theta_y=lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
                   theta_xy=lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
                   omega=omega)


def _grid_coords(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(grid, LogGrid2D):
        return grid.xs, grid.ys
    pts = grid.points
    return pts, np.zeros_like(pts)


_EXP_LIMIT = math.log(np.finfo(float).max)  # ~709.78


def gauge_operator(gauge: GaugeField, grid: Grid) -> LinearOperator:
    """Diagonal operator U = diag(e^{omega * theta})."""
    t = finite_on_grid(gauge.theta(*_grid_coords(grid)), grid, "theta")
    w = gauge.omega * t
    peak = float(np.abs(w).max())
    if peak >= _EXP_LIMIT:
        raise ValueError(f"gauge exponent overflows: max |omega*theta| = {peak:g}")
    return LinearOperator(grid, _diag(np.exp(w)), stencil_reach=0)


def build_transformed_bs(params: ModelParams, gauge: GaugeField, grid: Grid,
                         convention: str = "direct",
                         policy: str = "one-sided-interior") -> LinearOperator:
    """Black-Scholes Hamiltonian under the multiplicative shift e^{omega theta}.

    Conventions:
      direct  closed-form shifted operator assembled term by term:
              H_bs + (sigma^2 omega (1+omega)/2) theta_x^2
                   + sigma^2 omega theta_x d/dx
                   + omega (sigma^2/2 - r) theta_x
      left    U^-1 H_bs U  (matrix sandwich)
      right   U H_bs U^-1

    The three do not coincide for non-constant theta;
    ``gauge_analysis._check_transform`` reports how far apart they sit.
    """
    if convention not in TRANSFORM_CONVENTIONS:
        raise ValueError(f"convention must be one of {TRANSFORM_CONVENTIONS}, got {convention!r}")
    h_bs = build_bs_hamiltonian(params, grid, policy)
    if convention == "direct":
        tx = finite_on_grid(gauge.theta_x(*_grid_coords(grid)), grid, "theta_x")
        sig2, om = params.sigma * params.sigma, gauge.omega
        (dx,) = _difference_blocks(grid, policy, "dx")
        extra = (_diag(sig2 * om * tx) @ dx
                 + _diag(0.5 * sig2 * om * (1.0 + om) * tx * tx
                         + om * (0.5 * sig2 - params.r) * tx))
        return LinearOperator(grid, h_bs.matrix + extra, policy)
    u = gauge_operator(gauge, grid).matrix
    u_inv = gauge_operator(replace(gauge, omega=-gauge.omega), grid).matrix
    mat = u_inv @ h_bs.matrix @ u if convention == "left" else u @ h_bs.matrix @ u_inv
    return LinearOperator(grid, mat, policy)


# ---------------------------------------------------------------------------
# Probe functions for equivalence checks
# ---------------------------------------------------------------------------

def smooth_probe_functions(grid: Grid, count: int, seed: int = 0,
                           y_constant: bool = False) -> list[Callable]:
    """Random low-frequency Fourier combinations on the grid box.

    Returns callables (not samples) so the same function can be evaluated
    on refinements of the box.  Amplitudes are normalized so the sup norm
    is at most 1.  With ``y_constant`` the functions do not depend on y.
    """
    rng = np.random.default_rng(seed)
    x0, lx = grid.x_axis.x_min, grid.x_axis.x_max - grid.x_axis.x_min
    if isinstance(grid, LogGrid2D):
        y0, ly = grid.y_axis.x_min, grid.y_axis.x_max - grid.y_axis.x_min
    else:
        y0, ly = 0.0, 1.0

    def make(amps, phx, phy):
        def f(x, y=None):
            u = (np.asarray(x, dtype=float) - x0) / lx * np.pi
            out = 0.0
            if y_constant or y is None:
                for k in range(len(amps)):
                    out = out + amps[k] * np.sin((k + 1) * u + phx[k])
            else:
                v = (np.asarray(y, dtype=float) - y0) / ly * np.pi
                for k in range(len(amps)):
                    out = out + amps[k] * np.sin((k + 1) * u + phx[k]) * np.cos((k + 1) * v + phy[k])
            return out
        return f

    funcs = []
    for _ in range(count):
        amps = rng.normal(size=3)
        amps = amps / np.abs(amps).sum()  # sup norm <= 1
        phx = rng.uniform(0.0, 2.0 * np.pi, size=3)
        phy = rng.uniform(0.0, 2.0 * np.pi, size=3)
        funcs.append(make(amps, phx, phy))
    return funcs
