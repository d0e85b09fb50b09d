"""Discrete Hamiltonians and operator algebra on log grids.

An operator is a grid and its diagonals, a real matrix acting on flat
row-major grid values.  Momentum blocks are plain first derivatives (no
imaginary unit), so the operators here are compositions of difference
matrices with diagonal coefficient matrices.  Interior stencils are
second-order central; the two end rows of an axis use one-sided
second-order differences, the one boundary closure.

The diagonals are in DIA layout: integer offsets, strictly ascending, each
in (-n, n) and the main diagonal among them; data[k, j] the entry in column
j of row j - offsets[k], and +0 where there is none.  1D stencils are
written straight into diagonals (the interior band plus the two one-sided
end rows); on a 2D grid, flat index i ny + j, a block is the Kronecker
product of its x and y stencils, the product of their entries at offsets a
and b sitting on diagonal a ny + b.  A term scales its block's entries by
its coefficient at their rows, and a Hamiltonian is the per-offset sum of
its terms in the table's order: the entries of the Kronecker products,
diagonal scalings and CSR sums they replace, with no CSR matrix made.
``+`` and ``-`` add, ``apply`` and ``@`` multiply on the diagonals, in the
order the sorted CSR products sum in, and ``hermiticity_defect`` reads its
pairs of entries off them: no reader in the package builds a second
representation.
``LinearOperator.matrix``, a CSR view (sorted, no stored zero) made on
first use, is kept for the benchmark's count of stored entries.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .core import (EXP_LIMIT, Grid, GridFunction, LogGrid1D, LogGrid2D, ModelParams,
                   check_finite, check_integer, finite_on_grid, require)

__all__ = [
    "LinearOperator",
    "GaugeField",
    "momentum_operator",
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

TRANSFORM_CONVENTIONS = ("direct", "left", "right")

Diagonals = tuple[np.ndarray, np.ndarray]

_MAIN = np.zeros(1, dtype=np.intp)   # the offset of the main diagonal


@np.errstate(over="ignore", invalid="ignore")
def _sum(n: int, parts) -> Diagonals:
    """The per-offset sum of diagonals (offsets, rows), in the order given;
    the rows may be made as they are read.

    Each entry starts at +0 and every part adds its own entry, an absent one
    adding nothing: the entry a fold of CSR sums gives, and +0 where that
    fold stores nothing.  The main diagonal is always among the offsets.  An
    entry that overflows, as made or summed, is left non-finite, with no
    warning, for LinearOperator to refuse.
    """
    parts = [(o.tolist(), d) for o, d in parts]
    index = {o: k for k, o in enumerate(sorted({0}.union(*(o for o, _ in parts))))}
    data = np.zeros((len(index), n))
    sums = list(data)   # a view of each diagonal, added to in place
    for part_offsets, part_data in parts:
        for o, row in zip(part_offsets, part_data):
            sums[index[o]] += row
    return np.array(list(index)), data


def _scale_rows(diagonals, c: np.ndarray):
    """diag(c) @ M on M's diagonals (offsets, rows): each entry times c at
    its row.  The rows are M's own, scaled in place as they are read."""
    offsets, rows = diagonals

    def scaled():
        for o, row in zip(offsets.tolist(), rows):
            lo, hi = max(o, 0), row.size + min(o, 0)   # the columns of rows 0..n-1
            row[lo:hi] *= c[lo - o:hi - o]
            yield row
    return offsets, scaled()


def _main(values: np.ndarray) -> Diagonals:
    """The diagonals of diag(values)."""
    return _MAIN, np.asarray(values, dtype=float)[None, :]


def _stencil(n: int, band: tuple, first: tuple, last: tuple) -> Diagonals:
    """Diagonals of the matrix with an interior band and two end rows.

    ``band`` is ((offsets), (values)) for rows 1..n-2; ``first`` and
    ``last`` are ((columns), (values)) for rows 0 and n-1.  No value may be
    zero, so the nonzero pattern is the stored one.
    """
    index = {o: k for k, o in enumerate(sorted({*band[0], *first[0],
                                                *(c - n + 1 for c in last[0])}))}
    data = np.zeros((len(index), n))
    # entry (i, i + o) sits in column i + o of diagonal o
    for o, v in zip(*band):
        data[index[o], 1 + o:n - 1 + o] = v
    for row, (cols, values) in ((0, first), (n - 1, last)):
        for c, v in zip(cols, values):
            data[index[c - row], c] = v
    return np.array(list(index)), data


def _first_difference(n: int, h: float) -> Diagonals:
    """d/dx: central (f[i+1]-f[i-1])/(2h) inside, one-sided at the ends."""
    inv2h = 1.0 / (2.0 * h)
    first = ((0, 1, 2), (-3.0 * inv2h, 4.0 * inv2h, -inv2h))
    last = ((n - 3, n - 2, n - 1), (inv2h, -4.0 * inv2h, 3.0 * inv2h))
    return _stencil(n, ((-1, 1), (-inv2h, inv2h)), first, last)


def _second_difference(n: int, h: float) -> Diagonals:
    """d2/dx2: central (f[i-1]-2f[i]+f[i+1])/h^2 inside, one-sided at the
    ends."""
    invh2 = 1.0 / (h * h)
    first = ((0, 1, 2, 3), (2.0 * invh2, -5.0 * invh2, 4.0 * invh2, -invh2))
    last = ((n - 4, n - 3, n - 2, n - 1), (-invh2, 4.0 * invh2, -5.0 * invh2, 2.0 * invh2))
    return _stencil(n, ((-1, 0, 1), (invh2, -2.0 * invh2, invh2)), first, last)


@dataclass(eq=False)
class LinearOperator:
    """A grid and an operator's diagonals on it.

    ``diagonals`` is (offsets, data), two numpy arrays, in the DIA layout
    the module docstring sets out, the data real floating-point and finite;
    anything else is refused.  ``+``, ``-`` and ``@`` are the operator
    algebra, each computed on the diagonals.
    """

    grid: Grid
    diagonals: Diagonals

    def __post_init__(self):
        n = self.grid.n_points
        offsets, data = self.diagonals
        if not (isinstance(offsets, np.ndarray) and isinstance(data, np.ndarray)):
            raise ValueError(f"diagonals must be a pair of numpy arrays (offsets, data); "
                             f"got {type(offsets).__name__} and {type(data).__name__}")
        if offsets.ndim != 1 or data.dtype.kind != "f":
            raise ValueError(f"diagonals need one-dimensional offsets and real floating-point "
                             f"data; got offsets of shape {offsets.shape}, data {data.dtype}")
        keys = offsets.tolist()   # read once, as Python ints
        if not (0 in keys and all(type(o) is int for o in keys) and -n < keys[0]
                and keys[-1] < n and all(a < b for a, b in zip(keys, keys[1:]))):
            raise ValueError(f"diagonals need integer offsets, strictly ascending, 0 among "
                             f"them and each in (-{n}, {n}); got {keys}")
        if data.shape != (len(keys), n):
            raise ValueError(f"diagonals of shape {data.shape} do not match "
                             f"{len(keys)} offsets on grid size {n}")
        if not np.isfinite(data).all():
            raise ValueError("operator entries must be finite")

    @functools.cached_property
    def matrix(self) -> sp.csr_matrix:
        """The CSR view: sorted columns and no stored zero.  Nothing in the
        package reads it; the benchmark counts its stored entries."""
        offsets, data = self.diagonals
        n = data.shape[1]
        mat = sp.dia_matrix((data, offsets), shape=(n, n)).tocsr()
        # int32 indices and sorted rows, whichever scipy made the conversion
        mat = sp.csr_matrix((mat.data, mat.indices, mat.indptr), shape=(n, n))
        mat.sum_duplicates()
        return mat

    def apply(self, f: GridFunction) -> GridFunction:
        """M f, one DIA product on the diagonals: offsets ascending, so each
        row sums in ascending column order, as the CSR view's product does.
        A grid function holding a NaN (a masked point) is refused."""
        if f.grid != self.grid:
            raise ValueError("grid mismatch: operator and grid function live on different grids")
        require(not (f.allow_masked and np.isnan(f.values).any()), "f",
                "must hold no NaN: apply reads finite values only")
        offsets, data = self.diagonals
        n = data.shape[1]
        return GridFunction(self.grid, sp.dia_matrix((data, offsets), shape=(n, n)) @ f.values)

    def _check(self, other: "LinearOperator") -> None:
        if not isinstance(other, LinearOperator):
            raise TypeError("expected a LinearOperator")
        if other.grid != self.grid:
            raise ValueError("grid mismatch: operators live on different grids")

    def __add__(self, other: "LinearOperator") -> "LinearOperator":
        self._check(other)
        return LinearOperator(self.grid, _sum(self.grid.n_points, [self.diagonals,
                                                                   other.diagonals]))

    def __sub__(self, other: "LinearOperator") -> "LinearOperator":
        self._check(other)
        offsets, data = other.diagonals   # self + (-1) other
        return LinearOperator(self.grid, _sum(self.grid.n_points, [self.diagonals,
                                                                   (offsets, -data)]))

    @np.errstate(over="ignore", invalid="ignore")
    def __matmul__(self, other: "LinearOperator") -> "LinearOperator":
        """(A B)[i, c], the sum from +0 of A[i, i+o] B[i+o, c] over A's offsets
        o, ascending: the order the CSR product of the sorted views sums in.
        A diagonal left with no nonzero entry is dropped, unless it is the
        main one; a vanished sum is +0.  An entry that overflows is refused
        as _sum's are."""
        self._check(other)
        n = self.grid.n_points
        (a_offsets, a_data), (b_offsets, b_data) = self.diagonals, other.diagonals
        sums = {}
        for o, a in zip(a_offsets.tolist(), a_data):
            for p, b in zip(b_offsets.tolist(), b_data):
                # A[i, i+o] B[i+o, c] for c = i+o+p: column c - p of A's
                # diagonal o, column c of B's diagonal p and of diagonal o+p
                lo, hi = max(0, p, o + p), min(n, n + p, n + o + p)
                if lo < hi:
                    total = sums.setdefault(o + p, np.zeros(n))
                    total[lo:hi] += a[lo - p:hi - p] * b[lo:hi]
        offsets = [q for q in sorted(sums) if q == 0 or sums[q].any()]
        return LinearOperator(self.grid, (np.array(offsets), np.array([sums[q] for q in offsets])))

    def max_abs(self) -> float:
        """Largest absolute entry; 0 for an operator with none."""
        return float(np.abs(self.diagonals[1]).max())


def momentum_operator(grid: Grid, axis: str = "x") -> LinearOperator:
    """First-derivative block along one axis (the momentum is real here)."""
    require(axis in ("x", "y"), "axis", f"must be 'x' or 'y', got {axis!r}")
    return LinearOperator(grid, _sum(grid.n_points, _difference_blocks(grid, "first_" + axis)))


def commutator(a: LinearOperator, b: LinearOperator) -> LinearOperator:
    return a @ b - b @ a


def hermiticity_defect(op: LinearOperator) -> float:
    """max |M - M^T| over the interior-by-interior submatrix, depth 1.

    Boundary rows are excluded because one-sided closures are asymmetric by
    construction and say nothing about the operator itself.  M[i, i+o] sits
    in column i+o of diagonal o and M[i+o, i] in column i of diagonal -o, an
    absent diagonal reading as 0.
    """
    keep = op.grid.interior_mask(1)
    offsets, data = op.diagonals
    rows = dict(zip(offsets.tolist(), data))
    absent = np.zeros(data.shape[1])
    defect = 0.0
    for o in {abs(o) for o in rows} - {0}:
        gap = rows.get(o, absent)[o:] - rows.get(-o, absent)[:-o]
        defect = max(defect, float(np.abs(gap[keep[o:] & keep[:-o]]).max(initial=0.0)))
    return defect


# ---------------------------------------------------------------------------
# Hamiltonian builders
# ---------------------------------------------------------------------------

# the x and the y stencil of each named derivative term's difference block,
# in the order a Hamiltonian sums its terms; None is the identity
_TERM_STENCILS = {
    "second_x": (_second_difference, None),
    "first_x": (_first_difference, None),
    "first_y": (None, _first_difference),
    # 4-corner cross stencil: exactly the composition of the two
    # central first differences at interior points
    "cross_xy": (_first_difference, _first_difference),
    "second_y": (None, _second_difference),
}


def _difference_blocks(grid: Grid, *names: str) -> tuple:
    """The difference blocks of the named terms on the flat grid, and no
    others, each as its diagonals' offsets and an iterable of their rows.

    On a 1D grid an x block is the stencil itself; on a 2D grid a block is
    the Kronecker product of its x and y factors, laid out as the module
    docstring says, and each row is made as it is read, so a sum of blocks
    holds one block row at a time.  The cross block's y offsets reach two
    points and ny >= 5, so its diagonals a ny + b are distinct, ascending in
    (a, b).
    """
    out = []
    for name in names:
        along_x, along_y = _TERM_STENCILS[name]
        if isinstance(grid, LogGrid1D):
            if along_y is not None:
                raise ValueError(f"1D grids only have an x axis, got term {name!r}")
            out.append(along_x(grid.n, grid.h))
            continue
        nx, ny = grid.nx, grid.ny
        if along_y is None:
            ox, fx = along_x(nx, grid.hx)
            out.append((ox * ny, (np.repeat(row, ny) for row in fx)))
        elif along_x is None:
            oy, fy = along_y(ny, grid.hy)
            out.append((oy, (np.tile(row, nx) for row in fy)))
        else:
            (ox, fx), (oy, fy) = along_x(nx, grid.hx), along_y(ny, grid.hy)
            # one iterable of pairs: a generator binds only its first iterable when made
            out.append(((ox[:, None] * ny + oy).ravel(),
                        (np.multiply.outer(a, b).ravel() for a, b in itertools.product(fx, fy))))
    return tuple(out)


def _coefficients(half_sig2, r, drift_y=None, covol=None, volvol=None) -> dict:
    """The gauge-Hamiltonian -(sigma^2/2) d2/dx2 + (sigma^2/2 - r) d/dx - drift_y d/dy
    - covol d2/dxdy - volvol d2/dy2 + r as each derivative term's coefficient, in
    summation order; with no y drift, Black-Scholes's two."""
    coefs = {"second_x": -half_sig2, "first_x": half_sig2 - r}
    if drift_y is not None:
        coefs.update(first_y=-drift_y, cross_xy=-covol, second_y=-volvol)
    return coefs


def _exp_y(grid: LogGrid2D, y: np.ndarray) -> np.ndarray:
    """e^y at ``grid``'s points y; an InputError names y_max when it overflows."""
    y_max = grid.y_axis.x_max
    require(y_max <= EXP_LIMIT, "y_max", f"must keep e^y finite: {y_max:g} exceeds "
                                         f"ln(max float) = {EXP_LIMIT:.2f}")
    return np.exp(y)


def _term_coefficients(params: ModelParams, grid: Grid, model: str) -> dict:
    """Coefficient of each derivative term a model uses, ``_coefficients`` of
    its parts: a scalar, or an array over the flat grid at the output point.
    An InputError names y_max when e^y overflows, or y_min when lambda e^-y
    does (0 at any y when lambda = 0); the checks read the box bounds only."""
    r = params.r
    if model == "bs":
        return _coefficients(0.5 * params.sigma * params.sigma, r)
    if model == "mg":
        if not isinstance(grid, LogGrid2D):
            raise TypeError("the Merton-Garman Hamiltonian needs a 2D grid")
        lam, y_min = params.lambda_, grid.y_axis.x_min
        require(lam == 0.0 or (-y_min <= EXP_LIMIT and math.isfinite(lam * math.exp(-y_min))),
                "y_min", f"must keep lambda e^-y finite, got {y_min:g} with lambda = {lam}")
        y, hx, hy = grid.ys, grid.hx, grid.hy
        zeta2 = params.zeta * params.zeta
        # weights: the largest stencil entries each power scales, 5/hy^2 and 2/hy
        # (second_y, first_y on half) for V^(2(alpha-1)), 4/(hx hy) for V^(alpha-1/2)
        v2, v1 = _mg_powers(params, y, (zeta2 * (5.0 / (hy * hy) + 1.0 / hy),
                                        abs(params.rho * params.zeta) * 4.0 / (hx * hy)))
        return _coefficients(0.5 * _exp_y(grid, y), r,
                             (lam * np.exp(-y) if lam != 0.0 else lam) + params.mu
                             - 0.5 * zeta2 * v2,
                             params.rho * params.zeta * v1,
                             0.5 * (zeta2 * v2) if params.vol_vol_half else zeta2 * v2)
    if model == "gauge":
        if not isinstance(grid, LogGrid2D):
            raise TypeError("the gauge Hamiltonian needs a 2D grid")
        sig2 = (_exp_y(grid, grid.ys) if params.sigma_local
                else np.full(grid.n_points, params.sigma * params.sigma))
        return _coefficients(0.5 * sig2, r, r - 0.5 * sig2, sig2, 0.5 * sig2)
    raise ValueError(f"unknown model {model!r}; choose bs, mg or gauge")


def _mg_powers(params: ModelParams, y: np.ndarray, weights=(1.0, 1.0)) -> tuple:
    """V^(2(alpha-1)) and V^(alpha-1/2) at the log-variances y, the powers the
    Merton-Garman zeta terms carry; with zeta = 0 alpha plays no part and reads
    as 1.  An InputError names alpha unless their weighted sum is finite, or
    zeta when a weight, the zeta factor of a term, is not finite by itself."""
    alpha = params.alpha if params.zeta != 0.0 else 1.0
    with np.errstate(over="ignore", invalid="ignore"):   # refused below
        v2, v1 = np.exp(2.0 * y * (alpha - 1.0)), np.exp(y * (alpha - 0.5))
        finite = np.isfinite(v2 * weights[0] + v1 * weights[1]).all()
    require(finite, "alpha" if np.isfinite(weights).all() else "zeta",
            "must keep the zeta terms, zeta^2 V^(2(alpha-1)) and rho zeta V^(alpha-1/2), "
            f"finite on the grid; zeta = {params.zeta}, alpha = {params.alpha}")
    return v2, v1


def _terms(params: ModelParams, grid: Grid, model: str) -> dict:
    """The diagonals of each named term, in the table's order, as offsets
    and rows made as they are read."""
    coefs = _term_coefficients(params, grid, model)
    blocks = _difference_blocks(grid, *coefs)
    terms = {name: _scale_rows(block, np.full(grid.n_points, c))
             for (name, c), block in zip(coefs.items(), blocks)}
    terms["potential"] = _main(np.full(grid.n_points, params.r))
    return terms


def hamiltonian_terms(params: ModelParams, grid: Grid,
                      model: str = "bs") -> dict[str, LinearOperator]:
    """Individual named terms of a Hamiltonian, before summation.

    Every model is the same table of derivative terms (second_x, first_x,
    first_y, cross_xy, second_y, each on its difference block) with its own
    coefficients, plus the potential r.  A scalar coefficient scales its
    block; an array multiplies it from the left as a diagonal.  Terms a
    model does not use are omitted.  The gauge model here is the expanded
    form; the factored form does not decompose into these terms.
    """
    return {name: LinearOperator(grid, _sum(grid.n_points, [term]))
            for name, term in _terms(params, grid, model).items()}


def _hamiltonian(params: ModelParams, grid: Grid, model: str) -> LinearOperator:
    """The sum of a model's named terms, in the table's order."""
    return LinearOperator(grid, _sum(grid.n_points, _terms(params, grid, model).values()))


def _check_policy(policy: str) -> None:
    """The BS and MG builders keep a ``policy`` keyword, which
    bench/workloads.py passes; the stencils have one boundary closure, and
    any other name is refused."""
    if policy != "one-sided-interior":
        raise ValueError(f"unknown boundary policy {policy!r}; the stencils have one "
                         "closure, 'one-sided-interior'")


def build_bs_hamiltonian(params: ModelParams, grid: Grid,
                         policy: str = "one-sided-interior") -> LinearOperator:
    """Black-Scholes Hamiltonian in log price,

        H = -(sigma^2/2) d2/dx2 + (sigma^2/2 - r) d/dx + r.

    On a 2D grid the operator acts only along x, with identical y blocks.
    It annihilates e^x exactly in the continuum and is non-Hermitian unless
    sigma^2 = 2r, where the first-derivative coefficient vanishes.
    """
    _check_policy(policy)
    return _hamiltonian(params, grid, "bs")


def build_mg_hamiltonian(params: ModelParams, grid: LogGrid2D,
                         policy: str = "one-sided-interior") -> LinearOperator:
    """Merton-Garman Hamiltonian in (x, y) = (ln S, ln V):

        H = -(e^y/2) d2/dx2 - (r - e^y/2) d/dx
            - (lambda e^-y + mu - (zeta^2/2) e^{2y(alpha-1)}) d/dy
            - rho zeta e^{y(alpha-1/2)} d2/dxdy
            - zeta^2 e^{2y(alpha-1)} d2/dy2 + r.

    With ``vol_vol_half`` the last coefficient is halved.  Variable
    coefficients multiply from the left (evaluated at the output point).
    An InputError names alpha when the zeta terms overflow on the grid; with
    zeta = 0 they are 0 and alpha plays no part.
    """
    _check_policy(policy)
    return _hamiltonian(params, grid, "mg")


def build_gauge_hamiltonian(params: ModelParams, grid: LogGrid2D,
                            form: str = "expanded") -> LinearOperator:
    """Gauge-coupled Hamiltonian built from the momentum sum p_x + p_y.

    Factored form:  (sigma^2/2)(-p_x - p_y)(p_x + p_y)
                    + (sigma^2/2 - r)(p_x + p_y) + r,
    composed from discrete blocks, so its interior rows reach two points
    along each axis.  The expanded form assembles each second-order term
    with the direct stencils instead; the two differ by O(h^2) commutation
    errors of the difference matrices.  sigma^2 is read as e^y pointwise
    when ``params.sigma_local`` is set, otherwise the constant
    ``params.sigma`` squared.
    """
    if not isinstance(grid, LogGrid2D):
        raise TypeError("the gauge Hamiltonian needs a 2D grid")
    if form == "expanded":
        return _hamiltonian(params, grid, "gauge")
    require(form == "factored", "form", f"must be 'expanded' or 'factored', got {form!r}")
    d = momentum_operator(grid, "x") + momentum_operator(grid, "y")
    # Black-Scholes in the momentum sum: the x coefficients on d @ d and d
    coefs = _term_coefficients(params, grid, "gauge")

    def diag(values):
        return LinearOperator(grid, _main(values))
    return (diag(coefs["second_x"]) @ (d @ d) + diag(coefs["first_x"]) @ d
            + diag(np.full(grid.n_points, params.r)))


# ---------------------------------------------------------------------------
# Gauge fields and transformed operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaugeField:
    """A scalar field theta(x, y), its x derivative theta_x, and the gauge
    strength omega of the transformation e^{omega theta}.

    Only pointwise evaluation is ever needed, so theta and theta_x are plain
    callables; they must stay finite on the grid box.  omega must be finite.
    """

    theta: Callable
    theta_x: Callable
    omega: float

    def __post_init__(self):
        check_finite("omega", self.omega)

    @classmethod
    def linear_x(cls, omega: float) -> "GaugeField":
        """theta(x, y) = x."""
        return cls(theta=lambda x, y: x,
                   theta_x=lambda x, y: np.ones_like(np.asarray(x, dtype=float)),
                   omega=omega)

    @classmethod
    def constant(cls, omega: float) -> "GaugeField":
        """theta(x, y) = 1."""
        return cls(theta=lambda x, y: np.ones_like(np.asarray(x, dtype=float)),
                   theta_x=lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
                   omega=omega)


def _grid_coords(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(grid, LogGrid2D):
        return grid.xs, grid.ys
    pts = grid.points
    return pts, np.zeros_like(pts)


def gauge_operator(gauge: GaugeField, grid: Grid,
                   times: LinearOperator | None = None) -> LinearOperator:
    """Diagonal operator U = diag(e^{omega * theta}).

    With ``times``, an operator H that U is to multiply, omega is refused
    also when a product U H or H U can overflow: each of their entries is
    at most e^{max |omega theta|} max |H|.
    """
    t = finite_on_grid(gauge.theta(*_grid_coords(grid)), grid, "theta")
    w = gauge.omega * t
    peak = float(np.abs(w).max())
    require(peak < EXP_LIMIT, "omega",
            f"is too large: gauge exponent overflows, max |omega*theta| = {peak:g}")
    if times is not None:
        require(math.isfinite(math.exp(peak) * times.max_abs()), "omega",
                f"is too large: e^(omega*theta) times the operator overflows, "
                f"max |omega*theta| = {peak:g}")
    return LinearOperator(grid, _main(np.exp(w)))


def build_transformed_bs(params: ModelParams, gauge: GaugeField, grid: Grid,
                         convention: str = "direct") -> LinearOperator:
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
    require(convention in TRANSFORM_CONVENTIONS, "convention",
            f"must be one of {TRANSFORM_CONVENTIONS}, got {convention!r}")
    h_bs = build_bs_hamiltonian(params, grid)
    if convention == "direct":
        tx = finite_on_grid(gauge.theta_x(*_grid_coords(grid)), grid, "theta_x")
        sig2, om = params.sigma * params.sigma, gauge.omega
        first_x = _coefficients(0.5 * sig2, params.r)["first_x"]   # sigma^2/2 - r
        with np.errstate(over="ignore", invalid="ignore"):   # refused below
            shift = 0.5 * sig2 * om * (1.0 + om) * tx * tx + om * first_x * tx
        require(np.isfinite(shift).all(), "omega", "is too large: the shift's potential "
                f"sigma^2 omega (1+omega)/2 theta_x^2 overflows, got {om}")
        (dx,) = _difference_blocks(grid, "first_x")
        extra = _sum(grid.n_points, [_scale_rows(dx, sig2 * om * tx), _main(shift)])
        return LinearOperator(grid, _sum(grid.n_points, [h_bs.diagonals, extra]))
    u = gauge_operator(gauge, grid, h_bs)
    u_inv = gauge_operator(replace(gauge, omega=-gauge.omega), grid, h_bs)
    return u_inv @ h_bs @ u if convention == "left" else u @ h_bs @ u_inv


# ---------------------------------------------------------------------------
# Probe functions for equivalence checks
# ---------------------------------------------------------------------------

def smooth_probe_functions(grid: Grid, count: int, seed: int = 0,
                           y_constant: bool = False) -> list[Callable]:
    """Random low-frequency Fourier combinations on the grid box.

    Returns callables (not samples) so the same function can be evaluated
    on refinements of the box.  Amplitudes are normalized so the sup norm
    is at most 1.  With ``y_constant`` the functions do not depend on y.
    ``count`` must be at least 1.
    """
    check_integer("count", count, 1)
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
