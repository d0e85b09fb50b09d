"""Martingale diagnostics and structural checks of the operators.

The martingale (no-arbitrage) conditions of the Merton-Garman and gauge
Hamiltonians with their equilibrium roots, the coefficient audit of the
Merton-Garman Hamiltonian against the local-sigma gauge one, and
``CHECKS``, the structural checks of the operators that the CLI ``check``
prints.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, replace
from fractions import Fraction

import numpy as np

from .core import (GridFunction, InputError, LogGrid2D, ModelParams, check_finite, check_positive,
                   make_grid_2d, require, sample)
from .operators import (TRANSFORM_CONVENTIONS, GaugeField, LinearOperator, _coefficients,
                        _mg_powers, _term_coefficients, build_bs_hamiltonian,
                        build_gauge_hamiltonian, build_mg_hamiltonian, build_transformed_bs,
                        commutator, gauge_operator, smooth_probe_functions)

__all__ = [
    "MartingaleReport",
    "mg_martingale_report",
    "mg_condition_lhs",
    "RootSet",
    "martingale_roots",
    "gauge_martingale_sums",
    "gauge_martingale_residual",
    "gauge_quadratic",
    "VolcoeffReport",
    "volcoeff_audit",
    "CHECKS",
]

MARTINGALE_TOL = 1e-3   # the largest residual_norm of a satisfied MartingaleReport


# ---------------------------------------------------------------------------
# Merton-Garman martingale condition
# ---------------------------------------------------------------------------

def mg_condition_lhs(params: ModelParams, y: np.ndarray) -> np.ndarray:
    """lambda + e^y (mu + (zeta^2/2) e^{2y(alpha-1)} + rho zeta e^{y(alpha-1/2)}).

    The Merton-Garman Hamiltonian annihilates e^{x+y} exactly where this
    vanishes.  With ``vol_vol_half`` the halved d2/dy2 coefficient cancels
    the (zeta^2/2) term on e^{x+y}, leaving lambda + e^y (mu + rho zeta e^{y(alpha-1/2)}).
    """
    y = np.asarray(y, dtype=float)
    zeta2 = params.zeta * params.zeta
    v2, v1 = _mg_powers(params, y)
    inner = params.mu if params.vol_vol_half else params.mu + 0.5 * zeta2 * v2
    return params.lambda_ + np.exp(y) * (inner + params.rho * params.zeta * v1)


def _relative_residual(h: LinearOperator, state: GridFunction) -> float:
    """Max interior |H e^f| / e^f for a state e^f sampled on h's grid."""
    rel = np.abs(h.apply(state).values) / state.values
    return float(rel[h.grid.interior_mask(1)].max())


@dataclass(frozen=True)
class MartingaleReport:
    residual_norm: float   # max interior |H e^{x+y}| / e^{x+y}
    condition_lhs: float   # max over grid rows of |mg_condition_lhs|
    satisfied: bool


def mg_martingale_report(params: ModelParams, grid: LogGrid2D) -> MartingaleReport:
    """Apply the Merton-Garman Hamiltonian to the candidate martingale
    state e^{x+y} and compare against the analytic condition.

    The relative interior residual at row y equals |condition| * e^{-y} up
    to O(h^2) discretization error, so ``satisfied`` (it is at most
    MARTINGALE_TOL) reflects the relation holding across the whole grid.
    """
    residual_norm = _relative_residual(build_mg_hamiltonian(params, grid),
                                       sample(lambda x, y: np.exp(x + y), grid))
    lhs = mg_condition_lhs(params, grid.y_axis.points)
    return MartingaleReport(residual_norm=residual_norm,
                            condition_lhs=float(np.abs(lhs).max()),
                            satisfied=residual_norm <= MARTINGALE_TOL)


ROOT_TOL = 1e-12   # the largest relative residual a RootSet accepts


@dataclass(frozen=True)
class RootSet:
    """Equilibrium log-variances of  a e^{2y} + mu e^y + lambda = 0."""

    a_coeff: float
    mu: float
    lambda_: float
    roots_y: tuple[float, ...]
    roots_expy: tuple[float, ...]
    no_equilibrium: bool

    def __post_init__(self):
        for u in self.roots_expy:
            # the quadratic over u, so no term at a root overflows; NaN fails too
            terms = (self.a_coeff * u, self.mu, self.lambda_ / u)
            res = abs(sum(terms)) / (sum(map(abs, terms)) or 1.0)
            if not res <= ROOT_TOL:
                raise ValueError(f"root e^y = {u!r} has relative residual {res:g} "
                                 f"above {ROOT_TOL:g}")


def martingale_roots(a_coeff: float, mu: float, lambda_: float) -> RootSet:
    """Solve a u^2 + mu u + lambda = 0 for u = e^y > 0 and return y = ln u.

    Only real positive u yield equilibria, decided on the exact
    discriminant; a double root is reported once.  The stable form runs on
    coefficients scaled by powers of two, u = 2^s w with |a| 4^s near
    |lambda| (|mu| 2^s when lambda = 0) and the largest then in [0.5, 1):
    the discriminant cannot overflow, and where the plain formula neither
    overflows nor underflows the roots are its roots bit for bit.  A root
    above the float range names a_coeff, one below the normal floats
    lambda_.
    """
    for name, value in (("a_coeff", a_coeff), ("mu", mu), ("lambda_", lambda_)):
        check_finite(name, value)
    require(a_coeff != 0.0, "a_coeff", "must be nonzero")
    disc = Fraction(mu) ** 2 - 4 * Fraction(a_coeff) * Fraction(lambda_)
    (fa, ea), (_, eb), (fc, ec) = (math.frexp(v) for v in (a_coeff, mu, lambda_))
    s = (ec - ea) // 2 if lambda_ != 0.0 else eb - ea
    e = max(ex for ex, v in ((ea + 2 * s, a_coeff), (eb + s, mu), (ec, lambda_)) if v != 0.0)
    a, b, c = math.ldexp(a_coeff, 2 * s - e), math.ldexp(mu, s - e), math.ldexp(lambda_, -e)
    # each candidate u as a mantissa and a power of two
    candidates = [(-b / (2.0 * a), s)] if disc == 0 else []
    if disc > 0:
        sq = math.sqrt(max(b * b - 4.0 * a * c, 0.0))
        q = -0.5 * (b + math.copysign(sq, b if b != 0.0 else 1.0))
        # a_coeff = fa 2^ea, lambda_ = fc 2^ec and the unscaled q = q 2^(e-s)
        candidates = [(q / fa, e - s - ea), (fc / q, ec - e + s)]
    positive = []
    for m, k in ((m, k) for m, k in candidates if m > 0.0):
        where = f"a root lies at y = {math.log(m) + k * math.log(2.0):.6g}"
        try:
            u = math.ldexp(m, k)
        except OverflowError:
            raise InputError("a_coeff", f"must keep every root e^y finite; {where}") from None
        require(u >= np.finfo(float).tiny, "lambda_",
                f"must keep every root e^y a normal float; {where}")
        positive.append(u)
    positive = sorted(set(positive))   # two roots apart by less than rounding print once
    return RootSet(a_coeff=a_coeff, mu=mu, lambda_=lambda_,
                   roots_y=tuple(math.log(u) for u in positive), roots_expy=tuple(positive),
                   no_equilibrium=not positive)


# ---------------------------------------------------------------------------
# Gauge Hamiltonian martingale family
# ---------------------------------------------------------------------------

def gauge_quadratic(params: ModelParams, c: float) -> float:
    """Value the constant-sigma gauge Hamiltonian, Black-Scholes in the
    momentum sum, takes on e^{a x + b y} relative to the state, by c = a + b:

        -(sigma^2/2) c^2 + (sigma^2/2 - r) c + r
          = -(sigma^2/2)(c - 1)(c + 2r/sigma^2).
    """
    second_x, first_x = _term_coefficients(params, None, "bs").values()
    return second_x * c * c + first_x * c + params.r


def _rate_over_variance(params: ModelParams) -> float:
    """r / sigma^2, refused naming sigma unless twice it is finite."""
    check_positive("sigma", params.sigma)
    sig2 = params.sigma * params.sigma
    ratio = params.r / sig2 if sig2 > 0.0 else math.inf
    require(math.isfinite(2.0 * ratio), "sigma",
            f"must keep 2r/sigma^2 finite, got {params.sigma} with r = {params.r}")
    return ratio


def gauge_martingale_sums(params: ModelParams) -> tuple[float, float]:
    """Exponent sums c = a + b annihilated by the constant-sigma gauge
    Hamiltonian: c = 1 and c = -2r/sigma^2."""
    return (1.0, -2.0 * _rate_over_variance(params))


def gauge_martingale_residual(params: ModelParams, a: float, b: float,
                              grid: LogGrid2D) -> float:
    """Max interior |H_gauge e^{a x + b y}| / e^{a x + b y}.

    Uses the constant-sigma expanded form, for which the residual depends
    on the exponents only through c = a + b and equals
    |gauge_quadratic(params, c)| up to O(h^2).
    """
    p = replace(params, sigma_local=False)
    return _relative_residual(build_gauge_hamiltonian(p, grid, form="expanded"),
                              sample(lambda x, y: np.exp(a * x + b * y), grid))


# ---------------------------------------------------------------------------
# Coefficient audit: substituted Merton-Garman vs local-sigma gauge
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VolcoeffReport:
    """Per-term max |MG coefficient - gauge coefficient| after substituting
    zeta^2 = e^{-2y(alpha-3/2)}, rho zeta = e^{-y(alpha-3/2)} and
    r = lambda e^{-y} + mu into the Merton-Garman coefficients."""

    deviations: dict
    second_y_matches_half_sig2: bool  # deviation pointwise equal to e^y/2
    vol_vol_half: bool


def volcoeff_audit(params: ModelParams, grid: LogGrid2D) -> VolcoeffReport:
    """Compare coefficient functions of the two Hamiltonians under the
    volatility-matching substitution (exact, no discretization involved).

    Both sides are ``operators._coefficients`` of their parts.  The
    substituted products zeta^2 e^{2y(alpha-1)} and rho zeta e^{y(alpha-1/2)}
    both reduce to e^y independently of alpha, and the rate becomes r(y) =
    lambda e^{-y} + mu; the gauge side reads sigma^2 = e^y with the same
    rate.  Four blocks then agree identically; the second y-derivative block
    disagrees by exactly e^y/2 unless ``vol_vol_half`` restores the
    conventional 1/2.
    """
    ey = np.exp(grid.ys)
    r_sub = params.lambda_ * np.exp(-grid.ys) + params.mu
    # zeta^2 V^(2(alpha-1)) and rho zeta V^(alpha-1/2) substituted are both e^y
    mg = _coefficients(0.5 * ey, r_sub, r_sub - 0.5 * ey, ey,
                       0.5 * ey if params.vol_vol_half else ey)
    gauge = _coefficients(0.5 * ey, r_sub, r_sub - 0.5 * ey, ey, 0.5 * ey)
    deviations = {term: float(np.abs(mg[term] - gauge[term]).max()) for term in mg}
    second_y_dev = np.abs(mg["second_y"] - gauge["second_y"])
    matches = (not params.vol_vol_half) and bool(np.array_equal(second_y_dev, 0.5 * ey))
    return VolcoeffReport(deviations=deviations,
                          second_y_matches_half_sig2=matches,
                          vol_vol_half=params.vol_vol_half)


# ---------------------------------------------------------------------------
# Structural checks of the operators, as the JSON records the CLI `check` prints
# ---------------------------------------------------------------------------

# the operator checks' box, x around ln 100 and y in a variance range where
# e^y coefficients stay well scaled, and their smooth probes' count and seed
_CHECK_X = (3.5, 5.5)
_CHECK_Y = (-4.0, -1.0)
_CHECK_GRID = make_grid_2d(*_CHECK_X, 41, *_CHECK_Y, 21)
_PROBES, _PROBE_SEED = 5, 0


def _record(name, residual, tolerance, passed, detail=None) -> dict:
    """One check's JSON record; ``detail`` only when given."""
    rec = {"name": name, "residual": residual, "tolerance": tolerance, "pass": bool(passed)}
    return rec if detail is None else {**rec, "detail": detail}


def _check_expansion(params, omega):
    """Factored and expanded gauge forms agree at second order: the action
    gap must shrink by at least 2^1.9 under one refinement.  Both gaps are
    read at the coarse points (every second fine point) so the max norm
    compares the same physical locations."""
    coarse = _CHECK_GRID
    fine = make_grid_2d(*_CHECK_X, 2 * coarse.nx - 1, *_CHECK_Y, 2 * coarse.ny - 1)
    # composed stencils reach two layers, so depth-2 rows are the first
    # place where both forms use central differences only
    mask = np.outer(coarse.x_axis.interior_mask(2), coarse.y_axis.interior_mask(2))
    errs = []
    for grid, stride in ((coarse, 1), (fine, 2)):
        factored = build_gauge_hamiltonian(params, grid, form="factored")
        expanded = build_gauge_hamiltonian(params, grid, form="expanded")
        err = 0.0
        for f in smooth_probe_functions(grid, _PROBES, _PROBE_SEED):
            gf = sample(f, grid)
            gap = (factored.apply(gf).values - expanded.apply(gf).values).reshape(grid.shape)
            err = max(err, float(np.abs(gap[::stride, ::stride][mask]).max()))
        errs.append(err)
    err_coarse, err_fine = errs
    tolerance = err_coarse / 2.0 ** 1.9
    return [_record("expansion", err_fine, tolerance, err_fine <= tolerance)]


def _row_entries(op: LinearOperator, row: int) -> tuple[list, list]:
    """Row ``row`` of ``op`` read off its diagonals, as its columns and
    entries in ascending column order: M[row, row+o] is data[k, row+o]."""
    offsets, data = op.diagonals
    cols = row + offsets
    inside = (cols >= 0) & (cols < data.shape[1])
    return cols[inside].tolist(), data[inside, cols[inside]].tolist()


def _bs_limit_residual(h2: LinearOperator, h1: LinearOperator) -> float:
    """max |2D row summed over its y neighbours - 1D row| over the interior
    rows of the 2D operator ``h2``, entry by entry; each sum exact (fsum)."""
    nx, ny = h2.grid.shape
    residual = 0.0
    for i in range(1, nx - 1):
        row1 = dict(zip(*_row_entries(h1, i)))
        for j in range(1, ny - 1):
            groups = {}
            for col, val in zip(*_row_entries(h2, i * ny + j)):
                groups.setdefault(col // ny, []).append(val)
            collapsed = {xi: math.fsum(vals) for xi, vals in groups.items()}
            residual = max(residual, *(abs(collapsed.get(c, 0.0) - row1.get(c, 0.0))
                                       for c in set(collapsed) | set(row1)))
    return residual


def _check_bs_limit(params, omega):
    """Constant-sigma gauge Hamiltonian acting on y-independent states must
    reproduce the 1D Black-Scholes action: every interior row, summed over
    the y direction, is bit for bit the 1D stencil."""
    p = replace(params, sigma_local=False)
    grid2, grid1 = _CHECK_GRID, _CHECK_GRID.x_axis
    h2 = build_gauge_hamiltonian(p, grid2, form="expanded")
    h1 = build_bs_hamiltonian(p, grid1)
    residual = _bs_limit_residual(h2, h1)
    # matvec agreement is only close to rounding, not bitwise: summed-matrix
    # rows accumulate the y-direction zeros in between the x terms
    worst, scale = 0.0, 0.0
    for f in smooth_probe_functions(grid2, _PROBES, _PROBE_SEED, y_constant=True):
        out2 = h2.apply(sample(f, grid2)).values.reshape(grid2.shape)
        out1 = h1.apply(sample(f, grid1)).values
        worst = max(worst, float(np.abs(out2[1:-1, 1:-1] - out1[1:-1, None]).max()))
        scale = max(scale, float(np.abs(out1[1:-1]).max()))
    return [_record("bs-limit", residual, 0.0, residual == 0.0,
                    {"matvec_gap": worst / max(scale, 1e-300)})]


def _check_commutator(params, omega):
    """A linear gauge field must fail to commute with the Hamiltonian (that
    is the entire point of the transformation); a constant field commutes
    exactly, entry for entry."""
    grid = _CHECK_GRID.x_axis
    h = build_bs_hamiltonian(params, grid)
    defect = commutator(gauge_operator(GaugeField.linear_x(omega), grid, h), h).max_abs()
    zero = commutator(gauge_operator(GaugeField.constant(omega), grid, h), h).max_abs()
    return [_record("commutator", defect, 1e-6, defect > 1e-6),
            _record("commutator-constant", zero, 0.0, zero == 0.0)]


def _check_volcoeff(params, omega):
    """Report-only coefficient audit after the volatility-matching
    substitution: four blocks agree exactly, the second y-derivative block
    deviation is printed for inspection (it never counts against exit 0)."""
    report = volcoeff_audit(params, _CHECK_GRID)
    residual = max(dev for term, dev in report.deviations.items() if term != "second_y")
    return [_record("volcoeff", residual, None, True, asdict(report))]


def _check_transform(params, omega):
    """Report-only: how far the three shifted-operator conventions sit from
    each other on smooth states (they measurably differ for linear theta)."""
    grid = _CHECK_GRID.x_axis
    ops = {c: build_transformed_bs(params, GaugeField.linear_x(omega), grid, c)
           for c in TRANSFORM_CONVENTIONS}
    mask = grid.interior_mask(1)
    acts = [{c: op.apply(sample(f, grid)).values[mask] for c, op in ops.items()}
            for f in smooth_probe_functions(grid, _PROBES, _PROBE_SEED)]
    scale = max(float(np.abs(act["direct"]).max()) for act in acts)
    gaps = {f"{a}_vs_{b}": max(float(np.abs(act[a] - act[b]).max()) for act in acts)
            for a, b in itertools.combinations(ops, 2)}
    residual = max(gaps.values()) / max(scale, 1e-300)
    return [_record("transform", residual, None, True, gaps)]


# check name -> check, in report order; each takes the model parameters and
# the gauge strength omega and returns a list of records
CHECKS = {"expansion": _check_expansion, "bs-limit": _check_bs_limit,
          "commutator": _check_commutator, "volcoeff": _check_volcoeff,
          "transform": _check_transform}


def _run_checks(what, params, omega) -> list:
    """Records of the check ``what``, or of every check in table order for
    "all"; omega is refused unless finite, whichever checks run."""
    check_finite("omega", omega)
    checks = CHECKS.values() if what == "all" else (CHECKS[what],)
    return [rec for check in checks for rec in check(params, omega)]
