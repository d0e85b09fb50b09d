"""Pointwise gauge-field relations and martingale diagnostics.

These are scalar checks of the algebraic identities the gauge construction
rides on: the momentum ratio of the transformed operator, the information
preservation relation between theta derivatives, the surprise-function
exponent condition, and the martingale (no-arbitrage) conditions of the
Merton-Garman and gauge Hamiltonians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import GridFunction, LogGrid2D, ModelParams, Record, check_positive, sample
from .operators import LinearOperator, build_gauge_hamiltonian, build_mg_hamiltonian

__all__ = [
    "momentum_ratio",
    "information_preservation_check",
    "surprise_condition",
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
]


def momentum_ratio(omega: float) -> tuple[float, float]:
    """Both admissible values of p_x/p_y, +-sqrt(omega/(1+omega)).

    Undefined for omega = -1 and complex for omega in (-1, 0); those raise.
    omega = 0 gives 0 (momenta decouple), omega -> infinity tends to +-1.
    """
    if not math.isfinite(omega):
        raise ValueError(f"omega must be finite, got {omega}")
    if omega == -1.0:
        raise ValueError("momentum ratio undefined at omega = -1")
    ratio2 = omega / (1.0 + omega)
    if ratio2 < 0.0:
        raise ValueError(
            f"omega/(1+omega) is negative for omega in (-1, 0); got omega = {omega}")
    root = math.sqrt(ratio2)
    return (root, -root)


def information_preservation_check(px_over_py: float, theta_x: float,
                                   theta_xy: float, params: ModelParams) -> float:
    """Residual of  1 + p_x/p_y  =  4 sigma^2/(sigma^2 - 2r) * theta_xy/theta_x.

    Zero means the supplied point satisfies the relation.  When theta_xy is
    zero the right side is zero regardless of sigma^2 - 2r; at the special
    point sigma^2 = 2r with theta_xy nonzero the relation has no solution.
    """
    if theta_x == 0.0:
        raise ValueError("theta_x must be nonzero")
    sig2 = params.sigma * params.sigma
    lhs = 1.0 + px_over_py
    if theta_xy == 0.0:
        rhs = 0.0
    elif sig2 == 2.0 * params.r:
        raise ValueError("information-preserving point sigma^2 = 2r requires theta_xy = 0")
    else:
        rhs = 4.0 * sig2 / (sig2 - 2.0 * params.r) * (theta_xy / theta_x)
    return lhs - rhs


def surprise_condition(a: float, b: float, params: ModelParams) -> float:
    """Residual of  a + b/2 - (1/2 - r/sigma^2)  for the exponent pair (a, b).

    Zero identifies exponential states e^{a x + b y} on which the surprise
    construction degenerates.  At sigma^2 = 2r the condition collapses to
    b = -2a.
    """
    check_positive("sigma", params.sigma)
    sig2 = params.sigma * params.sigma
    return a + 0.5 * b - (0.5 - params.r / sig2)


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
    inner = params.mu
    if not params.vol_vol_half:
        inner = inner + 0.5 * zeta2 * np.exp(2.0 * y * (params.alpha - 1.0))
    inner = inner + params.rho * params.zeta * np.exp(y * (params.alpha - 0.5))
    return params.lambda_ + np.exp(y) * inner


def _relative_residual(h: LinearOperator, state: GridFunction) -> float:
    """Max interior |H e^f| / e^f for a state e^f sampled on h's grid."""
    rel = np.abs(h.apply(state).values) / state.values
    return float(rel[h.grid.interior_mask(1)].max())


@dataclass(frozen=True)
class MartingaleReport(Record):
    residual_norm: float   # max interior |H e^{x+y}| / e^{x+y}
    condition_lhs: float   # max over grid rows of |mg_condition_lhs|
    satisfied: bool


def mg_martingale_report(params: ModelParams, grid: LogGrid2D,
                         tolerance: float = 1e-3) -> MartingaleReport:
    """Apply the Merton-Garman Hamiltonian to the candidate martingale
    state e^{x+y} and compare against the analytic condition.

    The relative interior residual at row y equals |condition| * e^{-y} up
    to O(h^2) discretization error, so ``satisfied`` reflects the relation
    holding across the whole grid, not just at one point.
    """
    check_positive("tolerance", tolerance)
    residual_norm = _relative_residual(build_mg_hamiltonian(params, grid),
                                       sample(lambda x, y: np.exp(x + y), grid))
    lhs = mg_condition_lhs(params, grid.y_axis.points)
    return MartingaleReport(residual_norm=residual_norm,
                            condition_lhs=float(np.abs(lhs).max()),
                            satisfied=residual_norm <= tolerance)


@dataclass(frozen=True)
class RootSet(Record):
    """Equilibrium log-variances of  a e^{2y} + mu e^y + lambda = 0."""

    a_coeff: float
    mu: float
    lambda_: float
    roots_y: tuple[float, ...]
    roots_expy: tuple[float, ...]
    no_equilibrium: bool

    def __post_init__(self):
        for y in self.roots_y:
            res = abs(self.a_coeff * math.exp(2.0 * y) + self.mu * math.exp(y) + self.lambda_)
            if res > 1e-12:
                raise ValueError(f"root y = {y} has residual {res:g} above 1e-12")


def martingale_roots(a_coeff: float, mu: float, lambda_: float) -> RootSet:
    """Solve a u^2 + mu u + lambda = 0 for u = e^y > 0 and return y = ln u.

    Only real positive u yield equilibria; a double root is reported once.
    The quadratic is solved in the numerically stable form to avoid
    cancellation between -mu and the discriminant square root.
    """
    for name, value in (("a_coeff", a_coeff), ("mu", mu), ("lambda_", lambda_)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if a_coeff == 0.0:
        raise ValueError("a_coeff must be nonzero")
    disc = mu * mu - 4.0 * a_coeff * lambda_
    if disc < 0.0:
        candidates: list[float] = []
    elif disc == 0.0:
        candidates = [-mu / (2.0 * a_coeff)]
    else:
        sq = math.sqrt(disc)
        q = -0.5 * (mu + math.copysign(sq, mu if mu != 0.0 else 1.0))
        candidates = [q / a_coeff]
        if q != 0.0:
            candidates.append(lambda_ / q)
        else:
            candidates.append(0.0)
    positive = sorted(u for u in candidates if u > 0.0)
    roots_y = tuple(math.log(u) for u in positive)
    return RootSet(a_coeff=a_coeff, mu=mu, lambda_=lambda_,
                   roots_y=roots_y, roots_expy=tuple(positive),
                   no_equilibrium=not positive)


# ---------------------------------------------------------------------------
# Gauge Hamiltonian martingale family
# ---------------------------------------------------------------------------

def gauge_quadratic(params: ModelParams, c: float) -> float:
    """Value the constant-sigma gauge Hamiltonian takes on e^{a x + b y}
    relative to the state itself, as a function of c = a + b:

        -(sigma^2/2) c^2 + (sigma^2/2 - r) c + r
          = -(sigma^2/2)(c - 1)(c + 2r/sigma^2).
    """
    sig2 = params.sigma * params.sigma
    return -0.5 * sig2 * c * c + (0.5 * sig2 - params.r) * c + params.r


def gauge_martingale_sums(params: ModelParams) -> tuple[float, float]:
    """Exponent sums c = a + b annihilated by the constant-sigma gauge
    Hamiltonian: c = 1 and c = -2r/sigma^2."""
    check_positive("sigma", params.sigma)
    sig2 = params.sigma * params.sigma
    return (1.0, -2.0 * params.r / sig2)


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
class VolcoeffReport(Record):
    """Per-term max |MG coefficient - gauge coefficient| after substituting
    zeta^2 = e^{-2y(alpha-3/2)}, rho zeta = e^{-y(alpha-3/2)} and
    r = lambda e^{-y} + mu into the Merton-Garman coefficients."""

    deviations: dict
    second_y_matches_half_sig2: bool  # deviation pointwise equal to e^y/2
    vol_vol_half: bool


def volcoeff_audit(params: ModelParams, grid: LogGrid2D) -> VolcoeffReport:
    """Compare coefficient functions of the two Hamiltonians under the
    volatility-matching substitution (exact, no discretization involved).

    The substituted products collapse algebraically: zeta^2 e^{2y(alpha-1)}
    and rho zeta e^{y(alpha-1/2)} both reduce to e^y independently of alpha,
    and the rate becomes r(y) = lambda e^{-y} + mu.  The gauge side reads
    sigma^2 = e^y with the same substituted rate.  Four blocks then agree
    identically; the second y-derivative block disagrees by exactly e^y/2
    unless ``vol_vol_half`` restores the conventional 1/2.
    """
    y = grid.ys
    ey = np.exp(y)
    r_sub = params.lambda_ * np.exp(-y) + params.mu

    mg = {
        "second_x": -0.5 * ey,
        "first_x": -(r_sub - 0.5 * ey),
        "first_y": -(r_sub - 0.5 * ey),      # -(lambda e^-y + mu - e^y/2)
        "cross_xy": -ey,
        "second_y": (-0.5 * ey) if params.vol_vol_half else -ey,
    }
    gauge = {
        "second_x": -0.5 * ey,
        "first_x": 0.5 * ey - r_sub,
        "first_y": 0.5 * ey - r_sub,
        "cross_xy": -ey,
        "second_y": -0.5 * ey,
    }
    deviations = {term: float(np.abs(mg[term] - gauge[term]).max()) for term in mg}
    second_y_dev = np.abs(mg["second_y"] - gauge["second_y"])
    matches = (not params.vol_vol_half) and bool(np.array_equal(second_y_dev, 0.5 * ey))
    return VolcoeffReport(deviations=deviations,
                          second_y_matches_half_sig2=matches,
                          vol_vol_half=params.vol_vol_half)
