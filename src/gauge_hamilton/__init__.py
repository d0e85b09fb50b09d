"""Hamiltonian formulation of option pricing on log grids.

Discrete Black-Scholes, Merton-Garman and gauge-coupled Hamiltonians,
backward evolution pricing, martingale diagnostics, path simulation and
hedging experiments.  The package exports each module's ``__all__``.
"""

from . import core, gauge_analysis, montecarlo, operators, payoff, pricing
from .core import *
from .gauge_analysis import *
from .montecarlo import *
from .operators import *
from .payoff import *
from .pricing import *

__version__ = "0.1.0"

__all__ = [*core.__all__, *gauge_analysis.__all__, *montecarlo.__all__, *operators.__all__,
           *payoff.__all__, *pricing.__all__]
