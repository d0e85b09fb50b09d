"""Terminal profit accounting for plain calls and puts."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import require
from .pricing import OptionContract

__all__ = ["ProfitQuery", "profit", "break_even"]

SIDES = ("holder", "writer")


@dataclass(frozen=True)
class ProfitQuery:
    contract: OptionContract
    side: str
    terminal_price: float

    def __post_init__(self):
        require(self.side in SIDES, "side", f"must be one of {SIDES}, got {self.side!r}")
        require(math.isfinite(self.terminal_price) and self.terminal_price >= 0.0,
                "terminal_price", f"must be nonnegative and finite, got {self.terminal_price}")


def profit(query: ProfitQuery) -> float:
    """Net profit at expiry; the writer's profit is minus the holder's."""
    holder = query.contract.payoff(query.terminal_price) - query.contract.premium
    return float(holder if query.side == "holder" else -holder)


def break_even(contract: OptionContract) -> float:
    """Terminal price at which the position neither gains nor loses.

    Both sides break even at the same point: strike + premium for a call,
    strike - premium for a put.  A put premium above the strike means the
    holder profits at any terminal price, so no break-even exists.
    """
    if contract.kind == "call":
        return contract.strike + contract.premium
    require(contract.premium <= contract.strike, "premium",
            "exceeds strike: a put position cannot break even")
    return contract.strike - contract.premium
