"""Terminal profit accounting for plain calls and puts."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .pricing import OptionContract

__all__ = ["ProfitQuery", "profit", "break_even"]

SIDES = ("holder", "writer")


@dataclass(frozen=True)
class ProfitQuery:
    contract: OptionContract
    side: str
    terminal_price: float

    def __post_init__(self):
        if self.side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}, got {self.side!r}")
        if not (math.isfinite(self.terminal_price) and self.terminal_price >= 0.0):
            raise ValueError(
                f"terminal price must be nonnegative and finite, got {self.terminal_price}")


def profit(query: ProfitQuery) -> float:
    """Net profit at expiry; the writer's profit is minus the holder's."""
    holder = query.contract.payoff(query.terminal_price) - query.contract.premium
    return float(holder if query.side == "holder" else -holder)


def break_even(contract: OptionContract, side: str = "holder") -> float:
    """Terminal price at which the position neither gains nor loses.

    Both sides break even at the same point: strike + premium for a call,
    strike - premium for a put.  A put premium above the strike means the
    holder profits at any terminal price, so no break-even exists.
    """
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    if contract.kind == "call":
        return contract.strike + contract.premium
    if contract.premium > contract.strike:
        raise ValueError("premium exceeds strike: a put position cannot break even")
    return contract.strike - contract.premium
