"""Position profit and break-even arithmetic."""

import numpy as np
import pytest

from gauge_hamilton import OptionContract, ProfitQuery, break_even, profit


def test_holder_call_profit_at_break_even():
    c = OptionContract("call", 42.0, 1.0, premium=5.0)
    assert profit(ProfitQuery(c, "holder", 47.0)) == 0.0


def test_writer_call_profit_below_strike():
    c = OptionContract("call", 42.0, 1.0, premium=5.0)
    assert profit(ProfitQuery(c, "writer", 40.0)) == 5.0


def test_holder_put_profit_at_zero():
    c = OptionContract("put", 50.0, 1.0, premium=3.0)
    assert profit(ProfitQuery(c, "holder", 0.0)) == 47.0


def test_break_even_levels():
    assert break_even(OptionContract("call", 42.0, 1.0, premium=5.0)) == 47.0
    assert break_even(OptionContract("put", 50.0, 1.0, premium=3.0)) == 47.0
    assert break_even(OptionContract("call", 42.0, 1.0)) == 42.0
    assert break_even(OptionContract("put", 50.0, 1.0)) == 50.0


def test_break_even_profit_is_zero_for_both_sides():
    for kind, premium in (("call", 5.0), ("put", 3.0)):
        c = OptionContract(kind, 40.0, 1.0, premium=premium)
        s_star = break_even(c)
        assert profit(ProfitQuery(c, "holder", s_star)) == 0.0
        assert profit(ProfitQuery(c, "writer", s_star)) == 0.0


def test_put_break_even_needs_premium_below_strike():
    c = OptionContract("put", 3.0, 1.0, premium=5.0)
    with pytest.raises(ValueError, match="premium exceeds strike"):
        break_even(c)


def test_positions_are_zero_sum():
    rng = np.random.default_rng(17)
    c = OptionContract("call", 100.0, 1.0, premium=10.45)
    p = OptionContract("put", 100.0, 1.0, premium=5.57)
    for s_t in rng.uniform(0.0, 250.0, size=10_000):
        for contract in (c, p):
            h = profit(ProfitQuery(contract, "holder", float(s_t)))
            w = profit(ProfitQuery(contract, "writer", float(s_t)))
            assert h + w == 0.0
            # the writer can never make more than the premium collected,
            # the holder can never lose more than the premium paid
            assert w <= contract.premium
            assert h >= -contract.premium


def test_profit_query_validation():
    c = OptionContract("call", 42.0, 1.0, premium=5.0)
    with pytest.raises(ValueError, match="side"):
        ProfitQuery(c, "broker", 47.0)
    with pytest.raises(ValueError, match="terminal price"):
        ProfitQuery(c, "holder", -1.0)


def test_profit_query_rejects_non_finite_terminal_price():
    c = OptionContract("call", 42.0, 1.0, premium=5.0)
    for price in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="terminal price must be nonnegative and finite"):
            ProfitQuery(c, "holder", price)
