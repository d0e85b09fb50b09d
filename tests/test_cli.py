"""End-to-end runs of the `gauge-hamilton` command line interface."""

import csv
import io
import json
import math
import re
import sys
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from gauge_hamilton import (
    ModelParams,
    OptionContract,
    ProfitQuery,
    build_gauge_hamiltonian,
    bs_closed_form,
    default_grid_1d,
    hamiltonian_terms,
    make_grid_2d,
    price_bs,
    profit,
    read_paths_binary,
    sample,
)
from gauge_hamilton.cli import _TERM_COLUMNS, main
from gauge_hamilton.gauge_analysis import CHECKS
from gauge_hamilton.pricing import _cover_strike


@pytest.fixture
def runner():
    return CliRunner()


def _reject_constant(token):
    raise ValueError(f"{token} is not valid JSON")


def run_json(runner, args, env=None):
    """Run a command that must succeed and parse its JSON strictly: the NaN
    and Infinity tokens json.dumps writes for non-finite floats fail."""
    result = runner.invoke(main, args, env=env, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return json.loads(result.output, parse_constant=_reject_constant)


# ---------------------------------------------------------------------------
# price
# ---------------------------------------------------------------------------

def test_price_bs_matches_closed_form(runner):
    out = run_json(runner, ["price", "--s0", "100", "--k", "100",
                            "--t", "1", "--r", "0.05", "--sigma", "0.2"])
    assert out["model"] == "bs"
    cf = bs_closed_form(ModelParams(r=0.05, sigma=0.2),
                        OptionContract("call", 100.0, 1.0), 100.0)
    assert out["closed_form"] == pytest.approx(cf, rel=1e-15)
    assert out["rel_err"] < 5e-3
    assert abs(out["pde_price"] - cf) / cf == pytest.approx(out["rel_err"])


def test_price_bs_with_monte_carlo(runner):
    out = run_json(runner, ["price", "--s0", "100", "--k", "100",
                            "--n-steps", "16", "--mc-paths", "20000",
                            "--seed", "5"])
    assert out["mc_paths"] == 20000
    assert abs(out["mc_price"] - out["closed_form"]) <= 4.0 * out["mc_stderr"]


def test_price_mg_degenerate_matches_bs(runner):
    # frozen variance at v0 = sigma^2 collapses the 2D model to 1D
    out = run_json(runner, ["price", "--model", "mg", "--s0", "100",
                            "--k", "100", "--r", "0.05", "--sigma", "0.2",
                            "--v0", "0.04", "--nx", "121", "--ny", "41",
                            "--n-steps", "60"])
    cf = bs_closed_form(ModelParams(r=0.05, sigma=0.2),
                        OptionContract("call", 100.0, 1.0), 100.0)
    assert out["pde_price"] == pytest.approx(cf, rel=1e-3)


@pytest.mark.parametrize("strike, maturity", [("200", "3"), ("130", "1")])
@pytest.mark.parametrize("nx", [[], ["--nx", "401"]], ids=["default-nx", "nx-401"])
def test_price_bs_strike_beyond_the_default_box_prices(runner, strike, maturity, nx):
    # the strike lies beyond the 5 sigma sqrt(T) box around ln s0, so the box
    # widens to cover it; on the unwidened box the price printed as -0.0272
    # (K 200), then exited 1 through the no-arbitrage box check
    out = run_json(runner, ["price", "--s0", "100", "--k", strike, "--sigma", "0.05",
                            "--t", maturity] + nx)
    assert 0.0 <= out["pde_price"] <= 100.0
    assert abs(out["pde_price"] - out["closed_form"]) <= 1e-4


@pytest.mark.parametrize("kind, strike", [("call", "300"), ("put", "30")])
def test_price_mg_widens_its_box_toward_an_out_of_the_money_strike(runner, kind, strike):
    # the strike lies beyond the top (call) or the bottom (put) of the box,
    # whose far-field value then went negative: the call exited 1 at
    # -3.57e-05, the put at -2.10e-06; with the variance frozen both price
    # close to Black-Scholes at sigma = 0.2 (4.75e-07 and 2.93e-10)
    args = ["price", "--model", "mg", "--kind", kind, "--s0", "100", "--k", strike]
    out = run_json(runner, args)
    bs = run_json(runner, ["price", "--kind", kind, "--s0", "100", "--k", strike])
    assert 0.0 < out["pde_price"] < 2.0 * bs["closed_form"]


def test_price_mg_divergence_fails(runner):
    # alpha = 0.5 on the default grid diverges; it used to print 5.8e84
    result = runner.invoke(main, ["price", "--model", "mg", "--s0", "100", "--k", "100",
                                  "--v0", "0.04", "--zeta", "0.5", "--mu", "-0.2",
                                  "--lambda", "0.01", "--rho", "-0.5", "--alpha", "0.5"])
    assert result.exit_code == 1, result.output
    assert "no-arbitrage box [0, s0 = 100.0]" in result.output


@pytest.mark.parametrize("model", [[], ["--model", "mg", "--nx", "41", "--ny", "21"]],
                         ids=["bs", "mg"])
def test_price_fails_past_the_explicit_step_bound(runner, model):
    # five explicit steps on the default grid used to print 82.49 against
    # the closed form's 10.45 and exit 0, then exit 1 past a Gershgorin
    # bound; theta is now 1/2 or 1, and 0 is a usage error before any step
    result = runner.invoke(main, ["price", "--s0", "100", "--k", "100", *model,
                                  "--theta-scheme", "0", "--n-steps", "5"])
    assert result.exit_code == 2, result.output
    assert "--theta-scheme must be 0.5 or 1, got 0.0" in result.output
    assert "pde_price" not in result.output


def test_price_explicit_steps_within_the_bound_print_the_library_price(runner):
    # the fully implicit scheme, the one theta besides 1/2: the CLI prints
    # the library's price
    out = run_json(runner, ["price", "--s0", "100", "--k", "100", "--theta-scheme", "1",
                            "--nx", "41", "--n-steps", "50"])
    params, call = ModelParams(r=0.05, sigma=0.2), OptionContract("call", 100.0, 1.0)
    grid = _cover_strike(default_grid_1d(100.0, 0.2, 1.0, n=41), call)
    pde = price_bs(params, call, 100.0, grid=grid, n_steps=50, theta_scheme=1.0)
    closed = bs_closed_form(params, call, 100.0)
    assert out == {"model": "bs", "kind": "call", "s0": 100.0, "strike": 100.0,
                   "maturity": 1.0, "r": 0.05, "sigma": 0.2, "pde_price": pde,
                   "closed_form": closed, "rel_err": abs(pde - closed) / closed}


def test_price_usage_errors(runner):
    missing = runner.invoke(main, ["price", "--s0", "100"])
    assert missing.exit_code == 2
    bad_spot = runner.invoke(main, ["price", "--s0", "-5", "--k", "100"])
    assert bad_spot.exit_code == 2
    assert "--s0" in bad_spot.output


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_all_passes(runner):
    out = run_json(runner, ["check", "--what", "all"])
    assert out["pass"] is True
    names = [c["name"] for c in out["checks"]]
    assert names == ["expansion", "bs-limit", "commutator",
                     "commutator-constant", "volcoeff", "transform"]
    assert all(c["pass"] for c in out["checks"])


def test_check_bs_limit_collapses_exactly(runner):
    out = run_json(runner, ["check", "--what", "bs-limit"])
    (chk,) = out["checks"]
    assert chk["residual"] == 0.0
    assert chk["tolerance"] == 0.0
    assert chk["detail"]["matvec_gap"] < 1e-12


def test_check_constant_theta_commutes(runner):
    out = run_json(runner, ["check", "--what", "commutator",
                            "--theta", "constant"])
    (chk,) = out["checks"]
    assert chk["residual"] == 0.0 and chk["pass"] is True


def test_check_failure_sets_exit_code(runner):
    # a vanishing gauge field cannot produce the required non-commutation
    result = runner.invoke(main, ["check", "--what", "commutator",
                                  "--omega", "1e-9"])
    assert result.exit_code == 1
    out = json.loads(result.output)
    assert out["pass"] is False


def test_check_all_is_each_check_in_table_order(runner):
    # a grid this coarse fails the expansion check; the records still compare
    def records(what):
        args = ["check", "--what", what, "--nx", "9", "--ny", "7", "--probes", "2"]
        return json.loads(runner.invoke(main, args).output)["checks"]

    assert records("all") == [rec for name in CHECKS for rec in records(name)]


def test_check_rejects_unknown_what(runner):
    result = runner.invoke(main, ["check", "--what", "everything"])
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# config file
# ---------------------------------------------------------------------------

def test_config_supplies_defaults(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"s0": 100.0, "k": 100.0, "sigma": 0.25}))
    out = run_json(runner, ["--config", str(cfg), "price"])
    assert out["s0"] == 100.0 and out["strike"] == 100.0
    assert out["sigma"] == 0.25


def test_config_flags_override_file(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"s0": 100.0, "k": 100.0, "sigma": 0.25}))
    out = run_json(runner, ["--config", str(cfg), "price", "--sigma", "0.4"])
    assert out["sigma"] == 0.4


def test_config_rejects_unknown_key(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"s0": 100.0, "k": 100.0, "warp": 9}))
    result = runner.invoke(main, ["--config", str(cfg), "price"])
    assert result.exit_code == 2
    assert "warp" in result.output


def test_config_rejects_non_object(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2, 3]")
    result = runner.invoke(main, ["--config", str(cfg), "price",
                                  "--s0", "100", "--k", "100"])
    assert result.exit_code == 2
    assert "JSON object" in result.output


# ---------------------------------------------------------------------------
# martingale conditions
# ---------------------------------------------------------------------------

def test_martingale_roots_output(runner):
    out = run_json(runner, ["martingale", "--mu", "-3", "--lambda", "2"])
    assert out["no_equilibrium"] is False
    assert sorted(out["roots_expy"]) == pytest.approx([1.0, 2.0], rel=1e-12)
    assert sorted(out["roots_y"]) == pytest.approx([0.0, math.log(2.0)],
                                                   abs=1e-12)


def test_martingale_no_equilibrium(runner):
    out = run_json(runner, ["martingale", "--mu", "2", "--lambda", "1"])
    assert out["no_equilibrium"] is True
    assert out["roots_y"] == []


def exact_has_equilibrium(a, mu, lam):
    """Whether a u^2 + mu u + lam = 0 has a root u > 0, decided on exact
    rationals: real roots, then the signs of their product and sum."""
    a, mu, lam = Fraction(a), Fraction(mu), Fraction(lam)
    if mu * mu - 4 * a * lam < 0:
        return False
    return lam / a < 0 or -mu / a > 0


def positive_roots(a, mu, lam):
    """The positive roots to 60 digits, in the stable form, with no
    exponent limit."""
    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = 60, 10 ** 6, -10 ** 6
        a, mu, lam = Decimal(a), Decimal(mu), Decimal(lam)
        disc = mu * mu - 4 * a * lam
        if disc < 0:
            return []
        q = -(mu + disc.sqrt().copy_sign(mu if mu != 0 else Decimal(1))) / 2
        return sorted({u for u in (q / a, lam / q) if u > 0})


coefficient = st.builds(lambda sign, mantissa, exponent: sign * mantissa * 10.0 ** exponent,
                        st.sampled_from([-1.0, 1.0]), st.floats(1.0, 9.999),
                        st.integers(-300, 299))


@settings(max_examples=300, deadline=None)
@given(a=coefficient, mu=coefficient, lam=coefficient)
def test_martingale_roots_over_the_float_range(a, mu, lam):
    # roots of -1e200, 1, 1 printed as Infinity, and 1e300, -1e300, 1e-300
    # reported no equilibrium, both from an overflowed mu^2
    result = CliRunner().invoke(main, ["martingale", "--a", repr(a), "--mu", repr(mu),
                                       "--lambda", repr(lam)])
    roots = positive_roots(a, mu, lam)
    if result.exit_code == 2:
        # a root that is not a normal float, named by the coefficient that sets it
        big = [u for u in roots if u > Decimal(sys.float_info.max)]
        small = [u for u in roots if u < Decimal(sys.float_info.min)]
        flag = "--a" if big else "--lambda"
        assert big or small
        assert result.stdout == ""
        assert f"Error: {flag} must keep every root e^y" in result.stderr
        return
    assert result.exit_code == 0, result.output
    out = json.loads(result.stdout, parse_constant=_reject_constant)
    assert out["no_equilibrium"] is (not exact_has_equilibrium(a, mu, lam))
    assert len(out["roots_expy"]) == len(roots)
    for got, want in zip(out["roots_expy"], roots):
        assert abs(Decimal(got) / want - 1) < Decimal("1e-12")
    assert out["roots_y"] == [math.log(u) for u in out["roots_expy"]]


def test_martingale_grid_report(runner):
    out = run_json(runner, ["martingale", "--mu", "-3", "--lambda", "2",
                            "--report-grid", "--zeta", "0.5",
                            "--alpha", "0.5", "--rho", "0.2"])
    report = out["report"]
    assert set(report) == {"residual_norm", "condition_lhs", "satisfied"}
    assert report["satisfied"] is False  # generic dynamics violate it


def test_gauge_martingale_sums(runner):
    out = run_json(runner, ["gauge-martingale", "--r", "0.02", "--sigma", "0.2"])
    assert out["sums"][0] == 1.0
    assert out["sums"][1] == pytest.approx(-1.0, rel=1e-15)


# ---------------------------------------------------------------------------
# surface
# ---------------------------------------------------------------------------

SURFACE_HEADER = ("x,y,f,second_x,first_x,first_y,cross_xy,"
                  "second_y,potential,total")


def read_surface(output):
    return list(csv.DictReader(io.StringIO(output)))


def test_surface_header_and_shape(runner):
    result = runner.invoke(main, ["surface", "--nx", "11", "--ny", "5"])
    assert result.exit_code == 0
    lines = result.output.strip().split("\n")
    assert lines[0] == SURFACE_HEADER
    assert len(lines) == 1 + 11 * 5


def test_surface_bs_drift_sign_tracks_rate(runner):
    # drift coefficient sigma^2/2 - r changes sign across r = 0.02
    def interior_first_x(r):
        result = runner.invoke(main, ["surface", "--hamiltonian", "bs",
                                      "--reference", "exp-x", "--sigma", "0.2",
                                      "--r", str(r), "--nx", "11", "--ny", "5"])
        assert result.exit_code == 0
        rows = [row for row in read_surface(result.output)
                if 3.6 < float(row["x"]) < 5.4]
        return [float(row["first_x"]) for row in rows]

    assert all(v < 0 for v in interior_first_x(0.05))
    assert all(v > 0 for v in interior_first_x(0.01))


def test_surface_file_output_and_exact_values(runner, tmp_path):
    out_path = tmp_path / "surf.csv"
    result = runner.invoke(main, ["surface", "--hamiltonian", "bs",
                                  "--reference", "exp-x", "--sigma", "0.2",
                                  "--r", "0.05", "--nx", "11", "--ny", "5",
                                  "--output", str(out_path)])
    assert result.exit_code == 0
    with open(out_path) as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        assert float(row["f"]) == np.exp(float(row["x"]))
        assert float(row["first_y"]) == 0.0
        assert float(row["potential"]) == pytest.approx(
            0.05 * float(row["f"]), rel=1e-15)


def test_surface_factored_only_fills_total(runner):
    result = runner.invoke(main, ["surface", "--form", "factored",
                                  "--nx", "11", "--ny", "5"])
    assert result.exit_code == 0
    rows = read_surface(result.output)
    assert all(float(row["second_x"]) == 0.0 for row in rows)
    assert any(float(row["total"]) != 0.0 for row in rows)


# ---------------------------------------------------------------------------
# payoff-table
# ---------------------------------------------------------------------------

def test_payoff_table_csv(runner):
    result = runner.invoke(main, ["payoff-table", "--k", "42", "--premium", "5",
                                  "--s-min", "40", "--s-max", "50", "--n", "11"])
    assert result.exit_code == 0
    rows = read_surface(result.output)
    assert result.output.split("\n")[0] == "s_t,holder_profit,writer_profit"
    table = {float(r["s_t"]): (float(r["holder_profit"]),
                               float(r["writer_profit"])) for r in rows}
    assert table[47.0] == (0.0, 0.0)
    assert table[40.0] == (-5.0, 5.0)
    assert table[50.0] == (3.0, -3.0)


def test_payoff_table_json_break_even(runner):
    result = runner.invoke(main, ["payoff-table", "--kind", "put", "--k", "50",
                                  "--premium", "3", "--format", "json"])
    assert result.exit_code == 0
    out = json.loads(result.output)
    assert out["break_even"] == 47.0
    assert len(out["rows"]) == 21


def test_payoff_table_validation(runner):
    result = runner.invoke(main, ["payoff-table", "--k", "42",
                                  "--s-min", "10", "--s-max", "5"])
    assert result.exit_code == 2


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("flag, value", [("--s-max", "inf"), ("--s-max", "nan"),
                                         ("--s-min", "nan"), ("--s-min", "-1"),
                                         ("--s-min", "inf"), ("--n", "1")])
def test_payoff_table_rejects_bad_range_naming_the_flag(runner, flag, value, fmt):
    # an infinite --s-max used to exit 0 with nan/inf rows, and with NaN and
    # Infinity tokens that are not valid JSON
    result = runner.invoke(main, ["payoff-table", "--k", "42", "--format", fmt,
                                  flag, value])
    assert result.exit_code == 2
    assert f"{flag} must" in result.output


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_summary(runner):
    out = run_json(runner, ["simulate", "--s0", "100", "--n-paths", "20000",
                            "--n-steps", "10", "--seed", "7"])
    assert out["model"] == "gbm"
    assert out["phi"] == 0.05  # defaults to r
    z = abs(out["s_terminal_mean"] - 100.0 * math.exp(0.05))
    assert z <= 3.0 * out["s_terminal_stderr"]


def test_simulate_mg_reports_variance(runner):
    out = run_json(runner, ["simulate", "--model", "mg", "--s0", "100",
                            "--v0", "0.04", "--zeta", "0.3", "--mu", "-0.3",
                            "--lambda", "0.02", "--rho", "-0.3",
                            "--n-paths", "2000", "--n-steps", "20"])
    assert out["v_terminal_mean"] > 0.0


def test_simulate_thread_env_cap(runner):
    out = run_json(runner, ["simulate", "--s0", "100", "--n-paths", "1000",
                            "--n-steps", "4", "--threads", "8"],
                   env={"GAUGE_HAMILTON_THREADS": "2"})
    assert out["threads"] == 2
    bad = runner.invoke(main, ["simulate", "--s0", "100"],
                        env={"GAUGE_HAMILTON_THREADS": "zero"})
    assert bad.exit_code == 2


def test_simulate_writes_artifacts(runner, tmp_path):
    slices = tmp_path / "slices.csv"
    paths = tmp_path / "paths.bin"
    out = run_json(runner, ["simulate", "--s0", "100", "--n-paths", "50",
                            "--n-steps", "4", "--seed", "3",
                            "--slices-out", str(slices),
                            "--paths-out", str(paths)])
    assert out["slices_out"] == str(slices)
    ens = read_paths_binary(paths)
    assert ens.n_paths == 50 and ens.seed == 3
    with open(slices) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 50
    assert float(rows[0]["s_last"]) == ens.s_paths[0, -1]


def test_simulate_dumps_a_seed_beyond_one_word(runner, tmp_path):
    # seeds in [2**63, 2**128) are valid Philox keys; their dump used to
    # fail with an OverflowError
    paths = tmp_path / "paths.bin"
    result = runner.invoke(main, ["simulate", "--s0", "100", "--n-paths", "20", "--n-steps", "3",
                                  "--seed", "18446744073709551616", "--paths-out", str(paths)])
    assert result.exit_code == 0, result.output
    assert read_paths_binary(paths).seed == 2 ** 64


def test_simulate_usage_error(runner):
    result = runner.invoke(main, ["simulate", "--s0", "-100"])
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# usage errors of price and the CSV tables against the hand-written writers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("args, flag", [
    (["--s0", "nan"], "--s0"),
    (["--s0", "inf"], "--s0"),
    (["--model", "mg", "--v0", "nan"], "--v0"),
    (["--model", "mg", "--v0", "inf"], "--v0"),
    (["--n-steps", "0"], "--n-steps"),
    (["--theta-scheme", "2"], "--theta-scheme"),
    (["--nx", "3"], "--nx"),
    (["--model", "mg", "--ny", "3"], "--ny"),
    # one path has no standard error: it printed "mc_stderr": Infinity
    (["--mc-paths", "1"], "--mc-paths"),
    (["--mc-paths", "-5"], "--mc-paths"),
    (["--mc-paths", "100", "--seed", "-1"], "--seed"),
    # the Philox key's limit: numpy's message, which named no flag, and exit 1
    (["--mc-paths", "10", "--seed", str(2 ** 128)], "--seed"),
])
def test_price_rejects_bad_flags_as_usage_errors(runner, args, flag):
    result = runner.invoke(main, ["price", "--s0", "100", "--k", "100", *args])
    assert result.exit_code == 2, result.output
    assert f"{flag} must" in result.output


def test_price_with_two_paths_prints_strict_json(runner):
    out = run_json(runner, ["price", "--s0", "100", "--k", "100", "--n-steps", "4",
                            "--mc-paths", "2", "--seed", "1"])
    assert math.isfinite(out["mc_stderr"])


@pytest.mark.parametrize("args, flag", [
    (["--nx", "3"], "--nx"),
    (["--ny", "2"], "--ny"),
    (["--seed", "-1"], "--seed"),
    (["--probes", "0"], "--probes"),
    # bs-limit and transform printed a vacuous "pass": true without probes
    (["--what", "bs-limit", "--probes", "0"], "--probes"),
    (["--what", "transform", "--probes", "0"], "--probes"),
])
def test_check_rejects_bad_flags_as_usage_errors(runner, args, flag):
    result = runner.invoke(main, ["check", *args])
    assert result.exit_code == 2, result.output
    assert f"{flag} must" in result.output


def test_check_gauge_overflow_is_a_usage_error(runner):
    result = runner.invoke(main, ["check", "--what", "commutator", "--omega", "800",
                                  "--nx", "5"])
    assert result.exit_code == 2, result.output
    assert "gauge exponent overflows" in result.output


@pytest.mark.parametrize("what", [*CHECKS, "all"])
@pytest.mark.parametrize("omega", ["-1", "nan", "inf"])
def test_check_rejects_bad_omega_for_every_check(runner, what, omega):
    # expansion never reads omega: the flag is checked before any check runs.
    # -1 is not bad: no check is singular there, and every record passes (it
    # used to exit 2)
    if omega == "-1":
        out = run_json(runner, ["check", "--what", what, "--omega", omega])
        assert out["pass"] and out["checks"] and all(c["pass"] for c in out["checks"])
        return
    result = runner.invoke(main, ["check", "--what", what, "--omega", omega])
    assert result.exit_code == 2, result.output
    assert f"--omega must be finite, got {omega}" in result.output


def test_martingale_rejects_non_finite_drift(runner):
    result = runner.invoke(main, ["martingale", "--mu", "nan", "--lambda", "1"])
    assert result.exit_code == 2, result.output
    assert "mu must be finite" in result.output


def test_simulate_rejects_negative_seed(runner):
    result = runner.invoke(main, ["simulate", "--s0", "100", "--n-paths", "10",
                                  "--n-steps", "2", "--seed", "-1"])
    assert result.exit_code == 2, result.output
    assert "--seed must" in result.output


def test_simulate_rejects_seed_beyond_philox_key(runner):
    result = runner.invoke(main, ["simulate", "--s0", "100", "--n-paths", "10",
                                  "--n-steps", "2", "--seed", str(2 ** 128)])
    assert result.exit_code == 2, result.output
    assert "--seed must be less than 2**128" in result.output


@pytest.mark.parametrize("flag, value", [("--y-min", "nan"), ("--x-max", "inf"),
                                         ("--x-min", "-inf"), ("--y-max", "nan")])
def test_surface_names_a_non_finite_bound(runner, flag, value):
    # --y-min nan used to report "y_max must exceed y_min"
    result = runner.invoke(main, ["surface", flag, value])
    assert result.exit_code == 2, result.output
    assert f"{flag} must be finite" in result.output


@pytest.mark.parametrize("args, term, where", [
    (["--x-max", "709", "--y-max", "-1"], "second_y", "inf at grid index (40, 17)"),
    (["--reference", "exp-x", "--x-max", "709.78"], "first_y", "nan at grid index (40, 20)"),
    (["--form", "factored", "--x-max", "709", "--y-max", "-1"], "total",
     "inf at grid index (40, 19)"),
])
def test_surface_names_the_term_whose_action_overflows(runner, args, term, where):
    # a finite state whose term action overflows exited 1 with only "grid
    # function values must be finite", naming neither the term nor the point
    result = runner.invoke(main, ["surface", *args])
    assert result.exit_code == 1, result.output
    assert result.stdout == ""
    assert result.stderr == f"error: {term} term: non-finite grid function value {where}\n"


def test_mg_price_ignores_alpha_without_vol_of_vol(runner):
    # zeta = 0: alpha = -60 made 0 * inf in the zeta terms and failed the price
    args = [*PRICE, "--model", "mg", "--nx", "41", "--ny", "21", "--n-steps", "20"]
    base = runner.invoke(main, [*args, "--alpha", "1"])
    far = runner.invoke(main, [*args, "--alpha", "-60"])
    assert base.exit_code == far.exit_code == 0
    assert far.stdout == base.stdout


SIMULATE_MG = ["simulate", "--model", "mg", "--s0", "100", "--n-paths", "100", "--n-steps", "10"]


def test_simulate_names_alpha_when_the_noise_term_overflows(runner):
    # V^alpha overflowed at the floor: numpy printed three warnings and the
    # run exited 2 naming --t; with zeta = 0 alpha still plays no part
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = runner.invoke(main, [*SIMULATE_MG, "--zeta", "0.3", "--alpha", "-300"])
        base = runner.invoke(main, [*SIMULATE_MG, "--alpha", "1"])
        far = runner.invoke(main, [*SIMULATE_MG, "--alpha", "-300"])
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert ("Error: --alpha must keep the noise term zeta V^alpha finite at v0 and at "
            "V_FLOOR = 1e-08; zeta = 0.3, alpha = -300.0\n") in result.stderr
    assert base.exit_code == far.exit_code == 0
    assert far.stdout == base.stdout


def test_price_mg_names_v0_when_the_variance_box_overflows(runner):
    # the top of the variance box, ln v0 + 2, lay above ln(max float): numpy
    # printed overflow warnings and the run exited 1 naming no flag
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = runner.invoke(main, [*PRICE, "--model", "mg", "--v0", "1.7e308", "--t", "1e-306"])
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert ("Error: --v0 must keep the top of the variance box, 711.727, below ln(max float) "
            "= 709.78\n") in result.stderr


@pytest.mark.parametrize("args", [["--s0", "1e300"], ["--s0", "0.5", "--r", "709", "--mu", "1e-3"]])
def test_simulate_refuses_a_summary_that_is_not_json(runner, args):
    # the terminal spread, and the terminal mean, overflowed: each printed
    # Infinity, which is not JSON, and exited 0
    with warnings.catch_warnings():
        # numpy still warns of the overflow in the reduction (ROADMAP item 5)
        warnings.filterwarnings("ignore", "overflow encountered", RuntimeWarning)
        result = runner.invoke(main, ["simulate", "--model", "mg", *args,
                                      "--n-paths", "50", "--n-steps", "5"])
    assert result.exit_code == 1, result.output
    assert result.stdout == ""
    assert re.fullmatch(r"error: Out of range float values are not JSON compliant(: inf)?\n",
                        result.stderr)


def surface_by_hand(grid, state, columns, total):
    """The row loop the surface command used before it wrote through
    core.write_csv, kept as the reference for its bytes."""
    out = io.StringIO()
    out.write("x,y,f," + ",".join(_TERM_COLUMNS) + ",total\n")
    for k in range(grid.n_points):
        row = [grid.xs[k], grid.ys[k], state.values[k]]
        row += [columns[name][k] for name in _TERM_COLUMNS]
        row.append(total[k])
        out.write(",".join(f"{v:.17g}" for v in row) + "\n")
    return out.getvalue()


@pytest.mark.parametrize("model, form", [("gauge", "expanded"), ("mg", "expanded"),
                                         ("bs", "expanded"), ("gauge", "factored")])
def test_surface_bytes_match_hand_written_rows(runner, model, form):
    params = ModelParams(r=0.05, sigma=0.2, zeta=0.3, mu=-0.2, lambda_=0.01, rho=-0.4)
    grid = make_grid_2d(3.5, 5.5, 9, -4.0, -1.0, 6)
    state = sample(lambda x, y: np.exp(x + y), grid)
    columns = {name: np.zeros(grid.n_points) for name in _TERM_COLUMNS}
    if form == "factored":
        total = build_gauge_hamiltonian(params, grid, form="factored").apply(state).values
    else:
        for name, op in hamiltonian_terms(params, grid, model).items():
            columns[name] = op.apply(state).values
        total = np.sum(list(columns.values()), axis=0)
    result = runner.invoke(main, ["surface", "--hamiltonian", model, "--form", form,
                                  "--zeta", "0.3", "--mu", "-0.2", "--lambda", "0.01",
                                  "--rho", "-0.4", "--nx", "9", "--ny", "6"])
    assert result.exit_code == 0
    assert result.output == surface_by_hand(grid, state, columns, total)


def test_payoff_table_csv_bytes_match_hand_written_rows(runner, tmp_path):
    contract = OptionContract("put", 42.0, 1.0, premium=5.0)
    expected = io.StringIO()
    expected.write("s_t,holder_profit,writer_profit\n")
    for s in np.linspace(0.0, 84.0, 13):
        h = profit(ProfitQuery(contract, "holder", float(s)))
        expected.write(f"{float(s):.17g},{h:.17g},{-h:.17g}\n")
    out = tmp_path / "table.csv"
    result = runner.invoke(main, ["payoff-table", "--kind", "put", "--k", "42",
                                  "--premium", "5", "--n", "13", "--output", str(out)])
    assert result.exit_code == 0
    assert out.read_text() == expected.getvalue()


# ---------------------------------------------------------------------------
# one handler: every input rule, the library's or the CLI's, exits 2 naming
# its flag; any other error of a command exits 1
# ---------------------------------------------------------------------------

PRICE = ["price", "--s0", "100", "--k", "100"]
BAD_FLAGS = [
    # price
    (["price", "--s0", "-5", "--k", "100"], "--s0 must be positive and finite, got -5.0"),
    ([*PRICE, "--n-steps", "0"], "--n-steps must be an integer >= 1, got 0"),
    ([*PRICE, "--theta-scheme", "2"], "--theta-scheme must be 0.5 or 1, got 2.0"),
    # a first-order theta between 1/2 and 1: it printed 10.44738 and exit 0
    ([*PRICE, "--theta-scheme", "0.75"], "--theta-scheme must be 0.5 or 1, got 0.75"),
    ([*PRICE, "--nx", "3"], "--nx must be an integer >= 5, got 3"),
    ([*PRICE, "--mc-paths", "1"], "--mc-paths must be 0 or at least 2, got 1"),
    ([*PRICE, "--mc-paths", "100", "--seed", "-1"], "--seed must be an integer >= 0, got -1"),
    ([*PRICE, "--model", "mg", "--v0", "-1"], "--v0 must be positive and finite, got -1.0"),
    ([*PRICE, "--model", "mg", "--ny", "3"], "--ny must be an integer >= 5, got 3"),
    # check
    (["check", "--omega", "nan"], "--omega must be finite, got nan"),
    (["check", "--nx", "3"], "--nx must be an integer >= 5, got 3"),
    (["check", "--ny", "2"], "--ny must be an integer >= 5, got 2"),
    (["check", "--probes", "0"], "--probes must be an integer >= 1, got 0"),
    (["check", "--seed", "-1"], "--seed must be an integer >= 0, got -1"),
    # payoff-table
    (["payoff-table", "--k", "42", "--s-min", "-1"],
     "--s-min must be nonnegative and finite, got -1.0"),
    (["payoff-table", "--k", "42", "--s-min", "10", "--s-max", "5"],
     "--s-max must be finite and exceed --s-min 10.0, got 5.0"),
    (["payoff-table", "--k", "42", "--n", "1"], "--n must be at least 2, got 1"),
    # the default --s-max, twice the strike, was checked before the strike:
    # these three exited 2 naming --s-max ("got -10.0", "got nan", "got inf")
    (["payoff-table", "--k", "-5"], "--k must be positive and finite, got -5.0"),
    (["payoff-table", "--k", "nan"], "--k must be positive and finite, got nan"),
    (["payoff-table", "--k", "inf"], "--k must be positive and finite, got inf"),
    # simulate
    (["simulate", "--s0", "100", "--seed", "-1"], "--seed must be an integer >= 0, got -1"),
    # finite inputs whose coefficients or box overflow: the first exited 2
    # and the other two exited 1, all with text that named no field
    (["check", "--what", "transform", "--omega", "1e200"],
     "--omega is too large: the shift's potential sigma^2 omega (1+omega)/2 theta_x^2 "
     "overflows, got 1e+200"),
    ([*PRICE, "--sigma", "1e200"], "--sigma must have a finite square, got 1e+200"),
    ([*PRICE, "--model", "mg", "--v0", "1e300"],
     "--v0 must keep the top of the price box, 5e+150, below ln(max float) = 709.78"),
    # these two exited 1 naming no field, and the third exited 0 printing the
    # terminal mean and spread as Infinity and NaN, which are not JSON
    (["check", "--what", "commutator", "--omega", "129"],
     "--omega is too large: e^(omega*theta) times the operator overflows, "
     "max |omega*theta| = 709.5"),
    (["check", "--what", "transform", "--omega", "129"],
     "--omega is too large: e^(omega*theta) times the operator overflows, "
     "max |omega*theta| = 709.5"),
    (["simulate", "--s0", "100", "--t", "1e300", "--n-paths", "100", "--n-steps", "4"],
     "--t must keep every simulated terminal price finite, got 1e+300: 100 of 100 are not"),
    # the half-width of a box lost against ln s0: these three exited 2 with
    # "x_max must exceed x_min", naming no flag
    ([*PRICE, "--sigma", "1e-200"], "--sigma must give the price box a width: its "
                                    "half-width 5e-200 is lost against ln s0 = 4.60517"),
    ([*PRICE, "--t", "1e-300"], "--sigma must give the price box a width: its "
                                "half-width 1e-150 is lost against ln s0 = 4.60517"),
    ([*PRICE, "--model", "mg", "--v0", "1e-300"], "--v0 must give the price box a width: "
                                                  "its half-width 5e-150 is lost against "
                                                  "ln s0 = 4.60517"),
    # sigma^2 underflowed: the first died with a ZeroDivisionError, the
    # second printed -Infinity
    (["gauge-martingale", "--sigma", "1e-200"],
     "--sigma must keep 2r/sigma^2 finite, got 1e-200 with r = 0.05"),
    (["gauge-martingale", "--sigma", "1e-160"],
     "--sigma must keep 2r/sigma^2 finite, got 1e-160 with r = 0.05"),
    # a root e^y = 1e600 printed as Infinity
    (["martingale", "--a", "1e-300", "--mu", "-1e300", "--lambda", "1"],
     "--a must keep every root e^y finite; a root lies at y = 1381.55"),
    # a reference state that overflows: these two exited 1 with numpy's
    # overflow warning and "non-finite sample inf", naming no flag
    (["surface", "--reference", "exp-x", "--x-max", "800"],
     "--x-max must keep the reference state finite: its largest exponent, 800, "
     "exceeds ln(max float) = 709.78"),
    (["surface", "--y-max", "800"],
     "--y-max must keep the reference state finite: its largest exponent, 805.5, "
     "exceeds ln(max float) = 709.78"),
    # a power of V that overflows: these exited 1 with numpy's warnings and
    # "operator entries must be finite", naming no flag
    ([*PRICE, "--model", "mg", "--zeta", "0.3", "--alpha", "-60"],
     "--alpha must keep the zeta terms, zeta^2 V^(2(alpha-1)) and rho zeta V^(alpha-1/2), "
     "finite on the grid; zeta = 0.3, alpha = -60.0"),
    (["surface", "--hamiltonian", "mg", "--zeta", "0.3", "--alpha", "-400"],
     "--alpha must keep the zeta terms, zeta^2 V^(2(alpha-1)) and rho zeta V^(alpha-1/2), "
     "finite on the grid; zeta = 0.3, alpha = -400.0"),
]


@pytest.mark.parametrize("args, message", BAD_FLAGS, ids=[" ".join(a) for a, _ in BAD_FLAGS])
def test_bad_flags_exit_2_naming_the_flag(runner, args, message):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert f"Error: {message}\n" in result.stderr


def test_price_checks_the_seed_before_the_pde_solve(runner, monkeypatch):
    def solve(*args, **kwargs):
        raise AssertionError("the PDE solve ran before the seed was checked")

    monkeypatch.setattr("gauge_hamilton.cli.price_bs", solve)
    result = runner.invoke(main, [*PRICE, "--mc-paths", "10", "--seed", str(2 ** 128)])
    assert result.exit_code == 2, result.output
    assert "--seed must be less than 2**128" in result.stderr


@pytest.mark.parametrize("what", [*CHECKS, "all"])
@pytest.mark.parametrize("args, flag", [(["--nx", "4"], "--nx"), (["--ny", "4"], "--ny"),
                                        (["--probes", "0"], "--probes"),
                                        (["--seed", "-1"], "--seed")])
def test_check_validates_every_setting_whichever_checks_run(runner, what, args, flag):
    # volcoeff reads no probes and commutator no ny: each is still refused
    result = runner.invoke(main, ["check", "--what", what, *args])
    assert result.exit_code == 2, result.output
    assert f"Error: {flag} must be an integer" in result.stderr


def test_a_value_error_that_breaks_no_input_rule_exits_1(runner, monkeypatch):
    def sums(params):
        raise ValueError("the sums failed")

    monkeypatch.setattr("gauge_hamilton.cli.gauge_martingale_sums", sums)
    result = runner.invoke(main, ["gauge-martingale"])
    assert result.exit_code == 1, result.output
    assert result.stderr == "error: the sums failed\n"
