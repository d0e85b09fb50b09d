"""End-to-end runs of the `gauge-hamilton` command line interface."""

import csv
import io
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from gauge_hamilton import (
    ModelParams,
    OptionContract,
    ProfitQuery,
    build_gauge_hamiltonian,
    bs_closed_form,
    hamiltonian_terms,
    make_grid_2d,
    profit,
    read_paths_binary,
    sample,
)
from gauge_hamilton.cli import _TERM_COLUMNS, main
from gauge_hamilton.gauge_analysis import CHECKS


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


def test_price_bs_strike_outside_the_box_fails(runner):
    # the strike lies beyond the default 5 sigma sqrt(T) box, where the
    # far-field value is negative; the price used to print as -0.0272
    result = runner.invoke(main, ["price", "--s0", "100", "--k", "200",
                                  "--sigma", "0.05", "--t", "3"])
    assert result.exit_code == 1, result.output
    assert "no-arbitrage box [0, s0 = 100.0]" in result.output


def test_price_mg_divergence_fails(runner):
    # alpha = 0.5 on the default grid diverges; it used to print 5.8e84
    result = runner.invoke(main, ["price", "--model", "mg", "--s0", "100", "--k", "100",
                                  "--v0", "0.04", "--zeta", "0.5", "--mu", "-0.2",
                                  "--lambda", "0.01", "--rho", "-0.5", "--alpha", "0.5"])
    assert result.exit_code == 1, result.output
    assert "no-arbitrage box [0, s0 = 100.0]" in result.output


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


def test_martingale_rejects_non_finite_drift(runner):
    result = runner.invoke(main, ["martingale", "--mu", "nan", "--lambda", "1"])
    assert result.exit_code == 2, result.output
    assert "mu must be finite" in result.output


def test_simulate_rejects_negative_seed(runner):
    result = runner.invoke(main, ["simulate", "--s0", "100", "--n-paths", "10",
                                  "--n-steps", "2", "--seed", "-1"])
    assert result.exit_code == 2, result.output
    assert "--seed must" in result.output


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
