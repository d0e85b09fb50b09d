"""Command line interface.

Every command prints JSON (sorted keys) or CSV.  Exit codes:

    0  success
    1  a solve or check failed
    2  an input rule is broken, in the library or in the CLI; the message
       names the flag

A JSON file passed via --config supplies defaults for the invoked
subcommand; explicit flags still win.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import asdict

import click
import numpy as np

from .core import (EXP_LIMIT, InputError, ModelParams, check_nonnegative, make_grid_2d, require,
                   sample, text_output, write_csv)
from .gauge_analysis import (_CHECK_GRID, _CHECK_X, _CHECK_Y, CHECKS, _run_checks,
                             gauge_martingale_sums, martingale_roots,
                             mg_martingale_report)
from .montecarlo import _check_seed, mc_price, simulate_gbm, simulate_mg
from .operators import _TERM_STENCILS, build_gauge_hamiltonian, hamiltonian_terms
from .payoff import ProfitQuery, break_even, profit
from .pricing import EvolveError, OptionContract, bs_closed_form, price_bs, price_mg

THREADS_ENV = "GAUGE_HAMILTON_THREADS"


def _echo_json(data, file=None) -> None:
    click.echo(json.dumps(data, indent=2, sort_keys=True, allow_nan=False), file=file)


def _capped_threads(threads: int) -> int:
    cap = os.environ.get(THREADS_ENV)
    if cap is None:
        return threads
    require(cap.strip().isdecimal() and int(cap) >= 1, THREADS_ENV,
            f"must be an integer >= 1, got {cap!r}")
    return min(threads, int(cap))


def _output(output):
    return text_output(sys.stdout if output in (None, "-") else output)


def _params(command: click.Command) -> dict:
    """Each parameter of ``command`` under its name (strike) and under each of
    its option spellings, dashes as underscores (k, n_steps)."""
    out = {}
    for param in command.params:
        out[param.name] = param
        out.update((opt.lstrip("-").replace("-", "_"), param) for opt in param.opts)
    return out


class _Command(click.Command):
    """A subcommand with the one error handler: an InputError exits 2 naming
    its field's flag; a failed solve or any other ValueError, 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except InputError as exc:
            param = _params(self).get(exc.field)
            raise click.UsageError(f"{param.opts[0] if param else exc.field} {exc.rule}",
                                   ctx) from None
        except (EvolveError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)


@click.group()
@click.option("--config", "config_path",
              type=click.Path(exists=True, dir_okay=False),
              help="JSON file with default option values for the subcommand.")
@click.pass_context
def main(ctx, config_path):
    """Hamiltonian option pricing toolkit."""
    if config_path is None:
        return
    with open(config_path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise click.UsageError(f"config file is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise click.UsageError("config file must hold a JSON object")
    sub = ctx.invoked_subcommand
    if sub is None:
        return
    # accept both option spellings (--n-steps) and parameter names (n_steps)
    params = _params(main.get_command(ctx, sub))
    overrides = {}
    for key, value in data.items():
        norm = str(key).replace("-", "_")
        if norm not in params:
            raise click.UsageError(f"unknown config key {key!r} for command {sub!r}")
        overrides[params[norm].name] = value
    ctx.default_map = {sub: overrides}


main.command_class = _Command   # every subcommand below is one

# the model flags by parameter name, with the command line's defaults
_MODEL_FLAGS = {"r": 0.05, "sigma": 0.2, "lambda_": 0.0, "mu": 0.0, "zeta": 0.0,
                "alpha": 1.0, "rho": 0.0}


def _model_flags(*names):
    """Declare the named model flags, in the order named; a command takes them
    as ``**flags``, ready for ModelParams."""
    def declare(command):
        for name in reversed(names):   # click lists the last one applied first
            command = click.option(f"--{name.rstrip('_')}", name, type=float,
                                   default=_MODEL_FLAGS[name], show_default=True)(command)
        return command
    return declare


def _mc_summary(what: str, summarize, s0, phi, maturity) -> tuple:
    """``summarize()``, a Monte Carlo mean and its standard error (None for
    one path), computed with numpy's overflow warnings off; an InputError
    names s0, with phi and T, unless both are finite."""
    with np.errstate(over="ignore", invalid="ignore"):   # refused below
        mean, stderr = summarize()
    require(math.isfinite(mean) and math.isfinite(stderr or 0.0), "s0",
            f"must keep {what} and standard error finite, got {s0} with phi = {phi} "
            f"and T = {maturity}")
    return mean, stderr


# ---------------------------------------------------------------------------
# price
# ---------------------------------------------------------------------------

@main.command()
@click.option("--model", type=click.Choice(["bs", "mg"]), default="bs", show_default=True)
@click.option("--kind", type=click.Choice(["call", "put"]), default="call", show_default=True)
@click.option("--s0", type=float, required=True, help="Spot price.")
@click.option("--k", "strike", type=float, required=True, help="Strike.")
@click.option("--t", "maturity", type=float, default=1.0, show_default=True,
              help="Maturity in years.")
@_model_flags(*_MODEL_FLAGS)
@click.option("--v0", type=float, default=0.04, show_default=True,
              help="Initial variance (mg only).")
@click.option("--nx", type=int, help="Price-axis grid points; default: the pricer's.")
@click.option("--ny", type=int, help="Variance-axis grid points (mg only); default: the pricer's.")
@click.option("--n-steps", type=int, default=200, show_default=True)
@click.option("--theta-scheme", type=float, default=0.5, show_default=True,
              help="0.5: Crank-Nicolson (Craig-Sneyd with --model mg) after two fully "
                   "implicit steps; 1: fully implicit (Douglas with --model mg).")
@click.option("--mc-paths", type=int, default=0, show_default=True,
              help="If positive, add a Monte Carlo estimate on this many paths.")
@click.option("--seed", type=int, default=0, show_default=True)
def price(model, kind, s0, strike, maturity, v0, nx, ny, n_steps, theta_scheme, mc_paths,
          seed, **flags):
    """Price a European option by backward evolution."""
    r = flags["r"]
    params = ModelParams(**flags, phi=r)
    contract = OptionContract(kind, strike, maturity)
    require(mc_paths == 0 or mc_paths >= 2, "mc_paths", f"must be 0 or at least 2, got {mc_paths}")
    _check_seed(seed)   # before the PDE solve, not after it
    out = {"model": model, "kind": kind, "s0": s0, "strike": strike,
           "maturity": maturity, "r": r}
    # the grid sizes given; the pricers' own stand for the rest
    sizes = {name: n for name, n in (("nx", nx), ("ny", ny)) if n is not None}
    if model == "bs":
        sizes.pop("ny", None)   # the 1D box has no variance axis
        pde = price_bs(params, contract, s0, n_steps, theta_scheme, **sizes)
        closed = bs_closed_form(params, contract, s0)
        out.update(sigma=flags["sigma"], pde_price=pde, closed_form=closed,
                   rel_err=abs(pde - closed) / max(abs(closed), 1e-300))
    else:
        pde = price_mg(params, contract, s0, v0, n_steps, theta_scheme, **sizes)
        out.update(v0=v0, pde_price=pde)
    if mc_paths > 0:
        ens = (simulate_gbm(params, s0, maturity, n_steps, mc_paths, seed) if model == "bs"
               else simulate_mg(params, s0, v0, maturity, n_steps, mc_paths, seed))
        est, se = _mc_summary("the discounted payoff's mean", lambda: mc_price(ens, contract, r),
                              s0, ens.phi, maturity)
        out.update(mc_price=est, mc_stderr=se, mc_paths=mc_paths, seed=seed)
    _echo_json(out)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

@main.command()
@click.option("--what", type=click.Choice([*CHECKS, "all"]),
              default="all", show_default=True)
@click.option("--omega", type=float, default=1.0, show_default=True)
@_model_flags("sigma", "r")
def check(what, omega, **flags):
    """Run the structural consistency checks and report pass/fail."""
    checks = _run_checks(what, ModelParams(**flags), omega)
    all_pass = all(c["pass"] for c in checks)
    _echo_json({"checks": checks, "pass": all_pass})
    if not all_pass:
        sys.exit(1)


# ---------------------------------------------------------------------------
# martingale conditions
# ---------------------------------------------------------------------------

@main.command()
@click.option("--mu", type=float, required=True, help="Multiplicative variance drift.")
@click.option("--lambda", "lambda_", type=float, required=True,
              help="Additive variance drift.")
@click.option("--a", "a_coeff", type=float, default=1.0, show_default=True,
              help="Leading coefficient of the equilibrium quadratic in e^y "
                   "(use 1.5 for the convention with half the vol-of-vol term).")
@click.option("--report-grid/--no-report-grid", default=False,
              help="Also evaluate the discrete residual of e^{x+y} on a grid.")
@click.option("--zeta", type=float, default=1.0, show_default=True,
              help="Vol-of-vol used by --report-grid.")
@click.option("--alpha", type=float, default=0.5, show_default=True,
              help="Variance exponent used by --report-grid.")
@click.option("--rho", type=float, default=0.0, show_default=True,
              help="Correlation used by --report-grid.")
def martingale(mu, lambda_, a_coeff, report_grid, zeta, alpha, rho):
    """Equilibrium variances where e^{x+y} is a martingale state."""
    out = asdict(martingale_roots(a_coeff, mu, lambda_))
    if report_grid:
        params = ModelParams(lambda_=lambda_, mu=mu, zeta=zeta, alpha=alpha, rho=rho)
        out["report"] = asdict(mg_martingale_report(params, _CHECK_GRID))
    _echo_json(out)


@main.command("gauge-martingale")
@_model_flags("r", "sigma")
def gauge_martingale(**flags):
    """Exponent sums annihilated by the constant-volatility gauge Hamiltonian."""
    sums = gauge_martingale_sums(ModelParams(**flags))
    _echo_json({**flags, "sums": list(sums)})


# ---------------------------------------------------------------------------
# surface
# ---------------------------------------------------------------------------

_TERM_COLUMNS = (*_TERM_STENCILS, "potential")


@main.command()
@click.option("--hamiltonian", "model", type=click.Choice(["bs", "mg", "gauge"]),
              default="gauge", show_default=True)
@click.option("--reference", type=click.Choice(["exp-x", "exp-xy"]),
              default="exp-xy", show_default=True,
              help="State the terms are applied to.")
@click.option("--sigma-mode", type=click.Choice(["local", "constant"]),
              default="local", show_default=True,
              help="Gauge volatility: e^y pointwise or the constant sigma.")
@click.option("--form", type=click.Choice(["expanded", "factored"]),
              default="expanded", show_default=True,
              help="Factored only fills the total column (it has no terms).")
@_model_flags(*_MODEL_FLAGS)
@click.option("--x-min", type=float, default=_CHECK_X[0], show_default=True)
@click.option("--x-max", type=float, default=_CHECK_X[1], show_default=True)
@click.option("--nx", type=int, default=41, show_default=True)
@click.option("--y-min", type=float, default=_CHECK_Y[0], show_default=True)
@click.option("--y-max", type=float, default=_CHECK_Y[1], show_default=True)
@click.option("--ny", type=int, default=21, show_default=True)
@click.option("--output", default="-", show_default=True,
              help="CSV path, or - for stdout.")
def surface(model, reference, sigma_mode, form, x_min, x_max, nx, y_min, y_max, ny, output,
            **flags):
    """Tabulate the action of each Hamiltonian term on a reference state."""
    params = ModelParams(**flags, sigma_local=(sigma_mode == "local"))
    grid = make_grid_2d(x_min, x_max, nx, y_min, y_max, ny)
    top = x_max if reference == "exp-x" else x_max + y_max   # the state's largest exponent
    require(top <= EXP_LIMIT, "x_max" if x_max > EXP_LIMIT else "y_max",
            f"must keep the reference state finite: its largest exponent, {top:g}, "
            f"exceeds ln(max float) = {EXP_LIMIT:.2f}")
    if reference == "exp-x":
        state = sample(lambda x, y: np.exp(x), grid)
    else:
        state = sample(lambda x, y: np.exp(x + y), grid)
    ops = ({"total": build_gauge_hamiltonian(params, grid, form="factored")}
           if model == "gauge" and form == "factored" else hamiltonian_terms(params, grid, model))
    columns = {name: np.zeros(grid.n_points) for name in _TERM_COLUMNS}
    for name, op in ops.items():
        try:
            columns[name] = op.apply(state).values
        except ValueError as exc:   # an action that overflows: name the term
            raise ValueError(f"{name} term: {exc}") from None
    total = columns.pop("total") if "total" in columns else np.sum(list(columns.values()), axis=0)
    with _output(output) as fh:
        write_csv(fh, ("x", "y", "f", *_TERM_COLUMNS, "total"),
                  (grid.xs, grid.ys, state.values,
                   *(columns[name] for name in _TERM_COLUMNS), total))


# ---------------------------------------------------------------------------
# payoff-table
# ---------------------------------------------------------------------------

@main.command("payoff-table")
@click.option("--kind", type=click.Choice(["call", "put"]), default="call",
              show_default=True)
@click.option("--k", "strike", type=float, required=True)
@click.option("--premium", type=float, default=0.0, show_default=True)
@click.option("--s-min", type=float, default=0.0, show_default=True)
@click.option("--s-max", type=float, default=None,
              help="Defaults to twice the strike.")
@click.option("--n", type=int, default=21, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
@click.option("--output", default="-", show_default=True)
def payoff_table(kind, strike, premium, s_min, s_max, n, fmt, output):
    """Holder and writer profit at expiry over a range of terminal prices."""
    contract = OptionContract(kind, strike, maturity=1.0, premium=premium)   # checks the strike
    if s_max is None:
        s_max = 2.0 * strike
    check_nonnegative("s_min", s_min)
    require(math.isfinite(s_max) and s_max > s_min, "s_max",
            f"must be finite and exceed --s-min {s_min}, got {s_max}")
    require(n >= 2, "n", f"must be at least 2, got {n}")
    s_values = np.linspace(s_min, s_max, n)
    rows = []
    for s in s_values:
        holder = profit(ProfitQuery(contract, "holder", float(s)))
        rows.append((float(s), holder, -holder))
    with _output(output) as fh:
        if fmt == "csv":
            write_csv(fh, ("s_t", "holder_profit", "writer_profit"), zip(*rows))
        else:
            try:
                be = break_even(contract)
            except ValueError:
                be = None
            _echo_json({
                "kind": kind, "strike": strike, "premium": premium,
                "break_even": be,
                "rows": [{"s_t": s, "holder_profit": h, "writer_profit": w}
                         for s, h, w in rows],
            }, file=fh)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

@main.command()
@click.option("--model", type=click.Choice(["gbm", "mg"]), default="gbm",
              show_default=True)
@click.option("--s0", type=float, required=True)
@click.option("--v0", type=float, default=0.04, show_default=True)
@click.option("--t", "maturity", type=float, default=1.0, show_default=True)
@_model_flags(*_MODEL_FLAGS)
@click.option("--phi", type=float, default=None,
              help="Real-world drift; defaults to r (risk-neutral).")
@click.option("--n-paths", type=int, default=10000, show_default=True)
@click.option("--n-steps", type=int, default=100, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--threads", type=int, default=1, show_default=True,
              help=f"Worker threads; capped by ${THREADS_ENV}.")
@click.option("--slices-out", type=click.Path(dir_okay=False),
              help="Write first/last slices of each path as CSV.")
@click.option("--paths-out", type=click.Path(dir_okay=False),
              help="Write the full ensemble as a binary dump.")
def simulate(model, s0, v0, maturity, phi, n_paths, n_steps, seed, threads, slices_out,
             paths_out, **flags):
    """Simulate price paths and summarize the terminal distribution."""
    threads = _capped_threads(threads)
    params = ModelParams(**flags, phi=flags["r"] if phi is None else phi)
    if model == "gbm":
        ens = simulate_gbm(params, s0, maturity, n_steps, n_paths, seed, threads=threads)
    else:
        ens = simulate_mg(params, s0, v0, maturity, n_steps, n_paths, seed, threads=threads)
    terminal = ens.s_paths[:, -1]
    mean, stderr = _mc_summary(
        "the terminal price's mean",
        lambda: (float(terminal.mean()),
                 float(terminal.std(ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else None),
        s0, ens.phi, maturity)
    with np.errstate(over="ignore", invalid="ignore"):   # refused below
        v_mean = None if ens.v_paths is None else float(ens.v_paths[:, -1].mean())
    require(math.isfinite(v_mean or 0.0), "v0",
            f"must keep the terminal variance's mean finite, got {v0} with lambda = "
            f"{params.lambda_}, mu = {params.mu} and T = {maturity}")
    out = {
        "model": model, "n_paths": n_paths, "n_steps": n_steps, "seed": seed,
        "threads": threads, "maturity": maturity, "phi": ens.phi,
        "s_terminal_mean": mean, "s_terminal_stderr": stderr,
    }
    if v_mean is not None:
        out["v_terminal_mean"] = v_mean
    if slices_out:
        ens.slices_to_csv(slices_out)
        out["slices_out"] = slices_out
    if paths_out:
        ens.to_binary(paths_out)
        out["paths_out"] = paths_out
    _echo_json(out)


if __name__ == "__main__":
    main()
