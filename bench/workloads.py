"""The three benchmark workloads: inputs from a seed, one request, its checks.

Each workload object exposes

    unit(tracer)        prices one option, to warm up
    request(tracer)     prices the next request and returns its outputs
    check(outputs)      failure messages for that request (empty when correct)
    check_traced(tracer)  further failure messages after a traced request
    options_per_request, state_steps_per_option and price_abs_err_max().

Every convention the library lets a caller choose is passed explicitly from
CONVENTIONS, so a later change of a library default cannot move the
benchmark silently.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gauge_hamilton import core, montecarlo, operators, pricing

CONVENTIONS = {
    "vol_vol_half": True,          # the generator the path simulator integrates
    "sigma_local": True,
    "theta_scheme": 0.5,
    "rannacher": 2,
    "policy": "one-sided-interior",
    "boundary": "FarFieldBoundary",
}

N_REF_SEEDS = 16                   # stored fine-grid scenarios; seed -> seed % 16
MONEYNESS = (0.9, 1.0, 1.1)        # ladder strikes as multiples of s0
REFERENCES = Path(__file__).resolve().parent / "references.json"

MC_Z_TOL = 4.0                     # stated bound on |MC - fine-grid PDE| / stderr


@dataclass(frozen=True)
class Sizes:
    bs_n: int = 401
    bs_steps: int = 200
    mg_nx: int = 201
    mg_ny: int = 81
    mg_steps: int = 150
    mc_paths: int = 60_000
    mc_steps: int = 150
    mc_threads: int = 2
    # stated tolerances of the per-request checks on these grids
    bs_tol: float = 5e-3           # |PDE - closed form|
    mg_ref_tol: float = 1e-2       # |PDE - fine-grid reference|
    mg_parity_tol: float = 1e-3    # |C - P - (s0 - K e^{-rT})|

    def refined(self) -> "Sizes":
        """2x refinement of the MG grid: twice the intervals on each axis
        (so the coarse nodes are kept) and twice the time steps."""
        return Sizes(mg_nx=2 * self.mg_nx - 1, mg_ny=2 * self.mg_ny - 1,
                     mg_steps=2 * self.mg_steps)


FULL = Sizes()
TINY = Sizes(bs_n=41, bs_steps=20, mg_nx=21, mg_ny=11, mg_steps=12,
             mc_paths=2000, mc_steps=12, bs_tol=0.5, mg_ref_tol=0.5, mg_parity_tol=0.05)


def _around(rng, centre: float, rel: float = 0.02) -> float:
    """A draw within +-rel of centre.  The ranges are narrow on purpose: the
    price error and the Monte Carlo standard error scale with s0, vol and
    maturity, and wide draws would make them differ from seed to seed more
    than the bound a regression is judged by."""
    return round(centre * (1.0 + rel * rng.uniform(-1.0, 1.0)), 6)


def mg_scenario(ref_seed: int) -> dict:
    """Merton-Garman model, spot, variance, maturity and ladder strikes."""
    rng = np.random.default_rng([ref_seed, 2])
    r = _around(rng, 0.03)
    params = {"r": r, "phi": r, "zeta": _around(rng, 0.4), "mu": _around(rng, -0.5),
              "lambda_": _around(rng, 0.01), "rho": _around(rng, -0.5), "alpha": 1.0}
    s0 = _around(rng, 100.0)
    return {"params": params, "s0": s0, "v0": _around(rng, 0.04),
            "maturity": _around(rng, 1.0),
            "strikes": [round(m * s0, 6) for m in MONEYNESS]}


def model_params(params: dict) -> core.ModelParams:
    return core.ModelParams(**params, vol_vol_half=CONVENTIONS["vol_vol_half"],
                            sigma_local=CONVENTIONS["sigma_local"])


def price_1d(p, contract, s0, sizes, tracer) -> float:
    with tracer.span("option"):
        grid = core.default_grid_1d(s0, p.sigma, contract.maturity, n=sizes.bs_n)
        with tracer.span("operators.build"):
            h = operators.build_bs_hamiltonian(p, grid, policy=CONVENTIONS["policy"])
        tracer.record_nnz(h)
        surface = _evolve(h, contract, grid, p.r, sizes.bs_steps, tracer)
        return surface.interpolate(math.log(s0))


def price_2d(p, contract, s0, v0, sizes, tracer) -> float:
    with tracer.span("option"):
        grid = core.default_grid_2d(s0, v0, contract.maturity,
                                    nx=sizes.mg_nx, ny=sizes.mg_ny)
        with tracer.span("operators.build"):
            h = operators.build_mg_hamiltonian(p, grid, policy=CONVENTIONS["policy"])
        tracer.record_nnz(h)
        surface = _evolve(h, contract, grid, p.r, sizes.mg_steps, tracer)
        return surface.interpolate(math.log(s0), math.log(v0))


def _evolve(h, contract, grid, rate, n_steps, tracer):
    with tracer.span("pricing.evolve"):
        return pricing.evolve(h, pricing.terminal_payoff(contract, grid),
                              contract.maturity, n_steps,
                              theta_scheme=CONVENTIONS["theta_scheme"],
                              boundary=pricing.FarFieldBoundary(contract, rate),
                              rannacher=CONVENTIONS["rannacher"])


def ladder_contracts(scenario: dict) -> list:
    """A call and a put at each strike of the scenario, in that order."""
    return [pricing.OptionContract(kind, k, scenario["maturity"])
            for k in scenario["strikes"] for kind in ("call", "put")]


def price_ladder(p, contracts, s0, v0, sizes, tracer) -> list[float]:
    """Prices of a strike ladder that shares one model, grid and maturity.

    This is the one place the benchmark prices a ladder.  It prices option
    by option, because the library has no ladder entry point that takes
    every convention flag.  A library change that batches a ladder, or that
    acts only inside price_mg or solve_mg, shows in this benchmark only once
    this function calls the new entry point; that edit is a benchmark-only
    change, measured for a new baseline before the library change."""
    return [price_2d(p, c, s0, v0, sizes, tracer) for c in contracts]


def mg_reference_prices(scenario: dict, sizes: Sizes, tracer) -> list[list]:
    """[kind, strike, price] for every ladder option on the given grid."""
    contracts = ladder_contracts(scenario)
    prices = price_ladder(model_params(scenario["params"]), contracts,
                          scenario["s0"], scenario["v0"], sizes, tracer)
    return [[c.kind, c.strike, price] for c, price in zip(contracts, prices)]


class MissingReference(RuntimeError):
    pass


def read_references() -> dict:
    if not REFERENCES.exists():
        return {"conventions": CONVENTIONS, "seeds": {}}
    with open(REFERENCES) as fh:
        return json.load(fh)


def load_references(ref_seed: int, sizes: Sizes) -> tuple[dict, list[list]]:
    """Scenario and fine-grid prices for a reference seed; raises
    MissingReference unless they were built for exactly these inputs."""
    scenario = mg_scenario(ref_seed)
    data = read_references()
    entry = data["seeds"].get(str(ref_seed))
    refined = sizes.refined()
    rebuild = f"build it with: python3 bench/references.py --seed {ref_seed}"
    if entry is None:
        raise MissingReference(
            f"no fine-grid reference for reference seed {ref_seed} in {REFERENCES}; {rebuild}")
    if (entry["scenario"] != scenario
            or entry["grid"] != [refined.mg_nx, refined.mg_ny, refined.mg_steps]
            or data["conventions"] != CONVENTIONS):
        raise MissingReference(
            f"the reference for reference seed {ref_seed} in {REFERENCES} was built "
            f"for other inputs, grid or conventions; {rebuild}")
    return scenario, entry["prices"]


class Workload:
    """What the runner needs of every workload."""

    options_per_request = 1
    state_steps_per_option = 1

    def __init__(self):
        self.errors: list[float] = []   # one per checked price

    def price_abs_err_max(self) -> float:
        return max(self.errors)

    def check_traced(self, tracer) -> list[str]:
        """Extra checks that only a traced request makes."""
        return []


class BsQuotes(Workload):
    """1D quotes across strikes and maturities; the closed form is the reference.

    Requests cycle through the quote list in order.
    """

    def __init__(self, seed: int, sizes: Sizes):
        super().__init__()
        rng = np.random.default_rng([seed, 1])
        self.sizes = sizes
        self.s0 = _around(rng, 100.0)
        self.params = core.ModelParams(r=_around(rng, 0.03), sigma=_around(rng, 0.2),
                                       vol_vol_half=CONVENTIONS["vol_vol_half"],
                                       sigma_local=CONVENTIONS["sigma_local"])
        stretch = _around(rng, 1.0)
        self.quotes = []
        for maturity in (0.25, 0.5, 1.0, 2.0):
            for m in np.linspace(0.8, 1.2, 9):
                for kind in ("call", "put"):
                    c = pricing.OptionContract(kind, round(self.s0 * float(m), 6),
                                               maturity * stretch)
                    self.quotes.append((c, pricing.bs_closed_form(self.params, c, self.s0)))
        self.state_steps_per_option = sizes.bs_n * sizes.bs_steps
        self.next_index = 0
        self.current = None

    def _price(self, c, tracer):
        return price_1d(self.params, c, self.s0, self.sizes, tracer)

    def unit(self, tracer):
        return self._price(self.quotes[0][0], tracer)

    def request(self, tracer) -> list[float]:
        self.current = self.quotes[self.next_index % len(self.quotes)]
        self.next_index += 1
        return [self._price(self.current[0], tracer)]

    def check(self, prices) -> list[str]:
        c, ref = self.current
        err = abs(prices[0] - ref)
        self.errors.append(err)
        if not err <= self.sizes.bs_tol:
            return [f"{c.kind} K={c.strike} T={c.maturity}: PDE {prices[0]:.6f} "
                    f"vs closed form {ref:.6f} (tol {self.sizes.bs_tol})"]
        return []

    def describe(self) -> dict:
        return {"s0": self.s0, "r": self.params.r, "sigma": self.params.sigma,
                "n_quotes": len(self.quotes), "grid_points": self.sizes.bs_n,
                "n_steps": self.sizes.bs_steps}


class MgLadder(Workload):
    """Strike ladders: a call and a put at each strike on one shared grid."""

    def __init__(self, scenario: dict, references: list[list], sizes: Sizes):
        super().__init__()
        self.scenario = scenario
        self.references = references
        self.sizes = sizes
        self.params = model_params(scenario["params"])
        self.contracts = ladder_contracts(scenario)
        self.options_per_request = len(self.contracts)
        self.state_steps_per_option = sizes.mg_nx * sizes.mg_ny * sizes.mg_steps

    def _price(self, contracts, tracer) -> list[float]:
        return price_ladder(self.params, contracts, self.scenario["s0"],
                            self.scenario["v0"], self.sizes, tracer)

    def unit(self, tracer):
        return self._price(self.contracts[:1], tracer)[0]

    def request(self, tracer) -> list[float]:
        return self._price(self.contracts, tracer)

    def check(self, prices) -> list[str]:
        s0, r, t = self.scenario["s0"], self.params.r, self.scenario["maturity"]
        tol, parity_tol = self.sizes.mg_ref_tol, self.sizes.mg_parity_tol
        failures = []
        for c, price, (kind, k, ref) in zip(self.contracts, prices, self.references):
            err = abs(price - ref)
            self.errors.append(err)
            if kind != c.kind or k != c.strike or not err <= tol:
                failures.append(f"{c.kind} K={c.strike}: PDE {price:.6f} vs "
                                f"reference {kind} K={k} {ref:.6f} (tol {tol})")
        for i in range(0, len(prices), 2):
            k = self.contracts[i].strike
            gap = prices[i] - prices[i + 1] - (s0 - k * math.exp(-r * t))
            if not abs(gap) <= parity_tol:
                failures.append(f"K={k}: put-call parity off by {gap:.3g} "
                                f"(tol {parity_tol})")
        return failures

    def describe(self) -> dict:
        return {**self.scenario, "grid": [self.sizes.mg_nx, self.sizes.mg_ny],
                "n_steps": self.sizes.mg_steps}


class McPaths(Workload):
    """simulate_mg then mc_price of the at-the-money call of the scenario.

    The path seed is the run seed, so every request of a run repeats the same
    simulation; each must reproduce the first price bit for bit.
    """

    def __init__(self, scenario: dict, references: list[list], sizes: Sizes,
                 path_seed: int):
        super().__init__()
        self.scenario = scenario
        self.sizes = sizes
        self.path_seed = path_seed
        self.params = model_params(scenario["params"])
        k = scenario["strikes"][len(scenario["strikes"]) // 2]
        self.contract = pricing.OptionContract("call", k, scenario["maturity"])
        self.reference = next(p for kind, kk, p in references
                              if kind == "call" and kk == k)
        self.state_steps_per_option = sizes.mc_paths * sizes.mc_steps
        self.first_price = None
        self.z_scores: list[float] = []

    def simulate(self, threads: int):
        sc, sz = self.scenario, self.sizes
        return montecarlo.simulate_mg(self.params, sc["s0"], sc["v0"], sc["maturity"],
                                      sz.mc_steps, sz.mc_paths, seed=self.path_seed,
                                      threads=threads)

    def unit(self, tracer):
        return self.request(tracer)[0]

    def request(self, tracer) -> list[float]:
        with tracer.span("option"):
            with tracer.span("montecarlo.simulate"):
                ens = self.simulate(self.sizes.mc_threads)
            tracer.record_paths(ens)
            with tracer.span("montecarlo.mc_price"):
                price, se = montecarlo.mc_price(ens, self.contract, self.params.r)
            tracer.keep_terminal(ens)
        return [price, se]

    def check(self, prices) -> list[str]:
        price, se = prices
        s0, r = self.scenario["s0"], self.params.r
        pv_k = self.contract.strike * math.exp(-r * self.contract.maturity)
        z = (price - self.reference) / se
        self.errors.append(se)      # the error scale of a Monte Carlo price
        self.z_scores.append(z)
        failures = []
        if not max(s0 - pv_k, 0.0) <= price <= s0:
            failures.append(f"MC call {price:.6f} outside no-arbitrage bounds "
                            f"[{max(s0 - pv_k, 0.0):.6f}, {s0}]")
        if not abs(z) <= MC_Z_TOL:
            failures.append(f"MC call {price:.6f} +- {se:.6f} is {z:.2f} standard "
                            f"errors from the fine-grid PDE {self.reference:.6f} "
                            f"(tol {MC_Z_TOL})")
        if self.first_price is None:
            self.first_price = price
        elif price != self.first_price:
            failures.append(f"same seed gave {price!r} after {self.first_price!r}")
        return failures

    def check_traced(self, tracer) -> list[str]:
        """Repeat the traced request's simulation on one thread; the terminal
        slice must be bitwise equal to the multi-threaded one."""
        with tracer.span("montecarlo.simulate_1thread"):
            ens = self.simulate(1)
        s_last, v_last = tracer.terminal
        same = (s_last.tobytes() == ens.s_paths[:, -1].tobytes()
                and v_last.tobytes() == ens.v_paths[:, -1].tobytes())
        if same:
            return []
        return [f"terminal slice at threads=1 differs from threads={self.sizes.mc_threads}"]

    def describe(self) -> dict:
        return {**self.scenario, "strike": self.contract.strike,
                "reference": self.reference, "path_seed": self.path_seed,
                "n_paths": self.sizes.mc_paths, "n_steps": self.sizes.mc_steps,
                "threads": self.sizes.mc_threads}
