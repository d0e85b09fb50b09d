"""Path simulation, pricing by simulation, hedging, and implied fields."""

import io
import math
import sys
import threading
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
from scipy.special import ndtr

from gauge_hamilton import (
    InputError,
    ModelParams,
    OptionContract,
    PathEnsemble,
    PriceSurface,
    beta_field,
    build_mg_hamiltonian,
    bs_closed_form,
    delta_hedge_test,
    make_grid_1d,
    make_grid_2d,
    mc_price,
    read_paths_binary,
    simulate_gbm,
    simulate_mg,
    solve_mg,
)
from gauge_hamilton.montecarlo import (_MAGIC, _WRITE_CHUNK, BLOCK, V_FLOOR, _block_rng,
                                       _blocks)

RN = ModelParams(r=0.05, sigma=0.2, phi=0.05)  # risk-neutral drift
CALL = OptionContract("call", 100.0, 1.0)


# ---------------------------------------------------------------------------
# noise construction
# ---------------------------------------------------------------------------

def mg_noise(rho, n_paths, seed):
    """The two normals of simulate_mg's one step, read back from the paths:
    with alpha = 0, lambda = mu = 0 and a small zeta, V1 = V0 + zeta z2
    stays far from its floor, and ln S1 = ln S0 - V0/2 + sqrt(V0) z1."""
    p = ModelParams(zeta=0.005, alpha=0.0, rho=rho)
    ens = simulate_mg(p, 100.0, 0.04, 1.0, 1, n_paths, seed)
    assert ens.v_paths.min() > 0.01
    z1 = (np.log(ens.s_paths[:, 1]) - math.log(100.0) + 0.02) / 0.2
    z2 = (ens.v_paths[:, 1] - 0.04) / 0.005
    return z1, z2


def test_correlated_normals_statistics():
    # simulate_mg's correlated pair (z1, rho z1 + sqrt(1 - rho^2) z2), read off its paths
    n = 100_000
    for rho in (-0.5, 0.0, 0.5):
        z1, z2 = mg_noise(rho, n, seed=5)
        got = np.corrcoef(z1, z2)[0, 1]
        assert abs(got - rho) < 3.0 / math.sqrt(n)


def test_correlated_normals_degenerate_rho():
    # rho = +-1: z2 = +-z1 exactly, read back to rounding
    z1, z2 = mg_noise(1.0, 10_000, seed=5)
    np.testing.assert_allclose(z2, z1, rtol=0.0, atol=1e-9)
    z1, z2 = mg_noise(-1.0, 10_000, seed=5)
    np.testing.assert_allclose(z2, -z1, rtol=0.0, atol=1e-9)
    with pytest.raises(ValueError, match="rho"):
        ModelParams(rho=1.5)


SEED_RUNS = {
    "simulate_gbm": lambda seed: simulate_gbm(RN, 100.0, 1.0, 4, 10, seed),
    "simulate_mg": lambda seed: simulate_mg(ModelParams(r=0.04, zeta=0.3, rho=-0.3), 100.0,
                                            0.04, 1.0, 4, 10, seed),
}


@pytest.mark.parametrize("run", sorted(SEED_RUNS))
@pytest.mark.parametrize("bad", [1.5, True, np.float64(3.0), -1, "3"])
def test_monte_carlo_names_a_bad_seed(run, bad):
    # seed 1.5 used to run seed 1's paths while the ensemble kept 1.5, and
    # its binary dump wrote 1
    with pytest.raises(ValueError, match=rf"^seed must be an integer >= 0, got {bad}$"):
        SEED_RUNS[run](bad)


@pytest.mark.parametrize("run", sorted(SEED_RUNS))
def test_monte_carlo_takes_seeds_below_two_to_the_128(run):
    # the Philox key: numpy's own message, which named no field, is gone
    with pytest.raises(ValueError, match=rf"^seed must be less than 2\*\*128, got {2 ** 128}$"):
        SEED_RUNS[run](2 ** 128)
    SEED_RUNS[run](2 ** 128 - 1)
    got, want = SEED_RUNS[run](np.uint64(5)), SEED_RUNS[run](5)
    assert got.seed == 5
    np.testing.assert_array_equal(got.s_paths, want.s_paths)


# ---------------------------------------------------------------------------
# GBM
# ---------------------------------------------------------------------------

def test_gbm_zero_volatility_is_deterministic():
    p = ModelParams(r=0.05, sigma=0.0, phi=0.05)
    ens = simulate_gbm(p, 100.0, 1.0, 10, 50, seed=1)
    expected = 100.0 * np.exp(0.05 * ens.times)
    for k in range(11):
        np.testing.assert_allclose(ens.s_paths[:, k], expected[k], rtol=1e-12)


def test_gbm_terminal_mean():
    # E[S_T] = s0 e^{phi T} = 105.12710963760242
    ens = simulate_gbm(RN, 100.0, 1.0, 12, 200_000, seed=7)
    last = ens.s_paths[:, -1]
    se = last.std(ddof=1) / math.sqrt(last.shape[0])
    assert abs(last.mean() - 105.12710963760242) <= 3.0 * se


def test_gbm_replay_is_bit_identical():
    a = simulate_gbm(RN, 100.0, 1.0, 8, 30_000, seed=11)
    b = simulate_gbm(RN, 100.0, 1.0, 8, 30_000, seed=11)
    assert np.array_equal(a.s_paths, b.s_paths)
    c = simulate_gbm(RN, 100.0, 1.0, 8, 30_000, seed=12)
    assert not np.array_equal(a.s_paths, c.s_paths)


def test_gbm_thread_count_does_not_matter():
    a = simulate_gbm(RN, 100.0, 1.0, 8, 50_000, seed=11)
    b = simulate_gbm(RN, 100.0, 1.0, 8, 50_000, seed=11, threads=4)
    assert np.array_equal(a.s_paths, b.s_paths)


def test_gbm_prefix_paths_are_stable():
    # a path's draws depend only on its position, not on n_paths
    small = simulate_gbm(RN, 100.0, 1.0, 8, 10_000, seed=11)
    large = simulate_gbm(RN, 100.0, 1.0, 8, 40_000, seed=11)
    assert np.array_equal(large.s_paths[:10_000], small.s_paths)


def test_simulation_validation():
    with pytest.raises(ValueError, match="s0"):
        simulate_gbm(RN, -1.0, 1.0, 8, 10, seed=0)
    with pytest.raises(ValueError, match="maturity"):
        simulate_gbm(RN, 100.0, 0.0, 8, 10, seed=0)
    with pytest.raises(ValueError, match=r"^n_steps must be an integer >= 1, got 0$"):
        simulate_gbm(RN, 100.0, 1.0, 0, 10, seed=0)
    with pytest.raises(ValueError, match="v0"):
        simulate_mg(RN, 100.0, -0.04, 1.0, 8, 10, seed=0)


# ---------------------------------------------------------------------------
# Merton-Garman paths
# ---------------------------------------------------------------------------

def test_mg_frozen_variance_reproduces_gbm():
    # zeta = lambda = mu = 0 freezes V; with v0 = sigma^2 exactly
    # representable (0.25^2 = 0.0625) the paths agree bit for bit
    p = ModelParams(r=0.05, sigma=0.25, phi=0.05, zeta=0.0, lambda_=0.0, mu=0.0)
    gbm = simulate_gbm(p, 100.0, 1.0, 12, 30_000, seed=9)
    mg = simulate_mg(p, 100.0, 0.0625, 1.0, 12, 30_000, seed=9)
    assert np.array_equal(gbm.s_paths, mg.s_paths)
    assert np.all(mg.v_paths == 0.0625)


def test_mg_variance_ode_euler_convergence():
    # zeta = 0: dV = (lambda + mu V) dt has solution
    # V(T) = V0 e^{mu T} + (lambda / -mu)(1 - e^{mu T})
    p = ModelParams(r=0.0, phi=0.0, lambda_=0.04, mu=-2.0, zeta=0.0)
    v0 = 0.09
    exact = v0 * math.exp(-2.0) + 0.02 * (1.0 - math.exp(-2.0))
    errs = []
    for n in (2000, 4000):
        ens = simulate_mg(p, 100.0, v0, 1.0, n, 3, seed=1)
        errs.append(abs(ens.v_paths[0, -1] - exact))
    assert errs[0] / exact < 5e-4
    assert 1.9 < errs[0] / errs[1] < 2.1


def test_mg_variance_respects_floor():
    wild = ModelParams(r=0.0, phi=0.0, zeta=5.0, alpha=1.0)
    ens = simulate_mg(wild, 100.0, 0.04, 1.0, 50, 2000, seed=4)
    assert ens.v_paths.min() >= V_FLOOR == 1e-8
    # mu dt = -1 and zeta = 0: every Euler step lands on exactly 0, so every
    # later variance is the floor
    drained = simulate_mg(ModelParams(mu=-8.0), 100.0, 0.04, 1.0, 8, 10, seed=4)
    assert np.all(drained.v_paths[:, 1:] == V_FLOOR)


def test_mg_paths_ignore_alpha_without_vol_of_vol():
    # zeta = 0: V^alpha overflowed at alpha = -300 and 0 * inf made every
    # path NaN, refused as an overflow naming t
    p = ModelParams(r=0.05, phi=0.05, lambda_=0.02, mu=-0.5, rho=-0.5)
    base = simulate_mg(p, 100.0, 0.04, 1.0, 20, 3000, seed=7, threads=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far = simulate_mg(replace(p, alpha=-300.0), 100.0, 0.04, 1.0, 20, 3000, seed=7, threads=2)
    assert far.s_paths.tobytes() == base.s_paths.tobytes()
    assert far.v_paths.tobytes() == base.v_paths.tobytes()


def test_mg_paths_refuse_an_overflowing_noise_term_before_any_draw(monkeypatch):
    # zeta V^alpha overflowed at the floor: three numpy warnings, then a
    # refusal naming the maturity
    def draw(*args):
        raise AssertionError("drew before the noise term was checked")

    monkeypatch.setattr("gauge_hamilton.montecarlo._block_rng", draw)
    p = ModelParams(zeta=0.3, alpha=-300.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=r"^alpha must keep the noise term zeta V\^alpha "
                                             r"finite at v0 and at V_FLOOR = 1e-08; zeta = 0.3, "
                                             r"alpha = -300.0$"):
            simulate_mg(p, 100.0, 0.04, 1.0, 10, 100, seed=0)
        # and at v0 alone: 1e300 ** 2 overflows, 1e-8 ** 2 does not
        with pytest.raises(InputError, match="^alpha "):
            simulate_mg(replace(p, alpha=2.0), 100.0, 1e300, 1.0, 10, 100, seed=0)


def test_mg_paths_name_the_variance_law_when_a_variance_overflows():
    # a variance that leaves the floats stays out: alpha is named when the
    # noise zeta V^alpha outgrows V (zeta != 0, alpha > 1), mu otherwise;
    # numpy's warnings stay inside the workers' error state
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=r"^alpha must keep every simulated variance finite; "
                                             r"zeta = 2.0, alpha = 3.0, lambda = 0.0, mu = 5.0: "):
            simulate_mg(ModelParams(zeta=2.0, alpha=3.0, mu=5.0), 100.0, 1.0, 1.0, 10, 100,
                        seed=0, threads=2)
        with pytest.raises(InputError, match=r"^mu must keep every simulated variance finite; "
                                             r"zeta = 0.0, alpha = 1.0, lambda = 0.0, "
                                             r"mu = 1e\+300: 100 of 100 paths are not$"):
            simulate_mg(ModelParams(mu=1e300), 100.0, 0.04, 1.0, 10, 100, seed=0)
        with pytest.raises(InputError, match="^mu "):
            simulate_mg(ModelParams(zeta=0.3, mu=1e300), 100.0, 0.04, 1.0, 10, 100, seed=0)


@pytest.mark.parametrize("law, v0, field", [
    # the noise zeta v0^alpha sqrt(dt) outweighs a zero drift: zeta, not mu
    (dict(zeta=1e150), 1.0, "zeta"),
    (dict(zeta=1e100, alpha=2.0), 1.0, "alpha"),
    # the drift (lambda + mu v0) dt outweighs the noise: the larger of its parts
    (dict(zeta=0.3, lambda_=1e308, mu=5.0), 0.04, "lambda"),
    (dict(zeta=0.3, lambda_=1.0, mu=1e300), 0.04, "mu")])
def test_mg_paths_name_the_larger_term_of_the_variance_law(law, v0, field):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=r"must keep every simulated variance finite") as info:
            simulate_mg(ModelParams(**law), 100.0, v0, 1.0, 10, 100, seed=0)
    assert info.value.field == field


def test_mg_replay_and_threads():
    p = ModelParams(r=0.05, phi=0.05, lambda_=0.01, mu=-0.5, zeta=0.5, rho=-0.5)
    a = simulate_mg(p, 100.0, 0.04, 1.0, 20, 40_000, seed=2)
    b = simulate_mg(p, 100.0, 0.04, 1.0, 20, 40_000, seed=2, threads=3)
    assert np.array_equal(a.s_paths, b.s_paths)
    assert np.array_equal(a.v_paths, b.v_paths)


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

def test_ensemble_properties():
    ens = simulate_gbm(RN, 100.0, 2.0, 10, 500, seed=0)
    assert ens.n_paths == 500
    assert ens.maturity == 2.0
    assert ens.phi == 0.05
    np.testing.assert_allclose(ens.times, np.linspace(0.0, 2.0, 11))
    assert ens.s_paths[0, 0] == pytest.approx(100.0, rel=1e-15)


def test_ensemble_validation():
    times = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="time axis"):
        PathEnsemble(times, np.ones((3, 4)), None, 0, 0.0)


@pytest.mark.parametrize("model", ["gbm", "mg"])
def test_simulators_name_a_maturity_whose_prices_overflow(model):
    # T = 1e300 drives ln S past ln(max float): the terminal prices were
    # inf and their mean and spread printed as Infinity and NaN
    def run(maturity):
        if model == "gbm":
            return simulate_gbm(RN, 100.0, maturity, 4, 100, seed=1)
        return simulate_mg(RN, 100.0, 0.04, maturity, 4, 100, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # the overflow itself does not warn
        with pytest.raises(InputError, match=r"^maturity must keep every simulated terminal "
                                             r"price finite, got 1e\+300: 100 of 100 are not$"):
            run(1e300)
    assert np.isfinite(run(1.0).s_paths).all()


def test_binary_round_trip(tmp_path):
    p = ModelParams(r=0.05, phi=0.05, lambda_=0.01, mu=-0.5, zeta=0.5, rho=-0.5)
    ens = simulate_mg(p, 100.0, 0.04, 1.0, 6, 1000, seed=3)
    path = tmp_path / "paths.bin"
    ens.to_binary(path)
    back = read_paths_binary(path)
    assert np.array_equal(back.s_paths, ens.s_paths)
    assert np.array_equal(back.v_paths, ens.v_paths)
    assert np.array_equal(back.times, ens.times)
    assert (back.seed, back.phi) == (3, 0.05)

    flat = simulate_gbm(RN, 100.0, 1.0, 6, 1000, seed=3)
    flat.to_binary(path)
    again = read_paths_binary(path)
    assert again.v_paths is None
    assert np.array_equal(again.s_paths, flat.s_paths)


def whole_array_binary(ens, path):
    """The writer that copied each path array whole, kept as the reference
    for the chunked ``to_binary``."""
    has_v = ens.v_paths is not None
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(np.array([ens.n_paths, ens.times.shape[0], int(has_v), 0],
                          dtype=np.uint64).tobytes())
        fh.write(np.array([ens.phi], dtype=np.float64).tobytes())
        fh.write(np.array([ens.seed % 2 ** 64, ens.seed // 2 ** 64], dtype=np.uint64).tobytes())
        fh.write(np.ascontiguousarray(ens.times, dtype=np.float64).tobytes())
        fh.write(np.ascontiguousarray(ens.s_paths, dtype=np.float64))
        if has_v:
            fh.write(np.ascontiguousarray(ens.v_paths, dtype=np.float64))


def test_binary_chunked_writer_matches_whole_array_writer(tmp_path):
    # two full chunks and a partial one, from step-major and path-major storage
    n_paths = 2 * _WRITE_CHUNK + 37
    p = ModelParams(r=0.05, phi=0.05, lambda_=0.01, mu=-0.5, zeta=0.5, rho=-0.5)
    mg = simulate_mg(p, 100.0, 0.04, 1.0, 5, n_paths, seed=4)
    gbm = simulate_gbm(RN, 100.0, 1.0, 5, n_paths, seed=4)
    path_major = PathEnsemble(mg.times, np.ascontiguousarray(mg.s_paths),
                              np.ascontiguousarray(mg.v_paths), 4, 0.05)
    for ens in (mg, gbm, path_major):
        ens.to_binary(tmp_path / "chunked.bin")
        whole_array_binary(ens, tmp_path / "whole.bin")
        assert (tmp_path / "chunked.bin").read_bytes() == (tmp_path / "whole.bin").read_bytes()


def test_binary_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTPATHS" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        read_paths_binary(path)


def test_slices_csv():
    ens = simulate_gbm(RN, 100.0, 1.0, 4, 3, seed=0)
    buf = io.StringIO()
    ens.slices_to_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "path,s_first,s_last"
    assert len(lines) == 4
    assert float(lines[1].split(",")[2]) == ens.s_paths[0, -1]

    p = ModelParams(r=0.05, phi=0.05, zeta=0.5)
    ens2 = simulate_mg(p, 100.0, 0.04, 1.0, 4, 3, seed=0)
    buf2 = io.StringIO()
    ens2.slices_to_csv(buf2)
    assert buf2.getvalue().split("\n")[0] == "path,s_first,s_last,v_first,v_last"


# ---------------------------------------------------------------------------
# pricing by simulation
# ---------------------------------------------------------------------------

def test_mc_price_zero_volatility():
    p = ModelParams(r=0.05, sigma=0.0, phi=0.05)
    ens = simulate_gbm(p, 100.0, 1.0, 4, 100, seed=0)
    price, se = mc_price(ens, CALL, 0.05)
    assert price == pytest.approx(100.0 - 100.0 * math.exp(-0.05), rel=1e-12)
    assert se == pytest.approx(0.0, abs=1e-13)


def test_mc_price_against_closed_form_sweep():
    for sig in (0.1, 0.2, 0.4):
        for moneyness in (0.8, 1.0, 1.2):
            p = ModelParams(r=0.05, sigma=sig, phi=0.05)
            c = OptionContract("call", 100.0 * moneyness, 1.0)
            ens = simulate_gbm(p, 100.0, 1.0, 16, 40_000,
                               seed=int(100 * sig + 10 * moneyness))
            price, se = mc_price(ens, c, 0.05)
            assert abs(price - bs_closed_form(p, c, 100.0)) <= 3.0 * se


def test_mc_put_call_parity():
    ens = simulate_gbm(RN, 100.0, 1.0, 16, 50_000, seed=21)
    pc, _ = mc_price(ens, CALL, 0.05)
    pp, _ = mc_price(ens, OptionContract("put", 100.0, 1.0), 0.05)
    # pathwise call - put = S_T - K, so the difference carries the forward
    disc_forward = math.exp(-0.05) * ens.s_paths[:, -1]
    se = disc_forward.std(ddof=1) / math.sqrt(ens.n_paths)
    want = disc_forward.mean() - 100.0 * math.exp(-0.05)
    assert pc - pp == pytest.approx(want, abs=3.0 * se + 1e-12)


def test_mc_price_guards():
    real_world = ModelParams(r=0.05, sigma=0.2, phi=0.12)
    ens = simulate_gbm(real_world, 100.0, 1.0, 4, 100, seed=0)
    with pytest.raises(ValueError, match="phi = r"):
        mc_price(ens, CALL, 0.05)
    short = OptionContract("call", 100.0, 0.5)
    with pytest.raises(ValueError, match="maturity"):
        mc_price(simulate_gbm(RN, 100.0, 1.0, 4, 100, seed=0), short, 0.05)


# ---------------------------------------------------------------------------
# delta hedging
# ---------------------------------------------------------------------------

def test_hedge_zero_volatility_replicates_exactly():
    p = ModelParams(r=0.05, sigma=0.0, phi=0.05)
    res = delta_hedge_test(p, CALL, 100.0, 12, 500, seed=2)
    assert abs(res.mean_error) < 1e-12
    assert res.std_error < 1e-12


def test_hedge_error_shrinks_with_rebalancing():
    coarse = delta_hedge_test(RN, CALL, 100.0, 52, 20_000, seed=3)
    fine = delta_hedge_test(RN, CALL, 100.0, 104, 20_000, seed=3)
    ratio = fine.std_error / coarse.std_error
    # doubling the frequency should shrink the spread like 1/sqrt(2)
    assert 0.8 / math.sqrt(2.0) < ratio < 1.2 / math.sqrt(2.0)
    for res in (coarse, fine):
        assert abs(res.mean_error) <= 3.0 * res.stderr
    d = asdict(coarse)
    assert d["n_steps"] == 52 and d["n_paths"] == 20_000


# ---------------------------------------------------------------------------
# implied volatility-risk field
# ---------------------------------------------------------------------------

MG_P = ModelParams(r=0.04, lambda_=0.02, mu=-0.3, zeta=0.3, alpha=1.0, rho=-0.3)
MG_GRID = make_grid_2d(math.log(100.0) - 1.0, math.log(100.0) + 1.0, 41,
                       math.log(0.04) - 2.0, math.log(0.04) + 1.0, 21)


def test_beta_field_near_zero_on_solved_surface():
    # the surface solves the pricing equation, so the implied excess drift
    # vanishes up to discretization error wherever dC/dV is resolvable
    surf = solve_mg(MG_P, OptionContract("call", 100.0, 1.0), MG_GRID, n_steps=50)
    beta = beta_field(surf, MG_P, min_dcdv=1e-3)
    vals = beta.values2d
    assert np.isfinite(vals).sum() > 100
    assert np.nanmedian(np.abs(vals)) < 0.05
    assert np.nanmax(np.abs(vals)) < 5.0


def test_beta_field_masks_boundary_and_insensitive_points():
    surf = solve_mg(MG_P, OptionContract("call", 100.0, 1.0), MG_GRID, n_steps=10)
    beta = beta_field(surf, MG_P)
    vals = beta.values2d
    assert np.all(np.isnan(vals[0, :])) and np.all(np.isnan(vals[-1, :]))
    assert np.all(np.isnan(vals[:, 0])) and np.all(np.isnan(vals[:, -1]))


def test_beta_field_fully_masked_without_volatility_sensitivity():
    # C independent of V has dC/dV = 0 everywhere: nothing is resolvable
    vals = np.exp(MG_GRID.xs)
    surf = PriceSurface(MG_GRID, vals, prev_values=vals * 1.01, dt=0.01)
    beta = beta_field(surf, MG_P)
    assert np.all(np.isnan(beta.values))


def _hand_written_beta(surface, params, min_dcdv):
    """The (S, V) formula beta_field evaluated by hand before it read the
    stepped Hamiltonian: central differences through the chain rule, with
    (zeta^2/2) V^{2alpha} on d2C/dV2 under vol_vol_half, zeta^2 otherwise."""
    grid = surface.grid
    c = surface.values2d
    c_prev = surface.prev_values.reshape(grid.shape)
    hx, hy = grid.hx, grid.hy
    x = grid.x_axis.points[:, None]
    y = grid.y_axis.points[None, :]
    out = np.full(grid.shape, np.nan)
    sl = slice(1, -1)
    cx = (c[2:, sl] - c[:-2, sl]) / (2 * hx)
    cy = (c[sl, 2:] - c[sl, :-2]) / (2 * hy)
    cxx = (c[2:, sl] - 2 * c[sl, sl] + c[:-2, sl]) / hx ** 2
    cyy = (c[sl, 2:] - 2 * c[sl, sl] + c[sl, :-2]) / hy ** 2
    cxy = (c[2:, 2:] - c[2:, :-2] - c[:-2, 2:] + c[:-2, :-2]) / (4 * hx * hy)
    ct = (c_prev[sl, sl] - c[sl, sl]) / surface.dt
    s = np.exp(x[sl, :])
    v = np.exp(y[:, sl])
    c_s = cx / s
    c_ss = (cxx - cx) / s ** 2
    c_v = cy / v
    c_vv = (cyy - cy) / v ** 2
    c_sv = cxy / (s * v)
    zeta2 = params.zeta ** 2
    vol_vol = 0.5 * zeta2 if params.vol_vol_half else zeta2
    numerator = (ct + params.r * s * c_s + (params.lambda_ + params.mu * v) * c_v
                 + 0.5 * v * s ** 2 * c_ss
                 + params.rho * params.zeta * v ** (0.5 + params.alpha) * s * c_sv
                 + vol_vol * v ** (2.0 * params.alpha) * c_vv
                 - params.r * c[sl, sl])
    with np.errstate(invalid="ignore", divide="ignore"):
        out[sl, sl] = np.where(np.abs(c_v) >= min_dcdv, numerator / c_v, np.nan)
    return out


# the grid and model of the strike-independence acceptance check
BETA_P = ModelParams(r=0.04, lambda_=0.02, mu=-0.3, zeta=0.3, alpha=1.0, rho=-0.3,
                     vol_vol_half=True)
BETA_GRID = make_grid_2d(math.log(100.0) - 1.5, math.log(100.0) + 1.5, 121,
                         math.log(0.04) - 2.5, math.log(0.04) + 1.5, 51)


@pytest.mark.parametrize("strike", [90.0, 110.0])
def test_beta_field_agrees_with_hand_written_formula_under_halved_vol_of_vol(strike):
    # with vol_vol_half the stepped Hamiltonian is the (S, V) formula as
    # written, so only the order of the floating-point operations differs
    surf = solve_mg(BETA_P, OptionContract("call", strike, 1.0), BETA_GRID, n_steps=100)
    got = beta_field(surf, BETA_P, min_dcdv=1e-3).values2d
    want = _hand_written_beta(surf, BETA_P, 1e-3)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.isfinite(got).sum() > 1000
    assert np.nanmax(np.abs(got - want)) <= 1e-7


@pytest.mark.parametrize("half", [False, True])
def test_beta_field_vanishes_on_an_exact_solution(half):
    # prev = C + dt H C solves the stepped equation exactly, so the residual
    # is rounding whichever vol-of-vol convention H carries; the hand-written
    # formula missed this by 4e-3 under the doubled coefficient
    params = replace(MG_P, vol_vol_half=half)
    values = solve_mg(params, OptionContract("call", 100.0, 1.0), MG_GRID, n_steps=10).values
    dt = 0.01
    prev = values + dt * (build_mg_hamiltonian(params, MG_GRID).matrix @ values)
    surf = PriceSurface(MG_GRID, values, prev_values=prev, dt=dt)
    beta = beta_field(surf, params, min_dcdv=1e-3).values2d
    assert np.isfinite(beta).sum() > 100
    assert np.nanmax(np.abs(beta)) <= 1e-8


def test_beta_field_requires_time_slices():
    # prev_values and dt are required fields: no surface lacks the two slices
    with pytest.raises(TypeError, match="prev_values"):
        PriceSurface(MG_GRID, np.exp(MG_GRID.xs))
    g1 = make_grid_1d(0.0, 1.0, 11)
    with pytest.raises(TypeError):
        beta_field(PriceSurface(g1, np.ones(11), np.ones(11), 0.1), MG_P)


@pytest.mark.parametrize("dt", [0.0, -0.1, math.nan])
def test_beta_field_names_a_bad_time_step(dt):
    # dt = 0 failed with "values must not be infinite", a negative dt flipped
    # the sign of dC/dt and NaN masked every point without complaint
    values = np.exp(MG_GRID.xs + MG_GRID.ys)
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        beta_field(PriceSurface(MG_GRID, values, values, dt), MG_P)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1e-3])
def test_beta_field_names_a_bad_sensitivity_floor(bad):
    # NaN and inf used to mask every point: none of 171 defined on 21 x 11
    surf = solve_mg(MG_P, OptionContract("call", 100.0, 1.0), MG_GRID, n_steps=4)
    with pytest.raises(ValueError, match="^min_dcdv must be positive and finite"):
        beta_field(surf, MG_P, min_dcdv=bad)


def test_binary_rejects_truncated_file(tmp_path):
    path = tmp_path / "paths.bin"
    simulate_gbm(RN, 100.0, 1.0, 6, 10, seed=3).to_binary(path)
    whole = path.read_bytes()
    path.write_bytes(whole[:-4])
    with pytest.raises(ValueError, match=f"implies {len(whole)} bytes, file has {len(whole) - 4}"):
        read_paths_binary(path)
    path.write_bytes(whole[:20])
    with pytest.raises(ValueError, match="truncated: expected at least 64 bytes for the "
                                         "MGPATHS2 header, file has 20"):
        read_paths_binary(path)


# a dump in the retired MGPATHS1 layout, whose seed is one int64, as the
# writer made it before seeds took two words: simulate_mg(MG_P, 100.0, 0.04,
# 1.0, 1, 2, seed=2**63 - 1)
V1_DUMP = bytes.fromhex(
    "4d47504154485331020000000000000002000000000000000100000000000000"
    "00000000000000000000000000000000ffffffffffffff7f0000000000000000"
    "000000000000f03f0300000000005940b2335fc5568d5a400300000000005940"
    "d8f2b405c8d55b407b14ae47e17aa43f870cbcdeb188973f7b14ae47e17aa43f"
    "fc918357da0ca13f")


def test_binary_refuses_the_one_word_seed_layout(tmp_path):
    # MGPATHS2 is the one layout read; the older one, whole or cut short,
    # is a foreign file
    path = tmp_path / "v1.bin"
    for raw in (V1_DUMP, V1_DUMP[:50]):
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="^not a paths dump: bad magic b'MGPATHS1'$"):
            read_paths_binary(path)


@pytest.mark.parametrize("seed", [0, 2 ** 63, 2 ** 64, 2 ** 128 - 1])
def test_binary_round_trips_every_seed(tmp_path, seed):
    # a seed of 2**63 or more used to overflow the dump's one int64 word
    ens = simulate_gbm(RN, 100.0, 1.0, 3, 5, seed=seed)
    path = tmp_path / "paths.bin"
    ens.to_binary(path)
    assert path.read_bytes()[:8] == b"MGPATHS2"
    back = read_paths_binary(path)
    assert back.seed == seed
    np.testing.assert_array_equal(back.s_paths, ens.s_paths)


def test_binary_refuses_a_seed_it_cannot_write(tmp_path):
    ens = simulate_gbm(RN, 100.0, 1.0, 3, 5, seed=1)
    for seed in (2 ** 128, -1):
        bad = PathEnsemble(ens.times, ens.s_paths, None, seed, ens.phi)
        with pytest.raises(ValueError, match="^seed must be"):
            bad.to_binary(tmp_path / "paths.bin")


def test_binary_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "paths.bin"
    simulate_mg(MG_P, 100.0, 0.04, 1.0, 6, 10, seed=3).to_binary(path)
    whole = path.read_bytes()
    path.write_bytes(whole + b"junk")
    with pytest.raises(ValueError, match=f"implies {len(whole)} bytes, file has {len(whole) + 4}"):
        read_paths_binary(path)


# ---------------------------------------------------------------------------
# step-major simulators against the path-major reference
# ---------------------------------------------------------------------------


def _reference_gbm(params, s0, maturity, n_steps, n_paths, seed):
    """Path-major loop with whole-block draws: the simulator before paths
    were stored step-major and stepped in place."""
    dt = maturity / n_steps
    sqdt = math.sqrt(dt)
    drift = (params.phi - 0.5 * params.sigma * params.sigma) * dt
    log_s = np.empty((n_paths, n_steps + 1))
    log_s[:, 0] = math.log(s0)
    for block, start, size in _blocks(n_paths):
        z = _block_rng(seed, block).standard_normal((n_steps, 2, BLOCK))[..., :size]
        rows = slice(start, start + size)
        for k in range(n_steps):
            log_s[rows, k + 1] = log_s[rows, k] + drift + params.sigma * sqdt * z[k, 0]
    return np.exp(log_s)


def _reference_mg(params, s0, v0, maturity, n_steps, n_paths, seed, negatives=None):
    """Path-major counterpart of simulate_mg; ``negatives`` collects how many
    Euler variance updates per block and step came out negative."""
    dt = maturity / n_steps
    sqdt = math.sqrt(dt)
    rho = params.rho
    rho_c = math.sqrt(1.0 - rho * rho)
    log_s = np.empty((n_paths, n_steps + 1))
    v = np.empty((n_paths, n_steps + 1))
    log_s[:, 0] = math.log(s0)
    v[:, 0] = v0
    for block, start, size in _blocks(n_paths):
        z = _block_rng(seed, block).standard_normal((n_steps, 2, BLOCK))[..., :size]
        rows = slice(start, start + size)
        for k in range(n_steps):
            vk = v[rows, k]
            z1 = z[k, 0]
            z2 = rho * z1 + rho_c * z[k, 1]
            log_s[rows, k + 1] = (log_s[rows, k] + (params.phi - 0.5 * vk) * dt
                                  + np.sqrt(vk) * sqdt * z1)
            v_next = vk + (params.lambda_ + params.mu * vk) * dt \
                + params.zeta * vk ** params.alpha * sqdt * z2
            if negatives is not None:
                negatives.append(int(np.count_nonzero(v_next < 0.0)))
            v[rows, k + 1] = np.maximum(np.abs(v_next), 1e-8)
    return np.exp(log_s), v


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("alpha", [1.0, 0.5, 0.0, 2.0, 0.7, 1.5])
def test_simulators_match_path_major_reference(threads, alpha):
    # numpy's ** takes fast paths for some exponents (0.5 is sqrt, 2 a
    # square), and rho = -1, 0 and 1 make one of rho and sqrt(1 - rho^2)
    # zero.  The path counts either side of BLOCK fill one block all but one,
    # exactly, or spill a few paths into a second; 20_000 leave a partial
    # second block.  zeta = 4 drives some Euler variance updates negative, so
    # the |V| reflection acts, for every alpha but 2, whose V^2 is too small
    n_steps, seed = 12, 21
    negatives = []
    for n_paths, rho in ((20_000, -0.5), (BLOCK - 1, -1.0), (BLOCK, 0.0), (BLOCK + 3, 1.0)):
        p = ModelParams(r=0.05, sigma=0.2, phi=0.05, lambda_=0.01, mu=-0.5,
                        zeta=4.0, alpha=alpha, rho=rho)
        s_ref, v_ref = _reference_mg(p, 100.0, 0.04, 1.0, n_steps, n_paths, seed,
                                     negatives=negatives)
        mg = simulate_mg(p, 100.0, 0.04, 1.0, n_steps, n_paths, seed, threads=threads)
        assert np.array_equal(mg.s_paths, s_ref)
        assert np.array_equal(mg.v_paths, v_ref)
        gbm = simulate_gbm(p, 100.0, 1.0, n_steps, n_paths, seed, threads=threads)
        assert np.array_equal(gbm.s_paths,
                              _reference_gbm(p, 100.0, 1.0, n_steps, n_paths, seed))
    assert sum(negatives) > 0 or alpha == 2.0


@pytest.mark.parametrize("threads", [1, 3])
def test_mg_prefix_paths_are_stable(threads):
    # as for GBM: a path's draws, so its price and variance, depend only on
    # its position, not on n_paths or the number of workers
    small = simulate_mg(MG_P, 100.0, 0.04, 1.0, 8, 10_000, seed=11, threads=threads)
    large = simulate_mg(MG_P, 100.0, 0.04, 1.0, 8, 40_000, seed=11, threads=threads)
    assert 10_000 < BLOCK < 40_000
    assert np.array_equal(large.s_paths[:10_000], small.s_paths)
    assert np.array_equal(large.v_paths[:10_000], small.v_paths)


def test_mc_price_matches_path_major_reference():
    p = ModelParams(r=0.05, sigma=0.2, phi=0.05, lambda_=0.01, mu=-0.5,
                    zeta=0.4, rho=-0.5)
    ens = simulate_mg(p, 100.0, 0.04, 1.0, 10, 20_000, seed=5, threads=2)
    s_ref, v_ref = _reference_mg(p, 100.0, 0.04, 1.0, 10, 20_000, seed=5)
    ref = PathEnsemble(ens.times, s_ref, v_ref, 5, 0.05)
    assert mc_price(ens, CALL, r=0.05) == mc_price(ref, CALL, r=0.05)


def test_simulation_storage_is_step_major():
    ens = simulate_mg(MG_P, 100.0, 0.04, 1.0, 6, 1000, seed=3)
    for paths in (ens.s_paths, ens.v_paths):
        assert paths.shape == (1000, 7)
        assert paths.T.flags.c_contiguous
        assert paths[:, -1].flags.c_contiguous


def test_many_threads_match_one_thread_under_fast_switching():
    # more workers than blocks and than cores, with the interpreter switching
    # threads as often as it can: workers write disjoint columns of shared
    # time slices, and a lost or misplaced write breaks bitwise equality
    n_paths, n_steps = 5 * BLOCK + 123, 8
    single = simulate_mg(MG_P, 100.0, 0.04, 1.0, n_steps, n_paths, seed=13)
    result = {}

    def run():
        result["ens"] = simulate_mg(MG_P, 100.0, 0.04, 1.0, n_steps, n_paths,
                                    seed=13, threads=8)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=run)
        worker.start()
        worker.join(timeout=120.0)
    finally:
        sys.setswitchinterval(old)
    assert not worker.is_alive()
    assert np.array_equal(result["ens"].s_paths, single.s_paths)
    assert np.array_equal(result["ens"].v_paths, single.v_paths)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["s0", "maturity"])
def test_simulators_reject_non_finite_inputs(field, bad):
    args = {"s0": 100.0, "maturity": 1.0}
    args[field] = bad
    with pytest.raises(ValueError, match=field):
        simulate_gbm(RN, args["s0"], args["maturity"], 8, 10, seed=0)
    with pytest.raises(ValueError, match=field):
        simulate_mg(MG_P, args["s0"], 0.04, args["maturity"], 8, 10, seed=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_simulate_mg_rejects_non_finite_v0(bad):
    with pytest.raises(ValueError, match="v0"):
        simulate_mg(MG_P, 100.0, bad, 1.0, 8, 10, seed=0)


# ---------------------------------------------------------------------------
# bad dump headers, thread counts, and the shared CSV writer and delta
# ---------------------------------------------------------------------------

def _patched_dump(tmp_path, ens, word, value):
    """A dump of ``ens`` with header word ``word`` (0 n_paths, 1 n_times,
    2 has_v, 3 scheme code) replaced by ``value``."""
    path = tmp_path / "patched.bin"
    ens.to_binary(path)
    raw = bytearray(path.read_bytes())
    start = len(_MAGIC) + 8 * word
    raw[start:start + 8] = np.array([value], dtype=np.uint64).tobytes()
    path.write_bytes(bytes(raw))
    return path


def test_binary_rejects_unknown_scheme_code(tmp_path):
    # 0 (log-Euler) is the one scheme the writer writes; the retired Euler
    # code 1 is refused like any other
    ens = simulate_mg(MG_P, 100.0, 0.04, 1.0, 4, 10, seed=3)
    back = read_paths_binary(_patched_dump(tmp_path, ens, 3, 0))
    np.testing.assert_array_equal(back.s_paths, ens.s_paths)
    for code in (1, 7):
        with pytest.raises(ValueError, match=f"^paths dump has unknown scheme code {code}$"):
            read_paths_binary(_patched_dump(tmp_path, ens, 3, code))


@pytest.mark.parametrize("with_v", [True, False])
def test_binary_rejects_bad_has_v_flag(tmp_path, with_v):
    ens = (simulate_mg(MG_P, 100.0, 0.04, 1.0, 4, 10, seed=3) if with_v
           else simulate_gbm(RN, 100.0, 1.0, 4, 10, seed=3))
    with pytest.raises(ValueError, match="has_v flag 2, expected 0 or 1"):
        read_paths_binary(_patched_dump(tmp_path, ens, 2, 2))


@pytest.mark.parametrize("field, bad", [("n_steps", 10.0), ("n_paths", 100.0), ("threads", 1.5),
                                        ("threads", True), ("n_paths", "100")])
def test_simulators_name_a_non_integer_count(field, bad):
    # a float step count used to fail inside numpy ("'float' object cannot be
    # interpreted as an integer"), and threads=1.5 used to run
    counts = {"n_steps": 4, "n_paths": 10, "threads": 1, field: bad}
    with pytest.raises(ValueError, match=rf"^{field} must be an integer >= 1, got {bad}$"):
        simulate_gbm(RN, 100.0, 1.0, counts["n_steps"], counts["n_paths"], seed=0,
                     threads=counts["threads"])
    with pytest.raises(ValueError, match=rf"^{field} must be an integer >= 1, got {bad}$"):
        simulate_mg(MG_P, 100.0, 0.04, 1.0, counts["n_steps"], counts["n_paths"], seed=0,
                    threads=counts["threads"])


def test_simulators_take_numpy_integer_counts():
    ints = dict(n_steps=np.int64(4), n_paths=np.int32(10), threads=np.int64(2))
    gbm = simulate_gbm(RN, 100.0, 1.0, seed=3, **ints)
    mg = simulate_mg(MG_P, 100.0, 0.04, 1.0, seed=3, **ints)
    assert np.array_equal(gbm.s_paths, simulate_gbm(RN, 100.0, 1.0, 4, 10, seed=3).s_paths)
    assert np.array_equal(mg.v_paths, simulate_mg(MG_P, 100.0, 0.04, 1.0, 4, 10, seed=3).v_paths)


@pytest.mark.parametrize("threads", [0, -1])
def test_simulators_reject_thread_count_below_one(threads):
    with pytest.raises(ValueError, match=rf"^threads must be an integer >= 1, got {threads}$"):
        simulate_gbm(RN, 100.0, 1.0, 4, 10, seed=0, threads=threads)
    with pytest.raises(ValueError, match="threads"):
        simulate_mg(MG_P, 100.0, 0.04, 1.0, 4, 10, seed=0, threads=threads)


def slices_csv_by_hand(ens):
    """slices_to_csv before it went through core.write_csv."""
    out = io.StringIO()
    if ens.v_paths is None:
        out.write("path,s_first,s_last\n")
        for p in range(ens.n_paths):
            out.write(f"{p},{ens.s_paths[p, 0]:.17g},{ens.s_paths[p, -1]:.17g}\n")
    else:
        out.write("path,s_first,s_last,v_first,v_last\n")
        for p in range(ens.n_paths):
            out.write(f"{p},{ens.s_paths[p, 0]:.17g},{ens.s_paths[p, -1]:.17g},"
                      f"{ens.v_paths[p, 0]:.17g},{ens.v_paths[p, -1]:.17g}\n")
    return out.getvalue()


@pytest.mark.parametrize("model", ["gbm", "mg"])
def test_slices_csv_bytes_match_hand_written_rows(model, tmp_path):
    if model == "gbm":
        ens = simulate_gbm(RN, 100.0, 1.0, 6, 1500, seed=5)
    else:
        ens = simulate_mg(ModelParams(r=0.05, phi=0.05, zeta=0.5, rho=-0.5, alpha=0.5),
                          100.0, 0.04, 1.0, 6, 1500, seed=5)
    buf = io.StringIO()
    ens.slices_to_csv(buf)
    assert buf.getvalue() == slices_csv_by_hand(ens)
    ens.slices_to_csv(tmp_path / "slices.csv")
    assert (tmp_path / "slices.csv").read_text() == slices_csv_by_hand(ens)


def _bs_delta_vec(params, contract, s, tau):
    """The array delta the hedge test used before it called pricing.bs_delta."""
    if params.sigma == 0.0:
        d = (s > contract.strike * math.exp(-params.r * tau)).astype(float)
    else:
        st = params.sigma * math.sqrt(tau)
        d1 = (np.log(s / contract.strike) + (params.r + 0.5 * params.sigma ** 2) * tau) / st
        d = ndtr(d1)
    return d if contract.kind == "call" else d - 1.0


def _hedge_with_reference_delta(params, contract, s0, n_steps, n_paths, seed):
    s = simulate_gbm(params, s0, contract.maturity, n_steps, n_paths, seed).s_paths
    dt = contract.maturity / n_steps
    grow = math.exp(params.r * dt)
    delta = _bs_delta_vec(params, contract, s[:, 0], contract.maturity)
    cash = np.full(n_paths, bs_closed_form(params, contract, s0)) - delta * s[:, 0]
    for k in range(1, n_steps):
        cash = cash * grow
        new_delta = _bs_delta_vec(params, contract, s[:, k], contract.maturity - k * dt)
        cash -= (new_delta - delta) * s[:, k]
        delta = new_delta
    error = cash * grow + delta * s[:, -1] - contract.payoff(s[:, -1])
    std = float(error.std(ddof=1)) if n_paths > 1 else 0.0
    return float(error.mean()), std, std / math.sqrt(n_paths)


@pytest.mark.parametrize("sigma", [0.2, 0.0])
@pytest.mark.parametrize("kind", ["call", "put"])
@pytest.mark.parametrize("n_paths", [1, 3000])
def test_delta_hedge_matches_reference_delta_bit_for_bit(sigma, kind, n_paths):
    params = ModelParams(r=0.03, sigma=sigma, phi=0.03)
    contract = OptionContract(kind, 95.0, 0.75)
    res = delta_hedge_test(params, contract, 100.0, 24, n_paths, seed=9)
    assert (res.mean_error, res.std_error, res.stderr) == _hedge_with_reference_delta(
        params, contract, 100.0, 24, n_paths, 9)
