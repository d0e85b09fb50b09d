"""Self-test of the benchmark on tiny inputs.

    python3 -m pytest -q bench/test_bench.py

Checks that every metric BENCHMARK.json names is reported with its unit,
that the per-layer counts come out as the library's step loop implies, and
that a wrong reference or a missing one is caught.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from checkout import ROOT  # noqa: E402

run.checkout.use_source()

import workloads  # noqa: E402
from spans import NullTracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5


def tiny_references(shift: float = 0.0):
    scenario = workloads.mg_scenario(SEED % workloads.N_REF_SEEDS)
    prices = workloads.mg_reference_prices(scenario, workloads.TINY.refined(), NullTracer())
    return scenario, [[kind, k, p + shift] for kind, k, p in prices]


def run_tiny(name, trace, shift=0.0):
    refs = None if name == "bs-quotes" else tiny_references(shift)
    return run.run_workload(name, SEED, 0.2, trace, sizes=workloads.TINY,
                            references=refs, setup_probes=0)


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_end_to_end_metrics_have_spec_units(name):
    env, result = run_tiny(name, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert env["host_kernel_ms"]["samples"] >= 1 and env["host_kernel_ms"]["p50"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    assert env["unscaled"].keys() < expected.keys()   # raw timings kept beside the scaled ones
    for entry in result["metrics"].values():
        assert math.isfinite(entry["value"]) and entry["value"] > 0


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_per_layer_metrics_have_spec_units(name):
    _, result = run_tiny(name, trace=True)
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    value = {k: v["value"] for k, v in metrics.items()}
    if name == "mc-mg-paths":
        assert value["pricing.factorizations"] == 0
        assert value["montecarlo.simulate_1thread_s"] > 0
        assert value["montecarlo.path_bytes"] == 8 * (
            (2 * workloads.TINY.mc_paths + 1) * (workloads.TINY.mc_steps + 1))
    else:
        steps = workloads.TINY.mg_steps if name == "mg-ladder" else workloads.TINY.bs_steps
        assert value["operators.builds"] == 1
        assert value["pricing.factorizations"] == 2   # implicit startup, then theta
        assert value["pricing.solves"] == steps
        assert value["montecarlo.simulate_s"] == 0


@pytest.mark.parametrize("name", ["mg-ladder", "mc-mg-paths"])
def test_wrong_reference_is_counted_as_failure(name):
    env, result = run_tiny(name, trace=False, shift=10.0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert env["failed_frac"] == 1.0


def test_missing_reference_fails_loudly(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "REFERENCES", tmp_path / "none.json")
    with pytest.raises(SystemExit) as info:
        run.setup("mg-ladder", SEED)
    assert "no fine-grid reference" in str(info.value.code)


def test_stored_references_cover_every_reference_seed():
    for ref_seed in range(workloads.N_REF_SEEDS):
        workloads.load_references(ref_seed, workloads.FULL)
