"""Benchmark of the gauge-hamilton pricer, end to end and per layer.

    python3 bench/run.py --workload mg-ladder --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0        # every workload, one process each

Each workload is a closed loop with one client in one process: the next
request is sent when the previous one returns.  With --trace 0 the last line
of standard output holds the end-to-end metrics; with --trace 1 it holds the
per-layer metrics, taken by a run that alternates traced and untraced
requests.  The line before it records the run environment.  Metric
definitions are in README.md next to this file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import checkout

WORKLOADS = ("mg-ladder", "bs-quotes", "mc-mg-paths")
SETUP_PROBES = 4          # fresh interpreters timed besides this process's own set-up
CHILD_TIMEOUT_S = 170
HOST_REF_MS = 13.0        # host kernel time that reported timings are scaled to


def setup(name: str, seed: int, sizes=None, references=None):
    """Import the library, make the workload's inputs and warm it up.

    `references` replaces the stored (scenario, prices) of the seed.
    Returns (workload, seconds taken).  Exits with status 1 when the seed
    has no stored reference.
    """
    start = time.perf_counter()
    checkout.use_source()
    import workloads
    from spans import NullTracer
    sizes = sizes or workloads.FULL
    if name == "bs-quotes":
        wl = workloads.BsQuotes(seed % 2**32, sizes)
    else:
        try:
            scenario, refs = references or workloads.load_references(
                seed % workloads.N_REF_SEEDS, sizes)
        except workloads.MissingReference as exc:
            sys.exit(f"benchmark: {exc}")
        if name == "mg-ladder":
            wl = workloads.MgLadder(scenario, refs, sizes)
        else:
            wl = workloads.McPaths(scenario, refs, sizes, path_seed=seed % 2**32)
    wl.unit(NullTracer())
    return wl, time.perf_counter() - start


def probe_setup(name: str, seed: int) -> tuple[float, float]:
    """Set-up time measured in a fresh interpreter, and the host kernel's
    time taken right after it in that interpreter (ms)."""
    out = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(seed),
                          "--setup-probe"], capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S, check=True)
    seconds, kernel_ms = out.stdout.strip().splitlines()[-1].split()
    return float(seconds), float(kernel_ms)


def host_kernel():
    """A fixed sparse-LU kernel, independent of the library: one `splu` of a
    60x60 five-point Laplacian, ten solves and a matvec.  Returns a function
    that runs it once and returns its time in ms.

    On a shared machine one core's speed can change by up to a factor of two
    for seconds to minutes, which no run that fits the benchmark's budget
    averages out.  Timing the kernel next to each request and each set-up
    gives the speed the host had at that moment; reported timings are
    scaled by HOST_REF_MS over it, so that they compare across runs."""
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    n = 60
    t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    a = (sp.kron(sp.identity(n), t) + sp.kron(t, sp.identity(n))
         + sp.identity(n * n)).tocsc()
    b = np.ones(n * n)

    def timed() -> float:
        t0 = time.perf_counter()
        lu = spla.splu(a)
        for _ in range(10):
            lu.solve(b)
        a @ b
        return 1e3 * (time.perf_counter() - t0)
    timed()                                   # first call pays one-off costs
    return timed


def scaled(seconds: float, kernel_ms: float) -> float:
    """A time taken while the host kernel took kernel_ms, at HOST_REF_MS."""
    return seconds * HOST_REF_MS / kernel_ms


def timed_loop(name, wl, seconds: float, trace: bool, kernel):
    """Send requests until `seconds` have passed.  With trace, odd requests
    are traced and even ones are not.  The host kernel is timed before the
    first request and after each one, outside every latency.  Returns
    (tracer or None, untraced and traced requests as (latency, latency
    scaled by the mean kernel time on either side) pairs, host kernel times
    in ms, attempted, failed)."""
    from spans import NullTracer, Tracer
    null = NullTracer()
    tracer = Tracer() if trace else None
    plain, traced, host_ms = [], [], [kernel()]
    attempted = failed = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or attempted < (2 if trace else 1):
        on = trace and attempted % 2 == 1
        tr = tracer if on else null
        attempted += 1
        try:
            with tracer.instrument_splu() if on else contextlib.nullcontext():
                t0 = time.perf_counter()
                with tr.span("request"):
                    prices = wl.request(tr)
                latency = time.perf_counter() - t0
            host_ms.append(kernel())
            (traced if on else plain).append(
                (latency, scaled(latency, 0.5 * (host_ms[-2] + host_ms[-1]))))
            failures = wl.check(prices) + (wl.check_traced(tracer) if on else [])
        except Exception as exc:   # a failed request is counted, the loop goes on
            failures = [f"{type(exc).__name__}: {exc}"]
        if failures:
            failed += 1
            if failed <= 5:
                print(f"benchmark: {name} request {attempted} failed: "
                      + "; ".join(failures), file=sys.stderr)
    return tracer, plain, traced, host_ms, attempted, failed


def environment(name, seed, seconds, trace, wl, setup_samples, plain, traced,
                host_ms, attempted, failed) -> dict:
    import numpy
    import scipy
    import workloads
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    env = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "commit": git_commit(),
        "conventions": workloads.CONVENTIONS, "inputs": wl.describe(),
        "setup_samples": [{"s": s, "host_kernel_ms": k} for s, k in setup_samples],
        "latency_samples": len(plain), "traced_samples": len(traced),
        "options_per_request": wl.options_per_request,
        "host_ref_ms": HOST_REF_MS,
        "host_kernel_ms": {"samples": len(host_ms), **{
            f"p{q}": float(numpy.percentile(host_ms, q)) for q in (25, 50, 75)}},
        "unscaled": timings(wl, [raw for raw, _ in plain], [s for s, _ in setup_samples]),
        "failed_frac": failed / attempted,
    }
    if name != "bs-quotes":
        env["reference_seed"] = seed % workloads.N_REF_SEEDS
    if name == "mc-mg-paths":
        env["mc_stderr"] = wl.errors[-1] if wl.errors else None
        env["mc_z"] = wl.z_scores[-1] if wl.z_scores else None
    return env


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        out = subprocess.run(["git", "-C", str(checkout.ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env={**os.environ,
                                  "GIT_CEILING_DIRECTORIES": str(checkout.ROOT.parent)})
        if out.returncode == 0:
            return out.stdout.strip()
    return "unknown"


def timings(wl, latencies, setup_seconds) -> dict:
    """The timing metrics from request latencies and set-up times (s)."""
    import numpy as np
    busy = sum(latencies)
    options = wl.options_per_request * len(latencies)
    return {
        "setup_s": statistics.median(setup_seconds),
        "latency_ms_p50": 1e3 * statistics.median(latencies),
        "latency_ms_p90": 1e3 * float(np.percentile(latencies, 90)),
        "options_per_s": options / busy,
        "path_steps_per_s": options * wl.state_steps_per_option / busy,
    }


def end_to_end(wl, plain, setup_samples) -> dict:
    values = timings(wl, [s for _, s in plain],
                     [scaled(s, k) for s, k in setup_samples])
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values["price_abs_err_max"] = wl.price_abs_err_max()
    units = {"setup_s": "s", "latency_ms_p50": "ms", "latency_ms_p90": "ms",
             "options_per_s": "1/s", "path_steps_per_s": "1/s", "peak_rss_mb": "MB",
             "price_abs_err_max": "price"}
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}


LAYER_UNITS = {
    "operators.build_s": "s/option", "operators.builds": "count/option",
    "operators.h_nnz": "count", "pricing.factor_s": "s/option",
    "pricing.factorizations": "count/option", "pricing.solve_s": "s/option",
    "pricing.solves": "count/option", "pricing.lu_fill_ratio": "ratio",
    "pricing.step_rest_s": "s/option", "pricing.evolve_s": "s/option",
    "pricing.outside_evolve_s": "s/option", "montecarlo.simulate_s": "s/option",
    "montecarlo.path_bytes": "B", "montecarlo.simulate_1thread_s": "s/option",
    "montecarlo.mc_price_s": "s/option", "trace_overhead_frac": "fraction",
}


def per_layer(wl, tracer, plain, traced) -> dict:
    values = tracer.layer_metrics(wl.options_per_request * len(traced))
    values["trace_overhead_frac"] = (statistics.median(s for _, s in traced)
                                     / statistics.median(s for _, s in plain) - 1)
    return {k: {"value": values[k], "unit": u} for k, u in LAYER_UNITS.items()}


def run_workload(name, seed, seconds, trace, sizes=None, references=None,
                 setup_probes=SETUP_PROBES):
    """One workload in this process; returns (environment, result)."""
    wl, own_setup = setup(name, seed, sizes, references)
    kernel = host_kernel()
    probes = 0 if trace else setup_probes      # the traced run reports no set-up time
    setup_samples = ([(own_setup, kernel())]
                     + [probe_setup(name, seed) for _ in range(probes)])
    tracer, plain, traced, host_ms, attempted, failed = timed_loop(name, wl, seconds,
                                                                   trace, kernel)
    if not plain or (trace and not traced):
        sys.exit(f"benchmark: {name}: no request completed, {failed} of {attempted} raised")
    if trace:
        metrics = per_layer(wl, tracer, plain, traced)
    else:
        metrics = end_to_end(wl, plain, setup_samples)
    env = environment(name, seed, seconds, trace, wl, setup_samples, plain, traced,
                      host_ms, attempted, failed)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return env, result


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS belongs to one workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        out = subprocess.run([sys.executable, __file__, "--workload", name,
                              "--seed", str(args.seed), "--seconds", str(args.seconds),
                              "--trace", str(args.trace)],
                             capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            print(f"benchmark: workload {name} exited with {out.returncode}",
                  file=sys.stderr)
            return out.returncode
        lines = out.stdout.strip().splitlines()
        print(lines[-2])
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            print(f"{name:12s} {metric:30s} {entry['value']:>16.6g} {entry['unit']}")
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="length of the timed phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        seconds = setup(args.workload, args.seed)[1]
        print(seconds, host_kernel()())
        return 0
    env, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
