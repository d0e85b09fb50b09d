"""Build the frozen fine-grid reference prices of the Merton-Garman scenarios.

A reference is the ladder priced on the default MG box with twice the
intervals on each axis and twice the time steps, under the benchmark's
conventions.  References are built outside every timed phase and stored in
references.json next to this file, keyed by reference seed (run seed % 16);
workloads.load_references reads them.

    python3 bench/references.py --seed 3        # build one reference seed
    python3 bench/references.py --all           # build all of them
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import checkout

checkout.use_source()

import workloads  # noqa: E402  (needs the library on sys.path)
from spans import NullTracer  # noqa: E402


def build(ref_seed: int) -> dict:
    scenario = workloads.mg_scenario(ref_seed)
    refined = workloads.FULL.refined()
    start = time.perf_counter()
    prices = workloads.mg_reference_prices(scenario, refined, NullTracer())
    return {"scenario": scenario,
            "grid": [refined.mg_nx, refined.mg_ny, refined.mg_steps],
            "prices": prices, "build_s": round(time.perf_counter() - start, 1)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--seed", type=int, action="append",
                       help="run seed whose reference to build (repeatable)")
    group.add_argument("--all", action="store_true",
                       help=f"build all {workloads.N_REF_SEEDS} reference seeds")
    args = ap.parse_args(argv)
    seeds = (range(workloads.N_REF_SEEDS) if args.all
             else sorted({s % workloads.N_REF_SEEDS for s in args.seed}))
    for ref_seed in seeds:
        entry = build(ref_seed)
        data = workloads.read_references()  # re-read: another run may have added seeds
        if data["conventions"] != workloads.CONVENTIONS:
            data = {"conventions": workloads.CONVENTIONS, "seeds": {}}
        data["seeds"][str(ref_seed)] = entry
        data["seeds"] = dict(sorted(data["seeds"].items(), key=lambda kv: int(kv[0])))
        tmp = workloads.REFERENCES.with_suffix(".tmp")
        with open(tmp, "w") as fh:
            json.dump(data, fh, indent=1)
            fh.write("\n")
        tmp.replace(workloads.REFERENCES)
        print(f"reference seed {ref_seed}: {entry['build_s']} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
