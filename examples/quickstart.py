#!/usr/bin/env python3
"""Quickstart: evaluate a GCS scenario and find its optimal TIDS.

Reproduces the paper's headline workflow in four steps:

1. build the Section 5 default scenario (shrunk to N=40 so this example
   finishes in seconds — pass --full for the paper's N=100);
2. evaluate MTTSF and Ĉtotal at the default detection interval;
3. sweep the paper's TIDS grid to expose the security/performance
   tradeoff;
4. pick the MTTSF-optimal interval subject to a communication budget.

Every evaluation is submitted through the batch engine, so ``--jobs``
fans the sweep out over workers and ``--cache-dir`` makes re-runs
(and the overlapping optimisation step) free.

Run:  python examples/quickstart.py [--full] [--jobs N|auto] [--cache-dir DIR]
"""

import argparse

from repro import GCSParameters, Scenario, select_optimum
from repro.constants import PAPER_TIDS_GRID_S
from repro.engine import EvalRequest, make_runner, run_tids_sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--full", action="store_true", help="paper-scale N=100 (slower)"
    )
    parser.add_argument(
        "--jobs", default=None, help="engine workers: N, 'auto' or 'vector[:N]'"
    )
    parser.add_argument(
        "--cache-dir", default=None, help="persistent result cache directory"
    )
    args = parser.parse_args()

    n = 100 if args.full else 40
    params = GCSParameters.paper_defaults(num_nodes=n)
    scenario = Scenario(params)
    runner = make_runner(args.jobs, args.cache_dir)
    print(scenario.describe(), "\n")

    # -- single evaluation with a cost breakdown -------------------------
    result = runner.evaluate(
        EvalRequest(
            params=params, network=scenario.network, include_breakdown=True
        )
    )
    print("Default operating point (TIDS = 60 s):")
    print(result.summary(), "\n")

    # -- the tradeoff curve ------------------------------------------------
    print(f"TIDS sweep ({len(PAPER_TIDS_GRID_S)} points):")
    print(f"{'TIDS(s)':>8}  {'MTTSF(s)':>12}  {'Ctotal(hop-bits/s)':>20}")
    curve = run_tids_sweep(
        runner, params, PAPER_TIDS_GRID_S, network=scenario.network
    )
    for point in curve:
        print(
            f"{point.tids_s:8g}  {point.mttsf_s:12.4g}  "
            f"{point.ctotal_hop_bits_s:20.4g}"
        )
    print()

    # -- constrained optimisation ------------------------------------------
    # The curve is already evaluated (and cached), so the optimisation
    # step is pure selection — no re-evaluation.
    budget = 5e5  # hop-bits/s the mission can afford
    best = select_optimum(
        curve, objective="max-mttsf", cost_ceiling_hop_bits_s=budget
    )
    print(f"Maximise MTTSF subject to Ctotal <= {budget:g} hop-bits/s:")
    print(best.summary())
    print(f"\n{runner.cache.describe()}")


if __name__ == "__main__":
    main()
