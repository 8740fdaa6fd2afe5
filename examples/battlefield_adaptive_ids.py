#!/usr/bin/env python3
"""Battlefield scenario: adapt the IDS to the attacker observed at runtime.

The paper's closing recommendation: "the system could adjust the IDS
detection strength in response to the attacker strength detected at
runtime". This example plays that loop end to end for a combat unit
whose adversary mounts an *accelerating* (polynomial) insider campaign
while the deployed IDS was configured for a logarithmic one:

1. simulate the early mission and record when compromises are detected;
2. identify the attacker function from those observations by profile
   maximum likelihood (:func:`repro.attackers.estimate_attacker_function`);
3. let the :class:`~repro.detection.AdaptiveIDSController` switch the
   detection function and re-optimise TIDS against the *model-predicted*
   MTTSF;
4. compare the model-predicted survivability before vs after adaptation.

Model evaluations (before/after and every candidate the controller
tries) are submitted through the batch engine: ``--jobs`` parallelises,
``--cache-dir`` makes repeated candidates free.

Run:  python examples/battlefield_adaptive_ids.py [--jobs N|auto] [--cache-dir DIR]
"""

import argparse

import numpy as np

from repro import GCSParameters, Scenario
from repro.attackers import AttackerFunction
from repro.detection import AdaptiveIDSController
from repro.engine import EvalRequest, make_runner

TIDS_GRID = (15.0, 30.0, 60.0, 120.0, 240.0, 480.0)
N = 40


def simulate_compromise_history(
    params: GCSParameters, seed: int = 7, events: int = 12
) -> list[float]:
    """Draw compromise instants from the *true* (polynomial) attacker."""
    attacker = AttackerFunction.from_params(params.attack)
    rng = np.random.default_rng(seed)
    t, times = 0.0, []
    for k in range(events):
        rate = attacker.rate(params.num_nodes - k, k)
        t += rng.exponential(1.0 / rate)
        times.append(t)
    return times


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--jobs", default=None, help="engine workers: N, 'auto' or 'vector[:N]'"
    )
    parser.add_argument(
        "--cache-dir", default=None, help="persistent result cache directory"
    )
    args = parser.parse_args()
    runner = make_runner(args.jobs, args.cache_dir)

    # Ground truth: polynomial attacker. Deployed config: logarithmic IDS.
    truth = GCSParameters.paper_defaults(
        num_nodes=N,
        attacker_function="polynomial",
        detection_function="logarithmic",
        detection_interval_s=240.0,
    )
    scenario = Scenario(truth)
    before = runner.evaluate(
        EvalRequest(params=truth, network=scenario.network)
    )
    print("Deployed (mismatched) configuration:")
    print(before.summary(), "\n")

    # --- observe the enemy -------------------------------------------------
    history = simulate_compromise_history(truth)
    print(
        f"Observed {len(history)} compromises over {history[-1]/3600:.1f} h; "
        "feeding them to the adaptive controller..."
    )
    controller = AdaptiveIDSController(detection=truth.detection, num_nodes=N)
    for t in history:
        controller.observe_compromise(t)

    # --- adapt: identify, match, re-optimise TIDS ---------------------------
    def model_mttsf(detection_params) -> float:
        candidate = truth.replacing(detection=detection_params)
        return runner.evaluate(
            EvalRequest(params=candidate, network=scenario.network)
        ).mttsf_s

    adapted_detection = controller.adapt(
        evaluator=model_mttsf, tids_grid_s=TIDS_GRID
    )
    print(f"identified attacker function : {controller.last_estimate}")
    print(f"matched detection function   : {adapted_detection.detection_function}")
    print(f"re-optimised TIDS            : {adapted_detection.detection_interval_s:g} s\n")

    # --- after ----------------------------------------------------------------
    adapted = truth.replacing(detection=adapted_detection)
    after = runner.evaluate(
        EvalRequest(params=adapted, network=scenario.network)
    )
    print("Adapted configuration:")
    print(after.summary(), "\n")

    gain = after.mttsf_s / before.mttsf_s
    print(
        f"Adaptation multiplied the model-predicted MTTSF by {gain:.2f}x "
        f"({before.mttsf_s:.3g}s -> {after.mttsf_s:.3g}s)"
    )
    if gain <= 1.0:
        raise SystemExit("adaptation did not help — investigate!")


if __name__ == "__main__":
    main()
