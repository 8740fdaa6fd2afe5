#!/usr/bin/env python3
"""Perimeter-surveillance scenario: from raw audit features to a deployed
IDS configuration, end to end.

A sensor-tank platoon (N = 40) surveys a hostile perimeter. Unlike the
other examples, nothing here starts from given ``(p1, p2)`` numbers —
the whole chain is derived:

1. **host IDS**: calibrate an anomaly detector over route/traffic audit
   features for a 1% per-window false-alarm budget; its exact
   false-negative rate follows from the noncentral-χ² detection
   statistics (``repro.detection.audit``);
2. **timeliness**: the plume-tracking payload needs <= 60 ms mean
   packet delay; the M/M/1 channel model converts that into a maximum
   admissible traffic level (``repro.costs.delay``);
3. **design**: maximise MTTSF over the TIDS grid subject to that
   derived traffic ceiling, with the derived (p1, p2);
4. report the chosen configuration with the exact failure-time
   variance and a distribution-free mission-survival bound.

The design sweep in step 3 is submitted through the batch engine:
``--jobs`` fans it out over workers, ``--cache-dir`` persists it.

Run:  python examples/perimeter_surveillance.py [--jobs N|auto] [--cache-dir DIR]
"""

import argparse

from repro import GCSParameters, Scenario, select_optimum
from repro.constants import HOUR, PAPER_TIDS_GRID_S
from repro.costs import DelayModel, MessageSizes
from repro.detection.audit import AnomalyDetector
from repro.engine import EvalRequest, make_runner, run_tids_sweep

MISSION_S = 48 * HOUR
DELAY_BUDGET_S = 0.060  # 60 ms mean end-to-end packet delay


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

    # -- 1. derive (p1, p2) from the audit-feature detector ---------------
    detector = AnomalyDetector.calibrated(target_false_positive=0.01)
    host_ids = detector.to_host_ids()
    print("host IDS derived from audit features:")
    print(f"  {host_ids.describe()}")
    print(f"  (threshold {detector.threshold:.2f} on the Mahalanobis score, "
          f"population separation λ = {detector.model.noncentrality:.1f})\n")

    params = GCSParameters.paper_defaults(
        num_nodes=40,
        host_false_negative=host_ids.false_negative,
        host_false_positive=host_ids.false_positive,
    )
    scenario = Scenario(params)

    # -- 2. translate the delay budget into a traffic ceiling -------------
    delay = DelayModel(network=scenario.network, sizes=MessageSizes())
    ceiling = delay.max_traffic_for_delay(DELAY_BUDGET_S)
    print(
        f"timeliness: {DELAY_BUDGET_S*1e3:.0f} ms delay budget -> "
        f"Ctotal <= {ceiling:.3g} hop-bits/s "
        f"(utilisation <= {delay.utilization(ceiling):.0%})\n"
    )

    # -- 3. optimise TIDS under the derived constraint ---------------------
    curve = run_tids_sweep(
        runner, params, PAPER_TIDS_GRID_S, network=scenario.network
    )
    plan = select_optimum(
        curve, objective="max-mttsf", cost_ceiling_hop_bits_s=ceiling
    )
    print(plan.summary(), "\n")
    if not plan.feasible:
        raise SystemExit("no feasible configuration under the delay budget")

    # -- 4. report with exact variance and survival bound ------------------
    chosen = runner.evaluate(
        EvalRequest(
            params=params.replacing(detection_interval_s=plan.optimal_tids_s),
            network=scenario.network,
            include_variance=True,
        )
    )
    print("selected configuration:")
    print(chosen.summary())
    print(
        f"  TTSF std  = {chosen.mttsf_std_s:.3g} s "
        f"(CV {chosen.mttsf_cv:.2f})"
    )
    bound = chosen.survival_probability_lower_bound(MISSION_S)
    print(
        f"  P(survive the {MISSION_S/3600:.0f} h mission) >= {bound:.1%} "
        "(Cantelli, distribution-free)"
    )
    delay_at_chosen = delay.mean_packet_delay_s(chosen.ctotal_hop_bits_s)
    print(f"  mean packet delay at this load: {delay_at_chosen*1e3:.1f} ms")


if __name__ == "__main__":
    main()
