"""Batched transient survivability benchmark: per-point vs batched.

Runs one survivability campaign — a hostile "contested burst" variant
of the fig2 grid (``m × TIDS``, quick ``N = 40``) whose curves decay
visibly inside the mission window — twice:

* **per-point reference** — every grid point through
  :func:`repro.core.metrics.evaluate_survivability`: its own chain and
  the generic per-point uniformization
  (:func:`repro.ctmc.transient.transient_distribution`), independent
  of the batched code;
* **batched vector** — ``--jobs vector``: one cached lattice structure,
  rate fills stacked, one multi-point power sequence
  (:func:`repro.ctmc.transient.transient_distribution_batch`).

and asserts that the two agree within the documented equivalence bound
(:data:`repro.ctmc.transient.BATCH_EQUIVALENCE_RTOL`) on every survival
value, failure CDF and time-bounded cost. Both paths share one power
sequence across the time grid, so the batched win is vectorisation
across points only (1.1–1.5× measured on 2 CPUs); it is reported, not
gated.

The report is also emitted as machine-readable JSON (``--json PATH`` or
``REPRO_BENCH_JSON=PATH``) with points/s and speedup, which CI uploads
as an artifact so the trend is diffable across commits.

Runs under pytest-benchmark like the other ``bench_*`` files and as a
standalone script
(``PYTHONPATH=src python benchmarks/bench_transient_batch.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core.fastpath import clear_structure_cache
from repro.core.metrics import evaluate_survivability
from repro.ctmc.transient import BATCH_EQUIVALENCE_RTOL
from repro.engine import BatchRunner, SurvivabilitySweep, available_cpus, make_backend
from repro.voting.majority import clear_table_cache

#: Mission-time grid (seconds). Λ for the lattice is ~1e3 (fast
#: small-group rekey states), so uniformization depth is Λ·t_max ≈ 5e3
#: matvecs per point.
MISSION_TIMES = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0)


def survivability_campaign(*, quick: bool = True) -> SurvivabilitySweep:
    """Contested-burst survivability grid (fig2 axes, hostile rates)."""
    return SurvivabilitySweep(
        name="contested-burst-survivability",
        times_s=MISSION_TIMES,
        axes={
            "num_voters": (3, 5, 7, 9),
            "detection_interval_s": (60.0, 120.0, 240.0),
        },
        base={
            "num_nodes": 40 if quick else 100,
            # Hostile overrides: fast compromise + chatty workload +
            # leaky host IDS, so S(t) decays inside the window instead
            # of sitting at 1.0.
            "base_compromise_rate_hz": 0.5,
            "data_rate_hz": 2.0,
            "host_false_negative": 0.2,
        },
    )


def _cold_caches() -> None:
    """Drop every process-wide memo a prior run could have warmed."""
    clear_structure_cache()
    clear_table_cache()


def _curves(results):
    return [
        (
            result.survival,
            result.failure_cdf["any"],
            result.time_bounded_cost,
        )
        for result in results
    ]


def _run_all():
    campaign = survivability_campaign(quick=True)

    _cold_caches()
    t0 = time.perf_counter()
    serial_results = [
        evaluate_survivability(
            request.params,
            request.network,
            times=request.times_s,
            eps=request.eps,
        )
        for _, request in campaign.requests()
    ]
    serial_s = time.perf_counter() - t0

    _cold_caches()
    vector = BatchRunner(backend=make_backend("vector"))
    t1 = time.perf_counter()
    outcome_vector = campaign.run(vector)
    vector_s = time.perf_counter() - t1

    n_unique = outcome_vector.report.n_unique
    return {
        "campaign": campaign.name,
        "n_points": len(campaign),
        "n_times": len(campaign.times_s),
        "n_unique": n_unique,
        "serial_s": serial_s,
        "vector_s": vector_s,
        "speedup": serial_s / vector_s,
        "points_per_s_serial": n_unique / serial_s,
        "points_per_s_vector": n_unique / vector_s,
        "cpus": available_cpus(),
        "serial_results": serial_results,
        "outcome_vector": outcome_vector,
    }


def _assert_claims(r) -> None:
    assert r["outcome_vector"].report.n_errors == 0

    # Numerically equivalent within the documented bound across every
    # curve of the campaign — the solver contract.
    vector_results = [result for _, result in r["outcome_vector"].points]
    assert len(vector_results) == len(r["serial_results"])
    for serial_curves, vector_curves in zip(
        _curves(r["serial_results"]), _curves(vector_results)
    ):
        for serial_curve, vector_curve in zip(serial_curves, vector_curves):
            np.testing.assert_allclose(
                vector_curve,
                serial_curve,
                rtol=BATCH_EQUIVALENCE_RTOL,
                atol=1e-12,
            )

    # The curves must actually exercise the transient regime (guards
    # against a silently-benign grid where everything stays at 1.0).
    final_survival = [
        result.survival[-1] for _, result in r["outcome_vector"].points
    ]
    assert min(final_survival) < 0.9, final_survival


def _json_report(r) -> dict:
    return {
        key: r[key]
        for key in (
            "campaign",
            "n_points",
            "n_times",
            "n_unique",
            "serial_s",
            "vector_s",
            "speedup",
            "points_per_s_serial",
            "points_per_s_vector",
            "cpus",
        )
    }


def _write_json(r, path: "str | Path | None") -> None:
    path = path or os.environ.get("REPRO_BENCH_JSON")
    if not path:
        return
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_json_report(r), indent=2) + "\n")
    print(f"json report: {path}")


def bench_transient_batch(once):
    r = once(_run_all)
    _assert_claims(r)
    _write_json(r, None)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the machine-readable report here "
        "(default: $REPRO_BENCH_JSON if set)",
    )
    args = parser.parse_args(argv)

    r = _run_all()
    _assert_claims(r)
    print(
        f"campaign: {r['campaign']} ({r['n_points']} points x "
        f"{r['n_times']} mission times; {r['cpus']} cpus)"
    )
    print(
        f"{'per-point':18s} {r['serial_s']:8.2f}s  "
        f"{r['points_per_s_serial']:7.2f} pts/s   1.00x"
    )
    print(
        f"{'batched (vector)':18s} {r['vector_s']:8.2f}s  "
        f"{r['points_per_s_vector']:7.2f} pts/s  {r['speedup']:5.2f}x"
    )
    print(f"batch report: {r['outcome_vector'].report.describe()}")
    print(f"equivalent within rtol={BATCH_EQUIVALENCE_RTOL:g}: yes (asserted)")
    _write_json(r, args.json)


if __name__ == "__main__":
    main()
