"""Engine benchmark: parallel sweep speedup and warm-cache hit rate.

Three measurements on the quick paper-figure campaign (fig2–fig5 grids,
N = 40):

* **serial cold** — the per-point baseline: every unique point
  evaluated in-process as its own batch of one (``SerialBackend()``),
  no cache;
* **parallel cold** — the same points through ``--jobs N`` (the
  vector+procs hybrid: batched chunks over ``N`` worker processes);
  asserts a wall-clock win over serial when the host exposes more than
  one CPU (on a single-core host the pool cannot add parallelism, so
  the benchmark only bounds its overhead there and says so);
* **warm cache** — an immediate re-run against the populated cache;
  asserts ≥ 90% cache hits and asserts all three produce identical
  numbers.

Runs under pytest-benchmark like the other `bench_*` files, and also as
a standalone script (``PYTHONPATH=src python benchmarks/bench_engine_parallel.py``)
printing a small report table.

Setting ``REPRO_BENCH_REQUIRE_MULTICORE=1`` (the CI ``engine-parallel``
job does) turns "single core, can only bound overhead" from a downgrade
into a hard failure — it catches the silent regression where CI quietly
stops testing the parallel path because the runner shrank to one core.
"""

from __future__ import annotations

import os
import time

from repro.engine import (
    BatchRunner,
    ResultCache,
    SerialBackend,
    available_cpus,
    make_backend,
)
from repro.engine.jobs import paper_campaign


def _cpus() -> int:
    return available_cpus()


def _workers() -> int:
    return max(2, min(4, _cpus()))


def _outcome_values(outcome):
    return [
        (job_outcome.job.name, tuple(job_outcome.values("mttsf_s")))
        for job_outcome in outcome.outcomes
    ]


def _run_all(tmp_cache_dir=None):
    campaign = paper_campaign(quick=True)

    serial = BatchRunner(backend=SerialBackend())
    t0 = time.perf_counter()
    outcome_serial = campaign.run(serial)
    serial_s = time.perf_counter() - t0

    cache = ResultCache(cache_dir=tmp_cache_dir)
    parallel = BatchRunner(cache=cache, backend=make_backend(_workers()))
    t1 = time.perf_counter()
    outcome_cold = campaign.run(parallel)
    cold_s = time.perf_counter() - t1

    t2 = time.perf_counter()
    outcome_warm = campaign.run(parallel)
    warm_s = time.perf_counter() - t2

    return {
        "campaign": campaign,
        "serial_s": serial_s,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "outcome_serial": outcome_serial,
        "outcome_cold": outcome_cold,
        "outcome_warm": outcome_warm,
    }


def _assert_claims(r) -> None:
    if os.environ.get("REPRO_BENCH_REQUIRE_MULTICORE"):
        assert _cpus() > 1, (
            f"REPRO_BENCH_REQUIRE_MULTICORE is set but only {_cpus()} CPU "
            "is usable — the parallel path is not actually being tested"
        )
    serial_vals = _outcome_values(r["outcome_serial"])
    assert serial_vals == _outcome_values(r["outcome_cold"])
    assert serial_vals == _outcome_values(r["outcome_warm"])

    # The fig2 m=5 column reappears in fig4's linear curve (same
    # scenario points), so one submitted batch dedups across figures.
    report_cold = r["outcome_cold"].report
    assert report_cold.n_unique < report_cold.n_requested
    assert report_cold.n_errors == 0

    # Warm re-run: >= 90% cache hits (it is 100% here — every unique
    # point was just stored).
    report_warm = r["outcome_warm"].report
    assert report_warm.cache_hit_rate >= 0.90, report_warm.describe()
    assert report_warm.n_evaluated == 0

    # Multi-worker beats serial wall-clock on the quick grid. Only a
    # real claim when there is real parallel hardware; on one core the
    # pool can at best tie, so there we just bound its overhead.
    if _cpus() > 1:
        assert r["cold_s"] < r["serial_s"], (
            f"parallel {r['cold_s']:.2f}s not faster than serial "
            f"{r['serial_s']:.2f}s on {_cpus()} cpus"
        )
    else:
        assert r["cold_s"] < 1.6 * r["serial_s"], (
            f"pool overhead too high on a single core: parallel "
            f"{r['cold_s']:.2f}s vs serial {r['serial_s']:.2f}s"
        )
    # The warm-cache run beats everything by an order of magnitude.
    assert r["warm_s"] < r["cold_s"]
    assert r["warm_s"] < 0.5 * r["serial_s"]


def bench_engine_parallel(once, tmp_path):
    r = once(lambda: _run_all(tmp_path / "cache"))
    _assert_claims(r)


def main() -> None:
    r = _run_all()
    _assert_claims(r)
    campaign = r["campaign"]
    report = r["outcome_cold"].report
    print(f"campaign: {campaign.name} ({len(campaign)} points, "
          f"{report.n_unique} unique after dedup)")
    print(f"workers : {_workers()} (host cpus: {_cpus()})")
    if _cpus() == 1:
        print("note    : single-core host — the parallel-vs-serial "
              "comparison below measures pool overhead, not speedup")
    print(f"{'serial cold':14s} {r['serial_s']:8.2f}s  1.00x")
    print(f"{'parallel cold':14s} {r['cold_s']:8.2f}s  "
          f"{r['serial_s'] / r['cold_s']:.2f}x")
    print(f"{'warm cache':14s} {r['warm_s']:8.2f}s  "
          f"{r['serial_s'] / r['warm_s']:.2f}x "
          f"({r['outcome_warm'].report.cache_hit_rate:.0%} cache hits)")


if __name__ == "__main__":
    main()
