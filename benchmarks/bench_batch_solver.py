"""Batched lattice solver benchmark: serial vs vector vs kernel tiers.

Runs the fig2–fig5 paper campaign (quick ``N = 40`` grids by default,
``--full`` for the paper-scale ``N = 100`` campaign; 112 points, 54
unique after dedup) through the engine in up to three configurations:

* **serial backend** — every unique point solved as its own batch of
  one (`BatchRunner()`; skipped in ``--full`` mode unless ``--serial``
  is passed);
* **vector backend, fused kernel** (``REPRO_KERNEL=fused``) — one
  cached lattice structure, stacked rate fills, one shared sweep;
* **vector backend, numba kernel** (``REPRO_KERNEL=numba``) — the
  jitted single-pass sweep, parallelised over points. Run only when
  numba imports; the skip is *printed*, never silent.

and asserts

* all configurations are **bit-identical** across the whole campaign
  (every MTTSF and Ĉtotal compared with ``==``, not a tolerance) —
  including the numba leg when it runs;
* with ``REPRO_BENCH_REQUIRE_NUMBA_SPEEDUP=<X>`` set (the CI numba A/B
  leg sets 1.3), the numba tier is at least ``X``× faster than fused —
  and the gate **fails loudly** if numba is not importable, so a broken
  CI install can never skip-pass it.

The serial-vs-vector ratio (``speedup``) is reported, not gated: both
backends run the same pipeline, so it only measures what stacking
points buys (1.6–2.0× on the quick campaign, 2 CPUs).

The report is also emitted as machine-readable JSON (``--json PATH`` or
``REPRO_BENCH_JSON=PATH``) with points/s, the speedups, and the fused
leg's per-phase wall-clock breakdown (``phases.evaluate`` is the metric
the kernel tiers shift), which CI uploads as an artifact and folds into
the ``BENCH_<sha>.json`` trajectory (``benchmarks/bench_report.py``).

Runs under pytest-benchmark like the other ``bench_*`` files and as a
standalone script
(``PYTHONPATH=src python benchmarks/bench_batch_solver.py [--full]``).
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

from repro.core.fastpath import clear_structure_cache
from repro.ctmc.kernels import numba_available
from repro.engine import BatchRunner, available_cpus, make_backend
from repro.engine.jobs import paper_campaign
from repro.voting.majority import clear_table_cache


def _cold_caches() -> None:
    """Drop every process-wide memo a prior run could have warmed.

    All timed runs must start equally cold — the structure cache *and*
    the voting-table memo — or whichever pipeline runs second inherits
    the first one's tables and the comparison measures cache warming
    instead of the solver.
    """
    clear_structure_cache()
    clear_table_cache()


def _campaign_values(outcome):
    return [
        (
            job_outcome.job.name,
            tuple(job_outcome.values("mttsf_s")),
            tuple(job_outcome.values("ctotal_hop_bits_s")),
        )
        for job_outcome in outcome.outcomes
    ]


def _timed_vector_run(campaign, *, kernel: str):
    """One cold vector-backend campaign run under the given kernel tier.

    ``REPRO_KERNEL`` pins the tier for the duration of the run, then is
    restored so the legs cannot leak into each other.
    """
    _cold_caches()
    previous = os.environ.get("REPRO_KERNEL")
    os.environ["REPRO_KERNEL"] = kernel
    try:
        runner = BatchRunner(backend=make_backend("vector"))
        t0 = time.perf_counter()
        outcome = campaign.run(runner)
        return outcome, time.perf_counter() - t0
    finally:
        if previous is None:
            os.environ.pop("REPRO_KERNEL", None)
        else:
            os.environ["REPRO_KERNEL"] = previous


def _run_all(*, full: bool = False, include_serial: bool | None = None):
    campaign = paper_campaign(quick=not full)
    if include_serial is None:
        include_serial = not full

    serial_s = None
    outcome_serial = None
    if include_serial:
        # Cold serial run: drop every memo so it pays the full cost
        # exactly once, like a fresh process.
        _cold_caches()
        serial = BatchRunner()
        t0 = time.perf_counter()
        outcome_serial = campaign.run(serial)
        serial_s = time.perf_counter() - t0

    outcome_vector, vector_s = _timed_vector_run(campaign, kernel="fused")

    outcome_numba = None
    numba_s = None
    if numba_available():
        outcome_numba, numba_s = _timed_vector_run(campaign, kernel="numba")

    n_unique = outcome_vector.report.n_unique
    return {
        "campaign": campaign.name,
        "mode": "full" if full else "quick",
        "n_points": len(campaign),
        "n_unique": n_unique,
        "serial_s": serial_s,
        "vector_s": vector_s,
        "numba_s": numba_s,
        "numba_available": numba_available(),
        "speedup": serial_s / vector_s if serial_s is not None else None,
        "numba_speedup": vector_s / numba_s if numba_s is not None else None,
        "points_per_s_serial": (
            n_unique / serial_s if serial_s is not None else None
        ),
        "points_per_s_vector": n_unique / vector_s,
        "points_per_s_numba": (
            n_unique / numba_s if numba_s is not None else None
        ),
        "phases": dict(outcome_vector.report.phase_seconds),
        "cpus": available_cpus(),
        "outcome_serial": outcome_serial,
        "outcome_vector": outcome_vector,
        "outcome_numba": outcome_numba,
    }


def _assert_claims(r) -> None:
    assert r["outcome_vector"].report.n_errors == 0

    # Bit-identical across the whole campaign — the solver contract.
    vector_vals = _campaign_values(r["outcome_vector"])
    if r["outcome_serial"] is not None:
        assert r["outcome_serial"].report.n_errors == 0
        serial_vals = _campaign_values(r["outcome_serial"])
        assert serial_vals == vector_vals, "vector campaign diverged from serial"
    if r["outcome_numba"] is not None:
        assert r["outcome_numba"].report.n_errors == 0
        numba_vals = _campaign_values(r["outcome_numba"])
        assert numba_vals == vector_vals, "numba kernel diverged from fused"

    required_numba = os.environ.get("REPRO_BENCH_REQUIRE_NUMBA_SPEEDUP")
    if required_numba:
        # The A/B gate must never skip-pass: a CI leg that sets it on a
        # host whose numba install silently broke should go red, not
        # green. The *intentional* skip happens upstream (the workflow
        # only sets the gate after probing that numba imports).
        assert r["numba_speedup"] is not None, (
            "REPRO_BENCH_REQUIRE_NUMBA_SPEEDUP is set but numba is not "
            "importable on this host — install the 'kernels' extra or "
            "unset the gate"
        )
        floor = float(required_numba)
        assert r["numba_speedup"] >= floor, (
            f"numba kernel {r['numba_speedup']:.2f}x not >= required "
            f"{floor:g}x (fused {r['vector_s']:.2f}s, numba "
            f"{r['numba_s']:.2f}s, {r['cpus']} cpus)"
        )


def _json_report(r) -> dict:
    return {
        key: r[key]
        for key in (
            "campaign",
            "mode",
            "n_points",
            "n_unique",
            "serial_s",
            "vector_s",
            "numba_s",
            "numba_available",
            "speedup",
            "numba_speedup",
            "points_per_s_serial",
            "points_per_s_vector",
            "points_per_s_numba",
            "phases",
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


def bench_batch_solver(once):
    r = once(_run_all)
    _assert_claims(r)
    _write_json(r, None)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the machine-readable report here "
        "(default: $REPRO_BENCH_JSON if set)",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="paper-scale N=100 campaign (serial backend leg skipped "
        "unless --serial is also passed)",
    )
    parser.add_argument(
        "--serial", action="store_true",
        help="force the serial backend leg even with --full",
    )
    args = parser.parse_args(argv)

    r = _run_all(full=args.full, include_serial=True if args.serial else None)
    _assert_claims(r)
    report = r["outcome_vector"].report
    print(
        f"campaign: {r['campaign']} [{r['mode']}] ({r['n_points']} points, "
        f"{r['n_unique']} unique after dedup; {r['cpus']} cpus)"
    )
    if r["serial_s"] is not None:
        print(f"{'serial backend':20s} {r['serial_s']:8.2f}s  "
              f"{r['points_per_s_serial']:7.1f} pts/s   1.00x")
    speedup = f"{r['speedup']:5.2f}x vs serial" if r["speedup"] else ""
    print(f"{'vector, fused':20s} {r['vector_s']:8.2f}s  "
          f"{r['points_per_s_vector']:7.1f} pts/s  {speedup}")
    if r["numba_s"] is not None:
        print(f"{'vector, numba':20s} {r['numba_s']:8.2f}s  "
              f"{r['points_per_s_numba']:7.1f} pts/s  "
              f"{r['numba_speedup']:5.2f}x vs fused")
    else:
        print(f"{'vector, numba':20s} skipped — numba not importable "
              "(pip install repro[kernels])")
    print(f"batch report: {report.describe()}")
    print("bit-identical: yes (asserted)")
    _write_json(r, args.json)


if __name__ == "__main__":
    main()
