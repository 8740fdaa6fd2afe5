#!/usr/bin/env python3
"""The repository benchmark: two seeded workloads, timed end to end and per layer.

Run from the repository root (no install, no build step)::

    python3 perfbench/run.py --workload paper-batch --seed 0 --seconds 35 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

``paper-batch``
    One request is ``Campaign.run`` of the fig2–fig5 campaign at N=100,
    then ``SurvivabilitySweep.run`` of the contested-burst grid at N=40,
    each on a fresh ``BatchRunner`` with the ``vector`` backend; one
    caller, closed loop.
``service-sessions``
    A ``serve`` process and one ``work`` process (both on their default
    backends, the server with a disk result cache) and two client
    threads submitting small TIDS sweeps through ``--jobs remote``'s
    ``RemoteBackend``, closed loop.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` repeats the untraced measurement, then makes a second,
traced pass (``repro.obs`` tracing on, layer wrappers from
``layers.py`` installed) and reports the per-layer metrics instead.
Either way the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; human-readable
detail goes to standard error.  Every run checks the program's results
after the timed region; a failed check makes ``correct`` false and the
exit code 1.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402 — the clock above starts before any import
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for the service's cache, logs and written-out spans.
OUT_DIR = ROOT / ".perfbench-out"

WORKLOADS = ("paper-batch", "service-sessions")
#: Extra fresh-process set-ups per run; setup_s is the median of these
#: and the run's own set-up.
SETUP_PROBES = 2
#: Campaign points re-solved on the SPN oracle per run (~4.5 s each;
#: each seed samples a different point).
ORACLE_SAMPLE = 1
ORACLE_RTOL = 1e-9
#: survivability curves re-solved per point per run (~1–4 s each).
CURVE_SAMPLE = 2
#: Largest final S(t) allowed: the grid must stay in the transient regime.
MAX_FINAL_SURVIVAL = 0.9
SERVICE_CLIENTS = 2
#: Minimum samples beyond a percentile for it to count as a tail.
TAIL_SAMPLES = 10

#: Program counters read per request; the deterministic ones must repeat.
COUNTERS = (
    "engine.requests",
    "engine.unique",
    "engine.cache_hits",
    "fastpath.rate_fills",
    "fastpath.structure_builds",
    "solver.dag_batch_solves",
    "solver.dag_points_solved",
    "solver.dag_level_sweeps",
    "solver.transient_batch_solves",
    "solver.transient_points_solved",
    "solver.uniformization_steps",
)

END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("points_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

#: Wrapped layer functions (see layers.LAYERS): total and self seconds
#: per request are reported for each.
TIMED_STEMS = (
    "engine.jobs.campaign_run",
    "engine.jobs.survivability_run",
    "engine.batch.run",
    "engine.keys.fingerprint",
    "engine.cache.get",
    "engine.cache.put",
    "engine.executor.vector_run",
    "core.fastpath.lattice_structure",
    "core.fastpath.fill_transition_rates",
    "core.fastpath.build_lattice_chain",
    "core.rates.from_scenario",
    "voting.majority.table",
    "costs.aggregate.cost_vector",
    "ctmc.acyclic.solve_dag_batch",
    "ctmc.transient.transient_distribution_batch",
    "core.metrics.evaluate",
    "ctmc.absorbing.analyze_absorbing",
    "service.client.remote_run",
    "service.client.submit",
    "service.client.fetch",
    "service.worker.busy",
)

#: (name, unit, better) of every per-layer metric other than the
#: TIMED_STEMS pairs.  Values are per request (one campaign plus one
#: survivability sweep, or one service sweep) unless the unit says
#: otherwise.
PER_LAYER_EXTRA = (
    ("engine.batch.dedup_s", "s", "lower"),
    ("engine.batch.cache_lookup_s", "s", "lower"),
    ("engine.batch.evaluate_s", "s", "lower"),
    ("engine.batch.store_s", "s", "lower"),
    ("engine.batch.requests", "count", "lower"),
    ("engine.batch.unique", "count", "lower"),
    ("engine.batch.cache_hits", "count", "higher"),
    ("engine.batch.evaluate_unattributed_s", "s", "lower"),
    ("engine.batch.evaluate_attributed_share", "ratio", "higher"),
    ("engine.keys.fingerprints", "count", "lower"),
    ("engine.cache.gets", "count", "lower"),
    ("engine.cache.puts", "count", "lower"),
    ("engine.cache.hit_rate", "ratio", "higher"),
    ("engine.cache.corrupt_records", "count", "lower"),
    ("core.fastpath.structure_builds", "count", "lower"),
    ("core.fastpath.rate_fills", "count", "lower"),
    ("costs.aggregate.cost_vector_rows", "count", "lower"),
    ("ctmc.acyclic.calls", "count", "lower"),
    ("ctmc.acyclic.points", "count", "lower"),
    ("ctmc.acyclic.level_sweeps", "count", "lower"),
    ("ctmc.acyclic.computed_bytes", "bytes", "lower"),
    ("ctmc.transient.uniformization_steps", "count", "lower"),
    ("ctmc.transient.computed_bytes", "bytes", "lower"),
    ("core.metrics.points", "count", "lower"),
    ("service.client.submits", "count", "lower"),
    ("service.client.fetches", "count", "lower"),
    ("service.client.poll_wait_s", "s", "lower"),
    ("service.pool.chunks_dispatched", "count", "lower"),
    ("service.pool.chunks_local_fallback", "count", "lower"),
    ("service.pool.chunks_reassigned", "count", "lower"),
    ("service.pool.leases_expired", "count", "lower"),
    ("service.server.workers_registered", "count/run", "lower"),
    ("service.server.busy_s", "s", "lower"),
    ("service.worker.points_completed", "count", "higher"),
    ("service.worker.extra_registrations", "count/run", "lower"),
    ("obs.tracing_overhead", "ratio", "lower"),
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in print order."""
    spec: list[tuple[str, str, str]] = []
    for stem in TIMED_STEMS:
        spec.append((f"{stem}_s", "s", "lower"))
        spec.append((f"{stem}_self_s", "s", "lower"))
    return spec + list(PER_LAYER_EXTRA)


def log(message: str) -> None:
    """Write one line of detail to standard error."""
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Program import (from this checkout's src/ only)
# ---------------------------------------------------------------------------

def import_program() -> None:
    """Put this checkout's ``src`` first on the path and check it is used."""
    package = SRC / "repro" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"error: program source not found at {package.parent}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import repro

    if Path(repro.__file__).resolve() != package.resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {package}")


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float]:
    """``(percentile, value)``: the highest percentile with at least
    TAIL_SAMPLES samples above it.  When that percentile would not lie
    above the median (fewer than 2 × TAIL_SAMPLES + 1 samples, as in
    the batch workload's few long requests) it is the maximum instead,
    reported as percentile 100."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - TAIL_SAMPLES  # ordered[rank:] are the samples beyond it
    if 2 * rank <= n:
        return 100.0, ordered[-1]
    return 100.0 * rank / n, ordered[rank - 1]


def counter_delta(before: dict, after: dict) -> dict[str, float]:
    """Change of each COUNTERS value between two ``repro.obs`` snapshots."""
    return {
        name: float(after.get(name, {}).get("value", 0.0)) - float(before.get(name, {}).get("value", 0.0))
        for name in COUNTERS
    }


# ---------------------------------------------------------------------------
# Batch workload: paper-batch
# ---------------------------------------------------------------------------

class BatchWorkload:
    """The paper-batch request, closed loop: the fig2–fig5 campaign, then
    the contested-burst survivability sweep, each from a cold start."""

    def __init__(self, seed: int) -> None:
        import workloads

        self.seed = seed
        self.campaign = workloads.paper_full(seed)
        self.sweep = workloads.survivability(seed)
        self.parts = (
            ("campaign", self.campaign, [req for job in self.campaign.jobs for _, req in job.requests()]),
            ("survivability", self.sweep, [req for _, req in self.sweep.requests()]),
        )
        self.unique_by_part = {name: workloads.unique_count(requests) for name, _, requests in self.parts}
        self.unique = sum(self.unique_by_part.values())
        self.first: list[str] | None = None  # canonical results of request 0
        self.first_points: dict[str, list] = {}
        self.first_counts: dict[str, dict[str, float]] | None = None
        self.failed = 0
        self.attempted = 0
        self.problems: list[str] = []

    @staticmethod
    def _points(name: str, outcome) -> list:
        if name == "campaign":
            return [result for job in outcome.outcomes for _, result in job.points]
        return [result for _, result in outcome.points]

    @staticmethod
    def _cold_runner():
        """A fresh vector runner, the process-wide memos cleared: a fresh
        CLI run starts without them."""
        from repro.core.fastpath import clear_structure_cache
        from repro.engine import BatchRunner, make_backend
        from repro.voting.majority import clear_table_cache

        clear_structure_cache()
        clear_table_cache()
        return BatchRunner(backend=make_backend("vector"))

    def warm_up(self) -> None:
        """One untimed campaign, so that no timed request pays the
        process's first-touch costs (page faults, lazy imports)."""
        self.campaign.run(self._cold_runner())

    def request(self) -> tuple[float, list, list[float]]:
        """One timed request, each part from an equal cold start.

        Returns (seconds, the parts' batch reports, the parts' seconds).
        """
        from repro.obs import metrics

        points: dict[str, list] = {}
        counts: dict[str, dict[str, float]] = {}
        reports, seconds = [], []
        for name, job, _ in self.parts:
            runner = self._cold_runner()
            before = metrics().snapshot()
            t = time.perf_counter()
            outcome = job.run(runner)
            seconds.append(time.perf_counter() - t)
            counts[name] = counter_delta(before, metrics().snapshot())
            points[name] = self._points(name, outcome)
            reports.append(outcome.report)
        self._check_request(points, counts)
        return sum(seconds), reports, seconds

    def _check_request(self, points: dict[str, list], counts: dict[str, dict[str, float]]) -> None:
        """Cheap per-request checks; results are compared to request 0's."""
        import workloads

        flat = [result for name, _, _ in self.parts for result in points[name]]
        self.attempted += len(flat)
        self.failed += sum(1 for r in flat if r is None)
        canon = [workloads.canonical(r) if r is not None else None for r in flat]
        if self.first is None:
            self.first, self.first_points, self.first_counts = canon, points, counts
            self._check_counts(counts)
        else:
            differing = sum(1 for a, b in zip(canon, self.first) if a is not None and a != b)
            if differing:
                self.failed += differing
                self.problems.append(f"{differing} results differ from request 0")
            if counts != self.first_counts:
                self.failed += 1
                self.problems.append(f"work counts {counts} != request 0's {self.first_counts}")

    def _check_counts(self, counts: dict[str, dict[str, float]]) -> None:
        for name, _, requests in self.parts:
            expected = {
                "engine.requests": len(requests),
                "engine.unique": self.unique_by_part[name],
                "engine.cache_hits": 0,
                "fastpath.rate_fills": self.unique_by_part[name],
                "fastpath.structure_builds": 1,
            }
            for counter, value in expected.items():
                if counts[name][counter] != value:
                    self.failed += 1
                    self.problems.append(f"{name}: {counter} = {counts[name][counter]:g}, expected {value}")

    def check_results(self) -> None:
        """Checks against independent solvers, outside the timed region."""
        rng = random.Random(f"{self.seed}-paper-batch-check")
        if self.first is None:
            return
        if any(point is None for points in self.first_points.values() for point in points):
            self.problems.append("request 0 has failed points")
            return
        self._check_oracle(self._sample(rng, self.first_points["campaign"], ORACLE_SAMPLE))
        curves = self.first_points["survivability"]
        self._check_curves(self._sample(rng, curves, CURVE_SAMPLE))
        high = [point.survival[-1] for point in curves if not point.survival[-1] < MAX_FINAL_SURVIVAL]
        if high:
            self.failed += len(high)
            self.problems.append(f"{len(high)} curves end at S >= {MAX_FINAL_SURVIVAL}")

    @staticmethod
    def _sample(rng: random.Random, points: list, count: int) -> list:
        """``count`` seeded distinct scenario points out of ``points``."""
        by_key = {}
        for point in points:
            by_key.setdefault(json.dumps(point.params.to_dict(), sort_keys=True), point)
        return [by_key[k] for k in rng.sample(sorted(by_key), count)]

    def _check_oracle(self, points: list) -> None:
        from repro.core.metrics import evaluate

        for point in points:
            oracle = evaluate(point.params, method="spn")
            pairs = [(point.mttsf_s, oracle.mttsf_s), (point.ctotal_hop_bits_s, oracle.ctotal_hop_bits_s)]
            pairs += [(point.failure_probabilities[k], oracle.failure_probabilities[k]) for k in oracle.failure_probabilities]
            if all(math.isclose(a, b, rel_tol=ORACLE_RTOL, abs_tol=1e-300) for a, b in pairs):
                log(f"  oracle: {point.params.describe()} agrees with SPN at rtol {ORACLE_RTOL:g}")
            else:
                self.failed += 1
                self.problems.append(f"SPN oracle disagrees at {point.params.describe()}: {pairs}")

    def _check_curves(self, points: list) -> None:
        import numpy as np
        from repro.core.metrics import evaluate_survivability
        from repro.ctmc.transient import BATCH_EQUIVALENCE_RTOL

        for point in points:
            ref = evaluate_survivability(point.params, None, times=self.sweep.times_s, eps=self.sweep.eps)
            ok = all(
                np.allclose(a, b, rtol=BATCH_EQUIVALENCE_RTOL, atol=1e-12)
                for a, b in (
                    (point.survival, ref.survival),
                    (point.failure_cdf["any"], ref.failure_cdf["any"]),
                    (point.time_bounded_cost, ref.time_bounded_cost),
                )
            )
            if ok:
                log(f"  curve: {point.params.describe()} agrees per point at rtol {BATCH_EQUIVALENCE_RTOL:g}")
            else:
                self.failed += 1
                self.problems.append(f"per-point curve disagrees at {point.params.describe()}")


def timed_loop(step, seconds: float) -> tuple[list, float]:
    """Closed loop: call ``step`` until ``seconds`` have been spent."""
    samples = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        samples.append(step())
    return samples, time.perf_counter() - start


def run_batch(seed: int, seconds: float, trace: bool) -> dict:
    """Measure paper-batch; check the results afterwards."""
    bench = BatchWorkload(seed)
    setup = time.perf_counter() - _T0
    sizes = ", ".join(f"{name} {len(requests)} requests/{bench.unique_by_part[name]} unique" for name, _, requests in bench.parts)
    log(f"paper-batch: {sizes}; set-up {setup:.3f}s")
    bench.warm_up()
    samples, wall = timed_loop(bench.request, seconds)
    latencies = [s for s, _, _ in samples]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    log(f"  {len(latencies)} requests (campaign + sweep): " + " ".join(f"{a:.3f}+{b:.3f}" for _, _, (a, b) in samples))
    result = {"setup_s": setup, "latencies": latencies, "wall": wall, "points": bench.unique * len(latencies), "peak_rss_mb": peak_rss_mb}
    if trace:
        result["layers"] = traced_batch(bench, seconds, latencies)
    bench.check_results()
    result.update(attempted=bench.attempted, failed=bench.failed, problems=bench.problems)
    return result


def traced_batch(bench: BatchWorkload, seconds: float, untraced: list[float]) -> dict:
    """Second pass with tracing on: per-layer numbers per request."""
    from layers import Recorder
    from repro.obs import disable_tracing, enable_tracing, metrics, tracer

    recorder = Recorder()
    recorder.install()
    tracer().clear()
    enable_tracing()
    reports: list = []
    requests = 0
    before = metrics().snapshot()

    def step():
        nonlocal requests
        recorder.request = requests
        with recorder.span("request"):
            elapsed, parts, _ = bench.request()
        reports.extend(parts)
        requests += 1
        return elapsed

    try:
        latencies, _ = timed_loop(step, seconds)
    finally:
        disable_tracing()
        recorder.uninstall()
    counts = counter_delta(before, metrics().snapshot())
    write_spans("paper-batch", recorder, tracer().records())
    n = requests
    values = layer_values(recorder.summary(), n)
    values.update(report_values(reports, n))
    values["engine.batch.cache_hits"] = sum(r.n_cache_hits for r in reports) / n
    values["engine.cache.hit_rate"] = sum(r.n_cache_hits for r in reports) / max(1, sum(r.n_unique for r in reports))
    values["core.fastpath.structure_builds"] = counts["fastpath.structure_builds"] / n
    values["ctmc.acyclic.level_sweeps"] = counts["solver.dag_level_sweeps"] / n
    values["ctmc.transient.uniformization_steps"] = counts["solver.uniformization_steps"] / n
    # The executor's children are the named layers; whatever of the
    # evaluate phase they do not cover is unattributed.
    covered = recorder.children_total("engine.executor.vector_run") / n
    values["engine.batch.evaluate_unattributed_s"] = values["engine.batch.evaluate_s"] - covered
    values["engine.batch.evaluate_attributed_share"] = covered / values["engine.batch.evaluate_s"]
    values["obs.tracing_overhead"] = statistics.median(latencies) / statistics.median(untraced) - 1.0
    log(f"  traced: {n} requests, attributed {values['engine.batch.evaluate_attributed_share']:.1%} of evaluate")
    return values


def layer_values(summary: dict, requests: int) -> dict[str, float]:
    """Per-request layer numbers from one or more recorder summaries."""
    totals, calls, work, nbytes = summary["totals"], summary["calls"], summary["work"], summary["bytes"]
    values: dict[str, float] = {}
    for stem in TIMED_STEMS:
        entry = totals.get(stem, {})
        values[f"{stem}_s"] = entry.get("total_s", 0.0) / requests
        values[f"{stem}_self_s"] = entry.get("self_s", 0.0) / requests
    per = {
        "engine.keys.fingerprints": calls.get("engine.keys.fingerprint", 0),
        "engine.cache.gets": calls.get("engine.cache.get", 0),
        "engine.cache.puts": calls.get("engine.cache.put", 0),
        "core.fastpath.rate_fills": calls.get("core.fastpath.fill_transition_rates", 0),
        "costs.aggregate.cost_vector_rows": work.get("costs.aggregate.cost_vector", 0),
        "ctmc.acyclic.calls": calls.get("ctmc.acyclic.solve_dag_batch", 0),
        "ctmc.acyclic.points": work.get("ctmc.acyclic.solve_dag_batch", 0),
        "ctmc.acyclic.computed_bytes": nbytes.get("ctmc.acyclic.solve_dag_batch", 0),
        "ctmc.transient.computed_bytes": nbytes.get("ctmc.transient.transient_distribution_batch", 0),
        "core.metrics.points": calls.get("core.metrics.evaluate", 0),
        "service.client.submits": calls.get("service.client.submit", 0),
        "service.client.fetches": calls.get("service.client.fetch", 0),
    }
    values.update({name: count / requests for name, count in per.items()})
    return values


def report_values(reports: list, n: int) -> dict[str, float]:
    """Per-request phase times and counts from ``n`` requests' batch reports."""
    values = {
        f"engine.batch.{phase}_s": sum(r.phase_seconds.get(phase, 0.0) for r in reports) / n
        for phase in ("dedup", "cache_lookup", "evaluate", "store")
    }
    values["engine.batch.requests"] = sum(r.n_requested for r in reports) / n
    values["engine.batch.unique"] = sum(r.n_unique for r in reports) / n
    return values


def merge_summaries(summaries: list[dict]) -> dict:
    """Sum recorder summaries from several processes."""
    merged: dict = {"totals": {}, "calls": {}, "work": {}, "bytes": {}}
    for summary in summaries:
        for name, entry in summary["totals"].items():
            into = merged["totals"].setdefault(name, {"total_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += entry[key]
        for section in ("calls", "work", "bytes"):
            for name, value in summary[section].items():
                merged[section][name] = merged[section].get(name, 0) + value
    return merged


def write_spans(workload: str, recorder, obs_records) -> None:
    """Write the benchmark's and the program's spans out, once, at the end."""
    from repro.obs import write_jsonl

    OUT_DIR.mkdir(exist_ok=True)
    recorder.dump(str(OUT_DIR / f"{workload}-layers.jsonl"))
    write_jsonl(str(OUT_DIR / f"{workload}-obs.jsonl"), obs_records)


# ---------------------------------------------------------------------------
# Service workload
# ---------------------------------------------------------------------------

class Service:
    """One ``serve`` process plus one ``work`` process, both children."""

    def __init__(self, traced: bool, tag: str) -> None:
        from repro.service import ServiceClient

        self.dir = OUT_DIR / f"service-{os.getpid()}-{tag}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.traced = traced
        self.procs: list[subprocess.Popen] = []
        self.layer_files: list[Path] = []
        server_args = ["serve", "--port", "0", "--cache-dir", str(self.dir / "cache")]
        if traced:
            server_args += ["--trace", str(OUT_DIR / "service-sessions-server-obs.jsonl")]
        try:
            self._spawn("server", server_args)
            # The worker imports the program while the server starts up,
            # then reads the server's URL from the server's log.
            self._spawn("worker", ["work", "--name", "perfbench-worker"], server_log=self.dir / "server.out")
            self.url = self._await_url(self.dir / "server.out")
            self.client = ServiceClient(self.url)
            self._await_live_worker()
        except BaseException:
            self.stop()
            raise

    def _spawn(self, role: str, args: list[str], server_log: Path | None = None) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
        env.pop("PERFBENCH_LAYERS_OUT", None)
        env.pop("PERFBENCH_SERVER_LOG", None)
        if server_log is not None:
            env["PERFBENCH_SERVER_LOG"] = str(server_log)
        if self.traced:
            path = self.dir / f"{role}-layers.json"
            env["PERFBENCH_LAYERS_OUT"] = str(path)
            self.layer_files.append(path)
        with open(self.dir / f"{role}.out", "wb") as out:
            self.procs.append(subprocess.Popen(
                [sys.executable, str(HERE / "service_proc.py"), *args],
                cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
            ))

    def _await_url(self, path: Path, timeout: float = 60.0) -> str:
        from service_proc import logged_url

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            url = logged_url(path)
            if url is not None:
                return url
            if self.procs[0].poll() is not None:
                raise RuntimeError(f"server exited early:\n{path.read_text(errors='replace')}")
            time.sleep(0.01)
        raise RuntimeError("server did not report its URL")

    def _await_live_worker(self, timeout: float = 60.0) -> None:
        """Wait until /health lists a live worker (the roster dict itself
        is always present, so test its entries, not its truthiness)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            roster = self.client.health()["workers"]["roster"]
            if any(w["state"] in ("idle", "busy") for w in roster):
                return
            if self.procs[1].poll() is not None:
                raise RuntimeError("worker exited before registering")
            time.sleep(0.01)
        raise RuntimeError("no live worker in the roster")

    def stop(self) -> None:
        """SIGINT the worker, then the server; wait for both to exit."""
        for proc in reversed(self.procs):
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.procs = []

    def summaries(self) -> list[dict]:
        """Layer totals the traced server and worker wrote on exit."""
        return [json.loads(path.read_text()) for path in self.layer_files if path.is_file()]

    def cleanup(self) -> None:
        """Delete the service's cache and logs."""
        shutil.rmtree(self.dir, ignore_errors=True)


class Sessions:
    """Closed-loop client threads, each walking its own list of sweeps."""

    def __init__(self, seed: int) -> None:
        import workloads

        self.sessions = workloads.service_sessions(seed, clients=SERVICE_CLIENTS)

    def run(self, url: str, seconds: float) -> tuple[list[tuple], float, list]:
        """Run every client until ``seconds`` pass; in-flight sweeps finish.

        Returns ``(sweep, seconds, results, report)`` per completed sweep,
        the wall time, and the client-side caches.
        """
        from repro.engine import BatchRunner, ResultCache
        from repro.service import RemoteBackend

        deadline = time.perf_counter() + seconds
        done: list[list[tuple]] = [[] for _ in self.sessions]
        caches: list = []
        errors: list[Exception] = []

        def client(index: int) -> None:
            try:
                for sweep in self.sessions[index]:
                    if time.perf_counter() >= deadline:
                        return
                    # A fresh memory cache per sweep, like a fresh
                    # `sweep --jobs remote` invocation: every sweep
                    # reaches the server.
                    cache = ResultCache()
                    caches.append(cache)
                    runner = BatchRunner(cache=cache, backend=RemoteBackend(url, poll_timeout=120.0, name=sweep.label))
                    t = time.perf_counter()
                    batch = runner.run(list(sweep.requests))
                    done[index].append((sweep, time.perf_counter() - t, batch.results, batch.report))
            except Exception as exc:  # noqa: BLE001 — re-raised in the caller
                errors.append(exc)

        start = time.perf_counter()
        threads = [threading.Thread(target=client, args=(i,)) for i in range(len(self.sessions))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        if errors:
            raise errors[0]
        return [item for items in done for item in items], wall, caches


def check_service(completed: list[tuple]) -> tuple[int, int, list[str]]:
    """Every fetched result against an in-process vector evaluation."""
    import workloads
    from repro.engine import BatchRunner, make_backend

    attempted = sum(len(sweep.requests) for sweep, *_ in completed)
    problems: list[str] = []
    fetched: dict[str, list] = {}
    requests: dict[str, object] = {}
    for sweep, _, results, _ in completed:
        for request, result in zip(sweep.requests, results):
            key = request.fingerprint()
            requests.setdefault(key, request)
            fetched.setdefault(key, []).append(result)
    keys = sorted(requests)
    batch = BatchRunner(backend=make_backend("vector")).run([requests[k] for k in keys])
    wrong: list[str] = []
    for key, reference in zip(keys, batch.results):
        expected = workloads.canonical(reference) if reference is not None else None
        for result in fetched[key]:
            if result is None or expected is None or workloads.canonical(result) != expected:
                wrong.append(requests[key].params.describe())
    failed = len(wrong)
    if wrong:
        problems.append(f"{len(wrong)} fetched results differ from the vector evaluation, e.g. {wrong[0]}")
    log(f"  checked {len(keys)} unique points against the in-process vector backend")
    return attempted, failed, problems


def service_counters(health: dict) -> dict[str, float]:
    """Counter values from a ``/health`` payload's merged metrics."""
    return {name: float(entry.get("value", 0.0)) for name, entry in health["metrics"].items()}


def run_service(seed: int, seconds: float, trace: bool) -> dict:
    """Measure service-sessions; check every fetched result afterwards."""
    random.seed(seed)  # RemoteBackend's poll jitter and retry backoff
    sessions = Sessions(seed)
    service = Service(traced=False, tag="timed")
    try:
        setup = time.perf_counter() - _T0
        log(f"service-sessions: server {service.url}, worker live; set-up {setup:.3f}s")
        completed, wall, _ = sessions.run(service.url, seconds)
    finally:
        service.stop()
        service.cleanup()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    latencies = [elapsed for _, elapsed, _, _ in completed]
    repeats = sum(1 for sweep, *_ in completed if sweep.repeat)
    log(f"  {len(latencies)} sweeps ({repeats} repeats) in {wall:.2f}s: " + " ".join(f"{x:.3f}" for x in sorted(latencies)))
    points = sum(len(sweep.requests) for sweep, *_ in completed)
    result = {"setup_s": setup, "latencies": latencies, "wall": wall, "points": points, "peak_rss_mb": peak_rss_mb}
    if trace:
        traced, layers = traced_service(sessions, seconds, latencies)
        completed = completed + traced
        result["layers"] = layers
    attempted, failed, problems = check_service(completed)
    result.update(attempted=attempted, failed=failed, problems=problems)
    return result


def traced_service(sessions: Sessions, seconds: float, untraced: list[float]) -> tuple[list[tuple], dict]:
    """Second pass on a traced server and worker: per-layer numbers per sweep."""
    from layers import Recorder
    from repro.obs import disable_tracing, enable_tracing, tracer

    service = Service(traced=True, tag="traced")
    recorder = Recorder()
    poll_waits: list[float] = []
    try:
        from repro.service.client import RemoteBackend

        poll_delay = RemoteBackend._poll_delay

        def timed_poll_delay(self, *args):
            delay = poll_delay(self, *args)
            poll_waits.append(delay)
            return delay

        recorder.install()
        RemoteBackend._poll_delay = timed_poll_delay
        tracer().clear()
        enable_tracing()
        try:
            completed, _, caches = sessions.run(service.url, seconds)
        finally:
            disable_tracing()
            RemoteBackend._poll_delay = poll_delay
            recorder.uninstall()
        health = service.client.health()
        jobs = service.client.jobs()
    finally:
        service.stop()
    summaries = service.summaries()
    service.cleanup()
    write_spans("service-sessions", recorder, tracer().records())
    n = len(completed)
    values = layer_values(merge_summaries([recorder.summary(), *summaries]), n)
    counters = service_counters(health)
    roster = health["workers"]["roster"]
    server_cache = health["cache"]
    client_hits = sum(c.stats.hits for c in caches)
    client_lookups = sum(c.stats.lookups for c in caches)
    lookups = client_lookups + server_cache["memory_hits"] + server_cache["disk_hits"] + server_cache["misses"]
    hits = client_hits + server_cache["memory_hits"] + server_cache["disk_hits"]
    values["engine.cache.hit_rate"] = hits / lookups if lookups else 0.0
    values["engine.cache.corrupt_records"] = server_cache["corrupt_records"] + sum(c.stats.corrupt_records for c in caches)
    values.update(report_values([report for *_, report in completed], n))
    # Client-side caches are fresh per sweep; the hits happen server-side.
    values["engine.batch.cache_hits"] = counters.get("engine.cache_hits", 0.0) / n
    values["core.fastpath.structure_builds"] = counters.get("fastpath.structure_builds", 0.0) / n
    values["service.client.poll_wait_s"] = sum(poll_waits) / n
    for name in ("chunks_dispatched", "chunks_local_fallback", "chunks_reassigned", "leases_expired"):
        values[f"service.pool.{name}"] = counters.get(f"service.{name}", 0.0) / n
    registered = counters.get("service.workers_registered", 0.0)
    values["service.server.workers_registered"] = registered
    values["service.worker.extra_registrations"] = registered - 1
    values["service.server.busy_s"] = sum(job.elapsed_seconds for job in jobs) / max(1, len(jobs))
    values["service.worker.points_completed"] = sum(w["points_completed"] for w in roster) / n
    latencies = [elapsed for _, elapsed, _, _ in completed]
    values["obs.tracing_overhead"] = statistics.median(latencies) / statistics.median(untraced) - 1.0
    log(
        f"  traced: {n} sweeps; chunks dispatched {counters.get('service.chunks_dispatched', 0):g}, "
        f"local fallback {counters.get('service.chunks_local_fallback', 0):g}, registrations {registered:g}"
    )
    return completed, values


# ---------------------------------------------------------------------------
# Set-up probes and the result line
# ---------------------------------------------------------------------------

def setup_probe(workload: str, seed: int) -> float:
    """One set-up in a fresh process (the same code path as a run)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def probe_only(workload: str, seed: int) -> dict:
    """Do a run's set-up, undo it, and report how long it took."""
    if workload == "service-sessions":
        Sessions(seed)
        service = Service(traced=False, tag="probe")
        setup = time.perf_counter() - _T0
        try:
            service.stop()
        finally:
            service.cleanup()
    else:
        BatchWorkload(seed)
        setup = time.perf_counter() - _T0
    return {"setup_s": setup}


def main(argv: list[str] | None = None) -> int:
    """Run one workload and print the result object as the last line."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    import_program()

    if args.setup_probe:
        print(json.dumps(probe_only(args.workload, args.seed)))
        return 0

    if args.workload == "service-sessions":
        result = run_service(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_batch(args.seed, args.seconds, bool(args.trace))

    if args.trace:
        spec = per_layer_spec()
        layers = result["layers"]
        metrics = {name: {"value": float(layers.get(name, 0.0)), "unit": unit} for name, unit, _ in spec}
    else:
        setups = [result["setup_s"]] + [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        percentile, tail_value = tail(result["latencies"])
        values = {
            "setup_s": statistics.median(setups),
            "latency_p50_s": statistics.median(result["latencies"]),
            "latency_tail_s": tail_value,
            "points_per_s": result["points"] / result["wall"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        log(
            f"  set-ups {' '.join(f'{s:.3f}' for s in setups)}; tail is p{percentile:.1f} "
            f"of {len(result['latencies'])} requests"
        )
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for problem in result["problems"]:
        log(f"  FAILED: {problem}")
    correct = result["failed"] == 0 and not result["problems"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
