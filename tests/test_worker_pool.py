"""Fault-tolerance tests for the distributed worker pool (ISSUE 8).

The correctness bar for the multi-host tier:

* a campaign evaluated by pool workers is **byte-identical** to
  ``--jobs serial`` — including while workers are killed mid-chunk and
  restarted (leases expire, chunks are reassigned, results land
  exactly once);
* a poison chunk (fails ``max_attempts`` times on every worker) stops
  retrying and surfaces as per-point errors carrying the worker's
  traceback — the job completes, the batch does not hang;
* an empty or fully-quarantined pool degrades to local evaluation, so
  the service tier is never worse than PR 7's single-host behaviour;
* a client streaming results via ``offset`` survives a mid-job server
  restart: resubmit (same content-addressed job id), resume the
  stream, deliver every outcome exactly once.

Unit tests drive :class:`~repro.service.pool.WorkerPool` directly
(the test plays the worker); end-to-end tests boot the real HTTP
server with in-process :class:`~repro.service.worker.ServiceWorker`
threads and inject faults via :class:`~repro.service.chaos.ChaosConfig`.
"""

import dataclasses
import json
import math
import os
import threading
import time

import pytest

from repro.engine.batch import BatchRunner, EvalRequest, evaluate_auto
from repro.engine.cache import ResultCache
from repro.engine.executor import SerialBackend, run_chunk
from repro.obs import metrics, reset_observability
from repro.params import GCSParameters
from repro.service import (
    ChaosConfig,
    ChunkReport,
    DistributedBackend,
    PoolConfig,
    RemoteBackend,
    ServiceClient,
    ServiceError,
    ServiceServer,
    ServiceWorker,
    SweepService,
    WorkerPool,
    WorkerRegistration,
)
from repro.service.chaos import ChaosCorruption, ChaosKill
from repro.service.protocol import (
    FetchResponse,
    SubmitResponse,
    chunk_outcome_to_dict,
)

TIMING_FIELDS = ("build_seconds", "solve_seconds")


@pytest.fixture(autouse=True)
def _fresh_obs():
    reset_observability()
    yield
    reset_observability()


def _requests(count=3):
    scenarios = [
        GCSParameters.small_test(),
        GCSParameters.small_test().replacing(num_voters=3),
        GCSParameters.small_test().replacing(detection_interval_s=120.0),
    ]
    return [EvalRequest(params=p) for p in scenarios[:count]]


def _many_requests(count):
    """``count`` distinct points (a grid over the detection interval)."""
    return [
        EvalRequest(
            params=GCSParameters.small_test().replacing(
                detection_interval_s=60.0 + i
            )
        )
        for i in range(count)
    ]


def _strip_timings(record: dict) -> dict:
    return {k: v for k, v in record.items() if k not in TIMING_FIELDS}


def _counter(name: str) -> int:
    entry = metrics().snapshot().get(name)
    return entry["value"] if entry else 0


def _health_counter(health: dict, name: str) -> int:
    entry = health["metrics"].get(name)
    return entry["value"] if entry else 0


def _serial_reference(requests, tmp_path, sub="serial-reference"):
    batch = BatchRunner(
        cache=ResultCache(cache_dir=str(tmp_path / sub)),
        backend=SerialBackend(),
    ).run(requests, evaluate=evaluate_auto)
    batch.report.raise_on_error()
    return batch.results


# The in-process fault windows: ~10× smaller than production defaults
# so lease expiry / reassignment happen within a test-sized budget.
def _fast_config(**overrides):
    config = dict(
        lease_ttl_s=0.5,
        heartbeat_interval_s=0.1,
        poll_interval_s=0.05,
        reap_tick_s=0.05,
        backoff_base_s=0.02,
        backoff_cap_s=0.1,
        chunk_size=1,
    )
    config.update(overrides)
    return PoolConfig(**config)


class _RunThread(threading.Thread):
    """Drives ``run_distributed`` so the test thread can play the worker."""

    def __init__(self, pool, requests, **kwargs):
        super().__init__(name="run-distributed", daemon=True)
        self.pool = pool
        self.requests = requests
        self.kwargs = kwargs
        self.outcomes = None
        self.error = None

    def run(self):
        try:
            self.outcomes = self.pool.run_distributed(
                evaluate_auto,
                self.requests,
                fallback=SerialBackend(),
                **self.kwargs,
            )
        except BaseException as exc:  # noqa: BLE001 — surfaced by the test
            self.error = exc


def _register(pool, name="unit-worker"):
    return pool.register(
        WorkerRegistration(name=name, pid=os.getpid(), host="test-host")
    )


def _lease_blocking(pool, worker_id, timeout=15.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        response = pool.lease(worker_id)
        if response.chunk is not None:
            return response.chunk
        time.sleep(0.01)
    raise AssertionError(f"no chunk leased within {timeout}s")


def _evaluate_report(chunk, elapsed_s=None):
    """What a well-behaved worker reports for a leased chunk."""
    outcomes, _telemetry = run_chunk(
        evaluate_auto, list(enumerate(chunk.requests)), backend=SerialBackend()
    )
    return ChunkReport(
        chunk_id=chunk.chunk_id,
        outcomes=tuple(chunk_outcome_to_dict(o) for o in outcomes),
        elapsed_s=elapsed_s,
    )


_FAILURE = {
    "error": "boom",
    "error_type": "RuntimeError",
    "traceback": "Traceback (most recent call last): boom",
}


class TestWorkerPoolUnit:
    def test_lease_report_lifecycle_completes_batch(self, tmp_path):
        pool = WorkerPool(_fast_config())
        registered = _register(pool)
        requests = _requests(3)
        driver = _RunThread(pool, requests)
        driver.start()

        while driver.is_alive():
            response = pool.lease(registered.worker_id)
            if response.chunk is None:
                time.sleep(0.01)
                continue
            assert pool.report(
                registered.worker_id, _evaluate_report(response.chunk)
            )
        driver.join(timeout=30)
        assert driver.error is None

        outcomes = driver.outcomes
        assert [o.index for o in outcomes] == [0, 1, 2]
        assert all(o.ok for o in outcomes)
        for outcome, reference in zip(
            outcomes, _serial_reference(requests, tmp_path)
        ):
            assert _strip_timings(outcome.value.to_dict()) == _strip_timings(
                reference.to_dict()
            )
        assert _counter("service.chunks_completed") == 3
        assert _counter("service.chunks_local_fallback") == 0
        roster = pool.roster()
        assert roster["roster"][0]["chunks_completed"] == 3

    def test_expired_lease_is_reassigned_same_chunk(self):
        pool = WorkerPool(_fast_config(lease_ttl_s=0.2))
        registered = _register(pool)
        driver = _RunThread(pool, _requests(1))
        driver.start()

        first = _lease_blocking(pool, registered.worker_id)
        assert first.attempt == 1
        # Never report, never heartbeat: the lease must expire and the
        # *same* content-addressed chunk come back with attempt 2.
        second = _lease_blocking(pool, registered.worker_id)
        assert second.chunk_id == first.chunk_id
        assert second.attempt == 2
        pool.report(registered.worker_id, _evaluate_report(second))
        driver.join(timeout=30)
        assert driver.error is None
        assert all(o.ok for o in driver.outcomes)
        assert _counter("service.leases_expired") >= 1
        assert _counter("service.chunks_reassigned") >= 1

    def test_heartbeat_extends_lease_and_flags_stale_chunks(self):
        pool = WorkerPool(_fast_config(lease_ttl_s=0.3))
        registered = _register(pool)
        driver = _RunThread(pool, _requests(1))
        driver.start()

        chunk = _lease_blocking(pool, registered.worker_id)
        # Heartbeats every ~0.1s keep a 0.3s lease alive well past TTL.
        for _ in range(6):
            time.sleep(0.1)
            ack = pool.heartbeat(registered.worker_id, [chunk.chunk_id])
            assert chunk.chunk_id not in ack.stale
        assert _counter("service.leases_expired") == 0
        pool.report(registered.worker_id, _evaluate_report(chunk))
        driver.join(timeout=30)
        assert driver.error is None
        # A heartbeat for a chunk the pool no longer tracks is stale.
        ack = pool.heartbeat(registered.worker_id, [chunk.chunk_id])
        assert chunk.chunk_id in ack.stale

    def test_poison_chunk_resolves_to_point_errors(self):
        pool = WorkerPool(
            _fast_config(max_attempts=2, quarantine_after=100, chunk_size=3)
        )
        registered = _register(pool)
        driver = _RunThread(pool, _requests(3))
        driver.start()

        for attempt in (1, 2):
            chunk = _lease_blocking(pool, registered.worker_id)
            assert chunk.attempt == attempt
            pool.report(
                registered.worker_id,
                ChunkReport(chunk_id=chunk.chunk_id, failed=dict(_FAILURE)),
            )
        driver.join(timeout=30)
        assert driver.error is None

        outcomes = driver.outcomes
        assert len(outcomes) == 3
        assert all(not o.ok for o in outcomes)
        assert "poison chunk" in outcomes[0].error
        assert "boom" in outcomes[0].error
        assert outcomes[0].error_type == "RuntimeError"
        assert outcomes[0].traceback == _FAILURE["traceback"]
        assert _counter("service.chunks_poisoned") == 1

    def test_repeatedly_failing_worker_is_quarantined(self):
        pool = WorkerPool(
            _fast_config(quarantine_after=2, max_attempts=10)
        )
        registered = _register(pool)
        driver = _RunThread(pool, _requests(3))
        driver.start()

        for _ in range(2):
            chunk = _lease_blocking(pool, registered.worker_id)
            pool.report(
                registered.worker_id,
                ChunkReport(chunk_id=chunk.chunk_id, failed=dict(_FAILURE)),
            )
        # Quarantined: no more leases for this worker, ever.
        response = pool.lease(registered.worker_id)
        assert response.chunk is None
        assert response.retry_after_s is not None
        assert pool.roster()["quarantined"] == 1
        assert pool.live_worker_count() == 0
        assert _counter("service.workers_quarantined") == 1

        # With the only worker quarantined the batch still completes —
        # every chunk (including the two it failed) runs locally.
        driver.join(timeout=30)
        assert driver.error is None
        assert all(o.ok for o in driver.outcomes)
        assert _counter("service.chunks_local_fallback") >= 3

    def test_empty_pool_falls_back_to_local_evaluation(self, tmp_path):
        pool = WorkerPool(_fast_config())
        requests = _requests(3)
        outcomes = pool.run_distributed(
            evaluate_auto, requests, fallback=SerialBackend()
        )
        assert all(o.ok for o in outcomes)
        for outcome, reference in zip(
            outcomes, _serial_reference(requests, tmp_path)
        ):
            assert _strip_timings(outcome.value.to_dict()) == _strip_timings(
                reference.to_dict()
            )
        assert _counter("service.chunks_local_fallback") >= 1
        assert _counter("service.chunks_dispatched") == 0

    def test_duplicate_report_is_counted_and_dropped(self):
        pool = WorkerPool(_fast_config())
        registered = _register(pool)
        driver = _RunThread(pool, _requests(1))
        driver.start()

        chunk = _lease_blocking(pool, registered.worker_id)
        report = _evaluate_report(chunk)
        assert pool.report(registered.worker_id, report) is True
        assert pool.report(registered.worker_id, report) is False
        driver.join(timeout=30)
        assert driver.error is None
        assert all(o.ok for o in driver.outcomes)
        assert _counter("service.duplicate_results") == 1

    def test_deregister_requeues_held_leases(self):
        pool = WorkerPool(_fast_config())
        registered = _register(pool)
        driver = _RunThread(pool, _requests(1))
        driver.start()

        _lease_blocking(pool, registered.worker_id)
        pool.deregister(registered.worker_id)
        # The departed worker's chunk requeues and (pool now empty)
        # completes on the local fallback.
        driver.join(timeout=30)
        assert driver.error is None
        assert all(o.ok for o in driver.outcomes)
        assert _counter("service.chunks_reassigned") >= 1
        assert pool.roster()["total"] == 0

    def test_describe_hides_pool_until_a_worker_is_live(self):
        pool = WorkerPool(_fast_config())
        backend = DistributedBackend(pool, SerialBackend())
        assert backend.describe() == "serial"
        _register(pool)
        assert backend.describe() == "pool(workers=1)+serial"


class TestAdaptiveScheduling:
    """The scheduling layer: per-lease sizing, EWMA throughput, tail
    speculation, and the pool's lease-bookkeeping fixes (empty-pool
    carving, lost-worker recovery, backoff hints, late reports)."""

    def test_lease_sizing_uses_throughput_share(self):
        """Sizing ignores the advertised backend: an unmeasured worker
        gets share 1 (the mean of the measured live workers), a
        measured one its EWMA points/sec over that mean; the EWMA is in
        the roster."""
        # A long TTL keeps every worker live while the test evaluates.
        pool = WorkerPool(
            _fast_config(
                lease_ttl_s=30.0,
                chunk_size=None,
                chunks_per_worker=2,
                tail_min_lease_age_s=math.inf,
            )
        )
        fast = pool.register(
            WorkerRegistration(name="fast", pid=1, host="h", backend="vector")
        )
        slow = pool.register(
            WorkerRegistration(name="slow", pid=2, host="h", backend="serial")
        )
        driver = _RunThread(pool, _many_requests(24))
        driver.start()
        try:
            # Nobody measured: share 1 whatever the backend.
            # fast: ceil(24/4) = 6; slow: ceil(18/4) = 5.
            fast_chunk = _lease_blocking(pool, fast.worker_id)
            slow_chunk = _lease_blocking(pool, slow.worker_id)
            assert len(fast_chunk.requests) == 6
            assert len(slow_chunk.requests) == 5

            # Timed reports seed the EWMA (first observation verbatim).
            assert pool.report(
                fast.worker_id, _evaluate_report(fast_chunk, elapsed_s=0.5)
            )
            assert pool.report(
                slow.worker_id, _evaluate_report(slow_chunk, elapsed_s=2.0)
            )
            by_name = {e["name"]: e for e in pool.roster()["roster"]}
            assert by_name["fast"]["throughput_points_per_s"] == pytest.approx(
                12.0
            )
            assert by_name["slow"]["throughput_points_per_s"] == pytest.approx(
                2.5
            )
            assert by_name["fast"]["points_completed"] == 6

            # A late joiner is unmeasured: share 1 over 3 live workers,
            # ceil(13/6) = 3.  Measured shares (12 vs 2.5 pps, mean
            # 7.25): fast ceil(10/6 · 12/7.25) = 3, slow
            # ceil(7/6 · 2.5/7.25) = 1.
            late = _register(pool, name="late")
            late_chunk = _lease_blocking(pool, late.worker_id)
            fast_chunk = _lease_blocking(pool, fast.worker_id)
            slow_chunk = _lease_blocking(pool, slow.worker_id)
            assert len(late_chunk.requests) == 3
            assert len(fast_chunk.requests) == 3
            assert len(slow_chunk.requests) == 1

            # A second observation blends: 0.3·3 + 0.7·12 = 9.3.
            assert pool.report(
                fast.worker_id, _evaluate_report(fast_chunk, elapsed_s=1.0)
            )
            by_name = {e["name"]: e for e in pool.roster()["roster"]}
            assert by_name["fast"]["throughput_points_per_s"] == pytest.approx(
                9.3
            )
            assert pool.report(late.worker_id, _evaluate_report(late_chunk))
            assert pool.report(slow.worker_id, _evaluate_report(slow_chunk))

            while driver.is_alive():
                response = pool.lease(fast.worker_id)
                if response.chunk is None:
                    time.sleep(0.01)
                    continue
                pool.report(fast.worker_id, _evaluate_report(response.chunk))
            driver.join(timeout=30)
            assert driver.error is None
            assert all(o.ok for o in driver.outcomes)
        finally:
            driver.join(timeout=30)

    def test_empty_pool_at_submit_spreads_over_late_workers(self, tmp_path):
        """Regression (ISSUE 9 satellite): chunk sizes must NOT freeze
        at distribution time.  A job submitted to an empty pool used to
        be pre-split into ``ceil(total/4)`` mega-chunks sized for the
        instantaneous live count (0 → 1); workers that registered a
        moment later inherited those four oversized chunks.  With
        per-lease carving, a late worker's first lease is sized for the
        pool as it exists *now*."""
        pool = WorkerPool(
            _fast_config(
                chunk_size=None,
                chunks_per_worker=2,
                tail_min_lease_age_s=math.inf,
            )
        )
        requests = _many_requests(12)
        # Submit with NO workers registered; the slow local fallback
        # keeps the run alive long enough for workers to join.
        outcome_box = {}

        def _drive():
            outcome_box["outcomes"] = pool.run_distributed(
                evaluate_auto, requests, fallback=_SlowSerial(0.3)
            )

        thread = threading.Thread(target=_drive, daemon=True)
        thread.start()
        time.sleep(0.05)  # let the fallback grab (and sit on) one chunk

        late = [
            pool.register(
                WorkerRegistration(
                    name=f"late-{i}", pid=i, host="h", backend="serial"
                )
            )
            for i in range(3)
        ]
        # Three live workers now: every fresh lease is carved at
        # ceil(remaining / (3 workers · 2 chunks-per-worker)) — small
        # shares, NOT a quarter of the whole job.
        seen_sizes = []
        deadline = time.monotonic() + 30
        while thread.is_alive() and time.monotonic() < deadline:
            progressed = False
            for registered in late:
                response = pool.lease(registered.worker_id)
                if response.chunk is not None:
                    seen_sizes.append(len(response.chunk.requests))
                    pool.report(
                        registered.worker_id,
                        _evaluate_report(response.chunk),
                    )
                    progressed = True
            if not progressed:
                time.sleep(0.01)
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert all(o.ok for o in outcome_box["outcomes"])
        assert seen_sizes, "late workers never leased anything"
        # 12 points over 6 target chunks: every late lease is ≤ 2
        # points (the old frozen sizing would have handed out 3s).
        assert max(seen_sizes) <= 2
        assert len(seen_sizes) >= 3

    def test_speculative_duplicate_lease_first_report_wins(self, tmp_path):
        """Near the tail (nothing pending, nothing to carve) an idle
        worker duplicate-leases the in-flight chunk; the first report
        resolves it, the loser is dropped by the exactly-once dedup,
        and the batch stays byte-identical to serial."""
        pool = WorkerPool(
            _fast_config(chunk_size=2, tail_min_lease_age_s=0.0)
        )
        slow = _register(pool, name="straggler")
        fast = _register(pool, name="spectre")
        requests = _requests(2)
        driver = _RunThread(pool, requests)
        driver.start()

        original = _lease_blocking(pool, slow.worker_id)
        assert not original.speculative
        duplicate = _lease_blocking(pool, fast.worker_id)
        assert duplicate.chunk_id == original.chunk_id
        assert duplicate.speculative
        assert duplicate.attempt == 2
        assert _counter("service.leases_speculated") == 1

        assert pool.report(fast.worker_id, _evaluate_report(duplicate))
        # The straggler's late copy is a duplicate — counted, dropped.
        assert not pool.report(slow.worker_id, _evaluate_report(original))
        driver.join(timeout=30)
        assert driver.error is None
        assert _counter("service.duplicate_results") == 1
        assert _counter("service.chunks_completed") == 1

        outcomes = driver.outcomes
        assert [o.index for o in outcomes] == [0, 1]
        assert all(o.ok for o in outcomes)
        for outcome, reference in zip(
            outcomes, _serial_reference(requests, tmp_path)
        ):
            assert _strip_timings(outcome.value.to_dict()) == _strip_timings(
                reference.to_dict()
            )

    def test_failed_holder_leaves_chunk_to_surviving_lease(self):
        """One of two holders reports ``failed`` while the other lease
        is live: the chunk is not requeued, and the survivor's report
        resolves it."""
        pool = WorkerPool(
            _fast_config(
                lease_ttl_s=30.0, chunk_size=2, tail_min_lease_age_s=0.0
            )
        )
        first = _register(pool, name="first")
        second = _register(pool, name="second")
        driver = _RunThread(pool, _requests(2))
        driver.start()

        original = _lease_blocking(pool, first.worker_id)
        duplicate = _lease_blocking(pool, second.worker_id)
        assert duplicate.chunk_id == original.chunk_id
        assert pool.report(
            first.worker_id,
            ChunkReport(chunk_id=original.chunk_id, failed=dict(_FAILURE)),
        )
        assert _counter("service.chunks_failed") == 1
        assert _counter("service.chunks_reassigned") == 0

        assert pool.report(second.worker_id, _evaluate_report(duplicate))
        driver.join(timeout=30)
        assert driver.error is None
        assert all(o.ok for o in driver.outcomes)
        assert _counter("service.chunks_reassigned") == 0
        assert _counter("service.chunks_completed") == 1
        by_name = {e["name"]: e for e in pool.roster()["roster"]}
        assert by_name["first"]["chunks_failed"] == 1
        assert by_name["second"]["chunks_completed"] == 1

    @pytest.mark.parametrize("late", ["result", "failed"])
    def test_late_report_after_requeue_never_releases_twice(self, late):
        """Regression: a report that arrives after the lease expired and
        the chunk was requeued must not leave the chunk leasable twice.
        A late result resolves it (the next lease carves fresh work); a
        late failure keeps exactly one requeued copy."""
        # The lease lapses after 0.2s, but the worker counts as live
        # for 3s, so the local fallback never takes the chunks.
        pool = WorkerPool(
            _fast_config(
                lease_ttl_s=0.2,
                heartbeat_interval_s=1.0,
                tail_min_lease_age_s=math.inf,
            )
        )
        registered = _register(pool)
        driver = _RunThread(pool, _requests(2))
        driver.start()

        first = _lease_blocking(pool, registered.worker_id)
        deadline = time.monotonic() + 15
        while _counter("service.chunks_reassigned") < 1:
            assert time.monotonic() < deadline, "lease never expired"
            time.sleep(0.02)
        time.sleep(0.15)  # past the requeue backoff
        if late == "result":
            assert pool.report(registered.worker_id, _evaluate_report(first))
        else:
            pool.report(
                registered.worker_id,
                ChunkReport(chunk_id=first.chunk_id, failed=dict(_FAILURE)),
            )
            retry = _lease_blocking(pool, registered.worker_id)
            assert (retry.chunk_id, retry.attempt) == (first.chunk_id, 2)
            assert pool.report(registered.worker_id, _evaluate_report(retry))

        fresh = _lease_blocking(pool, registered.worker_id)
        assert fresh.chunk_id != first.chunk_id
        assert fresh.attempt == 1
        assert pool.report(registered.worker_id, _evaluate_report(fresh))
        driver.join(timeout=30)
        assert driver.error is None
        assert all(o.ok for o in driver.outcomes)
        assert pool.lease(registered.worker_id).chunk is None
        assert _counter("service.chunks_dispatched") == (
            2 if late == "result" else 3
        )

    def test_backoff_blocked_lease_hints_actual_eligibility_wait(self):
        """When every pending chunk is backoff-blocked the lease
        response's ``retry_after_s`` is the real wait until the
        earliest ``not_before``, not the generic poll interval."""
        pool = WorkerPool(
            _fast_config(
                backoff_base_s=0.5,
                backoff_cap_s=1.0,
                tail_min_lease_age_s=math.inf,
                max_attempts=3,
            )
        )
        registered = _register(pool)
        # No runs at all: the generic poll hint applies.
        idle_hint = pool.lease(registered.worker_id)
        assert idle_hint.chunk is None
        assert idle_hint.retry_after_s == pytest.approx(0.05)

        driver = _RunThread(pool, _requests(1))
        driver.start()
        chunk = _lease_blocking(pool, registered.worker_id)
        pool.report(
            registered.worker_id,
            ChunkReport(chunk_id=chunk.chunk_id, failed=dict(_FAILURE)),
        )
        # Requeued with ~0.5s backoff (±25% jitter): the hint must
        # reflect that wait, not the 0.05s poll default.
        blocked = pool.lease(registered.worker_id)
        assert blocked.chunk is None
        assert 0.2 < blocked.retry_after_s <= 0.65

        retry = _lease_blocking(pool, registered.worker_id)
        assert retry.chunk_id == chunk.chunk_id
        pool.report(registered.worker_id, _evaluate_report(retry))
        driver.join(timeout=30)
        assert driver.error is None
        assert all(o.ok for o in driver.outcomes)

    def test_lost_worker_recovers_on_heartbeat(self):
        """Satellite fix: a worker the reaper marked ``lost`` goes back
        to ``idle`` on its next heartbeat — not only on its next lease."""
        pool = WorkerPool(
            _fast_config(lease_ttl_s=0.2, heartbeat_interval_s=0.05)
        )
        registered = _register(pool)
        driver = _RunThread(pool, _requests(1))
        driver.start()
        # Hold a lease and go silent: the lease expires, the chunk
        # completes on the local fallback (the pool has no live worker
        # left), and the reaper stores state="lost".
        _lease_blocking(pool, registered.worker_id)
        driver.join(timeout=30)
        assert driver.error is None
        assert all(o.ok for o in driver.outcomes)
        assert pool.roster()["roster"][0]["state"] == "lost"
        assert pool.live_worker_count() == 0

        # One heartbeat brings it back — visible immediately in the
        # roster and the live count, without needing a lease first.
        pool.heartbeat(registered.worker_id)
        assert pool.roster()["roster"][0]["state"] == "idle"
        assert pool.live_worker_count() == 1


class _WorkerThread(threading.Thread):
    """An in-process ServiceWorker; a ChaosKill ends only this thread."""

    def __init__(self, url, *, name, chaos=None, client=None):
        super().__init__(name=f"svc-{name}", daemon=True)
        self.worker = ServiceWorker(
            url, name=name, chaos=chaos, client=client, poll_interval=0.05
        )
        self.died = None

    def run(self):
        try:
            self.worker.run()
        except ChaosKill as exc:
            self.died = exc
        except ServiceError:
            pass  # server shut down while polling — test teardown

    def stop(self, timeout=10.0):
        self.worker.stop()
        self.join(timeout=timeout)


class _ClientThread(threading.Thread):
    """A BatchRunner submitting through RemoteBackend on its own thread."""

    def __init__(self, url, requests, cache_dir):
        super().__init__(name="remote-client", daemon=True)
        self.url = url
        self.requests = requests
        self.cache_dir = str(cache_dir)
        self.batch = None
        self.error = None

    def run(self):
        try:
            self.batch = BatchRunner(
                cache=ResultCache(cache_dir=self.cache_dir),
                backend=RemoteBackend(self.url),
            ).run(self.requests, evaluate=evaluate_auto)
        except BaseException as exc:  # noqa: BLE001 — surfaced by the test
            self.error = exc


def _wait_for_workers(server, count, timeout=15.0):
    """Block until ``count`` workers are live (registration is async).

    Without this, a campaign submitted before the worker's
    registration lands is — correctly — evaluated by the empty-pool
    local fallback, and the test would not exercise the pool at all.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if server.service.pool.live_worker_count() >= count:
            return
        time.sleep(0.01)
    raise AssertionError(f"{count} worker(s) did not register in {timeout}s")


def _boot_server(tmp_path, *, pool_config, backend=None, cache_dir=None, port=0):
    service = SweepService(
        cache=ResultCache(
            cache_dir=str(cache_dir or (tmp_path / "server-cache"))
        ),
        backend=backend or SerialBackend(),
        pool_config=pool_config,
    )
    server = ServiceServer(service, port=port)
    server.start_in_background()
    return server


class TestServiceWorkerEndToEnd:
    def test_worker_killed_mid_chunk_chunk_reassigned_byte_identical(
        self, tmp_path
    ):
        """The flagship chaos scenario (ISSUE 8 acceptance):

        worker A dies mid-chunk (lease held, no report), a replacement
        worker picks up the reassigned chunk, and the campaign
        completes byte-identical to ``--jobs serial``.
        """
        server = _boot_server(
            tmp_path, pool_config=_fast_config(lease_ttl_s=0.4)
        )
        worker_b = None
        try:
            requests = _requests(3)
            worker_a = _WorkerThread(
                server.url,
                name="worker-a",
                chaos=ChaosConfig(kill_after_chunks=1, kill_mode="raise"),
            )
            worker_a.start()
            _wait_for_workers(server, 1)
            client = _ClientThread(
                server.url, requests, tmp_path / "client-cache"
            )
            client.start()

            # Worker A completes one chunk, then dies inside its second.
            worker_a.join(timeout=30)
            assert not worker_a.is_alive()
            assert worker_a.died is not None

            # "Restart" it: a fresh worker joins and inherits the load.
            worker_b = _WorkerThread(server.url, name="worker-a-restarted")
            worker_b.start()

            client.join(timeout=60)
            assert client.error is None
            batch = client.batch
            batch.report.raise_on_error()
            assert all(result is not None for result in batch.results)

            # Byte-identity: a serial run over the server's cache is
            # 100% disk hits, so the JSON must match bit-for-bit —
            # timing fields included (measured once, on the workers).
            with_server_cache = BatchRunner(
                cache=ResultCache(
                    cache_dir=server.service.runner.cache.cache_dir
                ),
                backend=SerialBackend(),
            ).run(requests, evaluate=evaluate_auto)
            assert with_server_cache.report.n_cache_hits == len(requests)
            for ours, theirs in zip(batch.results, with_server_cache.results):
                assert json.dumps(ours.to_dict(), sort_keys=True) == json.dumps(
                    theirs.to_dict(), sort_keys=True
                )

            health = ServiceClient(server.url).health()
            assert _health_counter(health, "service.leases_expired") >= 1
            assert _health_counter(health, "service.chunks_reassigned") >= 1
            workers = health["workers"]
            assert workers["total"] == 2
            dead = next(
                e for e in workers["roster"] if e["name"] == "worker-a"
            )
            assert dead["state"] == "lost"
            assert dead["chunks_failed"] >= 1
        finally:
            if worker_b is not None:
                worker_b.stop()
            server.stop()

    def test_corrupted_chunk_poisons_with_worker_traceback(self, tmp_path):
        server = _boot_server(
            tmp_path,
            pool_config=_fast_config(max_attempts=2, quarantine_after=100),
        )
        worker = None
        try:
            # Seeded corruption keyed on content-addressed chunk ids:
            # every retry of a chunk fails identically, which is
            # exactly the poison scenario the retry cap must stop.
            worker = _WorkerThread(
                server.url,
                name="corruptor",
                chaos=ChaosConfig(corrupt_seed=7, corrupt_one_in=1),
            )
            worker.start()
            _wait_for_workers(server, 1)
            requests = _requests(2)
            batch = BatchRunner(
                cache=ResultCache(cache_dir=str(tmp_path / "client-cache")),
                backend=RemoteBackend(server.url),
            ).run(requests, evaluate=evaluate_auto)

            assert list(batch.results) == [None, None]
            assert len(batch.report.errors) == 2
            for error in batch.report.errors:
                assert error.error_type == "ChaosCorruption"
                assert "poison chunk" in error.error
                assert "chaos" in error.traceback

            # >= because the in-process client absorbs the job's
            # telemetry delta into the same registry the server uses.
            health = ServiceClient(server.url).health()
            assert _health_counter(health, "service.chunks_poisoned") >= 2
            assert _health_counter(health, "service.chunks_failed") >= 4
        finally:
            if worker is not None:
                worker.stop()
            server.stop()

    def test_dropped_report_is_reassigned_and_completes(self, tmp_path):
        server = _boot_server(
            tmp_path, pool_config=_fast_config(lease_ttl_s=0.3)
        )
        worker = None
        try:
            # The worker evaluates its first chunk but the report is
            # lost on the wire; the lease expires and the chunk is
            # re-leased (to the same worker — it is still live).
            worker = _WorkerThread(
                server.url,
                name="lossy",
                chaos=ChaosConfig(drop_results=1),
            )
            worker.start()
            _wait_for_workers(server, 1)
            requests = _requests(2)
            batch = BatchRunner(
                cache=ResultCache(cache_dir=str(tmp_path / "client-cache")),
                backend=RemoteBackend(server.url),
            ).run(requests, evaluate=evaluate_auto)
            batch.report.raise_on_error()
            assert all(result is not None for result in batch.results)
            health = ServiceClient(server.url).health()
            assert _health_counter(health, "service.chunks_reassigned") >= 1
        finally:
            if worker is not None:
                worker.stop()
            server.stop()

    def test_slow_worker_tail_speculated_byte_identical(self, tmp_path):
        """The chaos straggler scenario: one worker is deliberately slowed
        (chaos chunk delay ≫ the fast worker's evaluation time) but
        keeps heartbeating — a straggler, not a corpse.  The scheduler
        must finish the job tail via speculation instead of waiting the
        straggler out, stay byte-identical to serial, and surface
        per-worker throughput in the roster."""
        server = _boot_server(
            tmp_path,
            pool_config=_fast_config(
                chunk_size=None, tail_min_lease_age_s=0.1
            ),
        )
        tortoise = hare = None
        try:
            requests = _many_requests(4)
            tortoise = _WorkerThread(
                server.url,
                name="tortoise",
                chaos=ChaosConfig(chunk_delay_s=1.5),
            )
            tortoise.start()
            _wait_for_workers(server, 1)

            started = time.monotonic()
            client = _ClientThread(
                server.url, requests, tmp_path / "client-cache"
            )
            client.start()
            # Let the tortoise actually lease (and sit on) a chunk
            # before the hare joins — otherwise a fast hare could drain
            # the whole queue and leave no straggler tail to rescue.
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline:
                roster = ServiceClient(server.url).health()["workers"]
                held = [
                    e for e in roster["roster"]
                    if e["name"] == "tortoise" and e["leases"]
                ]
                if held:
                    break
                time.sleep(0.02)
            assert held, "tortoise never leased a chunk"

            hare = _WorkerThread(server.url, name="hare")
            hare.start()
            client.join(timeout=60)
            elapsed = time.monotonic() - started
            assert client.error is None
            batch = client.batch
            batch.report.raise_on_error()
            assert all(result is not None for result in batch.results)
            # The tortoise sleeps 1.5s per chunk; had the tail waited
            # for it the job could not finish under ~1.5s per held
            # chunk.  (Generous bound — the point is "not serialized
            # behind the straggler", not a precise speedup.)
            assert elapsed < 20

            # Byte-identity vs serial over the server's cache (100%
            # hits, timing fields measured once on whichever worker
            # won each point).
            with_server_cache = BatchRunner(
                cache=ResultCache(
                    cache_dir=server.service.runner.cache.cache_dir
                ),
                backend=SerialBackend(),
            ).run(requests, evaluate=evaluate_auto)
            assert with_server_cache.report.n_cache_hits == len(requests)
            for ours, theirs in zip(batch.results, with_server_cache.results):
                assert json.dumps(ours.to_dict(), sort_keys=True) == json.dumps(
                    theirs.to_dict(), sort_keys=True
                )

            health = ServiceClient(server.url).health()
            assert _health_counter(health, "service.leases_speculated") >= 1
            by_name = {
                e["name"]: e for e in health["workers"]["roster"]
            }
            assert by_name["hare"]["throughput_points_per_s"] is not None
            assert by_name["hare"]["throughput_points_per_s"] > 0
            assert by_name["hare"]["backend"] == "vector"
            assert by_name["tortoise"]["backend"] == "vector"
        finally:
            for worker in (tortoise, hare):
                if worker is not None:
                    worker.stop()
            server.stop()

    def test_malformed_telemetry_is_a_400_before_any_state_change(
        self, tmp_path
    ):
        """A report whose ``telemetry`` (or its ``metrics``/``spans``)
        has the wrong shape is refused with 400 before the pool
        resolves anything; the well-formed report then lands."""
        server = _boot_server(
            tmp_path, pool_config=_fast_config(lease_ttl_s=30.0)
        )
        try:
            client = ServiceClient(server.url, retries=1)
            worker_id = client.register_worker(name="junk", pid=1).worker_id
            _wait_for_workers(server, 1)
            job = _ClientThread(server.url, _requests(1), tmp_path / "cc")
            job.start()
            deadline = time.monotonic() + 15
            chunk = None
            while chunk is None:
                assert time.monotonic() < deadline, "no chunk leased"
                chunk = client.lease_chunk(worker_id).chunk
                time.sleep(0.01)
            good = _evaluate_report(chunk)

            for telemetry in ("junk", {"metrics": [1]}, {"spans": {"a": 1}}):
                with pytest.raises(ServiceError) as info:
                    client.report_chunk(
                        worker_id,
                        dataclasses.replace(good, telemetry=telemetry),
                    )
                assert info.value.status == 400
            health = client.health()
            assert _health_counter(health, "service.chunks_completed") == 0
            (entry,) = health["workers"]["roster"]
            assert entry["leases"] == [chunk.chunk_id]

            assert client.report_chunk(worker_id, good)
            job.join(timeout=60)
            assert job.error is None
            job.batch.report.raise_on_error()
        finally:
            server.stop()

    def test_health_workers_section_schema(self, tmp_path):
        server = _boot_server(tmp_path, pool_config=_fast_config())
        try:
            client = ServiceClient(server.url)
            empty = client.health()["workers"]
            assert empty == {
                "total": 0, "idle": 0, "busy": 0,
                "quarantined": 0, "lost": 0, "roster": [],
            }
            client.register_worker(
                name="probe", pid=4242, host="host-a", backend="serial",
                kernel="numpy",
            )
            workers = client.health()["workers"]
            assert workers["total"] == 1
            assert workers["idle"] == 1
            (entry,) = workers["roster"]
            assert set(entry) == {
                "id", "name", "pid", "host", "backend", "kernel", "state",
                "leases", "last_heartbeat_age_s", "chunks_completed",
                "chunks_failed", "points_completed",
                "throughput_points_per_s",
            }
            assert entry["name"] == "probe"
            assert entry["pid"] == 4242
            assert entry["host"] == "host-a"
            assert entry["kernel"] == "numpy"
            assert entry["state"] == "idle"
            assert entry["leases"] == []
            assert entry["points_completed"] == 0
            assert entry["throughput_points_per_s"] is None
            assert client.health()["scheduling"] == {
                "lease_ttl_s": 0.5,
                "heartbeat_interval_s": 0.1,
                "chunk_size": 1,
                "chunks_per_worker": 4,
                "max_attempts": 3,
            }
        finally:
            server.stop()

    def test_worker_reregisters_after_server_restart(self, tmp_path):
        config = _fast_config()
        server = _boot_server(tmp_path, pool_config=config)
        url = server.url
        port = int(url.rsplit(":", 1)[1])
        cache_dir = server.service.runner.cache.cache_dir
        worker = _WorkerThread(
            url,
            name="persistent",
            client=ServiceClient(url, retries=10, retry_backoff_s=0.05),
        )
        restarted = None
        try:
            worker.start()
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline and worker.worker.worker_id is None:
                time.sleep(0.01)
            old_id = worker.worker.worker_id
            assert old_id is not None

            server.stop()
            restarted = _boot_server(
                tmp_path, pool_config=config, cache_dir=cache_dir, port=port
            )
            # The restarted server does not know the worker's id; its
            # next lease 404s and it re-registers.  Wait for that
            # before submitting, or the (empty-pool) local fallback
            # races the worker to the chunks.
            _wait_for_workers(restarted, 1, timeout=20)
            batch = BatchRunner(
                cache=ResultCache(cache_dir=str(tmp_path / "client-cache")),
                backend=RemoteBackend(restarted.url),
            ).run(_requests(2), evaluate=evaluate_auto)
            batch.report.raise_on_error()
            roster = restarted.service.pool.roster()
            assert roster["total"] == 1
            assert roster["roster"][0]["name"] == "persistent"
            assert roster["roster"][0]["id"] != old_id
            assert roster["roster"][0]["chunks_completed"] >= 1
        finally:
            worker.stop()
            if restarted is not None:
                restarted.stop()


class _SlowSerial(SerialBackend):
    """A serial backend with a per-chunk delay, to hold a job mid-run."""

    def __init__(self, delay_s):
        super().__init__()
        self.delay_s = delay_s

    def run(self, fn, items, *, on_outcome=None):
        time.sleep(self.delay_s)
        return super().run(fn, items, on_outcome=on_outcome)


class TestClientRestartResume:
    def test_client_resumes_across_server_restart_exactly_once(self, tmp_path):
        """Satellite: mid-job server restart, resumable ``offset`` fetch.

        The client receives K outcomes from the first server, the
        server restarts mid-job, and the client — via resubmission of
        the same content-addressed campaign — receives the remaining
        outcomes exactly once, byte-identical to serial.
        """
        requests = _requests(3)
        cache_dir = tmp_path / "shared-cache"
        # Pre-warm one point so the stream yields an entry immediately
        # (cache hits materialise mid-run; evaluated points only after
        # the batch stores them).
        warm = BatchRunner(
            cache=ResultCache(cache_dir=str(cache_dir)),
            backend=SerialBackend(),
        ).run(requests[:1], evaluate=evaluate_auto)
        warm.report.raise_on_error()

        first = _boot_server(
            tmp_path,
            pool_config=_fast_config(),
            backend=_SlowSerial(delay_s=0.5),
            cache_dir=cache_dir,
        )
        port = int(first.url.rsplit(":", 1)[1])

        seen = []
        outcomes_box = {}
        error_box = {}
        backend = RemoteBackend(
            first.url,
            client=ServiceClient(first.url, retries=12, retry_backoff_s=0.05),
            poll_timeout=120,
        )

        def _run_client():
            try:
                outcomes_box["outcomes"] = backend.run(
                    evaluate_auto, requests, on_outcome=seen.append
                )
            except BaseException as exc:  # noqa: BLE001 — checked below
                error_box["error"] = exc

        client = threading.Thread(target=_run_client, daemon=True)
        client.start()

        # Wait for the pre-warmed point to stream, then restart the
        # server while the remaining evaluations are still in flight.
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and not seen:
            time.sleep(0.01)
        assert seen, "client never received the pre-warmed outcome"
        first.stop()

        second = _boot_server(
            tmp_path,
            pool_config=_fast_config(),
            cache_dir=cache_dir,
            port=port,
        )
        try:
            client.join(timeout=60)
            assert not client.is_alive()
            assert "error" not in error_box, error_box.get("error")
            outcomes = outcomes_box["outcomes"]
            assert [o.index for o in outcomes] == [0, 1, 2]
            assert all(o.ok for o in outcomes)
            # Exactly once: the resumed stream must not re-deliver the
            # outcomes received before the restart.
            assert sorted(o.index for o in seen) == [0, 1, 2]
            for outcome, reference in zip(
                outcomes, _serial_reference(requests, tmp_path)
            ):
                assert _strip_timings(
                    outcome.value.to_dict()
                ) == _strip_timings(reference.to_dict())
        finally:
            second.stop()


class _StubStuckClient:
    """A client whose job never completes — for deadline tests."""

    url = "http://stub.invalid"

    def submit(self, requests, *, name="stub"):
        return SubmitResponse(
            job_id="f" * 64, total=len(requests), state="running",
            resubmitted=False,
        )

    def fetch(self, job_id, offset=0):
        return FetchResponse(
            job_id=job_id, state="running", entries=(), next_offset=offset,
            complete=False,
        )


class TestClientRobustness:
    def test_poll_timeout_names_job_and_progress(self):
        backend = RemoteBackend(
            client=_StubStuckClient(), poll_interval=0.01, poll_timeout=0.3
        )
        with pytest.raises(ServiceError) as excinfo:
            backend.run(evaluate_auto, _requests(2))
        message = str(excinfo.value)
        assert "timed out after 0.3s" in message
        assert "f" * 64 in message
        assert "0/2 outcomes received" in message

    def test_unreachable_error_reports_attempt_count(self):
        client = ServiceClient(
            "http://127.0.0.1:1", timeout=1, retries=2, retry_backoff_s=0.01
        )
        with pytest.raises(ServiceError, match="after 2 attempts"):
            client.health()


class TestChaosConfig:
    def test_default_is_inert(self):
        chaos = ChaosConfig()
        assert not chaos.armed
        chaos.maybe_kill(0)  # must not raise
        assert not chaos.should_corrupt("abc")
        assert not chaos.take_drop()
        assert chaos.heartbeat_sleep_s(1.0) == 1.0

    def test_from_env_is_inert_without_variables(self):
        assert not ChaosConfig.from_env({}).armed

    def test_from_env_parses_every_hook(self):
        chaos = ChaosConfig.from_env(
            {
                "REPRO_CHAOS_KILL_AFTER_CHUNKS": "2",
                "REPRO_CHAOS_HEARTBEAT_DELAY_S": "1.5",
                "REPRO_CHAOS_CHUNK_DELAY_S": "0.25",
                "REPRO_CHAOS_DROP_RESULTS": "3",
                "REPRO_CHAOS_CORRUPT_SEED": "42",
                "REPRO_CHAOS_CORRUPT_ONE_IN": "4",
            },
            kill_mode="raise",
        )
        assert chaos.armed
        assert chaos.kill_after_chunks == 2
        assert chaos.heartbeat_delay_s == 1.5
        assert chaos.chunk_delay_s == 0.25
        assert chaos.corrupt_seed == 42
        assert chaos.corrupt_one_in == 4
        assert chaos.kill_mode == "raise"
        assert chaos.heartbeat_sleep_s(0.5) == 2.0
        # chunk_delay alone arms the config (slow worker, no other hooks).
        assert ChaosConfig(chunk_delay_s=0.1).armed

    def test_maybe_kill_raises_at_threshold(self):
        chaos = ChaosConfig(kill_after_chunks=1, kill_mode="raise")
        chaos.maybe_kill(0)
        with pytest.raises(ChaosKill):
            chaos.maybe_kill(1)

    def test_corruption_is_deterministic_per_chunk(self):
        chaos = ChaosConfig(corrupt_seed=13, corrupt_one_in=2)
        verdicts = {cid: chaos.should_corrupt(cid) for cid in "abcdefgh"}
        again = ChaosConfig(corrupt_seed=13, corrupt_one_in=2)
        assert {cid: again.should_corrupt(cid) for cid in "abcdefgh"} == verdicts
        assert any(verdicts.values()) and not all(verdicts.values())
        with pytest.raises(ChaosCorruption, match="chaos"):
            chaos.corrupt("deadbeefdeadbeef")

    def test_drop_tokens_are_consumed(self):
        chaos = ChaosConfig(drop_results=2)
        assert chaos.take_drop()
        assert chaos.take_drop()
        assert not chaos.take_drop()

    def test_bad_kill_mode_rejected(self):
        with pytest.raises(ValueError, match="kill_mode"):
            ChaosConfig(kill_mode="explode")


class TestCliWorkCommand:
    def test_parser_has_work_subcommand(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["work", "--server", "http://example.test:1", "--max-chunks", "2"]
        )
        assert args.command == "work"
        assert args.server == "http://example.test:1"
        assert args.max_chunks == 2

    def test_work_rejects_remote_jobs(self, capsys):
        from repro.cli import main

        code = main(
            ["work", "--server", "http://127.0.0.1:1", "--jobs", "remote"]
        )
        assert code == 2
        assert "cannot evaluate through --jobs remote" in capsys.readouterr().err

    def test_serve_parser_exposes_pool_knobs(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve", "--port", "0",
                "--lease-ttl", "2.5", "--heartbeat-interval", "0.5",
                "--chunk-size", "4", "--max-chunk-attempts", "5",
            ]
        )
        assert args.lease_ttl == 2.5
        assert args.heartbeat_interval == 0.5
        assert args.chunk_size == 4
        assert args.max_chunk_attempts == 5
