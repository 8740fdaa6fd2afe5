"""Sweep-service HTTP client and the ``--jobs remote[:URL]`` backend.

:class:`ServiceClient` is a thin stdlib (``urllib``) wrapper over the
five endpoints — submit / poll / fetch / jobs / health — returning the
:mod:`repro.service.protocol` dataclasses.  Transport and server-side
failures surface as :class:`ServiceError` (a
:class:`~repro.errors.ReproError`) carrying the server's JSON error
message, never a raw traceback.

:class:`RemoteBackend` plugs that client into the engine's
:class:`~repro.engine.executor.ExecutionBackend` seam: the client-side
:class:`~repro.engine.batch.BatchRunner` still does its own dedup and
local cache lookup, and only the *misses* are submitted as a campaign.
Outcomes stream back in completion order (driving ``--progress``
exactly like a local pool would), results rebuild through the same
``to_dict``/``result_from_dict`` round-trip the disk cache uses — which
is why remote results are byte-identical to local ones — and the job's
telemetry payload (metric deltas + spans, including the server's own
pool workers) is absorbed into the local registry on completion, the
same way a process-pool parent absorbs a worker's.
"""

from __future__ import annotations

import json
import logging
import random
import time
import urllib.error
import urllib.request
from typing import Any, Callable, Optional, Sequence

from ..engine.batch import EvalRequest, SurvivabilityRequest
from ..engine.cache import result_from_dict
from ..engine.executor import PointOutcome, VectorBackend
from ..errors import ReproError
from ..obs import absorb_telemetry
from .protocol import (
    ChunkReport,
    FetchResponse,
    HeartbeatAck,
    JobStatus,
    LeaseResponse,
    ProtocolError,
    SubmitRequest,
    SubmitResponse,
    WorkerRegistered,
    WorkerRegistration,
    wire_dispatchable,
)

__all__ = [
    "DEFAULT_SERVICE_URL",
    "RemoteBackend",
    "ServiceClient",
    "ServiceError",
]

log = logging.getLogger(__name__)

#: Where ``--jobs remote`` points when no URL is given (overridable via
#: ``REPRO_SERVICE_URL``; see :func:`repro.engine.executor.make_backend`).
DEFAULT_SERVICE_URL = "http://127.0.0.1:8765"


class ServiceError(ReproError):
    """Transport failure or an error response from the sweep service."""

    def __init__(self, message: str, *, status: Optional[int] = None) -> None:
        super().__init__(message)
        self.status = status


class ServiceClient:
    """Synchronous HTTP client for one sweep-service base URL.

    Transient transport failures — connection errors and HTTP 5xx —
    are retried ``retries`` times with exponential backoff and jitter
    before a :class:`ServiceError` surfaces.  Every endpoint here is
    idempotent (submission is content-addressed, worker reports are
    exactly-once server-side), so blind retries are safe.  4xx
    responses are never retried: they mean the *request* is wrong.
    """

    def __init__(
        self,
        url: str = DEFAULT_SERVICE_URL,
        *,
        timeout: float = 30.0,
        retries: int = 3,
        retry_backoff_s: float = 0.2,
    ) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout
        self.retries = max(1, int(retries))
        self.retry_backoff_s = retry_backoff_s

    # ------------------------------------------------------------------
    # Endpoint wrappers
    # ------------------------------------------------------------------
    def submit(
        self,
        requests: "Sequence[EvalRequest | SurvivabilityRequest]",
        *,
        name: str = "campaign",
    ) -> SubmitResponse:
        """Submit a campaign (idempotent: same requests → same job)."""
        body = SubmitRequest(requests=tuple(requests), name=name).to_dict()
        return SubmitResponse.from_dict(
            self._post("/api/v1/campaigns", body)
        )

    def poll(self, job_id: str) -> JobStatus:
        """One job's progress, counts, and (when done) its report."""
        return JobStatus.from_dict(self._get(f"/api/v1/jobs/{job_id}"))

    def fetch(self, job_id: str, offset: int = 0) -> FetchResponse:
        """Outcome records from ``offset`` on, in completion order."""
        return FetchResponse.from_dict(
            self._get(f"/api/v1/jobs/{job_id}/results?offset={int(offset)}")
        )

    def jobs(self) -> list[JobStatus]:
        """All jobs the server currently remembers."""
        payload = self._get("/api/v1/jobs")
        return [JobStatus.from_dict(item) for item in payload.get("jobs", [])]

    def health(self) -> dict:
        """The server's ``/health`` payload (merged obs metrics et al.)."""
        return self._get("/health")

    # ------------------------------------------------------------------
    # Worker endpoints (used by repro.service.worker)
    # ------------------------------------------------------------------
    def register_worker(
        self,
        *,
        name: str,
        pid: int,
        host: str = "",
        backend: str = "serial",
        kernel: str = "fused",
    ) -> WorkerRegistered:
        """Join the server's worker pool; returns id + pool cadence."""
        body = WorkerRegistration(
            name=name, pid=pid, host=host, backend=backend, kernel=kernel
        ).to_dict()
        return WorkerRegistered.from_dict(self._post("/api/v1/workers", body))

    def lease_chunk(self, worker_id: str) -> LeaseResponse:
        """Ask for a chunk of work (``chunk=None`` when queue is empty)."""
        return LeaseResponse.from_dict(
            self._post(f"/api/v1/workers/{worker_id}/lease", {})
        )

    def heartbeat(
        self, worker_id: str, chunk_ids: Sequence[str] = ()
    ) -> HeartbeatAck:
        """Report liveness; re-arms the leases on ``chunk_ids``."""
        return HeartbeatAck.from_dict(
            self._post(
                f"/api/v1/workers/{worker_id}/heartbeat",
                {"chunks": list(chunk_ids)},
            )
        )

    def report_chunk(self, worker_id: str, report: ChunkReport) -> bool:
        """Ship a chunk's outcomes back; False when the report was stale."""
        payload = self._post(
            f"/api/v1/workers/{worker_id}/result", report.to_dict()
        )
        return bool(payload.get("accepted", False))

    def deregister_worker(self, worker_id: str) -> None:
        """Leave the pool cleanly (held leases requeue immediately)."""
        self._post(f"/api/v1/workers/{worker_id}/deregister", {})

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _get(self, path: str) -> dict:
        return self._request(urllib.request.Request(self.url + path))

    def _post(self, path: str, payload: dict) -> dict:
        request = urllib.request.Request(
            self.url + path,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        return self._request(request)

    def _request(self, request: urllib.request.Request) -> dict:
        for attempt in range(self.retries):
            final = attempt + 1 >= self.retries
            try:
                with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                    raw = resp.read()
            except urllib.error.HTTPError as exc:
                detail = ""
                try:
                    detail = json.loads(exc.read().decode("utf-8")).get("error", "")
                except Exception:  # noqa: BLE001 — error body is best-effort
                    pass
                if exc.code >= 500 and not final:
                    self._retry_sleep(attempt, f"HTTP {exc.code}")
                    continue
                message = detail or f"HTTP {exc.code}"
                raise ServiceError(
                    f"service at {self.url} rejected request: {message}",
                    status=exc.code,
                ) from exc
            except (urllib.error.URLError, OSError) as exc:
                if not final:
                    self._retry_sleep(attempt, str(exc))
                    continue
                raise ServiceError(
                    f"cannot reach sweep service at {self.url} "
                    f"(after {self.retries} attempts): {exc}"
                ) from exc
            try:
                return json.loads(raw.decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as exc:
                raise ServiceError(
                    f"service at {self.url} returned non-JSON payload"
                ) from exc
        raise AssertionError("unreachable")  # pragma: no cover

    def _retry_sleep(self, attempt: int, reason: str) -> None:
        delay = self.retry_backoff_s * (2**attempt) * random.uniform(0.75, 1.25)
        log.debug(
            "transient failure talking to %s (%s) — retry %d in %.2fs",
            self.url, reason, attempt + 1, delay,
        )
        time.sleep(delay)


class RemoteBackend:
    """Execution backend that ships batches to a sweep service.

    Parameters
    ----------
    url:
        Base URL of the service (``http://host:port``).
    fallback:
        Local backend used for work the wire format cannot carry —
        batches whose items are not engine requests, or whose evaluator
        is not one of the engine's own (the server always dispatches by
        request type).  Defaults to a fresh
        :class:`~repro.engine.executor.VectorBackend`.
    poll_interval:
        Base sleep between fetches while the stream has no new
        entries; consecutive empty fetches back off exponentially
        (jittered) up to ``poll_max_interval``, and a server
        ``retry_after_s`` hint overrides the computed delay.
    poll_timeout:
        Overall deadline (seconds) for one batch; ``None`` waits
        forever.  On expiry a :class:`ServiceError` naming the job id
        is raised.
    name:
        Campaign name attached to submissions (shows up in the
        server's job list and manifest filenames).

    A server restart mid-stream is survived transparently: the fetch
    404s (the restarted server has no such job), the backend resubmits
    the identical campaign — content-addressing yields the *same* job
    id, re-run against the shared result cache — and restarts the
    stream from offset 0, dropping entries for points it already has,
    so every outcome is delivered exactly once.
    """

    def __init__(
        self,
        url: str = DEFAULT_SERVICE_URL,
        *,
        fallback: Optional[Any] = None,
        client: Optional[ServiceClient] = None,
        poll_interval: float = 0.05,
        poll_max_interval: float = 2.0,
        poll_timeout: Optional[float] = None,
        max_resubmits: int = 5,
        name: str = "remote-batch",
    ) -> None:
        self.client = client if client is not None else ServiceClient(url)
        self.fallback = fallback if fallback is not None else VectorBackend()
        self.poll_interval = poll_interval
        self.poll_max_interval = poll_max_interval
        self.poll_timeout = poll_timeout
        self.max_resubmits = max(0, int(max_resubmits))
        self.name = name

    def run(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        *,
        on_outcome: Optional[Callable[[PointOutcome], None]] = None,
    ) -> list[PointOutcome]:
        """Submit ``items`` as a campaign and stream outcomes back.

        Outcomes are delivered to ``on_outcome`` in the server's
        completion order and returned in input order, exactly matching
        the local backends' contract.
        """
        if not items:
            return []
        if not self._dispatchable(fn, items):
            log.debug(
                "remote backend: batch not wire-serializable, "
                "running on fallback %s", self.fallback.describe(),
            )
            return self.fallback.run(fn, items, on_outcome=on_outcome)

        submitted = self.client.submit(tuple(items), name=self.name)
        job_id = submitted.job_id
        log.debug(
            "remote batch %s: %d points (resubmitted=%s)",
            job_id[:12], len(items), submitted.resubmitted,
        )

        deadline = (
            time.monotonic() + self.poll_timeout
            if self.poll_timeout is not None
            else None
        )
        outcomes: list[Optional[PointOutcome]] = [None] * len(items)
        received: set[int] = set()
        offset = 0
        resubmits = 0
        empty_fetches = 0
        while True:
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError(
                    f"timed out after {self.poll_timeout:g}s waiting for "
                    f"remote job {job_id} ({len(received)}/{len(items)} "
                    f"outcomes received)"
                )
            try:
                fetched = self.client.fetch(job_id, offset)
            except ServiceError as exc:
                if exc.status == 404 and resubmits < self.max_resubmits:
                    # Server restarted and forgot the job: resubmit (same
                    # content-addressed id, re-runs against the shared
                    # cache) and resume the stream from the start —
                    # `received` filters out what we already have.
                    resubmits += 1
                    log.info(
                        "remote job %s unknown to server (restart?) — "
                        "resubmitting (%d/%d)",
                        job_id[:12], resubmits, self.max_resubmits,
                    )
                    self.client.submit(tuple(items), name=self.name)
                    offset = 0
                    empty_fetches = 0
                    continue
                raise
            for entry in fetched.entries:
                outcome = self._outcome_from_entry(entry)
                if outcome.index in received:
                    continue
                received.add(outcome.index)
                outcomes[outcome.index] = outcome
                if on_outcome is not None:
                    on_outcome(outcome)
            offset = fetched.next_offset
            if fetched.complete:
                absorb_telemetry(fetched.telemetry)
                break
            if fetched.state == "failed":
                status = self.client.poll(job_id)
                raise ServiceError(
                    f"remote job {job_id[:12]} failed server-side: "
                    f"{status.detail or 'unknown error'}"
                )
            if not fetched.entries:
                empty_fetches += 1
                time.sleep(self._poll_delay(empty_fetches, fetched.retry_after_s))
            else:
                empty_fetches = 0

        missing = [i for i, outcome in enumerate(outcomes) if outcome is None]
        if missing:
            raise ServiceError(
                f"remote job {job_id[:12]} completed but left "
                f"{len(missing)} points unaccounted for"
            )
        return outcomes  # type: ignore[return-value]

    def describe(self) -> str:
        """Backend label recorded in batch reports and manifests."""
        return f"remote:{self.client.url}"

    # ------------------------------------------------------------------
    def _poll_delay(
        self, empty_fetches: int, retry_after_s: Optional[float]
    ) -> float:
        """Backed-off sleep before the next fetch of an idle stream."""
        if retry_after_s is not None:
            return max(0.0, retry_after_s)
        delay = min(
            self.poll_max_interval,
            self.poll_interval * (2 ** max(0, empty_fetches - 1)),
        )
        return delay * random.uniform(0.75, 1.25)

    @staticmethod
    def _dispatchable(fn: Callable[[Any], Any], items: Sequence[Any]) -> bool:
        return wire_dispatchable(fn, items)

    @staticmethod
    def _outcome_from_entry(entry: dict) -> PointOutcome:
        try:
            index = int(entry["index"])
            source = entry["source"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed outcome entry: {entry!r}") from exc
        if source == "error":
            error = entry.get("error") or {}
            return PointOutcome(
                index=index,
                error=error.get("error", "remote point failed"),
                error_type=error.get("error_type", "PointError"),
                traceback=error.get("traceback"),
            )
        record = entry.get("result")
        if record is None:
            raise ProtocolError(
                f"outcome entry {index} has source {source!r} but no result"
            )
        return PointOutcome(index=index, value=result_from_dict(record))
