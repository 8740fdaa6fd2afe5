"""The sweep-service wire format: versioned JSON payload dataclasses.

Everything that crosses the HTTP boundary is defined here, in plain
dataclasses with ``to_dict``/``from_dict`` pairs, so the protocol can be
tested without a socket and the server/client can never drift apart on
field names.  The format is deliberately dumb JSON — no pickling, no
framing — because the payloads are already JSON-shaped: engine requests
serialise through :func:`repro.engine.batch.request_to_dict` (the same
parameter dictionaries the content-addressed cache keys hash) and
results through their ``to_dict()`` records (the same form the cache
persists).

Job identity is **content-addressed**: :func:`job_id_for` digests the
batch's request fingerprints, so submitting the same campaign twice —
from one client or many — names the same job.  Submission is therefore
idempotent, concurrent clients share one evaluation, and a client can
recover a finished campaign from a *restarted* server by simply
resubmitting: the fresh job re-runs against the shared result cache and
completes with 100% hits.

Malformed payloads raise :class:`ProtocolError` (a
:class:`~repro.errors.ReproError`), which the server maps onto a 400
response — a bad request must never produce a traceback page.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence

from ..engine.batch import (
    EvalRequest,
    SurvivabilityRequest,
    evaluate_auto,
    evaluate_request,
    evaluate_survivability_request,
    request_from_dict,
    request_to_dict,
)
from ..errors import ReproError

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "SubmitRequest",
    "SubmitResponse",
    "JobStatus",
    "FetchResponse",
    "WorkerRegistration",
    "WorkerRegistered",
    "ChunkLease",
    "LeaseResponse",
    "HeartbeatAck",
    "ChunkReport",
    "job_id_for",
    "chunk_outcome_to_dict",
    "chunk_outcome_from_dict",
    "result_to_dict",
    "outcome_entry_to_dict",
    "wire_dispatchable",
]

#: Version of the HTTP wire format.  Carried in every response (and
#: checked on submit payloads that declare one) so mixed-version fleets
#: fail loudly instead of misparsing each other.  v2 added the
#: scheduling fields: ``ChunkLease.speculative`` and
#: ``ChunkReport.elapsed_s``.  v3 added the
#: ``WorkerRegistration.kernel`` capability echo (advisory — absent
#: values parse as ``fused``).
PROTOCOL_VERSION = 3

#: Maximum request-body size the server accepts (16 MiB — a full
#: N=100 paper campaign serialises to well under 1 MiB).
MAX_BODY_BYTES = 16 * 1024 * 1024


class ProtocolError(ReproError):
    """A malformed or unserviceable wire payload (maps onto HTTP 4xx)."""

    def __init__(self, message: str, *, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


def job_id_for(requests: Sequence["EvalRequest | SurvivabilityRequest"]) -> str:
    """Content-addressed job id: SHA-256 over the sorted fingerprints.

    The same scheme as :func:`repro.obs.manifest.params_digest` — order
    independent, so two clients enumerating the same grid in different
    orders still share one job.
    """
    digest = hashlib.sha256()
    for fingerprint in sorted(request.fingerprint() for request in requests):
        digest.update(fingerprint.encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()


#: Evaluation callables the wire format can carry — the receiving end
#: always re-dispatches by request type (``evaluate_auto``), so only
#: batches using the engine's own evaluators may cross the boundary.
_WIRE_SAFE_EVALUATORS = (
    evaluate_request,
    evaluate_survivability_request,
    evaluate_auto,
)


def wire_dispatchable(fn: Any, items: Sequence[Any]) -> bool:
    """True when ``(fn, items)`` can be shipped over the service wire.

    Shared by :class:`~repro.service.client.RemoteBackend` (client →
    server) and :class:`~repro.service.pool.DistributedBackend`
    (server → workers): both sides serialise requests with
    :func:`~repro.engine.batch.request_to_dict` and re-dispatch with
    ``evaluate_auto``, so arbitrary callables or item types must stay
    on a local backend.
    """
    return fn in _WIRE_SAFE_EVALUATORS and all(
        isinstance(item, (EvalRequest, SurvivabilityRequest)) for item in items
    )


def result_to_dict(result: Any) -> dict:
    """A cacheable result's wire form (its own ``to_dict`` record)."""
    return result.to_dict()


def chunk_outcome_to_dict(outcome: Any) -> dict:
    """One evaluated point of a chunk report, keyed by chunk-local index.

    ``outcome`` is a :class:`~repro.engine.executor.PointOutcome`; the
    wire form carries either the result record (the same ``to_dict``
    form the disk cache persists) or the captured failure triple.
    """
    if outcome.ok:
        return {"index": int(outcome.index), "result": outcome.value.to_dict()}
    return {
        "index": int(outcome.index),
        "error": outcome.error or "point evaluation failed",
        "error_type": outcome.error_type or "Exception",
        "traceback": outcome.traceback,
    }


def chunk_outcome_from_dict(data: Mapping[str, Any]) -> dict:
    """Validate one chunk-report outcome record (still a plain dict).

    The server keeps the record in wire form until it rebuilds a
    :class:`~repro.engine.executor.PointOutcome` with the cache's
    ``result_from_dict`` — this hook only rejects junk early with a
    :class:`ProtocolError` carrying a useful message.
    """
    if not isinstance(data, Mapping):
        raise ProtocolError("chunk outcome must be a JSON object")
    index = _require(data, "index")
    try:
        index = int(index)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"chunk outcome index {index!r} is not an int") from exc
    if "result" not in data and "error" not in data:
        raise ProtocolError(f"chunk outcome {index} has neither result nor error")
    record = dict(data)
    record["index"] = index
    return record


def outcome_entry_to_dict(
    index: int,
    source: str,
    *,
    result: Optional[dict] = None,
    error: Optional[dict] = None,
) -> dict:
    """One streamed outcome entry of a fetch response.

    ``index`` is the position in the *submitted* request list;
    ``source`` is ``"cache"`` / ``"evaluated"`` / ``"error"`` exactly as
    the engine's progress callback reports it.
    """
    entry: dict[str, Any] = {"index": index, "source": source}
    if result is not None:
        entry["result"] = result
    if error is not None:
        entry["error"] = error
    return entry


def _require(data: Mapping[str, Any], key: str) -> Any:
    try:
        return data[key]
    except (KeyError, TypeError) as exc:
        raise ProtocolError(f"payload missing required field {key!r}") from exc


@dataclass(frozen=True)
class SubmitRequest:
    """Body of ``POST /api/v1/campaigns``: a named list of requests."""

    requests: tuple
    name: str = "campaign"

    def __post_init__(self) -> None:
        object.__setattr__(self, "requests", tuple(self.requests))
        if not self.requests:
            raise ProtocolError("campaign has no requests")
        for request in self.requests:
            if not isinstance(request, (EvalRequest, SurvivabilityRequest)):
                raise ProtocolError(
                    f"unsupported request type {type(request).__name__!r}"
                )

    @property
    def job_id(self) -> str:
        """The content-addressed id this submission resolves to."""
        return job_id_for(self.requests)

    def to_dict(self) -> dict:
        """JSON-ready submit body."""
        return {
            "protocol_version": PROTOCOL_VERSION,
            "name": self.name,
            "requests": [request_to_dict(r) for r in self.requests],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SubmitRequest":
        """Parse and validate a submit body (:class:`ProtocolError` on junk)."""
        if not isinstance(data, Mapping):
            raise ProtocolError("submit body must be a JSON object")
        declared = data.get("protocol_version", PROTOCOL_VERSION)
        if declared != PROTOCOL_VERSION:
            raise ProtocolError(
                f"protocol version mismatch: client sent {declared!r}, "
                f"server speaks {PROTOCOL_VERSION}"
            )
        raw = _require(data, "requests")
        if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
            raise ProtocolError("'requests' must be a list")
        try:
            requests = tuple(request_from_dict(r) for r in raw)
        except ReproError as exc:
            raise ProtocolError(f"bad request record: {exc}") from exc
        name = data.get("name", "campaign")
        if not isinstance(name, str) or not name:
            raise ProtocolError("'name' must be a non-empty string")
        return cls(requests=requests, name=name)


@dataclass(frozen=True)
class SubmitResponse:
    """Body of a successful submit: where to poll, and what was reused.

    ``resubmitted`` is true when the content-addressed job already
    existed (another client — or an earlier run of this one — submitted
    the identical campaign), in which case the server did not enqueue
    anything new.
    """

    job_id: str
    total: int
    state: str
    resubmitted: bool = False

    def to_dict(self) -> dict:
        """JSON-ready submit response."""
        return {
            "protocol_version": PROTOCOL_VERSION,
            "job_id": self.job_id,
            "total": self.total,
            "state": self.state,
            "resubmitted": self.resubmitted,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SubmitResponse":
        """Parse a submit response."""
        return cls(
            job_id=str(_require(data, "job_id")),
            total=int(_require(data, "total")),
            state=str(_require(data, "state")),
            resubmitted=bool(data.get("resubmitted", False)),
        )


@dataclass(frozen=True)
class JobStatus:
    """Body of ``GET /api/v1/jobs/<id>``: progress and provenance.

    The progress counters (``done``/``cache_hits``/``evaluated``/
    ``errors``) stream from the engine's per-outcome progress hook
    while the job runs; ``report`` is the full
    :meth:`~repro.engine.batch.BatchReport.as_dict` record once the job
    finished, and ``metrics_delta`` is the slice of the server's merged
    metrics registry (engine/cache/solver counters, pool-worker deltas
    folded in) recorded since the job started.
    """

    job_id: str
    name: str
    state: str
    total: int
    done: int = 0
    cache_hits: int = 0
    evaluated: int = 0
    errors: int = 0
    created_at: Optional[str] = None
    elapsed_seconds: float = 0.0
    resubmitted: bool = False
    report: Optional[dict] = None
    metrics_delta: dict = field(default_factory=dict)
    manifest_path: Optional[str] = None
    detail: Optional[str] = None

    def to_dict(self) -> dict:
        """JSON-ready poll response."""
        return {
            "protocol_version": PROTOCOL_VERSION,
            "job_id": self.job_id,
            "name": self.name,
            "state": self.state,
            "total": self.total,
            "done": self.done,
            "cache_hits": self.cache_hits,
            "evaluated": self.evaluated,
            "errors": self.errors,
            "created_at": self.created_at,
            "elapsed_seconds": self.elapsed_seconds,
            "resubmitted": self.resubmitted,
            "report": self.report,
            "metrics_delta": self.metrics_delta,
            "manifest_path": self.manifest_path,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobStatus":
        """Parse a poll response."""
        return cls(
            job_id=str(_require(data, "job_id")),
            name=str(data.get("name", "campaign")),
            state=str(_require(data, "state")),
            total=int(_require(data, "total")),
            done=int(data.get("done", 0)),
            cache_hits=int(data.get("cache_hits", 0)),
            evaluated=int(data.get("evaluated", 0)),
            errors=int(data.get("errors", 0)),
            created_at=data.get("created_at"),
            elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
            resubmitted=bool(data.get("resubmitted", False)),
            report=data.get("report"),
            metrics_delta=dict(data.get("metrics_delta") or {}),
            manifest_path=data.get("manifest_path"),
            detail=data.get("detail"),
        )


@dataclass(frozen=True)
class FetchResponse:
    """Body of ``GET /api/v1/jobs/<id>/results?offset=K``.

    ``entries`` are outcome records in **completion order** starting at
    ``offset`` (see :func:`outcome_entry_to_dict`); ``next_offset`` is
    what the client passes to resume the stream.  ``complete`` flips
    once the job finished *and* this response reaches the end of the
    stream; only then is ``telemetry`` attached — the
    :func:`repro.obs.telemetry_capture` payload (metric deltas + spans,
    pool-worker contributions already folded in) recorded around the
    job's batch, which the client absorbs into its own registry exactly
    like a pool parent absorbs a worker's.
    """

    job_id: str
    state: str
    entries: tuple = ()
    next_offset: int = 0
    complete: bool = False
    telemetry: Optional[dict] = None
    retry_after_s: Optional[float] = None

    def to_dict(self) -> dict:
        """JSON-ready fetch response."""
        payload = {
            "protocol_version": PROTOCOL_VERSION,
            "job_id": self.job_id,
            "state": self.state,
            "entries": list(self.entries),
            "next_offset": self.next_offset,
            "complete": self.complete,
            "telemetry": self.telemetry,
        }
        if self.retry_after_s is not None:
            payload["retry_after_s"] = self.retry_after_s
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FetchResponse":
        """Parse a fetch response."""
        entries = data.get("entries", [])
        if not isinstance(entries, Sequence) or isinstance(entries, (str, bytes)):
            raise ProtocolError("'entries' must be a list")
        retry_after = data.get("retry_after_s")
        return cls(
            job_id=str(_require(data, "job_id")),
            state=str(_require(data, "state")),
            entries=tuple(entries),
            next_offset=int(data.get("next_offset", 0)),
            complete=bool(data.get("complete", False)),
            telemetry=data.get("telemetry"),
            retry_after_s=float(retry_after) if retry_after is not None else None,
        )


@dataclass(frozen=True)
class WorkerRegistration:
    """Body of ``POST /api/v1/workers``: who is offering to evaluate.

    ``backend`` is the worker's *local* backend label (what it will run
    leased chunks on) and ``kernel`` its resolved solver tier
    (``numba``/``fused``; any string parses, so workers from before the
    ``numpy`` tier was retired still register); both are recorded in the
    ``/health`` roster so an operator can see the pool's composition —
    and a mixed pool's kernel capabilities — at a glance. ``kernel``
    is advisory (every tier is bit-identical, so the scheduler never
    routes on it) and tolerated absent for pre-v3 workers.
    """

    name: str
    pid: int
    host: str
    backend: str = "serial"
    kernel: str = "fused"

    def to_dict(self) -> dict:
        """JSON-ready registration body."""
        return {
            "protocol_version": PROTOCOL_VERSION,
            "name": self.name,
            "pid": self.pid,
            "host": self.host,
            "backend": self.backend,
            "kernel": self.kernel,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkerRegistration":
        """Parse and validate a registration body."""
        if not isinstance(data, Mapping):
            raise ProtocolError("registration body must be a JSON object")
        name = _require(data, "name")
        if not isinstance(name, str) or not name:
            raise ProtocolError("'name' must be a non-empty string")
        try:
            pid = int(_require(data, "pid"))
        except (TypeError, ValueError) as exc:
            raise ProtocolError("'pid' must be an int") from exc
        return cls(
            name=name,
            pid=pid,
            host=str(data.get("host", "")),
            backend=str(data.get("backend", "serial")),
            kernel=str(data.get("kernel", "fused")),
        )


@dataclass(frozen=True)
class WorkerRegistered:
    """Server's answer to a registration: identity plus pool cadence.

    The worker must heartbeat at ``heartbeat_interval_s`` and finish
    each chunk inside ``lease_ttl_s`` (heartbeats extend the lease);
    ``poll_interval_s`` is the suggested sleep between empty lease
    polls.
    """

    worker_id: str
    lease_ttl_s: float
    heartbeat_interval_s: float
    poll_interval_s: float

    def to_dict(self) -> dict:
        """JSON-ready registration response."""
        return {
            "protocol_version": PROTOCOL_VERSION,
            "worker_id": self.worker_id,
            "lease_ttl_s": self.lease_ttl_s,
            "heartbeat_interval_s": self.heartbeat_interval_s,
            "poll_interval_s": self.poll_interval_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkerRegistered":
        """Parse a registration response."""
        return cls(
            worker_id=str(_require(data, "worker_id")),
            lease_ttl_s=float(_require(data, "lease_ttl_s")),
            heartbeat_interval_s=float(_require(data, "heartbeat_interval_s")),
            poll_interval_s=float(_require(data, "poll_interval_s")),
        )


@dataclass(frozen=True)
class ChunkLease:
    """One leased chunk of work: requests to evaluate under a deadline.

    ``chunk_id`` is content-addressed over the chunk's request
    fingerprints (stable across reassignments — the retry of a chunk is
    *the same chunk*, which is what makes poison-chunk detection and
    seeded fault injection deterministic); ``attempt`` counts from 1.
    ``speculative`` marks a duplicate lease on a chunk another worker
    is still evaluating (tail speculation) — informational: the worker
    evaluates it identically, and the server's first-report-wins dedup
    resolves the race.
    """

    chunk_id: str
    job_id: str
    attempt: int
    requests: tuple
    lease_ttl_s: float
    speculative: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "requests", tuple(self.requests))

    def to_dict(self) -> dict:
        """JSON-ready lease payload."""
        return {
            "chunk_id": self.chunk_id,
            "job_id": self.job_id,
            "attempt": self.attempt,
            "requests": [request_to_dict(r) for r in self.requests],
            "lease_ttl_s": self.lease_ttl_s,
            "speculative": self.speculative,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ChunkLease":
        """Parse a lease payload (:class:`ProtocolError` on junk)."""
        raw = _require(data, "requests")
        if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
            raise ProtocolError("'requests' must be a list")
        try:
            requests = tuple(request_from_dict(r) for r in raw)
        except ReproError as exc:
            raise ProtocolError(f"bad leased request record: {exc}") from exc
        return cls(
            chunk_id=str(_require(data, "chunk_id")),
            job_id=str(_require(data, "job_id")),
            attempt=int(_require(data, "attempt")),
            requests=requests,
            lease_ttl_s=float(_require(data, "lease_ttl_s")),
            speculative=bool(data.get("speculative", False)),
        )


@dataclass(frozen=True)
class LeaseResponse:
    """Body of ``POST /api/v1/workers/<id>/lease``.

    ``chunk`` is ``None`` when no work is pending, in which case
    ``retry_after_s`` tells the worker how long to sleep before asking
    again.
    """

    chunk: Optional[ChunkLease] = None
    retry_after_s: Optional[float] = None

    def to_dict(self) -> dict:
        """JSON-ready lease response."""
        return {
            "protocol_version": PROTOCOL_VERSION,
            "chunk": self.chunk.to_dict() if self.chunk is not None else None,
            "retry_after_s": self.retry_after_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LeaseResponse":
        """Parse a lease response."""
        raw = data.get("chunk")
        retry_after = data.get("retry_after_s")
        return cls(
            chunk=ChunkLease.from_dict(raw) if raw is not None else None,
            retry_after_s=float(retry_after) if retry_after is not None else None,
        )


@dataclass(frozen=True)
class HeartbeatAck:
    """Server's answer to a heartbeat: which held leases are now stale.

    A chunk id in ``stale`` means the server already reassigned (or
    finished) it — the worker should abandon the evaluation and must
    not expect its eventual report to count.
    """

    ok: bool = True
    stale: tuple = ()

    def to_dict(self) -> dict:
        """JSON-ready heartbeat response."""
        return {
            "protocol_version": PROTOCOL_VERSION,
            "ok": self.ok,
            "stale": list(self.stale),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "HeartbeatAck":
        """Parse a heartbeat response."""
        return cls(
            ok=bool(data.get("ok", True)),
            stale=tuple(str(c) for c in data.get("stale", [])),
        )


@dataclass(frozen=True)
class ChunkReport:
    """Body of ``POST /api/v1/workers/<id>/result``: one chunk's outcome.

    Either ``outcomes`` (per-point wire records, chunk-local indices)
    with an optional ``telemetry`` payload to fold into the server's
    registry, or ``failed`` — a chunk-level failure triple
    (``error``/``error_type``/``traceback``) when the worker could not
    evaluate the chunk at all.  ``elapsed_s`` is the worker's wall-clock
    evaluation time for the chunk — the observation behind the server's
    per-worker throughput EWMA that drives adaptive chunk sizing.
    """

    chunk_id: str
    outcomes: tuple = ()
    telemetry: Optional[dict] = None
    failed: Optional[dict] = None
    elapsed_s: Optional[float] = None

    def to_dict(self) -> dict:
        """JSON-ready chunk report."""
        return {
            "protocol_version": PROTOCOL_VERSION,
            "chunk_id": self.chunk_id,
            "outcomes": list(self.outcomes),
            "telemetry": self.telemetry,
            "failed": self.failed,
            "elapsed_s": self.elapsed_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ChunkReport":
        """Parse and validate a chunk report."""
        if not isinstance(data, Mapping):
            raise ProtocolError("chunk report must be a JSON object")
        raw = data.get("outcomes", [])
        if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
            raise ProtocolError("'outcomes' must be a list")
        failed = data.get("failed")
        if failed is not None and not isinstance(failed, Mapping):
            raise ProtocolError("'failed' must be a JSON object")
        elapsed = data.get("elapsed_s")
        if elapsed is not None:
            try:
                elapsed = float(elapsed)
            except (TypeError, ValueError) as exc:
                raise ProtocolError("'elapsed_s' must be a number") from exc
        telemetry = data.get("telemetry")
        if telemetry is not None:
            if not isinstance(telemetry, Mapping):
                raise ProtocolError("'telemetry' must be a JSON object")
            delta = telemetry.get("metrics")
            if delta is not None and not isinstance(delta, Mapping):
                raise ProtocolError("'telemetry.metrics' must be a JSON object")
            spans = telemetry.get("spans")
            if spans is not None and not isinstance(spans, list):
                raise ProtocolError("'telemetry.spans' must be a list")
        return cls(
            chunk_id=str(_require(data, "chunk_id")),
            outcomes=tuple(chunk_outcome_from_dict(o) for o in raw),
            telemetry=telemetry,
            failed=dict(failed) if failed is not None else None,
            elapsed_s=elapsed,
        )
