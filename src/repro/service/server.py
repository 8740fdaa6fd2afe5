"""The sweep-service job server: an asyncio HTTP front end over one engine.

Two layers, deliberately separable:

:class:`SweepService`
    The HTTP-free core: a content-addressed job table plus a single
    worker thread draining a queue into one shared
    :class:`~repro.engine.batch.BatchRunner`.  Every campaign runs
    dedup → cache → evaluate → store against the *same*
    :class:`~repro.engine.cache.ResultCache`, so concurrent clients
    submitting overlapping grids share work automatically, and a
    resubmission of a finished campaign is 100% cache hits.  Jobs run
    one at a time on purpose — the evaluation backend underneath (the
    vector backend and its process pool) already owns the machine's
    parallelism, and serial job execution keeps each job's metrics
    delta clean.
:class:`ServiceServer`
    A minimal ``asyncio`` HTTP/1.1 front end (stdlib only, no web
    framework) routing five endpoints onto the service.  Use
    :meth:`ServiceServer.serve_forever` from the CLI and
    :meth:`ServiceServer.start_in_background` from tests — the latter
    boots the event loop on a daemon thread, binds (port ``0`` picks a
    free one) and returns the resolved base URL.

Routes (all JSON; see ``docs/service.md`` for the operator guide)::

    POST /api/v1/campaigns                    submit (idempotent by content)
    GET  /api/v1/jobs                         list jobs
    GET  /api/v1/jobs/<id>                    poll one job's progress
    GET  /api/v1/jobs/<id>/results            fetch outcomes (?offset=K)
    GET  /health                              liveness + metrics + worker roster
    POST /api/v1/workers                      register a pool worker
    POST /api/v1/workers/<id>/lease           pull a chunk under a lease
    POST /api/v1/workers/<id>/heartbeat       re-arm held leases
    POST /api/v1/workers/<id>/result          report a chunk's outcomes
    POST /api/v1/workers/<id>/deregister      leave the pool cleanly

The worker routes front the fault-tolerant
:class:`~repro.service.pool.WorkerPool`: every service wraps its local
backend in a :class:`~repro.service.pool.DistributedBackend`, so
registered workers share each job's evaluation, dead workers' chunks
are reassigned, and an empty pool falls back to local evaluation —
single-host behaviour is unchanged.

Failure behaviour is part of the contract: malformed payloads are 400s
with a JSON error body, unknown jobs/routes are 404s, and an unexpected
server-side exception is a 500 whose body carries only the exception
message — never a traceback page.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import queue
import threading
import time
from collections import OrderedDict
from typing import Any, Optional
from urllib.parse import parse_qs, urlsplit

from ..engine.batch import BatchRunner, evaluate_auto
from ..engine.cache import ResultCache
from ..engine.executor import ExecutionBackend
from ..errors import ReproError
from ..obs import (
    RunManifest,
    metrics,
    span,
    telemetry_capture,
)
from .pool import DistributedBackend, PoolConfig, WorkerPool
from .protocol import (
    MAX_BODY_BYTES,
    PROTOCOL_VERSION,
    ChunkReport,
    FetchResponse,
    JobStatus,
    ProtocolError,
    SubmitRequest,
    SubmitResponse,
    WorkerRegistration,
    outcome_entry_to_dict,
)

__all__ = ["ServiceServer", "SweepService"]

log = logging.getLogger(__name__)

_TERMINAL_STATES = ("done", "failed")


class _Job:
    """Mutable server-side record of one submitted campaign.

    ``stream`` grows in completion order — one ``(index, fingerprint,
    source)`` triple per point, appended by the engine's progress hook —
    and is what fetch responses are sliced from.  All mutation happens
    either under ``service._lock`` or on the single worker thread, so a
    reader holding the lock always sees a consistent prefix.
    """

    def __init__(self, submit: SubmitRequest) -> None:
        self.job_id = submit.job_id
        self.submit = submit
        self.state = "queued"
        self.created_at = time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime())
        self.started: Optional[float] = None
        self.elapsed_seconds = 0.0
        self.resubmitted = False
        self.stream: list[tuple[int, str, str]] = []
        self.cache_hits = 0
        self.evaluated = 0
        self.errors = 0
        self.report: Optional[dict] = None
        self.results: Optional[list] = None
        self.telemetry: Optional[dict] = None
        self.metrics_before: Optional[dict] = None
        self.metrics_delta: dict = {}
        self.manifest_path: Optional[str] = None
        self.detail: Optional[str] = None

    @property
    def total(self) -> int:
        """Number of requests in the campaign."""
        return len(self.submit.requests)

    def status(self) -> JobStatus:
        """Render the poll payload for this job's current state."""
        elapsed = self.elapsed_seconds
        if self.started is not None and self.state == "running":
            elapsed = time.perf_counter() - self.started
        delta = self.metrics_delta
        if self.state == "running" and self.metrics_before is not None:
            delta = metrics().diff(self.metrics_before)
        return JobStatus(
            job_id=self.job_id,
            name=self.submit.name,
            state=self.state,
            total=self.total,
            done=len(self.stream),
            cache_hits=self.cache_hits,
            evaluated=self.evaluated,
            errors=self.errors,
            created_at=self.created_at,
            elapsed_seconds=elapsed,
            resubmitted=self.resubmitted,
            report=self.report,
            metrics_delta=delta,
            manifest_path=self.manifest_path,
            detail=self.detail,
        )


class SweepService:
    """Content-addressed job table + worker thread over one shared engine.

    Parameters
    ----------
    runner:
        The :class:`~repro.engine.batch.BatchRunner` every job executes
        through.  Built from ``cache``/``backend`` when omitted.
    cache, backend:
        Convenience constructors for ``runner`` (ignored when ``runner``
        is given): the shared :class:`~repro.engine.cache.ResultCache`
        and evaluation :class:`~repro.engine.executor.ExecutionBackend`.
    manifest_dir:
        When set, every finished campaign writes a
        :class:`~repro.obs.RunManifest` to
        ``<manifest_dir>/manifest-<job_id[:12]>.json``.
    max_jobs:
        Bound on the job table; the oldest *terminal* jobs are evicted
        first (running/queued jobs are never dropped).
    pool, pool_config:
        The fault-tolerant :class:`~repro.service.pool.WorkerPool`
        jobs fan out over once workers register (built from
        ``pool_config`` when not given).  The runner's backend is
        wrapped in a :class:`~repro.service.pool.DistributedBackend`
        whose fallback is the original backend — with no registered
        worker, execution (and the reported backend label) is exactly
        the single-host service tier.
    """

    def __init__(
        self,
        runner: Optional[BatchRunner] = None,
        *,
        cache: Optional[ResultCache] = None,
        backend: Optional[ExecutionBackend] = None,
        manifest_dir: Optional[str] = None,
        max_jobs: int = 64,
        pool: Optional[WorkerPool] = None,
        pool_config: Optional[PoolConfig] = None,
    ) -> None:
        if runner is None:
            runner = BatchRunner(cache=cache, backend=backend)
        self.runner = runner
        self.pool = pool if pool is not None else WorkerPool(pool_config)
        self._distributed = DistributedBackend(self.pool, runner.backend)
        runner.backend = self._distributed
        self.manifest_dir = manifest_dir
        self.max_jobs = max(1, int(max_jobs))
        self.started_at = time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime())
        self._jobs: "OrderedDict[str, _Job]" = OrderedDict()
        self._lock = threading.Lock()
        self._queue: "queue.Queue[Optional[_Job]]" = queue.Queue()
        self._worker = threading.Thread(
            target=self._worker_loop, name="sweep-service-worker", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------------
    # Public operations (one per endpoint)
    # ------------------------------------------------------------------
    def submit(self, submit: SubmitRequest) -> SubmitResponse:
        """Register a campaign; idempotent by content-addressed job id.

        Submitting a campaign whose request set matches an existing job
        (queued, running, or finished) returns that job with
        ``resubmitted=True`` instead of enqueuing a duplicate.
        """
        job_id = submit.job_id
        with self._lock:
            existing = self._jobs.get(job_id)
            if existing is not None:
                existing.resubmitted = True
                return SubmitResponse(
                    job_id=job_id,
                    total=existing.total,
                    state=existing.state,
                    resubmitted=True,
                )
            job = _Job(submit)
            self._jobs[job_id] = job
            self._evict_terminal_locked()
        self._queue.put(job)
        log.info(
            "job %s submitted: %r, %d points", job_id[:12], submit.name, job.total
        )
        return SubmitResponse(
            job_id=job_id, total=job.total, state=job.state, resubmitted=False
        )

    def status(self, job_id: str) -> JobStatus:
        """Poll one job (:class:`ProtocolError` 404 when unknown)."""
        with self._lock:
            job = self._require_job(job_id)
            return job.status()

    def jobs(self) -> list[JobStatus]:
        """All known jobs, oldest first."""
        with self._lock:
            return [job.status() for job in self._jobs.values()]

    def fetch(self, job_id: str, offset: int = 0) -> FetchResponse:
        """Stream outcome records starting at ``offset`` (completion order).

        Entries are only emitted once their payload is materialisable —
        a result record from the shared cache (or the finished batch),
        an error record from the finished report.  Mid-run, the slice
        stops early at the first entry that is not ready yet; the
        client resumes from ``next_offset`` on its next poll, so the
        stream stays contiguous and nothing is emitted twice.
        """
        if offset < 0:
            raise ProtocolError("offset must be >= 0")
        with self._lock:
            job = self._require_job(job_id)
            full_stream = list(job.stream)
            state = job.state
            done = state in _TERMINAL_STATES
            results = job.results
            report = job.report
            telemetry = job.telemetry
        stream_len = len(full_stream)
        if offset > stream_len:
            raise ProtocolError(
                f"offset {offset} beyond stream length {stream_len}"
            )
        stream = full_stream[offset:]

        error_by_fp: dict[str, dict] = {}
        if done and report:
            index_to_fp = {i: fp for i, fp, _ in full_stream}
            for err in report.get("errors", ()):
                fp = index_to_fp.get(err.get("index"))
                if fp is not None:
                    error_by_fp[fp] = {
                        k: err.get(k) for k in ("error_type", "error", "traceback")
                    }

        entries: list[dict] = []
        cursor = offset
        for index, fingerprint, source in stream:
            entry = self._materialize(
                index, fingerprint, source, done, results, error_by_fp
            )
            if entry is None:
                break
            entries.append(entry)
            cursor += 1

        complete = done and cursor >= stream_len
        return FetchResponse(
            job_id=job_id,
            state=state,
            entries=tuple(entries),
            next_offset=cursor,
            complete=complete,
            telemetry=telemetry if complete else None,
            # Nothing new this time: hint how long the client should
            # back off before the next fetch (queued jobs move slower
            # than a mid-run stream pause).
            retry_after_s=(
                (0.25 if state == "queued" else 0.05)
                if not complete and not entries
                else None
            ),
        )

    def health(self) -> dict:
        """Liveness payload rendered from the merged metrics registry.

        The counters here include worker-shipped deltas (pool workers
        and remote jobs both ride the same ``telemetry_capture``
        channel), so an operator sees engine/cache/solver totals for
        everything this server has executed.
        """
        with self._lock:
            states = [job.state for job in self._jobs.values()]
        cache = self.runner.cache
        return {
            "status": "ok",
            "protocol_version": PROTOCOL_VERSION,
            "started_at": self.started_at,
            "backend": self.runner.backend.describe(),
            "jobs": {
                "total": len(states),
                "queued": states.count("queued"),
                "running": states.count("running"),
                "done": states.count("done"),
                "failed": states.count("failed"),
            },
            "cache": cache.stats.as_dict(),
            "workers": self.pool.roster(),
            "scheduling": self.pool.config.summary(),
            "metrics": metrics().snapshot(),
        }

    def shutdown(self) -> None:
        """Stop the worker thread (lets in-flight work finish)."""
        self._queue.put(None)
        self._worker.join(timeout=30.0)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _require_job(self, job_id: str) -> _Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise ProtocolError(f"unknown job {job_id!r}", status=404)
        return job

    def _evict_terminal_locked(self) -> None:
        while len(self._jobs) > self.max_jobs:
            victim = next(
                (
                    jid
                    for jid, job in self._jobs.items()
                    if job.state in _TERMINAL_STATES
                ),
                None,
            )
            if victim is None:
                break
            del self._jobs[victim]

    def _materialize(
        self,
        index: int,
        fingerprint: str,
        source: str,
        done: bool,
        results: Optional[list],
        error_by_fp: dict,
    ) -> Optional[dict]:
        """Build one fetch entry, or ``None`` if its payload isn't ready."""
        if source == "error":
            if not done:
                return None
            error = error_by_fp.get(
                fingerprint,
                {"error_type": "PointError", "error": "point failed"},
            )
            return outcome_entry_to_dict(index, source, error=error)
        if done and results is not None:
            result = results[index]
            if result is not None:
                return outcome_entry_to_dict(
                    index, source, result=result.to_dict()
                )
        # Mid-run: the shared cache is the source of truth.  A freshly
        # evaluated point lands there in the store phase, which runs
        # after the progress hook fired — so "not there yet" is normal
        # and simply pauses the stream at this entry.
        cached = self.runner.cache.get(fingerprint)
        if cached is None:
            return None
        return outcome_entry_to_dict(index, source, result=cached.to_dict())

    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            try:
                self._execute(job)
            except Exception as exc:  # noqa: BLE001 — job must terminate
                log.exception("job %s failed", job.job_id[:12])
                with self._lock:
                    job.state = "failed"
                    job.detail = f"{type(exc).__name__}: {exc}"

    def _execute(self, job: _Job) -> None:
        with self._lock:
            job.state = "running"
            job.started = time.perf_counter()
            job.metrics_before = metrics().snapshot()

        def progress(index: int, fingerprint: str, source: str) -> None:
            with self._lock:
                job.stream.append((index, fingerprint, source))
                if source == "cache":
                    job.cache_hits += 1
                elif source == "evaluated":
                    job.evaluated += 1
                else:
                    job.errors += 1

        self._distributed.job_id = job.job_id
        try:
            with telemetry_capture() as capture:
                with span("service.job", job_id=job.job_id[:12], points=job.total):
                    batch = self.runner.run(
                        list(job.submit.requests),
                        evaluate=evaluate_auto,
                        progress=progress,
                    )
        finally:
            self._distributed.job_id = ""
        manifest_path = self._write_manifest(job, batch)

        with self._lock:
            job.results = list(batch.results)
            job.report = batch.report.as_dict()
            job.telemetry = capture.payload
            job.metrics_delta = capture.payload.get("metrics", {})
            job.elapsed_seconds = time.perf_counter() - (job.started or 0.0)
            job.manifest_path = manifest_path
            job.state = "done"
        log.info(
            "job %s done: %s", job.job_id[:12], batch.report.describe()
        )

    def _write_manifest(self, job: _Job, batch) -> Optional[str]:
        if not self.manifest_dir:
            return None
        os.makedirs(self.manifest_dir, exist_ok=True)
        path = os.path.join(
            self.manifest_dir, f"manifest-{job.job_id[:12]}.json"
        )
        manifest = RunManifest(
            command=f"service:{job.submit.name}",
            backend=self.runner.backend.describe(),
            params_digest=job.job_id,
            reports=[batch.report.as_dict()],
            cache_stats=self.runner.cache.stats.as_dict(),
            errors=[error.as_dict() for error in batch.report.errors],
        )
        try:
            manifest.write(path)
        except OSError as exc:
            log.warning("manifest write failed for %s: %s", path, exc)
            return None
        return path


class ServiceServer:
    """Stdlib asyncio HTTP front end for a :class:`SweepService`."""

    def __init__(
        self,
        service: SweepService,
        *,
        host: str = "127.0.0.1",
        port: int = 8765,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._background: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._url: Optional[str] = None

    @property
    def url(self) -> Optional[str]:
        """The bound base URL (set once the listening socket exists)."""
        return self._url

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Run the server on the calling thread until interrupted."""
        asyncio.run(self._serve())

    def start_in_background(self, timeout: float = 10.0) -> str:
        """Boot the event loop on a daemon thread; return the base URL.

        Pass ``port=0`` at construction to bind an ephemeral port —
        the returned URL carries whatever the OS picked.  Designed for
        in-process tests and the CI service smoke.
        """
        self._background = threading.Thread(
            target=self.serve_forever, name="sweep-service-http", daemon=True
        )
        self._background.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("service did not start listening in time")
        assert self._url is not None
        return self._url

    def join(self, timeout: Optional[float] = None) -> bool:
        """Block on the background server thread; True once it exited."""
        if self._background is None:
            return True
        self._background.join(timeout)
        return not self._background.is_alive()

    def stop(self) -> None:
        """Stop listening and shut the job worker down."""
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self._request_stop)
        if self._background is not None:
            self._background.join(timeout=10.0)
            self._background = None
        self.service.shutdown()

    def _request_stop(self) -> None:
        if self._server is not None:
            self._server.close()
        for task in asyncio.all_tasks(self._loop):
            task.cancel()

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            bound_host, bound_port = sockets[0].getsockname()[:2]
            self._url = f"http://{bound_host}:{bound_port}"
        self._ready.set()
        log.info("sweep service listening on %s", self._url)
        try:
            async with self._server:
                await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, body = await self._handle_request(reader)
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()
            return
        except Exception as exc:  # noqa: BLE001 — must answer, never hang
            log.exception("unhandled service error")
            status, body = 500, {"error": f"{type(exc).__name__}: {exc}"}
        payload = json.dumps(body).encode("utf-8")
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed", 413: "Payload Too Large",
                  500: "Internal Server Error"}.get(status, "Error")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n"
            f"\r\n"
        ).encode("ascii")
        try:
            writer.write(head + payload)
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()

    async def _handle_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[int, dict]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            raise ConnectionError("empty request")
        parts = request_line.split()
        if len(parts) != 3:
            return 400, {"error": f"malformed request line {request_line!r}"}
        method, target, _version = parts

        content_length = 0
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    return 400, {"error": "bad Content-Length header"}
        if content_length > MAX_BODY_BYTES:
            return 413, {"error": f"body exceeds {MAX_BODY_BYTES} bytes"}
        body = b""
        if content_length:
            body = await reader.readexactly(content_length)

        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        query = parse_qs(split.query)
        try:
            return self._route(method.upper(), path, query, body)
        except ProtocolError as exc:
            return exc.status, {"error": str(exc)}
        except ReproError as exc:
            return 400, {"error": str(exc)}

    def _route(
        self, method: str, path: str, query: dict, body: bytes
    ) -> tuple[int, dict]:
        service = self.service
        if path == "/health":
            if method != "GET":
                return 405, {"error": "use GET"}
            return 200, service.health()
        if path == "/api/v1/campaigns":
            if method != "POST":
                return 405, {"error": "use POST"}
            submit = SubmitRequest.from_dict(self._json_body(body))
            return 200, service.submit(submit).to_dict()
        if path == "/api/v1/workers":
            if method != "POST":
                return 405, {"error": "use POST"}
            registration = WorkerRegistration.from_dict(self._json_body(body))
            return 200, service.pool.register(registration).to_dict()
        if path.startswith("/api/v1/workers/"):
            rest = path[len("/api/v1/workers/"):]
            worker_id, _, action = rest.partition("/")
            if not worker_id or "/" in action:
                return 404, {"error": f"no route for {method} {path}"}
            if method != "POST":
                return 405, {"error": "use POST"}
            if action == "lease":
                return 200, service.pool.lease(worker_id).to_dict()
            if action == "heartbeat":
                data = self._json_body(body) if body else {}
                chunks = data.get("chunks", [])
                if not isinstance(chunks, list):
                    raise ProtocolError("'chunks' must be a list")
                ack = service.pool.heartbeat(
                    worker_id, [str(c) for c in chunks]
                )
                return 200, ack.to_dict()
            if action == "result":
                report = ChunkReport.from_dict(self._json_body(body))
                accepted = service.pool.report(worker_id, report)
                return 200, {
                    "protocol_version": PROTOCOL_VERSION,
                    "accepted": accepted,
                }
            if action == "deregister":
                service.pool.deregister(worker_id)
                return 200, {"protocol_version": PROTOCOL_VERSION, "ok": True}
            return 404, {"error": f"no route for {method} {path}"}
        if path == "/api/v1/jobs":
            if method != "GET":
                return 405, {"error": "use GET"}
            return 200, {
                "protocol_version": PROTOCOL_VERSION,
                "jobs": [status.to_dict() for status in service.jobs()],
            }
        if path.startswith("/api/v1/jobs/"):
            rest = path[len("/api/v1/jobs/"):]
            if rest.endswith("/results"):
                job_id = rest[: -len("/results")]
                if method != "GET":
                    return 405, {"error": "use GET"}
                offset = self._int_param(query, "offset", 0)
                return 200, service.fetch(job_id, offset).to_dict()
            if "/" not in rest:
                if method != "GET":
                    return 405, {"error": "use GET"}
                return 200, service.status(rest).to_dict()
        return 404, {"error": f"no route for {method} {path}"}

    @staticmethod
    def _json_body(body: bytes) -> dict:
        try:
            data = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ProtocolError(f"body is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ProtocolError("body must be a JSON object")
        return data

    @staticmethod
    def _int_param(query: dict, name: str, default: int) -> int:
        values = query.get(name)
        if not values:
            return default
        try:
            return int(values[0])
        except ValueError as exc:
            raise ProtocolError(f"query param {name!r} must be an integer") from exc
