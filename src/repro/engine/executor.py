"""Pluggable execution backends for batch evaluation.

Four backends behind one ``run(fn, items)`` contract:

* :class:`SerialBackend` — in-process loop, zero overhead, the
  reference semantics;
* :class:`ProcessPoolBackend` — ``concurrent.futures`` process pool
  with chunked dispatch (one IPC round-trip per chunk, not per point);
* :class:`ThreadPoolBackend` — ``concurrent.futures`` thread pool for
  workloads that release the GIL (the scipy sparse solves at the heart
  of an evaluation spend their time in native code); zero pickling, so
  it also accepts unpicklable callables and items.
* :class:`VectorBackend` — model-evaluation and survivability batches
  are recognised and solved *simultaneously* by the structure-sharing
  batched solvers (:func:`repro.core.metrics.evaluate_batch_outcomes`
  / :func:`repro.core.metrics.evaluate_survivability_batch_outcomes`);
  anything else falls back to an inner backend (serial by default).
  The speedup is algorithmic, so it stacks with single-core machines —
  and with ``chunk_workers`` set (``--jobs vector:N``) independent
  chunks additionally fan out over a process pool (the vector+procs
  hybrid), stacking multi-core scaling on top.

All return :class:`PointOutcome` records in **input order** regardless
of completion order, and all capture per-point exceptions into the
outcome instead of aborting the whole batch — a sweep with one
pathological grid point still yields the other N−1 results. The
backends are observationally equivalent: same inputs, same outcomes,
same ordering (asserted by the test suite; the vector backend is
additionally *bit-identical* to the others on model batches).

A fifth backend lives in :mod:`repro.service`:
:class:`~repro.service.client.RemoteBackend` (``--jobs remote[:URL]``)
submits engine batches to a sweep-service job server over HTTP and
streams the outcomes back — same contract, same ordering, evaluation
on another process or host.

:func:`make_backend` maps the CLI's ``--jobs`` grammar (``N``,
``auto``, ``thread[:N]``, ``vector[:N]``, ``remote[:URL]``) onto a
backend;
:func:`available_cpus` is the ``auto`` worker count (cgroup/affinity
aware where the platform exposes it).
"""

from __future__ import annotations

import logging
import math
import os
import pickle
import time
import traceback as traceback_module
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional, Protocol, Sequence, Union

from ..errors import ParameterError
from ..obs import metrics, span
from ..obs.runtime import (
    absorb_telemetry,
    init_worker,
    telemetry_capture,
    worker_config,
)

log = logging.getLogger(__name__)

#: Optional streaming callback: invoked once per completed outcome, in
#: completion order, before the backend returns (``--progress`` uses it).
OutcomeFn = Callable[["PointOutcome"], None]

__all__ = [
    "OutcomeFn",
    "PointOutcome",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "ThreadPoolBackend",
    "VectorBackend",
    "StructureShareConfig",
    "available_cpus",
    "make_backend",
    "run_chunk",
]


@dataclass(frozen=True)
class StructureShareConfig:
    """How process-based backends share ``LatticeStructure`` with workers.

    ``use_shm`` packs the structures a batch needs into one
    :mod:`multiprocessing.shared_memory` segment that pool workers
    attach read-only views of (see :mod:`repro.core.structshare`);
    ``npz_dir`` additionally persists them as ``.npz`` files — the
    fork-unsafe/Windows fallback and a cold-start cache across runs.
    The default (shm on, no disk dir) matches ``--jobs N`` /
    ``--jobs vector:N`` with no ``--structure-cache`` flag;
    :meth:`disabled` restores the rebuild-per-worker baseline.
    """

    use_shm: bool = True
    npz_dir: Optional[str] = None

    @property
    def enabled(self) -> bool:
        """True when any sharing channel (shm or npz dir) is on."""
        return self.use_shm or self.npz_dir is not None

    @classmethod
    def disabled(cls) -> "StructureShareConfig":
        """Config with every channel off: workers rebuild skeletons."""
        return cls(use_shm=False, npz_dir=None)


def _shareable_sizes(items: Sequence[Any]) -> tuple[int, ...]:
    """Distinct lattice sizes of a homogeneous engine-request batch.

    Returns ``()`` for anything else (generic callables, SPN methods
    mixed in) — sharing is only wired for workloads known to consume a
    :class:`~repro.core.fastpath.LatticeStructure`.
    """
    from .batch import EvalRequest, SurvivabilityRequest

    sizes: set[int] = set()
    for item in items:
        if isinstance(item, EvalRequest):
            if item.method == "fast":
                sizes.add(item.params.num_nodes)
        elif isinstance(item, SurvivabilityRequest):
            sizes.add(item.params.num_nodes)
        else:
            return ()
    return tuple(sorted(sizes))


def _export_shared_structures(
    config: Optional[StructureShareConfig], items: Sequence[Any]
):
    """Parent-side export for a worker pool; ``None`` when not applicable.

    Sharing is strictly an optimisation: any failure here (no shared
    memory in the sandbox, unwritable cache dir, …) degrades to the
    rebuild-per-worker baseline instead of failing the batch.
    """
    if config is None or not config.enabled:
        return None
    sizes = _shareable_sizes(items)
    if not sizes:
        return None
    from ..core.structshare import export_structures

    try:
        return export_structures(
            sizes, npz_dir=config.npz_dir, use_shm=config.use_shm
        )
    except Exception:  # noqa: BLE001 — sharing must never break evaluation
        return None


#: Environment switches that pick solver kernels/backends. Snapshotted
#: in the parent at pool creation and re-applied in every worker, so a
#: kernel chosen programmatically (``os.environ`` mutated after other
#: modules cached state, exec'd workers with a scrubbed environment, …)
#: binds the whole pool, not just the parent — a mixed-kernel pool
#: would silently break A/B benchmarking even though results agree.
_KERNEL_ENV_VARS = (
    "REPRO_KERNEL",
    "REPRO_TRANSIENT_BACKEND",
)


def _kernel_env_snapshot() -> dict:
    """The parent's kernel/backend env selection, for worker handoff."""
    return {
        name: os.environ[name]
        for name in _KERNEL_ENV_VARS
        if name in os.environ
    }


def _init_pool_worker(share_spec, obs_config, kernel_env=None) -> None:
    """Composed pool initializer: obs handoff + kernel env + attach.

    Runs once per worker process.  Observability first (so the attach
    itself is traced when tracing is on), then the parent's kernel
    selection, then the structure-share attach when the parent exported
    one.
    """
    init_worker(obs_config)
    for name, value in (kernel_env or {}).items():
        os.environ[name] = value
    with span("worker.init", share=share_spec is not None):
        metrics().counter("pool.workers_initialized").add()
        if share_spec is not None:
            from ..core.structshare import pool_initializer

            pool_initializer(share_spec)


def _pool_init_kwargs(share) -> dict:
    """ProcessPoolExecutor initializer kwargs (obs + kernel env + share)."""
    share_spec = share.spec if share is not None else None
    return {
        "initializer": _init_pool_worker,
        "initargs": (share_spec, worker_config(), _kernel_env_snapshot()),
    }


def _warm_structures_from_disk(
    config: Optional[StructureShareConfig], items: Sequence[Any]
) -> None:
    """Seed this process's structure cache from the ``.npz`` layer.

    In-process backends (serial, thread, the vector backend's inline
    groups) have no pool to export to, but a configured
    ``--structure-cache`` directory still serves them: a cold process
    loads the lattice skeleton instead of enumerating it, and a first
    build is persisted for the next run. Best-effort, like all sharing.
    """
    if config is None or config.npz_dir is None:
        return
    from ..core.structshare import cached_structure, structure_share_enabled

    if not structure_share_enabled():
        return
    for n in _shareable_sizes(items):
        try:
            cached_structure(n, config.npz_dir)
        except Exception:  # noqa: BLE001 — cache warming only
            pass


@dataclass(frozen=True)
class PointOutcome:
    """Result (or captured failure) of evaluating one task.

    ``exception`` carries the original exception object when it
    survives a pickle round-trip (so callers can re-raise with the
    true type); ``error``/``error_type`` are its string form, always
    present on failure.  ``traceback`` is the formatted traceback
    *from the process that raised* — pool failures stay diagnosable
    even though the traceback object itself cannot cross the boundary.
    """

    index: int
    value: Any = None
    error: Optional[str] = None
    error_type: Optional[str] = None
    exception: Optional[BaseException] = None
    traceback: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when the point evaluated without error."""
        return self.error is None


def _evaluate_one(fn: Callable[[Any], Any], index: int, item: Any) -> PointOutcome:
    try:
        return PointOutcome(index=index, value=fn(item))
    except Exception as exc:  # noqa: BLE001 — per-point capture is the contract
        log.debug("point %d failed: %s: %s", index, type(exc).__name__, exc)
        try:
            carried = pickle.loads(pickle.dumps(exc))
        except Exception:  # noqa: BLE001 — unpicklable exception
            carried = None
        return PointOutcome(
            index=index,
            error=str(exc),
            error_type=type(exc).__name__,
            exception=carried,
            traceback=traceback_module.format_exc(),
        )


def run_chunk(
    fn: Callable[[Any], Any],
    chunk: Sequence[tuple[int, Any]],
    submitted_at: Optional[float] = None,
    *,
    backend: Optional["ExecutionBackend"] = None,
) -> tuple[list[PointOutcome], dict]:
    """Evaluate one ``(index, item)`` chunk under telemetry capture.

    This is the chunk protocol every fan-out tier shares: process-pool
    workers run it via the pickled :func:`_run_chunk` wrapper, and
    service workers (:mod:`repro.service.worker`) call it directly on
    leased chunks — same span, same telemetry-delta payload, so the
    parent/server absorbs either origin identically.

    ``backend=None`` evaluates serially in the calling thread; passing
    a backend fans the chunk's items across it, with outcomes remapped
    to the chunk's own indices.
    """
    with telemetry_capture(submitted_at) as capture:
        with span("chunk.evaluate", points=len(chunk)):
            if backend is None:
                outcomes = [_evaluate_one(fn, index, item) for index, item in chunk]
            else:
                indices = [index for index, _ in chunk]
                raw = backend.run(fn, [item for _, item in chunk])
                outcomes = [
                    replace(outcome, index=indices[local])
                    for local, outcome in enumerate(raw)
                ]
    return outcomes, capture.payload


def _run_chunk(
    fn: Callable[[Any], Any],
    chunk: Sequence[tuple[int, Any]],
    submitted_at: Optional[float] = None,
) -> tuple[list[PointOutcome], dict]:
    """Worker-side loop (module level so the pool can pickle it).

    Returns the outcomes plus a telemetry payload — the metrics delta
    and any spans recorded while the chunk ran — for the parent to
    absorb (see :mod:`repro.obs.runtime`).
    """
    return run_chunk(fn, chunk, submitted_at)


def _run_solve_chunk(
    solve: Callable[..., list[PointOutcome]],
    requests: Sequence[Any],
    max_bytes: int,
    submitted_at: Optional[float] = None,
) -> tuple[list[PointOutcome], dict]:
    """Telemetry-capturing wrapper for the vector+procs chunk fan-out."""
    with telemetry_capture(submitted_at) as capture:
        with span("chunk.solve", points=len(requests)):
            outcomes = solve(requests, max_bytes)
    return outcomes, capture.payload


class ExecutionBackend(Protocol):
    """Anything that can map a callable over tasks with error capture."""

    def run(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        *,
        on_outcome: Optional[OutcomeFn] = None,
    ) -> list[PointOutcome]:
        """Evaluate ``fn`` on every item; outcomes in input order.

        ``on_outcome`` (when given) is invoked once per outcome in
        *completion* order, before ``run`` returns — the hook behind
        streaming progress displays.
        """
        ...  # pragma: no cover

    def describe(self) -> str:
        """Short human-readable backend description."""
        ...  # pragma: no cover


def _notify(on_outcome: Optional[OutcomeFn], outcome: PointOutcome) -> None:
    if on_outcome is not None:
        on_outcome(outcome)


class SerialBackend:
    """In-process reference backend.

    ``structure_share`` only uses the disk layer here (there are no
    workers to export shared memory to): with an ``npz_dir`` configured
    the process loads cached lattice skeletons instead of enumerating.
    """

    def __init__(
        self, *, structure_share: Optional[StructureShareConfig] = None
    ) -> None:
        self.structure_share = (
            structure_share if structure_share is not None else StructureShareConfig()
        )

    def run(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        *,
        on_outcome: Optional[OutcomeFn] = None,
    ) -> list[PointOutcome]:
        """Evaluate items one by one in the calling thread."""
        _warm_structures_from_disk(self.structure_share, items)
        outcomes = []
        for i, item in enumerate(items):
            outcome = _evaluate_one(fn, i, item)
            _notify(on_outcome, outcome)
            outcomes.append(outcome)
        return outcomes

    def describe(self) -> str:
        """Short backend description (``serial``)."""
        return "serial"


class ProcessPoolBackend:
    """Chunked ``ProcessPoolExecutor`` backend.

    ``chunksize=None`` auto-sizes to about four chunks per worker — small
    enough to balance load across uneven point costs, large enough that
    pickling overhead stays negligible. ``fn`` and the items must be
    picklable (the engine's evaluation requests are).

    When a batch consists of engine evaluation requests, the lattice
    structures it needs are built once in the parent and exported to
    every worker via shared memory / the ``.npz`` cache
    (``structure_share``; :mod:`repro.core.structshare`) instead of
    being re-enumerated per process.
    """

    def __init__(
        self,
        max_workers: int,
        *,
        chunksize: Optional[int] = None,
        structure_share: Optional[StructureShareConfig] = None,
    ) -> None:
        if max_workers < 1:
            raise ParameterError(f"max_workers must be >= 1, got {max_workers}")
        if chunksize is not None and chunksize < 1:
            raise ParameterError(f"chunksize must be >= 1, got {chunksize}")
        self.max_workers = max_workers
        self.chunksize = chunksize
        self.structure_share = (
            structure_share if structure_share is not None else StructureShareConfig()
        )

    def _chunksize_for(self, n_items: int) -> int:
        if self.chunksize is not None:
            return self.chunksize
        return max(1, math.ceil(n_items / (self.max_workers * 4)))

    def run(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        *,
        on_outcome: Optional[OutcomeFn] = None,
    ) -> list[PointOutcome]:
        """Fan chunks of items over a process pool; input order preserved."""
        indexed = list(enumerate(items))
        if not indexed:
            return []
        if len(indexed) == 1:  # pool spin-up is never worth one point
            return SerialBackend().run(fn, items, on_outcome=on_outcome)
        size = self._chunksize_for(len(indexed))
        chunks = [indexed[i : i + size] for i in range(0, len(indexed), size)]
        outcomes: list[Optional[PointOutcome]] = [None] * len(indexed)
        share = _export_shared_structures(self.structure_share, items)
        workers = min(self.max_workers, len(chunks))
        try:
            with span(
                "pool.run", workers=workers, chunks=len(chunks), points=len(indexed)
            ):
                with ProcessPoolExecutor(
                    max_workers=workers,
                    **_pool_init_kwargs(share),
                ) as pool:
                    futures = [
                        pool.submit(_run_chunk, fn, chunk, time.time())
                        for chunk in chunks
                    ]
                    for future in futures:
                        # Point-level errors are already captured inside
                        # the chunk; a future-level error means the worker
                        # died (unpicklable fn, OOM kill) and should
                        # propagate.
                        chunk_outcomes, telemetry = future.result()
                        absorb_telemetry(telemetry)
                        for outcome in chunk_outcomes:
                            outcomes[outcome.index] = outcome
                            _notify(on_outcome, outcome)
        finally:
            if share is not None:
                share.close()
        assert all(o is not None for o in outcomes)
        return outcomes  # type: ignore[return-value]

    def describe(self) -> str:
        """Short backend description with worker count."""
        return f"process-pool(workers={self.max_workers})"


class ThreadPoolBackend:
    """Thread-pool backend for solver-releasing-GIL workloads.

    The heavy part of a model evaluation — the sparse linear solve —
    runs in native scipy/BLAS code that releases the GIL, so threads
    overlap it without process spin-up or pickling costs. Pure-Python
    stages still serialise on the GIL, which is why the process pool
    stays the default for ``--jobs N``; threads win when spawn cost or
    unpicklable work dominates.
    """

    def __init__(
        self,
        max_workers: int,
        *,
        structure_share: Optional[StructureShareConfig] = None,
    ) -> None:
        if max_workers < 1:
            raise ParameterError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self.structure_share = (
            structure_share if structure_share is not None else StructureShareConfig()
        )

    def run(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        *,
        on_outcome: Optional[OutcomeFn] = None,
    ) -> list[PointOutcome]:
        """Evaluate items on a thread pool; input order preserved."""
        indexed = list(enumerate(items))
        if not indexed:
            return []
        # Threads share this process's structure cache; the disk layer
        # still saves the cold-start enumeration.
        _warm_structures_from_disk(self.structure_share, items)
        if len(indexed) == 1:  # pool spin-up is never worth one point
            return SerialBackend().run(fn, items, on_outcome=on_outcome)
        with span("pool.run_threads", workers=self.max_workers, points=len(indexed)):
            with ThreadPoolExecutor(
                max_workers=min(self.max_workers, len(indexed))
            ) as pool:
                futures = [
                    pool.submit(_evaluate_one, fn, index, item)
                    for index, item in indexed
                ]
                outcomes = []
                for future in futures:
                    outcome = future.result()
                    _notify(on_outcome, outcome)
                    outcomes.append(outcome)
                return outcomes

    def describe(self) -> str:
        """Short backend description with worker count."""
        return f"thread-pool(workers={self.max_workers})"


def _carry(exc: BaseException) -> Optional[BaseException]:
    """The exception object iff it survives a pickle round-trip."""
    try:
        return pickle.loads(pickle.dumps(exc))
    except Exception:  # noqa: BLE001 — unpicklable exception
        return None


def _outcomes_from_batch(
    batch: "list[tuple[Any, Optional[BaseException]]]",
    *,
    sanitize: bool,
) -> list[PointOutcome]:
    """Wrap ``(result, error)`` pairs as chunk-local :class:`PointOutcome`.

    ``sanitize`` replaces the carried exception by its pickle
    round-trip (or ``None``) — required when the outcome list itself
    must cross a process boundary.
    """
    outcomes: list[PointOutcome] = []
    for i, (result, error) in enumerate(batch):
        if error is None:
            outcomes.append(PointOutcome(index=i, value=result))
        else:
            outcomes.append(
                PointOutcome(
                    index=i,
                    error=str(error),
                    error_type=type(error).__name__,
                    exception=_carry(error) if sanitize else error,
                    traceback="".join(
                        traceback_module.format_exception(
                            type(error), error, error.__traceback__
                        )
                    ),
                )
            )
    return outcomes


def _solve_model_chunk(
    requests: Sequence[Any], max_bytes: int, *, sanitize: bool = True
) -> list[PointOutcome]:
    """Solve one homogeneous chunk of ``EvalRequest`` items (picklable:
    this is what the vector+procs hybrid ships to pool workers)."""
    from ..core.metrics import evaluate_batch_outcomes

    first = requests[0]
    batch = evaluate_batch_outcomes(
        [(r.params, r.network) for r in requests],
        method=first.method,
        include_breakdown=first.include_breakdown,
        include_variance=first.include_variance,
        max_batch_bytes=max_bytes,
    )
    return _outcomes_from_batch(batch, sanitize=sanitize)


def _solve_survivability_chunk(
    requests: Sequence[Any], max_bytes: int, *, sanitize: bool = True
) -> list[PointOutcome]:
    """Survivability counterpart of :func:`_solve_model_chunk`."""
    from ..core.metrics import evaluate_survivability_batch_outcomes

    first = requests[0]
    batch = evaluate_survivability_batch_outcomes(
        [(r.params, r.network) for r in requests],
        times=first.times_s,
        eps=first.eps,
        max_batch_bytes=max_bytes,
    )
    return _outcomes_from_batch(batch, sanitize=sanitize)


class VectorBackend:
    """Structure-sharing batched evaluation behind the backend contract.

    When ``run`` receives one of the engine's canonical batch tasks —
    :func:`repro.engine.batch.evaluate_request` over
    :class:`~repro.engine.batch.EvalRequest` items, or
    :func:`repro.engine.batch.evaluate_survivability_request` over
    :class:`~repro.engine.batch.SurvivabilityRequest` items — the whole
    batch is handed to the matching structure-sharing solver
    (:func:`repro.core.metrics.evaluate_batch_outcomes` /
    :func:`repro.core.metrics.evaluate_survivability_batch_outcomes`):
    requests are grouped by solver options, each group shares one
    cached lattice structure per ``N``, and a single multi-point sweep
    solves every grid point at once — bit-identical results, no
    processes, no pickling. ``spn``/``spn-coupled`` requests and
    arbitrary callables fall back to ``fallback`` (serial by default),
    so the backend is safe to use anywhere a backend is accepted.

    ``chunk_workers`` is the **vector+procs hybrid** (``--jobs
    vector:N``): each homogeneous group is split into independent
    chunks that are fanned out over a process pool, every worker
    running the batched solver on its chunk. Per-point arithmetic in
    the batched solvers never mixes points, so chunked results are
    byte-identical to the single-process vector path — the hybrid
    simply stacks multi-core scaling on top of the algorithmic win.
    Groups too small to fill two chunks solve in-process (pool spin-up
    is never worth it).

    Composes with the result cache exactly like every other backend:
    the :class:`~repro.engine.batch.BatchRunner` fingerprints and
    stores results *around* the backend, so batched results land under
    the same content-addressed keys as per-point runs.
    """

    def __init__(
        self,
        *,
        fallback: Optional["ExecutionBackend"] = None,
        max_batch_bytes: Optional[int] = None,
        chunk_workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        structure_share: Optional[StructureShareConfig] = None,
    ) -> None:
        if chunk_workers is not None and chunk_workers < 1:
            raise ParameterError(f"chunk_workers must be >= 1, got {chunk_workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ParameterError(f"chunk_size must be >= 1, got {chunk_size}")
        self.fallback = fallback if fallback is not None else SerialBackend()
        self.max_batch_bytes = max_batch_bytes
        self.chunk_workers = chunk_workers
        self.chunk_size = chunk_size
        self.structure_share = (
            structure_share if structure_share is not None else StructureShareConfig()
        )

    def _batch_kind(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> Optional[str]:
        """Classify a canonical engine batch; ``None`` means fall back.

        ``evaluate_auto`` (the sweep service's type-dispatching
        evaluator) is recognised too, as long as the batch is
        homogeneous — a mixed eval/survivability batch falls back to
        the inner backend, which stays correct (``evaluate_auto``
        dispatches per item) at per-point speed.
        """
        from .batch import (
            EvalRequest,
            SurvivabilityRequest,
            evaluate_auto,
            evaluate_request,
            evaluate_survivability_request,
        )

        if fn in (evaluate_request, evaluate_auto) and all(
            isinstance(item, EvalRequest) for item in items
        ):
            return "model"
        if fn in (evaluate_survivability_request, evaluate_auto) and all(
            isinstance(item, SurvivabilityRequest) for item in items
        ):
            return "survivability"
        return None

    def _group_key(self, kind: str, request: Any) -> tuple:
        if kind == "model":
            return (
                request.method,
                request.include_breakdown,
                request.include_variance,
            )
        return (request.times_s, request.eps)

    def _chunks(self, indices: list[int]) -> list[list[int]]:
        """Deterministic input-order chunking for the process fan-out."""
        assert self.chunk_workers is not None
        size = self.chunk_size
        if size is None:
            # ~2 chunks per worker: enough slack to balance uneven
            # chunk costs without shredding the batches the solver
            # amortises over.
            size = max(1, math.ceil(len(indices) / (self.chunk_workers * 2)))
        return [indices[i : i + size] for i in range(0, len(indices), size)]

    def run(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        *,
        on_outcome: Optional[OutcomeFn] = None,
    ) -> list[PointOutcome]:
        """Evaluate a batch, routing homogeneous engine requests to the
        batched solvers and everything else to the per-point fallback.
        """
        if not items:
            return []
        kind = self._batch_kind(fn, items)
        if kind is None:
            return self.fallback.run(fn, items, on_outcome=on_outcome)

        from ..core.metrics import DEFAULT_BATCH_BYTES

        solve = _solve_model_chunk if kind == "model" else _solve_survivability_chunk
        max_bytes = (
            self.max_batch_bytes
            if self.max_batch_bytes is not None
            else DEFAULT_BATCH_BYTES
        )
        # One batched solve per distinct option bundle; scatter the
        # outcomes back into input order.
        outcomes: list[Optional[PointOutcome]] = [None] * len(items)
        groups: dict[tuple, list[int]] = {}
        for i, request in enumerate(items):
            groups.setdefault(self._group_key(kind, request), []).append(i)

        inline: list[list[int]] = []
        fanned: list[list[int]] = []
        for indices in groups.values():
            chunks = self._chunks(indices) if self.chunk_workers else [indices]
            if len(chunks) > 1:
                fanned.extend(chunks)
            else:
                inline.append(indices)

        def scatter(chunk: list[int], chunk_outcomes: list[PointOutcome]) -> None:
            for local, i in zip(chunk_outcomes, chunk):
                outcome = PointOutcome(
                    index=i,
                    value=local.value,
                    error=local.error,
                    error_type=local.error_type,
                    exception=local.exception,
                    traceback=local.traceback,
                )
                outcomes[i] = outcome
                _notify(on_outcome, outcome)

        # Warm this process from the on-disk structure cache (when one
        # is configured) before any solve — a cold `--jobs vector` CLI
        # run then loads the lattice skeleton instead of enumerating it.
        _warm_structures_from_disk(self.structure_share, items)

        for indices in inline:
            with span("vector.solve", kind=kind, points=len(indices)):
                scatter(
                    indices,
                    solve([items[i] for i in indices], max_bytes, sanitize=False),
                )
        if fanned:
            assert self.chunk_workers is not None
            share = _export_shared_structures(self.structure_share, items)
            workers = min(self.chunk_workers, len(fanned))
            try:
                with span(
                    "vector.pool_run",
                    kind=kind,
                    workers=workers,
                    chunks=len(fanned),
                ):
                    with ProcessPoolExecutor(
                        max_workers=workers,
                        **_pool_init_kwargs(share),
                    ) as pool:
                        futures = [
                            pool.submit(
                                _run_solve_chunk,
                                solve,
                                [items[i] for i in chunk],
                                max_bytes,
                                time.time(),
                            )
                            for chunk in fanned
                        ]
                        # A future-level error means the worker died (OOM
                        # kill, unpicklable payload) and should propagate,
                        # exactly like ProcessPoolBackend.
                        for chunk, future in zip(fanned, futures):
                            chunk_outcomes, telemetry = future.result()
                            absorb_telemetry(telemetry)
                            scatter(chunk, chunk_outcomes)
            finally:
                if share is not None:
                    share.close()
        assert all(o is not None for o in outcomes)
        return outcomes  # type: ignore[return-value]

    def describe(self) -> str:
        """Short backend description (``vector`` or ``vector+procs``)."""
        if self.chunk_workers:
            return f"vector+procs(workers={self.chunk_workers})"
        return "vector"


def available_cpus() -> int:
    """CPUs this process may actually use (affinity-aware on Linux)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover — macOS / Windows
        return os.cpu_count() or 1


def make_backend(
    jobs: Union[int, str, None],
    *,
    structure_share: Optional[StructureShareConfig] = None,
) -> ExecutionBackend:
    """Map the shared ``--jobs`` grammar onto a backend.

    * ``None`` / ``0`` / ``1`` / ``"serial"`` — :class:`SerialBackend`;
    * ``n > 1`` (int or numeric string) — process pool with ``n``
      workers;
    * ``"auto"`` — process pool sized to :func:`available_cpus`
      (serial when only one CPU is usable);
    * ``"thread"`` / ``"thread:auto"`` — thread pool sized to
      :func:`available_cpus`;
    * ``"thread:N"`` — thread pool with ``N`` workers;
    * ``"vector"`` — :class:`VectorBackend` (structure-sharing batched
      solver; no worker processes needed);
    * ``"vector:N"`` / ``"vector:auto"`` — the vector+procs hybrid:
      batched solving *and* ``N`` (or one-per-CPU) pool workers, each
      solving independent chunks of the batch;
    * ``"remote"`` / ``"remote:URL"`` — submit engine batches to a
      sweep-service job server (:mod:`repro.service`) instead of
      evaluating locally; the bare form reads the URL from
      ``$REPRO_SERVICE_URL`` (default ``http://127.0.0.1:8765``).

    ``structure_share`` configures how backends hand
    :class:`~repro.core.fastpath.LatticeStructure` to their workers
    (``None`` = the default shared-memory export; see
    :class:`StructureShareConfig`). Serial and thread backends evaluate
    in-process, where the ordinary structure cache already shares —
    for them only the on-disk ``npz_dir`` layer applies (cold-start
    loads instead of enumeration).
    """
    if isinstance(jobs, str):
        spec = jobs.strip().lower()
        if spec == "serial":
            return SerialBackend(structure_share=structure_share)
        if spec == "remote" or spec.startswith("remote:"):
            # Import lazily: the engine must not depend on the service
            # tier unless a remote backend is actually requested.
            from ..service.client import DEFAULT_SERVICE_URL, RemoteBackend

            # The URL keeps the caller's case (paths are case-sensitive).
            url = jobs.strip()[len("remote:"):] if spec != "remote" else ""
            if not url:
                url = os.environ.get("REPRO_SERVICE_URL", DEFAULT_SERVICE_URL)
            return RemoteBackend(
                url, fallback=SerialBackend(structure_share=structure_share)
            )
        if spec == "vector" or spec.startswith("vector:"):
            _, colon, count = spec.partition(":")
            if not colon:
                return VectorBackend(structure_share=structure_share)
            if count == "auto":
                n = available_cpus()
                return VectorBackend(
                    chunk_workers=n if n > 1 else None,
                    structure_share=structure_share,
                )
            try:
                workers = int(count)
            except ValueError:
                raise ParameterError(
                    "vector worker count must be an integer or 'auto', "
                    f"got {jobs!r}"
                ) from None
            return VectorBackend(
                chunk_workers=workers, structure_share=structure_share
            )
        if spec == "auto":
            n = available_cpus()
            if n <= 1:
                return SerialBackend(structure_share=structure_share)
            return ProcessPoolBackend(
                max_workers=n, structure_share=structure_share
            )
        if spec == "thread" or spec.startswith("thread:"):
            _, colon, count = spec.partition(":")
            if count == "auto" or not colon:
                return ThreadPoolBackend(
                    max_workers=available_cpus(),
                    structure_share=structure_share,
                )
            try:
                workers = int(count)
            except ValueError:
                raise ParameterError(
                    "thread worker count must be an integer or 'auto', "
                    f"got {jobs!r}"
                ) from None
            return ThreadPoolBackend(
                max_workers=workers, structure_share=structure_share
            )
        try:
            jobs = int(spec)
        except ValueError:
            raise ParameterError(
                "jobs must be N, 'auto', 'serial', 'vector[:N]', "
                f"'thread[:N]' or 'remote[:URL]', got {jobs!r}"
            ) from None
    if jobs is not None and jobs < 0:
        raise ParameterError(f"jobs must be >= 0, got {jobs}")
    if jobs is None or jobs <= 1:
        return SerialBackend(structure_share=structure_share)
    return ProcessPoolBackend(max_workers=jobs, structure_share=structure_share)
