"""Parallel batch-evaluation engine with content-addressed caching.

Turns one-off sweeps into a scalable evaluation service::

    from repro.engine import BatchRunner, ResultCache, make_backend
    from repro.engine.jobs import paper_campaign

    runner = BatchRunner(
        cache=ResultCache(cache_dir="~/.cache/repro"),
        backend=make_backend(jobs=4),
    )
    outcome = paper_campaign(quick=True).run(runner)
    print(outcome.report.describe())

Modules:

=================  ====================================================
``keys``           content-addressed scenario fingerprints
``locks``          advisory file locking (fcntl/msvcrt) for shared dirs
``cache``          persistent disk store (locked writes, LRU eviction)
                   + in-memory LRU, hit/miss/eviction stats
``executor``       vector backend (batched solvers, optional process
                   fan-out) over serial / process-pool fallbacks, with
                   error capture; ``make_backend`` maps ``--jobs``
``batch``          dedup → cache → evaluate → store composition
``jobs``           declarative job specs and multi-figure campaigns
=================  ====================================================

The engine is instrumented end to end by :mod:`repro.obs` — enable
tracing / read the metrics registry there; each batch records its
per-phase timings on :class:`BatchReport` (``phase_seconds``) and its
counts as ``engine.*`` counters, and pool workers ship span/metric
deltas back to the parent with every chunk.

A cache directory may be shared by many concurrent processes: record
writes are atomic (tmp + rename), multi-file mutations are serialised
by an advisory file lock, and ``max_disk_bytes`` bounds the store with
LRU-by-mtime eviction.
"""

from .batch import (
    BatchReport,
    BatchResult,
    BatchRunner,
    EvalRequest,
    PointError,
    ProgressFn,
    SurvivabilityRequest,
    evaluate_request,
    evaluate_survivability_request,
    make_runner,
    run_tids_sweep,
)
from .cache import (
    CacheableResult,
    CacheStats,
    ResultCache,
    result_from_dict,
    survivability_result_from_dict,
)
from .executor import (
    ExecutionBackend,
    OutcomeFn,
    PointOutcome,
    ProcessPoolBackend,
    SerialBackend,
    StructureShareConfig,
    VectorBackend,
    available_cpus,
    make_backend,
)
from .jobs import (
    Campaign,
    JobOutcome,
    SurvivabilityOutcome,
    SurvivabilitySweep,
    SweepJob,
    load_campaign,
    paper_campaign,
)
from .keys import SCHEMA_VERSION, params_from_dict, scenario_fingerprint
from .locks import FileLock, LockTimeoutError

__all__ = [
    "SCHEMA_VERSION",
    "scenario_fingerprint",
    "params_from_dict",
    "CacheStats",
    "ResultCache",
    "result_from_dict",
    "FileLock",
    "LockTimeoutError",
    "ExecutionBackend",
    "OutcomeFn",
    "ProgressFn",
    "PointOutcome",
    "SerialBackend",
    "ProcessPoolBackend",
    "VectorBackend",
    "StructureShareConfig",
    "available_cpus",
    "make_backend",
    "EvalRequest",
    "SurvivabilityRequest",
    "PointError",
    "BatchReport",
    "BatchResult",
    "BatchRunner",
    "make_runner",
    "evaluate_request",
    "evaluate_survivability_request",
    "run_tids_sweep",
    "Campaign",
    "SweepJob",
    "JobOutcome",
    "SurvivabilitySweep",
    "SurvivabilityOutcome",
    "load_campaign",
    "paper_campaign",
    "CacheableResult",
    "survivability_result_from_dict",
]
