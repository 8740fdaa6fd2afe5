"""Per-layer timing from outside the program.

A traced run installs one timing wrapper per layer boundary, at the
place the *caller* looks the function up.  ``repro.core.metrics`` binds
``fill_transition_rates`` and ``solve_dag_batch`` at import, so those
names are replaced in that module's namespace (and again in
``repro.core.fastpath``, whose own ``build_lattice_chain`` calls them
there); methods are replaced on their class.  Every wrapper calls the
original it captured, so a call is counted once whichever reference it
went through.

Each wrapper records a span (name, start, end, parent, request) into an
in-memory list on the calling thread's stack, so a layer's self time is
its duration minus the durations of its direct children, exactly.
Spans are written out only when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Optional

__all__ = ["LAYERS", "Recorder"]


def _rows(args: tuple, kwargs: dict) -> int:
    """``cost_vector(t, u, d)``: one row per state evaluated."""
    return len(args[1] if len(args) > 1 else kwargs["t"])


def _dag_points(args: tuple, kwargs: dict) -> int:
    """``solve_dag_batch(dag, values, numer, boundary)``: one point per row."""
    return int(args[1].shape[0])


def _array_bytes(*arrays: Any) -> int:
    return int(sum(getattr(a, "nbytes", 0) for a in arrays))


def _dag_bytes(args: tuple, kwargs: dict, result: Any) -> int:
    """Bytes of the sweep's operands and result (rates, numerators,
    boundary, solution)."""
    return _array_bytes(*args[1:4], result)


def _transient_bytes(args: tuple, kwargs: dict, result: Any) -> int:
    """Bytes of the uniformization operands and result (CSR pattern,
    stacked rates, distributions)."""
    return _array_bytes(*args[0:3], result)


#: (layer, metric stem, module, attribute path, counted-work extractor,
#: bytes extractor).  The attribute path is where callers look the
#: function up; a dotted path names a method on a class.
LAYERS: tuple[tuple[str, str, str, str, Optional[Callable], Optional[Callable]], ...] = (
    ("engine.jobs", "campaign_run", "repro.engine.jobs", "Campaign.run", None, None),
    ("engine.jobs", "survivability_run", "repro.engine.jobs", "SurvivabilitySweep.run", None, None),
    ("engine.batch", "run", "repro.engine.batch", "BatchRunner.run", None, None),
    ("engine.keys", "fingerprint", "repro.engine.batch", "scenario_fingerprint", None, None),
    ("engine.cache", "get", "repro.engine.cache", "ResultCache.get", None, None),
    ("engine.cache", "put", "repro.engine.cache", "ResultCache.put", None, None),
    ("engine.executor", "vector_run", "repro.engine.executor", "VectorBackend.run", None, None),
    ("core.fastpath", "lattice_structure", "repro.core.metrics", "lattice_structure", None, None),
    ("core.fastpath", "lattice_structure", "repro.core.fastpath", "lattice_structure", None, None),
    ("core.fastpath", "fill_transition_rates", "repro.core.metrics", "fill_transition_rates", None, None),
    ("core.fastpath", "fill_transition_rates", "repro.core.fastpath", "fill_transition_rates", None, None),
    ("core.fastpath", "build_lattice_chain", "repro.core.metrics", "build_lattice_chain", None, None),
    ("core.rates", "from_scenario", "repro.core.rates", "GCSRates.from_scenario", None, None),
    ("voting.majority", "table", "repro.voting.majority", "VotingErrorModel.table", None, None),
    ("costs.aggregate", "cost_vector", "repro.costs.aggregate", "GCSCostModel.cost_vector", _rows, None),
    ("ctmc.acyclic", "solve_dag_batch", "repro.core.metrics", "solve_dag_batch", _dag_points, _dag_bytes),
    ("ctmc.transient", "transient_distribution_batch", "repro.core.metrics", "transient_distribution_batch", None, _transient_bytes),
    ("core.metrics", "evaluate", "repro.core.metrics", "GCSEvaluation.run", None, None),
    ("ctmc.absorbing", "analyze_absorbing", "repro.core.metrics", "analyze_absorbing", None, None),
    ("service.client", "remote_run", "repro.service.client", "RemoteBackend.run", None, None),
    ("service.client", "submit", "repro.service.client", "ServiceClient.submit", None, None),
    ("service.client", "fetch", "repro.service.client", "ServiceClient.fetch", None, None),
    ("service.worker", "busy", "repro.service.worker", "ServiceWorker._process", None, None),
)


class Recorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: list[tuple[Any, str, Any]] = []
        #: Tag stamped on every span (the benchmark sets the request id).
        self.request: Any = None
        self.reset()

    def reset(self) -> None:
        """Forget every span and count (keeps the wrappers installed)."""
        self._ids = itertools.count()
        self.spans: list[tuple[int, str, Optional[int], float, float, int, Any]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.work: dict[str, int] = defaultdict(int)
        self.nbytes: dict[str, int] = defaultdict(int)

    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[int, Optional[int], float]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def _close(self, name: str, span_id: int, parent: Optional[int], t0: float) -> None:
        t1 = time.perf_counter()
        self._stack().pop()
        record = (span_id, name, parent, t0, t1, threading.get_ident(), self.request)
        with self._lock:
            self.spans.append(record)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one benchmark-owned span around the ``with`` body."""
        token = self._open()
        try:
            yield
        finally:
            self._close(name, *token)

    def records(self) -> list[tuple]:
        """Closed spans ordered by id (parents before children)."""
        with self._lock:
            return sorted(self.spans)

    # ------------------------------------------------------------------
    def _wrap(self, name: str, fn: Callable, work: Optional[Callable], nbytes: Optional[Callable]) -> Callable:
        recorder = self

        def wrapper(*args, **kwargs):
            token = recorder._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(name, *token)
            units = work(args, kwargs) if work is not None else 0
            moved = nbytes(args, kwargs, result) if nbytes is not None else 0
            with recorder._lock:
                recorder.calls[name] += 1
                recorder.work[name] += units
                recorder.nbytes[name] += moved
            return result

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        """Replace every LAYERS function with its timing wrapper."""
        self.reset()
        for layer, stem, module_name, path, work, nbytes in LAYERS:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            name = f"{layer}.{stem}"
            if isinstance(raw, classmethod):
                replacement: Any = classmethod(self._wrap(name, raw.__func__, work, nbytes))
            else:
                replacement = self._wrap(name, raw, work, nbytes)
            self._installed.append((owner, attr, raw))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Put every original back."""
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: total seconds and self seconds."""
        records = self.records()
        child_time: dict[int, float] = defaultdict(float)
        for span_id, _, parent, t0, t1, _, _ in records:
            if parent is not None:
                child_time[parent] += t1 - t0
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"total_s": 0.0, "self_s": 0.0})
        for span_id, name, _, t0, t1, _, _ in records:
            entry = out[name]
            entry["total_s"] += t1 - t0
            entry["self_s"] += (t1 - t0) - child_time[span_id]
        return dict(out)

    def children_total(self, parent_name: str) -> float:
        """Seconds covered by direct children of every ``parent_name`` span."""
        records = self.records()
        parents = {r[0] for r in records if r[1] == parent_name}
        return sum(r[4] - r[3] for r in records if r[2] in parents)

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, parent, t0, t1, tid, request in self.records():
                fh.write(json.dumps({
                    "id": span_id, "name": name, "parent": parent,
                    "start_s": t0, "end_s": t1, "tid": tid, "request": request,
                }))
                fh.write("\n")

    def summary(self) -> dict:
        """Everything another process needs to merge this recorder."""
        return {
            "totals": self.totals(),
            "calls": dict(self.calls),
            "work": dict(self.work),
            "bytes": dict(self.nbytes),
        }
