"""Seeded workload generators, and the helpers the checks compare results with.

The seed belongs to the benchmark; the program only ever sees the
generated campaigns, sweeps and requests.  Seed 0 reproduces the
paper's fig2–fig5 grids and the contested-burst survivability grid
exactly; any other seed draws the swept axis values from the same
ranges, with the same counts, the same ``N`` and the same number of
unique points.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Iterator

from repro import constants as C
from repro.engine import EvalRequest, SweepJob
from repro.engine.jobs import Campaign, SurvivabilitySweep, paper_campaign

__all__ = [
    "DEFAULT_SEED",
    "SURVIVABILITY_TIMES_S",
    "Sweep",
    "canonical",
    "paper_full",
    "service_sessions",
    "survivability",
    "unique_count",
]

DEFAULT_SEED = 0

#: Result fields that record how and how fast a point was solved, not
#: what it evaluated to.  Everything else must match bit for bit.
_TIMING_FIELDS = ("build_seconds", "solve_seconds", "solver")

#: Mission-time grid of the contested-burst sweep (seconds).
SURVIVABILITY_TIMES_S = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0)

#: Hostile overrides that make S(t) decay inside the mission window.
_CONTESTED_BURST = {
    "base_compromise_rate_hz": 0.5,
    "data_rate_hz": 2.0,
    "host_false_negative": 0.2,
}


def canonical(result) -> str:
    """A result's value fields as JSON text (``repr``-exact floats)."""
    record = {k: v for k, v in result.to_dict().items() if k not in _TIMING_FIELDS}
    return json.dumps(record, sort_keys=True)


def unique_count(requests) -> int:
    """Distinct scenario points, counted without the engine's keys."""
    return len({
        json.dumps(
            [request.params.to_dict(), getattr(request, "method", None), getattr(request, "times_s", None)],
            sort_keys=True,
        )
        for request in requests
    })


def _log_uniform_grid(rng: random.Random, count: int, low: float, high: float) -> tuple[float, ...]:
    """``count`` distinct whole seconds, log-uniform on ``[low, high]``."""
    values: set[float] = set()
    while len(values) < count:
        values.add(float(round(math.exp(rng.uniform(math.log(low), math.log(high))))))
    return tuple(sorted(values))


def _paper_campaign(tids: tuple, cost_tids: tuple) -> Campaign:
    """fig2–fig5 at N=100 over the given TIDS grids (cost grid ⊂ TIDS grid)."""
    base = {"num_nodes": C.PAPER_NUM_NODES}
    functions = ("logarithmic", "linear", "polynomial")
    return Campaign(
        name="paper-figures",
        jobs=(
            SweepJob("fig2_mttsf_vs_m", {"detection_interval_s": tids, "num_voters": tuple(C.PAPER_M_VALUES)}, base),
            SweepJob("fig3_ctotal_vs_m", {"detection_interval_s": cost_tids, "num_voters": tuple(C.PAPER_M_VALUES)}, base),
            SweepJob("fig4_mttsf_vs_detection", {"detection_interval_s": tids, "detection_function": functions}, base),
            SweepJob("fig5_ctotal_vs_detection", {"detection_interval_s": cost_tids, "detection_function": functions}, base),
        ),
    )


def paper_full(seed: int) -> Campaign:
    """The paper's four figure grids as one campaign (112 requests, 54 unique).

    Other seeds redraw the 9-value TIDS grid on the paper's range and
    take a random 7-value subset of it as the cost-figure grid, which
    keeps fig3/fig5 inside fig2/fig4 and so the unique count at 54.
    """
    if seed == DEFAULT_SEED:
        tids = tuple(float(t) for t in C.PAPER_TIDS_GRID_S)
        cost = tuple(float(t) for t in C.PAPER_TIDS_GRID_COST_S)
        campaign = _paper_campaign(tids, cost)
        reference = paper_campaign(quick=False).to_dict()
        if campaign.to_dict() != json.loads(json.dumps(reference)):
            raise RuntimeError("seed 0 no longer reproduces paper_campaign(quick=False)")
        return campaign
    rng = random.Random(seed)
    tids = _log_uniform_grid(rng, len(C.PAPER_TIDS_GRID_S), min(C.PAPER_TIDS_GRID_S), max(C.PAPER_TIDS_GRID_S))
    cost = tuple(sorted(rng.sample(tids, len(C.PAPER_TIDS_GRID_COST_S))))
    return _paper_campaign(tids, cost)


def survivability(seed: int) -> SurvivabilitySweep:
    """Contested-burst sweep at N=40: m ∈ {3,5,7,9} × 3 TIDS values × 8 times.

    Other seeds redraw the three TIDS values from ``[60, 240]`` s.
    """
    tids = (60.0, 120.0, 240.0)
    if seed != DEFAULT_SEED:
        tids = _log_uniform_grid(random.Random(seed), 3, 60.0, 240.0)
    return SurvivabilitySweep(
        name="contested-burst-survivability",
        times_s=SURVIVABILITY_TIMES_S,
        axes={"num_voters": (3, 5, 7, 9), "detection_interval_s": tids},
        base={"num_nodes": 40, **_CONTESTED_BURST},
    )


@dataclass(frozen=True)
class Sweep:
    """One client submission: a small TIDS sweep, or a repeat of one."""

    label: str
    requests: tuple[EvalRequest, ...]
    repeat: bool


#: Every REPEAT_EVERY-th sweep of a client resubmits one of that
#: client's own earlier sweeps.  1 in 5 keeps the cache-served cluster
#: (a few ms) well below both the median (37% into the solved sweeps)
#: and the tail percentile (~70% into them).
REPEAT_EVERY = 5


def _deck(rng: random.Random, cards: list) -> Iterator:
    """Deal ``cards`` in a fresh seeded order, round after round."""
    while True:
        yield from rng.sample(cards, len(cards))


def service_sessions(seed: int, clients: int = 2, per_client: int = 400) -> list[list[Sweep]]:
    """Each client's closed-loop list of sweeps (longer than any run uses).

    A fresh sweep fixes N ∈ {30, 40, 50} and m ∈ {3, 5, 7, 9} and spans
    6–8 TIDS values drawn log-uniform on the paper's range to the
    millisecond, so two fresh sweeps never share a point and only the
    deliberate repeats are served from the server's cache.  (N, size)
    and m are dealt from shuffled decks rather than drawn independently,
    so every seed sends nearly the same mix of work within a run.
    """
    rng = random.Random(seed)
    sessions: list[list[Sweep]] = []
    for client in range(clients):
        shapes = _deck(rng, [(n, size) for n in (30, 40, 50) for size in (6, 7, 8)])
        voters = _deck(rng, list(C.PAPER_M_VALUES))
        sweeps: list[Sweep] = []
        for k in range(per_client):
            fresh = [s for s in sweeps if not s.repeat]
            if k % REPEAT_EVERY == REPEAT_EVERY - 1 and fresh:
                source = rng.choice(fresh)
                sweeps.append(Sweep(f"{source.label}-again", source.requests, True))
                continue
            n, size = next(shapes)
            tids: set[float] = set()
            while len(tids) < size:
                tids.add(round(math.exp(rng.uniform(math.log(5.0), math.log(1200.0))), 3))
            base = {"num_nodes": n, "num_voters": next(voters)}
            job = SweepJob(f"c{client}-s{k}", {"detection_interval_s": tuple(sorted(tids))}, base)
            sweeps.append(Sweep(job.name, tuple(req for _, req in job.requests()), False))
        sessions.append(sweeps)
    return sessions
