"""Command-line interface: ``repro-experiments`` / ``python -m repro.cli``.

Subcommands:

* ``list`` — show the experiment registry;
* ``run <id> [--full] [--seed S] [--out DIR]`` — run one experiment,
  print its tables, optionally write CSV/JSON artifacts;
* ``paper [--full] [--out DIR]`` — run every figure experiment
  (``fig2`` … ``fig5``);
* ``evaluate [--n N] [--m M] [--tids T] ...`` — single model evaluation
  with a summary report;
* ``sweep --axis k=v1,v2 … | --spec jobs.json`` — batch-evaluate a
  parameter grid (or a declarative multi-job campaign) through the
  :mod:`repro.engine` cache and backends;
* ``survivability --times T1,T2,… [--axis k=v1,v2 …]`` — time-bounded
  survivability curves ``S(t)`` over a parameter grid (batched
  transient analysis; same engine cache and backends);
* ``serve [--host H] [--port P] [--manifest-dir DIR]`` — run the sweep
  service: an HTTP job server (:mod:`repro.service`) other processes
  submit campaigns to with ``--jobs remote[:URL]`` (see
  ``docs/service.md``); ``--lease-ttl``/``--heartbeat-interval``/
  ``--chunk-size``/``--max-chunk-attempts`` tune its worker pool and
  ``--chunks-per-worker``/``--no-steal``/``--no-speculate`` its
  adaptive scheduler;
* ``work --server URL`` — run a pool worker against a sweep service:
  register, lease chunks of submitted campaigns, evaluate them on a
  local backend (``--jobs``), and report outcomes back; any number of
  workers may join, and the server survives them dying mid-chunk.

``run``, ``paper``, ``sweep`` and ``survivability`` all accept
``--jobs N|auto|thread[:N]|vector[:N]|remote[:URL]`` (evaluation
workers; 0/1 = serial; ``vector`` = the structure-sharing batched
solver; ``vector:N`` = the vector+procs hybrid fanning batch chunks
over ``N`` pool workers; ``remote`` = submit to a sweep service),
``--cache-dir DIR`` (persistent content-addressed
result cache, safe to share between concurrent processes),
``--cache-cap-mb MB`` (LRU disk eviction cap), ``--structure-cache
DIR|off`` (cross-worker lattice-structure sharing: shared memory by
default, an on-disk ``.npz`` cache under DIR, or ``off`` to rebuild
per worker), ``--kernel numba|fused`` (batched-solver kernel
tier — sets ``REPRO_KERNEL``; both tiers bit-identical) and
``--verbose`` (cache hit/miss/eviction statistics plus per-phase batch
timings).

They also share the observability flags (:mod:`repro.obs`):
``--trace FILE`` (span trace; Chrome/Perfetto JSON, or JSONL when FILE
ends in ``.jsonl``), ``--metrics-out FILE`` (merged counters /
histograms, worker deltas included), ``--manifest FILE`` (run manifest;
written automatically next to ``--out`` artifacts when tracing or
metrics are on), ``--log-level LEVEL`` (stdlib logging on the
``repro`` logger only) and ``--progress`` (single updating
``done/total`` line on stderr for sweep/survivability grids).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path
from typing import Any, Optional, Sequence

from .analysis.experiments import ExperimentConfig, get_experiment, list_experiments
from .analysis.io import write_experiment_artifacts
from .core.metrics import evaluate as evaluate_model
from .ctmc.kernels import KERNEL_CHOICES
from .engine import BatchRunner, make_runner
from .engine.jobs import Campaign, SweepJob, load_campaign
from .errors import ParameterError, ReproError
from .obs import (
    RunManifest,
    batch_reports,
    configure_logging,
    enable_tracing,
    metrics,
    params_digest,
    reset_observability,
    write_chrome_trace,
    write_jsonl,
)
from .params import GCSParameters

__all__ = ["main", "build_parser"]


def _jobs_spec(text: str) -> "int | str":
    """``--jobs`` argparse type: ints parse, backend specs pass through."""
    try:
        return int(text)
    except ValueError:
        return text


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=_jobs_spec,
        default=None,
        metavar="N",
        help=(
            "evaluation workers: N (process pool), 'auto' (one per usable "
            "CPU), 'thread[:N]' (thread pool), 'vector' (structure-"
            "sharing batched solver, solves whole sweeps at once), "
            "'vector:N' (vector+procs hybrid: batched chunks fanned over "
            "N pool workers), or 'remote[:URL]' (submit to a sweep "
            "service started with 'serve'; URL defaults to "
            "$REPRO_SERVICE_URL); 0/1 = serial"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=(
            "persistent result cache directory (reused across runs; safe "
            "to share between concurrent processes)"
        ),
    )
    parser.add_argument(
        "--cache-cap-mb",
        type=float,
        default=None,
        metavar="MB",
        help=(
            "cap the disk cache at MB megabytes; least-recently-used "
            "records are evicted beyond it (requires --cache-dir)"
        ),
    )
    parser.add_argument(
        "--structure-cache",
        default=None,
        metavar="DIR|off",
        help=(
            "share the lattice structure with worker processes: a "
            "directory adds an on-disk .npz structure cache there, "
            "'off' disables sharing (rebuild per worker); default is "
            "shared memory, plus <cache-dir>/structures when "
            "--cache-dir is set"
        ),
    )
    parser.add_argument(
        "--kernel",
        choices=KERNEL_CHOICES,
        default=None,
        help=(
            "batched-solver kernel tier (sets REPRO_KERNEL for this run "
            "and every pool worker): 'numba' = jitted one-pass sweep "
            "(needs the optional numba extra; falls back to 'fused' "
            "when missing), 'fused' = fused-gather NumPy (default); "
            "both tiers are bit-identical"
        ),
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="print cache hit/miss/eviction statistics and per-phase timings",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help=(
            "record a span trace of the run; written as Chrome trace JSON "
            "(load in Perfetto / chrome://tracing), or JSONL when FILE "
            "ends in .jsonl"
        ),
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help=(
            "write the merged metrics registry (counters, gauges, "
            "histograms; worker deltas included) as JSON"
        ),
    )
    parser.add_argument(
        "--manifest",
        default=None,
        metavar="FILE",
        help=(
            "write a run manifest (params digest, git sha, backend, kernel "
            "flags, phase timings, cache stats, errors); with --trace or "
            "--metrics-out one is also written next to --out automatically"
        ),
    )
    parser.add_argument(
        "--log-level",
        default=None,
        metavar="LEVEL",
        help=(
            "enable stdlib logging on the 'repro' logger at LEVEL "
            "(DEBUG, INFO, WARNING, ...); the root logger is never touched"
        ),
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help=(
            "print a single updating done/total (hits/evaluated/errors) "
            "line on stderr (sweep and survivability grids)"
        ),
    )


def _build_runner(args: argparse.Namespace) -> Optional[BatchRunner]:
    """A runner when any engine flag is set; ``None`` keeps the seed path.

    A lone ``--cache-cap-mb`` also reaches :func:`make_runner` so its
    "requires --cache-dir" validation fires instead of the flag being
    silently dropped.
    """
    if (
        args.jobs is None
        and args.cache_dir is None
        and args.cache_cap_mb is None
        and args.structure_cache is None
    ):
        return None
    return make_runner(
        args.jobs,
        args.cache_dir,
        cache_cap_mb=args.cache_cap_mb,
        structure_cache=args.structure_cache,
    )


def _print_cache_stats(
    runner: Optional[BatchRunner], verbose: bool, report: Any = None
) -> None:
    if runner is None or not verbose:
        return
    print(runner.cache.describe())
    stats = runner.cache.stats.as_dict()
    print(
        "cache stats: "
        + ", ".join(
            f"{key}={value:.3f}" if isinstance(value, float) else f"{key}={value}"
            for key, value in stats.items()
        )
    )
    if report is not None:
        print(report.describe_phases())
    else:
        line = _ledger_phases_line()
        if line:
            print(line)


def _ledger_phases_line() -> Optional[str]:
    """Aggregate phase timings across every batch this command ran.

    ``run``/``paper`` drive several batches through the experiment layer
    (one per figure series), so the per-batch reports are pulled from
    the observability ledger and summed.
    """
    reports = batch_reports()
    if not reports:
        return None
    phases: dict[str, float] = {}
    for report in reports:
        for name, seconds in report.get("phase_seconds", {}).items():
            phases[name] = phases.get(name, 0.0) + seconds
    if not phases:
        return None
    timings = " ".join(f"{name}={seconds:.3f}s" for name, seconds in phases.items())
    return f"phases ({len(reports)} batches): {timings}"


def _configure_obs(args: argparse.Namespace) -> None:
    """Per-invocation observability setup for engine-backed commands."""
    reset_observability()
    if args.log_level:
        try:
            configure_logging(args.log_level)
        except ValueError as exc:
            raise ParameterError(str(exc)) from None
    if args.trace:
        enable_tracing()


def _make_progress(total: int):
    """A ``ProgressFn`` updating one stderr line, plus its finisher."""
    state = {"done": 0, "cache": 0, "evaluated": 0, "error": 0}

    def update(index: int, key: str, source: str) -> None:
        state["done"] += 1
        state[source] += 1
        sys.stderr.write(
            f"\r{state['done']}/{total} points "
            f"(hits={state['cache']} evaluated={state['evaluated']} "
            f"errors={state['error']})"
        )
        sys.stderr.flush()

    def finish() -> None:
        if state["done"]:
            sys.stderr.write("\n")
            sys.stderr.flush()

    return update, finish


def _manifest_path(args: argparse.Namespace) -> Optional[Path]:
    if args.manifest:
        return Path(args.manifest)
    if not (args.trace or args.metrics_out):
        return None
    out = getattr(args, "out", None)
    if not out:
        return None
    out_path = Path(out)
    if args.command in ("run", "paper"):  # --out is an artifact directory
        return out_path / "manifest.json"
    return out_path.with_name(out_path.stem + ".manifest.json")


def _finish_obs(
    args: argparse.Namespace,
    runner: Optional[BatchRunner],
    *,
    fingerprints: Optional[Sequence[str]] = None,
    errors: Sequence[Any] = (),
) -> None:
    """Export trace / metrics / manifest after an engine-backed command."""
    if args.trace:
        path = Path(args.trace)
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.suffix == ".jsonl":
            write_jsonl(path)
        else:
            write_chrome_trace(path)
        print(f"trace: {path}")
    if args.metrics_out:
        path = Path(args.metrics_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(metrics().snapshot(), indent=2) + "\n")
        print(f"metrics: {path}")
    manifest_path = _manifest_path(args)
    if manifest_path is not None:
        manifest_path.parent.mkdir(parents=True, exist_ok=True)
        manifest = RunManifest(
            command=" ".join(
                ["repro-experiments", args.command]
                + ([args.experiment] if hasattr(args, "experiment") else [])
            ),
            backend=runner.backend.describe() if runner is not None else None,
            params_digest=(
                params_digest(fingerprints) if fingerprints is not None else None
            ),
            reports=batch_reports(),
            cache_stats=(
                runner.cache.stats.as_dict() if runner is not None else None
            ),
            errors=[error.as_dict() for error in errors],
        )
        manifest.write(manifest_path)
        print(f"manifest: {manifest_path}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduction harness for Cho & Chen (IPDPS 2009): distributed "
            "intrusion detection for mobile group communication systems."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments")

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("experiment", help="experiment id (see 'list')")
    p_run.add_argument("--full", action="store_true", help="paper-scale N=100")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--out", default=None, help="artifact directory")
    p_run.add_argument(
        "--plot", action="store_true", help="render ASCII plots of each series"
    )
    _add_engine_flags(p_run)

    p_paper = sub.add_parser("paper", help="run all figure experiments")
    p_paper.add_argument("--full", action="store_true")
    p_paper.add_argument("--seed", type=int, default=0)
    p_paper.add_argument("--out", default=None)
    _add_engine_flags(p_paper)

    p_sweep = sub.add_parser(
        "sweep", help="batch-evaluate a parameter grid through the engine"
    )
    p_sweep.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="NAME=V1,V2,...",
        help="grid axis over any GCSParameters.replacing key (repeatable)",
    )
    p_sweep.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        dest="base",
        help="fixed base parameter override (repeatable)",
    )
    p_sweep.add_argument(
        "--spec", default=None, metavar="FILE", help="JSON campaign/job spec"
    )
    p_sweep.add_argument("--n", type=int, default=None, help="group size N")
    p_sweep.add_argument(
        "--method", default="fast", choices=("fast", "spn", "spn-coupled")
    )
    p_sweep.add_argument("--out", default=None, help="JSON artifact path")
    _add_engine_flags(p_sweep)

    p_surv = sub.add_parser(
        "survivability",
        help="time-bounded survivability curves S(t) over a parameter grid",
    )
    p_surv.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="NAME=V1,V2,...",
        help="grid axis over any GCSParameters.replacing key (repeatable; "
        "omit for a single-point curve)",
    )
    p_surv.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        dest="base",
        help="fixed base parameter override (repeatable)",
    )
    p_surv.add_argument("--n", type=int, default=None, help="group size N")
    p_surv.add_argument(
        "--times",
        default=None,
        metavar="T1,T2,...",
        help="strictly increasing mission times in seconds",
    )
    p_surv.add_argument(
        "--until",
        type=float,
        default=None,
        metavar="T",
        help="alternative to --times: evenly spaced grid up to T seconds",
    )
    p_surv.add_argument(
        "--points",
        type=int,
        default=8,
        metavar="K",
        help="grid size for --until (default 8)",
    )
    p_surv.add_argument(
        "--log",
        action="store_true",
        help="space the --until grid geometrically instead of evenly",
    )
    p_surv.add_argument(
        "--eps",
        type=float,
        default=1e-12,
        help="uniformization truncation mass per time point",
    )
    p_surv.add_argument("--out", default=None, help="JSON artifact path")
    _add_engine_flags(p_surv)

    p_serve = sub.add_parser(
        "serve", help="run the sweep-service HTTP job server"
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    p_serve.add_argument(
        "--port",
        type=int,
        default=8765,
        help="bind port (default 8765; 0 picks a free one)",
    )
    p_serve.add_argument(
        "--manifest-dir",
        default=None,
        metavar="DIR",
        help=(
            "write a run manifest per finished campaign under DIR "
            "(manifest-<job>.json)"
        ),
    )
    p_serve.add_argument(
        "--max-jobs",
        type=int,
        default=64,
        metavar="K",
        help="retain at most K jobs; oldest finished jobs evicted first",
    )
    p_serve.add_argument(
        "--lease-ttl",
        type=float,
        default=5.0,
        metavar="S",
        help=(
            "seconds a worker may hold a chunk without heartbeating "
            "before it is reassigned (default 5)"
        ),
    )
    p_serve.add_argument(
        "--heartbeat-interval",
        type=float,
        default=1.0,
        metavar="S",
        help="cadence workers are asked to heartbeat at (default 1)",
    )
    p_serve.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        metavar="K",
        help=(
            "points per leased chunk (default: auto, ~4 chunks per "
            "live worker)"
        ),
    )
    p_serve.add_argument(
        "--max-chunk-attempts",
        type=int,
        default=3,
        metavar="K",
        help=(
            "attempts before a repeatedly-failing chunk is declared "
            "poison and surfaced as a point error (default 3)"
        ),
    )
    p_serve.add_argument(
        "--chunks-per-worker",
        type=int,
        default=4,
        metavar="K",
        help=(
            "adaptive sizing target: carve roughly K chunks per live "
            "worker when --chunk-size is auto (default 4)"
        ),
    )
    p_serve.add_argument(
        "--no-steal",
        action="store_true",
        help=(
            "disable work stealing (idle workers splitting the tail "
            "off a straggler's leased chunk)"
        ),
    )
    p_serve.add_argument(
        "--no-speculate",
        action="store_true",
        help=(
            "disable tail speculation (idle workers duplicate-leasing "
            "in-flight chunks near the job tail)"
        ),
    )
    _add_engine_flags(p_serve)

    p_work = sub.add_parser(
        "work", help="run a worker pulling chunks from a sweep service"
    )
    p_work.add_argument(
        "--server",
        default=None,
        metavar="URL",
        help=(
            "sweep-service base URL (default $REPRO_SERVICE_URL, then "
            "http://127.0.0.1:8765)"
        ),
    )
    p_work.add_argument(
        "--name",
        default=None,
        help="worker label in the server's roster (default <host>:<pid>)",
    )
    p_work.add_argument(
        "--max-chunks",
        type=int,
        default=None,
        metavar="K",
        help="exit cleanly after K chunks (default: run until interrupted)",
    )
    p_work.add_argument(
        "--jobs",
        type=_jobs_spec,
        default=None,
        metavar="N",
        help=(
            "local backend leased chunks are evaluated on (same grammar "
            "as the engine commands, except 'remote'); default serial"
        ),
    )
    p_work.add_argument(
        "--kernel",
        choices=KERNEL_CHOICES,
        default=None,
        help=(
            "batched-solver kernel tier for leased chunks (sets "
            "REPRO_KERNEL; advertised in the server's /health roster)"
        ),
    )
    p_work.add_argument(
        "--log-level",
        default=None,
        metavar="LEVEL",
        help="enable stdlib logging on the 'repro' logger at LEVEL",
    )

    p_eval = sub.add_parser("evaluate", help="evaluate one parameter point")
    p_eval.add_argument("--n", type=int, default=100, help="group size N")
    p_eval.add_argument("--m", type=int, default=5, help="vote participants")
    p_eval.add_argument("--tids", type=float, default=60.0, help="TIDS seconds")
    p_eval.add_argument(
        "--attacker",
        default="linear",
        choices=("logarithmic", "linear", "polynomial"),
    )
    p_eval.add_argument(
        "--detection",
        default="linear",
        choices=("logarithmic", "linear", "polynomial"),
    )
    p_eval.add_argument("--breakdown", action="store_true")
    return parser


def _cmd_list() -> int:
    for exp in list_experiments():
        print(f"{exp.id:14s} {exp.paper_artifact:32s} {exp.title}")
    return 0


def _cmd_run(
    experiment: str,
    full: bool,
    seed: int,
    out: Optional[str],
    plot: bool = False,
    runner: Optional[BatchRunner] = None,
    verbose: bool = False,
) -> int:
    exp = get_experiment(experiment)
    result = exp.run(ExperimentConfig(quick=not full, seed=seed, runner=runner))
    print(result.render())
    if plot:
        from .analysis.plots import ascii_plot

        for series in result.series:
            try:
                print("\n" + ascii_plot(series))
            except ReproError as exc:
                print(f"\n(plot skipped for {series.name}: {exc})")
    if out:
        paths = write_experiment_artifacts(result, out)
        print(f"\nartifacts: {', '.join(str(p) for p in paths)}")
    _print_cache_stats(runner, verbose)
    return 0


def _cmd_paper(
    full: bool,
    seed: int,
    out: Optional[str],
    runner: Optional[BatchRunner] = None,
    verbose: bool = False,
) -> int:
    status = 0
    for fig in ("fig2", "fig3", "fig4", "fig5"):
        status |= _cmd_run(fig, full, seed, out, runner=runner)
        print()
    if runner is not None and not verbose:
        print(runner.cache.describe())
    _print_cache_stats(runner, verbose)
    return status


def _parse_scalar(text: str) -> Any:
    """int → float → bool → bare string, in that order."""
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            pass
    if text in ("true", "false"):
        return text == "true"
    return text


def _parse_assignment(text: str, *, what: str) -> tuple[str, str]:
    name, sep, value = text.partition("=")
    if not sep or not name or not value:
        raise ParameterError(f"{what} must look like NAME=VALUE, got {text!r}")
    return name, value


def _parse_axes_base(
    args: argparse.Namespace,
) -> tuple[dict[str, tuple[Any, ...]], dict[str, Any]]:
    """Shared ``--axis``/``--set``/``--n`` parsing for grid subcommands."""
    axes: dict[str, tuple[Any, ...]] = {}
    for spec in args.axis:
        name, values = _parse_assignment(spec, what="--axis")
        axes[name] = tuple(_parse_scalar(v) for v in values.split(",") if v)
    base: dict[str, Any] = {}
    for spec in args.base:
        name, value = _parse_assignment(spec, what="--set")
        base[name] = _parse_scalar(value)
    if args.n is not None:
        base["num_nodes"] = args.n
    return axes, base


def _sweep_campaign(args: argparse.Namespace) -> Campaign:
    if args.spec:
        if args.axis or args.base or args.n is not None:
            raise ParameterError("--spec excludes --axis/--set/--n")
        return load_campaign(args.spec)
    if not args.axis:
        raise ParameterError("sweep needs at least one --axis (or a --spec file)")
    axes, base = _parse_axes_base(args)
    job = SweepJob(name="cli-sweep", axes=axes, base=base, method=args.method)
    return Campaign(name="cli-sweep", jobs=(job,))


def _cmd_sweep(args: argparse.Namespace) -> int:
    campaign = _sweep_campaign(args)
    runner = _build_runner(args) or BatchRunner()
    progress, progress_done = (
        _make_progress(len(campaign)) if args.progress else (None, lambda: None)
    )
    try:
        outcome = campaign.run(runner, progress=progress)
    finally:
        progress_done()
    for job_outcome in outcome.outcomes:
        job = job_outcome.job
        axis_names = list(job.axes)
        print(f"== {job.name}: {len(job_outcome.points)} points ==")
        header = [f"{n:>20s}" for n in axis_names] + [
            f"{'MTTSF_s':>12s}",
            f"{'Ctotal_hop_bits_s':>18s}",
        ]
        print(" ".join(header))
        for assignment, result in job_outcome.points:
            cells = [f"{assignment[n]!s:>20s}" for n in axis_names]
            if result is None:
                cells.append(f"{'FAILED':>12s}")
                cells.append(f"{'FAILED':>18s}")
            else:
                cells.append(f"{result.mttsf_s:12.4e}")
                cells.append(f"{result.ctotal_hop_bits_s:18.4e}")
            print(" ".join(cells))
        print()
    print(outcome.report.describe())
    if not args.verbose:
        print(runner.cache.describe())
    _print_cache_stats(runner, args.verbose, report=outcome.report)
    for error in outcome.errors:
        print(f"error: {error}", file=sys.stderr)
    if args.out:
        artifact = {
            "campaign": campaign.to_dict(),
            "report": {
                "n_requested": outcome.report.n_requested,
                "n_unique": outcome.report.n_unique,
                "n_cache_hits": outcome.report.n_cache_hits,
                "n_evaluated": outcome.report.n_evaluated,
                "n_errors": outcome.report.n_errors,
            },
            "jobs": [
                {
                    "name": job_outcome.job.name,
                    "points": [
                        {
                            "assignment": dict(assignment),
                            "result": result.to_dict() if result else None,
                        }
                        for assignment, result in job_outcome.points
                    ],
                }
                for job_outcome in outcome.outcomes
            ],
        }
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(artifact, indent=2))
        print(f"artifact: {path}")
    _finish_obs(
        args,
        runner,
        fingerprints=[
            req.fingerprint()
            for job in campaign.jobs
            for _, req in job.requests()
        ],
        errors=outcome.errors,
    )
    if outcome.errors:
        # Partial series were reported (and marked FAILED) above; the
        # exit code must still flag them so CI never ships them silently.
        print(
            f"error: {len(outcome.errors)} of {outcome.report.n_requested} "
            "grid points failed",
            file=sys.stderr,
        )
        return 1
    return 0


def _survivability_times(args: argparse.Namespace) -> tuple[float, ...]:
    if args.times and args.until is not None:
        raise ParameterError("pass either --times or --until, not both")
    if args.times:
        return tuple(float(v) for v in args.times.split(",") if v)
    if args.until is not None:
        import numpy as np

        if args.points < 2:
            raise ParameterError(f"--points must be >= 2, got {args.points}")
        if args.log:
            grid = np.geomspace(args.until / 100.0, args.until, args.points)
        else:
            grid = np.linspace(args.until / args.points, args.until, args.points)
        return tuple(float(t) for t in grid)
    raise ParameterError("survivability needs --times T1,T2,... or --until T")


def _cmd_survivability(args: argparse.Namespace) -> int:
    from .engine.jobs import SurvivabilitySweep

    axes, base = _parse_axes_base(args)
    sweep = SurvivabilitySweep(
        name="cli-survivability",
        times_s=_survivability_times(args),
        axes=axes,
        base=base,
        eps=args.eps,
    )
    runner = _build_runner(args) or BatchRunner()
    progress, progress_done = (
        _make_progress(len(sweep)) if args.progress else (None, lambda: None)
    )
    try:
        outcome = sweep.run(runner, progress=progress)
    finally:
        progress_done()

    times = sweep.times_s
    shown = (
        list(range(len(times)))
        if len(times) <= 6
        else [0, 1, 2, 3, 4, len(times) - 1]
    )
    axis_names = list(sweep.axes)
    print(f"== {sweep.name}: {len(outcome.points)} points, S(t) ==")
    header = [f"{n:>20s}" for n in axis_names] + [
        f"{f'S@{times[i]:g}s':>12s}" for i in shown
    ]
    print(" ".join(header))
    for assignment, result in outcome.points:
        cells = [f"{assignment[n]!s:>20s}" for n in axis_names]
        if result is None:
            cells.extend([f"{'FAILED':>12s}"] * len(shown))
        else:
            cells.extend(f"{result.survival[i]:12.6f}" for i in shown)
        print(" ".join(cells))
    print()
    print(outcome.report.describe())
    if not args.verbose:
        print(runner.cache.describe())
    _print_cache_stats(runner, args.verbose, report=outcome.report)
    for error in outcome.errors:
        print(f"error: {error}", file=sys.stderr)
    if args.out:
        artifact = {
            "sweep": sweep.to_dict(),
            "report": {
                "n_requested": outcome.report.n_requested,
                "n_unique": outcome.report.n_unique,
                "n_cache_hits": outcome.report.n_cache_hits,
                "n_evaluated": outcome.report.n_evaluated,
                "n_errors": outcome.report.n_errors,
            },
            "points": [
                {
                    "assignment": dict(assignment),
                    "result": result.to_dict() if result else None,
                }
                for assignment, result in outcome.points
            ],
        }
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(artifact, indent=2))
        print(f"artifact: {path}")
    _finish_obs(
        args,
        runner,
        fingerprints=[req.fingerprint() for _, req in sweep.requests()],
        errors=outcome.errors,
    )
    if outcome.errors:
        print(
            f"error: {len(outcome.errors)} of {outcome.report.n_requested} "
            "grid points failed",
            file=sys.stderr,
        )
        return 1
    return 0


def _arm_stop_signals() -> None:
    """Make SIGINT/SIGTERM raise KeyboardInterrupt, even when backgrounded.

    Non-interactive shells start background jobs (``cmd &``) with SIGINT
    set to ignore, so a ``kill -INT`` from a supervising script — the CI
    jobs do exactly that — would never reach the clean-shutdown path.
    Long-running commands (serve, work) opt back in and treat SIGTERM
    the same way, so plain ``kill`` also deregisters/stops gracefully.
    """
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(sig, signal.default_int_handler)
        except (ValueError, OSError):  # pragma: no cover — non-main thread
            pass


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the sweep service until interrupted (SIGINT exits cleanly)."""
    from .service import PoolConfig, ServiceServer, SweepService

    _arm_stop_signals()

    jobs = args.jobs
    if isinstance(jobs, str) and jobs.strip().lower().startswith("remote"):
        raise ParameterError(
            "a server cannot evaluate through --jobs remote (that would "
            "just forward to another server); pick a local backend"
        )
    runner = _build_runner(args) or BatchRunner()
    service = SweepService(
        runner,
        manifest_dir=args.manifest_dir,
        max_jobs=args.max_jobs,
        pool_config=PoolConfig(
            lease_ttl_s=args.lease_ttl,
            heartbeat_interval_s=args.heartbeat_interval,
            chunk_size=args.chunk_size,
            max_attempts=args.max_chunk_attempts,
            chunks_per_worker=args.chunks_per_worker,
            steal=not args.no_steal,
            speculate=not args.no_speculate,
        ),
    )
    server = ServiceServer(service, host=args.host, port=args.port)
    url = server.start_in_background()
    print(f"sweep service listening on {url}")
    print(f"backend: {runner.backend.describe()}")
    print(runner.cache.describe())
    try:
        while not server.join(timeout=1.0):
            pass
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.stop()
    return 0


def _cmd_work(args: argparse.Namespace) -> int:
    """Run one pool worker against a sweep service until stopped."""
    from .engine.executor import make_backend
    from .service import DEFAULT_SERVICE_URL, ServiceError, ServiceWorker
    from .service.chaos import ChaosConfig

    _arm_stop_signals()
    if args.log_level:
        try:
            configure_logging(args.log_level)
        except ValueError as exc:
            raise ParameterError(str(exc)) from None
    jobs = args.jobs
    if isinstance(jobs, str) and jobs.strip().lower().startswith("remote"):
        raise ParameterError(
            "a worker cannot evaluate through --jobs remote (it IS the "
            "remote end); pick a local backend"
        )
    backend = make_backend(jobs) if jobs is not None else None
    url = (
        args.server
        or os.environ.get("REPRO_SERVICE_URL", "").strip()
        or DEFAULT_SERVICE_URL
    )
    worker = ServiceWorker(
        url,
        backend=backend,
        name=args.name,
        chaos=ChaosConfig.from_env(),
        max_chunks=args.max_chunks,
    )
    print(
        f"worker {worker.name} pulling from {url} "
        f"(backend {worker.backend.describe()})"
    )
    try:
        done = worker.run()
    except KeyboardInterrupt:
        worker.stop()
        done = worker.chunks_completed
        if worker.worker_id is not None:
            try:
                worker.client.deregister_worker(worker.worker_id)
            except ServiceError:
                pass
        print("\nshutting down")
    print(f"worker exiting after {done} chunks")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    params = GCSParameters.paper_defaults(
        num_nodes=args.n,
        num_voters=args.m,
        detection_interval_s=args.tids,
        attacker_function=args.attacker,
        detection_function=args.detection,
    )
    result = evaluate_model(params, include_breakdown=args.breakdown)
    print(result.summary())
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "kernel", None):
            # Applied via the environment so the selection reaches every
            # layer — dispatch seam, pool workers, manifest — without
            # threading a parameter through each one.
            os.environ["REPRO_KERNEL"] = args.kernel
        if hasattr(args, "trace"):  # engine-backed command: fresh obs state
            _configure_obs(args)
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            runner = _build_runner(args)
            code = _cmd_run(
                args.experiment,
                args.full,
                args.seed,
                args.out,
                plot=args.plot,
                runner=runner,
                verbose=args.verbose,
            )
            _finish_obs(args, runner)
            return code
        if args.command == "paper":
            runner = _build_runner(args)
            code = _cmd_paper(
                args.full,
                args.seed,
                args.out,
                runner=runner,
                verbose=args.verbose,
            )
            _finish_obs(args, runner)
            return code
        if args.command == "evaluate":
            return _cmd_evaluate(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "work":
            return _cmd_work(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "survivability":
            return _cmd_survivability(args)
        parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
