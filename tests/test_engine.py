"""Tests for the :mod:`repro.engine` batch-evaluation subsystem."""

from __future__ import annotations

import json
import time

import pytest

from repro.analysis.sweep import grid_sweep
from repro.core.scenario import Scenario
from repro.engine import (
    BatchRunner,
    Campaign,
    EvalRequest,
    FileLock,
    ProcessPoolBackend,
    ResultCache,
    SerialBackend,
    SurvivabilityRequest,
    SweepJob,
    ThreadPoolBackend,
    VectorBackend,
    available_cpus,
    load_campaign,
    make_backend,
    make_runner,
    paper_campaign,
    params_from_dict,
    result_from_dict,
    run_tids_sweep,
    scenario_fingerprint,
)
from repro.engine.batch import evaluate_request, evaluate_survivability_request
from repro.errors import ExperimentError, ParameterError
from repro.params import GCSParameters

GRID = (15.0, 60.0, 240.0)


@pytest.fixture(scope="module")
def params():
    return GCSParameters.small_test()


@pytest.fixture(scope="module")
def reference(params):
    """One evaluated point, shared across cache tests."""
    return evaluate_request(EvalRequest(params=params))


# ---------------------------------------------------------------------------
# keys
# ---------------------------------------------------------------------------

class TestKeys:
    def test_same_params_same_fingerprint(self, params):
        assert scenario_fingerprint(params) == scenario_fingerprint(
            GCSParameters.small_test()
        )

    def test_changed_param_changes_fingerprint(self, params):
        assert scenario_fingerprint(params) != scenario_fingerprint(
            params.replacing(detection_interval_s=params.tids_s + 1.0)
        )

    def test_method_and_options_matter(self, params):
        base = scenario_fingerprint(params)
        assert base != scenario_fingerprint(params, method="spn")
        assert base != scenario_fingerprint(
            params, options={"include_variance": True}
        )
        assert base == scenario_fingerprint(params, options={})

    def test_params_resolved_network_canonicalised(self, params):
        # A Scenario's shared network is exactly what the params resolve
        # to, so routing through it must share the params-only key …
        scenario = Scenario(params)
        assert scenario_fingerprint(params) == scenario_fingerprint(
            params, network=scenario.network
        )

    def test_genuinely_explicit_network_distinct(self, params):
        # … while a network that differs from the resolved one must not.
        import dataclasses

        scenario = Scenario(params)
        other = dataclasses.replace(scenario.network, avg_hops=9.9)
        assert scenario_fingerprint(params) != scenario_fingerprint(
            params, network=other
        )

    def test_network_params_in_signature(self, params):
        # Cost/delay equations read NetworkParameters off the model, so
        # two networks differing only there must not share a key.
        import dataclasses

        net = Scenario(params).network
        slower = dataclasses.replace(
            net,
            params=dataclasses.replace(net.params, bandwidth_bps=1e5),
            avg_hops=9.9,
        )
        faster = dataclasses.replace(
            net,
            params=dataclasses.replace(net.params, bandwidth_bps=1e7),
            avg_hops=9.9,
        )
        assert scenario_fingerprint(params, network=slower) != scenario_fingerprint(
            params, network=faster
        )

    def test_int_float_equal_values_share_key(self, params):
        assert scenario_fingerprint(
            params.replacing(detection_interval_s=15)
        ) == scenario_fingerprint(params.replacing(detection_interval_s=15.0))

    def test_request_and_plain_fingerprint_agree(self, params):
        # EvalRequest spells out default-false option flags; the plain
        # form omits them. Both must address the same cache entry.
        assert EvalRequest(params=params).fingerprint() == scenario_fingerprint(
            params
        )

    def test_params_roundtrip(self, params):
        assert params_from_dict(params.to_dict()) == params

    def test_malformed_params_dict_raises(self):
        with pytest.raises(ParameterError):
            params_from_dict({"network": {}})


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

class TestResultCache:
    def test_memory_hit(self, params, reference):
        cache = ResultCache()
        key = scenario_fingerprint(params)
        assert cache.get(key) is None
        cache.put(key, reference)
        assert cache.get(key) == reference
        assert cache.stats.memory_hits == 1 and cache.stats.misses == 1

    def test_disk_roundtrip_across_instances(self, tmp_path, params, reference):
        key = scenario_fingerprint(params)
        ResultCache(cache_dir=tmp_path).put(key, reference)
        fresh = ResultCache(cache_dir=tmp_path)
        restored = fresh.get(key)
        assert restored == reference
        assert fresh.stats.disk_hits == 1
        # Promoted into the memory layer.
        assert fresh.get(key) == reference
        assert fresh.stats.memory_hits == 1

    def test_version_mismatch_is_a_miss(self, tmp_path, params, reference):
        key = scenario_fingerprint(params)
        ResultCache(cache_dir=tmp_path, version=1).put(key, reference)
        assert ResultCache(cache_dir=tmp_path, version=2).get(key) is None

    def test_prune_stale_versions_on_open(self, tmp_path, params, reference):
        key = scenario_fingerprint(params)
        ResultCache(cache_dir=tmp_path, version=1).put(key, reference)
        assert (tmp_path / "v1").exists()
        new = ResultCache(cache_dir=tmp_path, version=2)  # prunes on open
        assert not (tmp_path / "v1").exists()
        new.put(key, reference)
        assert new.prune_stale_versions() == 0  # nothing stale left
        assert len(new) == 1  # current-version record survives

    def test_prune_ignores_lockfile_husk(self, tmp_path, params, reference):
        # A capped cache creates v1/.lock, which pruning never deletes
        # (deleting a live lockfile would void exclusion). The leftover
        # husk must not read as "stale records present" — otherwise
        # every subsequent open re-locks and re-walks the tree forever.
        key = scenario_fingerprint(params)
        old = ResultCache(cache_dir=tmp_path, version=1, max_disk_bytes=10**9)
        old.put(key, reference)
        assert (tmp_path / "v1" / ".lock").exists()
        new = ResultCache(cache_dir=tmp_path, version=2)  # prunes on open
        assert not list((tmp_path / "v1").glob("*/*.json"))
        assert not new._has_stale_versions()
        assert new.prune_stale_versions() == 0

    def test_prune_stale_versions_manual(self, tmp_path, params, reference):
        key = scenario_fingerprint(params)
        ResultCache(cache_dir=tmp_path, version=1).put(key, reference)
        new = ResultCache(
            cache_dir=tmp_path, version=2, prune_stale_on_open=False
        )
        new.put(key, reference)
        assert (tmp_path / "v1").exists()  # opt-out keeps old records
        assert new.prune_stale_versions() == 1
        assert len(new) == 1

    def test_corrupt_record_counts_as_miss(self, tmp_path, params, reference):
        cache = ResultCache(cache_dir=tmp_path, memory_capacity=0)
        key = scenario_fingerprint(params)
        cache.put(key, reference)
        record = next(tmp_path.glob("v*/*/*.json"))
        record.write_text("{not json")
        assert cache.get(key) is None
        assert cache.stats.corrupt_records == 1

    def test_lru_eviction(self, params, reference):
        cache = ResultCache(memory_capacity=2)
        for i in range(3):
            cache.put(f"k{i}", reference)
        assert cache.stats.evictions == 1
        assert cache.get("k0") is None  # oldest evicted
        assert cache.get("k2") is not None

    def test_result_roundtrip_preserves_everything(self, params):
        rich = evaluate_request(
            EvalRequest(params=params, include_breakdown=True)
        )
        assert result_from_dict(rich.to_dict()) == rich

    def test_truncated_record_is_a_miss_not_a_crash(self, tmp_path, params, reference):
        # A torn write (powered-off writer without the atomic-rename
        # protection) leaves a prefix of valid JSON; readers must treat
        # it as a miss and count it, never raise.
        cache = ResultCache(cache_dir=tmp_path, memory_capacity=0)
        key = scenario_fingerprint(params)
        cache.put(key, reference)
        record = next(tmp_path.glob("v*/*/*.json"))
        full = record.read_text()
        record.write_text(full[: len(full) // 2])
        assert cache.get(key) is None
        assert cache.stats.corrupt_records == 1
        # An empty record (0-byte file) is the same story.
        record.write_text("")
        assert cache.get(key) is None
        assert cache.stats.corrupt_records == 2

    def test_missing_record_is_plain_miss(self, tmp_path, params):
        # Concurrent eviction deletes files under a reader; that is a
        # miss, not a "corrupt record".
        cache = ResultCache(cache_dir=tmp_path, memory_capacity=0)
        assert cache.get(scenario_fingerprint(params)) is None
        assert cache.stats.misses == 1
        assert cache.stats.corrupt_records == 0


# ---------------------------------------------------------------------------
# locks
# ---------------------------------------------------------------------------

class TestFileLock:
    def test_acquire_release_and_reentrancy(self, tmp_path):
        lock = FileLock(tmp_path / "sub" / ".lock")
        assert not lock.held
        with lock:
            assert lock.held
            with lock:  # re-entrant on the same instance
                assert lock.held
            assert lock.held
        assert not lock.held
        assert (tmp_path / "sub" / ".lock").exists()

    def test_release_unheld_raises(self, tmp_path):
        with pytest.raises(RuntimeError, match="unheld"):
            FileLock(tmp_path / ".lock").release()

    def test_advisory_on_posix(self, tmp_path):
        assert FileLock(tmp_path / ".lock").advisory is True

    def test_exception_releases(self, tmp_path):
        lock = FileLock(tmp_path / ".lock")
        with pytest.raises(ValueError):
            with lock:
                raise ValueError("boom")
        assert not lock.held


# ---------------------------------------------------------------------------
# disk eviction
# ---------------------------------------------------------------------------

class TestDiskEviction:
    def _record_size(self, tmp_path, reference) -> int:
        probe = ResultCache(cache_dir=tmp_path / "probe")
        probe.put("aa" * 32, reference)
        return next((tmp_path / "probe").glob("v*/*/*.json")).stat().st_size

    def test_cap_validation(self, tmp_path):
        with pytest.raises(ParameterError, match="max_disk_bytes"):
            ResultCache(cache_dir=tmp_path, max_disk_bytes=0)

    def test_size_cap_honored(self, tmp_path, reference):
        size = self._record_size(tmp_path, reference)
        cache = ResultCache(
            cache_dir=tmp_path / "c",
            max_disk_bytes=3 * size,
            memory_capacity=0,
        )
        for i in range(8):
            cache.put(f"{i:02d}" + "a" * 62, reference)
            time.sleep(0.01)  # distinct mtimes on coarse filesystems
            assert cache.disk_usage_bytes() <= 3 * size
        assert len(cache) == 3
        assert cache.stats.disk_evictions == 5
        assert cache.stats.disk_bytes_evicted == 5 * size

    def test_lru_by_mtime_victim_selection(self, tmp_path, reference):
        size = self._record_size(tmp_path, reference)
        cache = ResultCache(
            cache_dir=tmp_path / "c",
            max_disk_bytes=3 * size,
            memory_capacity=0,  # force disk reads so mtime refreshes
        )
        keys = [f"{i:02d}" + "b" * 62 for i in range(3)]
        for key in keys:
            cache.put(key, reference)
            time.sleep(0.01)
        # Touch the oldest record: it becomes most-recently-used …
        assert cache.get(keys[0]) is not None
        time.sleep(0.01)
        cache.put("ff" + "b" * 62, reference)
        # … so the eviction victim is keys[1], not keys[0].
        assert cache.get(keys[0]) is not None
        assert cache.get(keys[1]) is None
        assert cache.stats.disk_evictions == 1

    def test_single_record_larger_than_cap_survives(self, tmp_path, reference):
        cache = ResultCache(
            cache_dir=tmp_path / "c", max_disk_bytes=1, memory_capacity=0
        )
        cache.put("aa" + "c" * 62, reference)
        # The just-written record is protected even when it alone busts
        # the cap (the cap may overshoot by at most one record).
        assert cache.get("aa" + "c" * 62) is not None
        # The next put evicts the previous one and keeps itself.
        cache.put("bb" + "c" * 62, reference)
        assert len(cache) == 1
        assert cache.get("bb" + "c" * 62) is not None

    def test_unbounded_by_default(self, tmp_path, reference):
        cache = ResultCache(cache_dir=tmp_path)
        for i in range(6):
            cache.put(f"{i:02d}" + "d" * 62, reference)
        assert len(cache) == 6
        assert cache.stats.disk_evictions == 0


# ---------------------------------------------------------------------------
# runner factory
# ---------------------------------------------------------------------------

class TestMakeRunner:
    def test_defaults_are_serial_and_ephemeral(self):
        runner = make_runner()
        assert isinstance(runner.backend, SerialBackend)
        assert runner.cache.cache_dir is None

    def test_flags_build_cache_and_backend(self, tmp_path):
        runner = make_runner("thread:2", tmp_path, cache_cap_mb=1.0)
        assert isinstance(runner.backend, ThreadPoolBackend)
        assert runner.cache.cache_dir == tmp_path
        assert runner.cache.max_disk_bytes == 1024 * 1024

    def test_cap_requires_cache_dir(self):
        with pytest.raises(ParameterError, match="cache_cap_mb"):
            make_runner(cache_cap_mb=1.0)


# ---------------------------------------------------------------------------
# executors
# ---------------------------------------------------------------------------

def _square(x):
    return x * x


def _explode_on_two(x):
    if x == 2:
        raise ValueError("boom")
    return x


class TestExecutors:
    def test_serial_order_and_values(self):
        outcomes = SerialBackend().run(_square, [3, 1, 2])
        assert [o.value for o in outcomes] == [9, 1, 4]
        assert [o.index for o in outcomes] == [0, 1, 2]

    def test_pool_matches_serial(self):
        items = list(range(7))
        serial = SerialBackend().run(_square, items)
        pooled = ProcessPoolBackend(2, chunksize=2).run(_square, items)
        assert [(o.index, o.value, o.error) for o in serial] == [
            (o.index, o.value, o.error) for o in pooled
        ]

    def test_thread_pool_matches_serial(self):
        items = list(range(7))
        serial = SerialBackend().run(_square, items)
        threaded = ThreadPoolBackend(3).run(_square, items)
        assert [(o.index, o.value, o.error) for o in serial] == [
            (o.index, o.value, o.error) for o in threaded
        ]

    def test_thread_pool_accepts_unpicklable_fn(self):
        # Closures can't cross a process boundary; threads don't care.
        offset = 10
        outcomes = ThreadPoolBackend(2).run(lambda x: x + offset, [1, 2, 3])
        assert [o.value for o in outcomes] == [11, 12, 13]

    @pytest.mark.parametrize(
        "backend",
        [SerialBackend(), ProcessPoolBackend(2), ThreadPoolBackend(2)],
    )
    def test_error_capture(self, backend):
        outcomes = backend.run(_explode_on_two, [1, 2, 3])
        assert [o.ok for o in outcomes] == [True, False, True]
        assert outcomes[1].error_type == "ValueError"
        assert "boom" in outcomes[1].error
        # Original exception object crosses the process boundary.
        assert isinstance(outcomes[1].exception, ValueError)

    @pytest.mark.parametrize(
        "backend", [ProcessPoolBackend(2), ThreadPoolBackend(2)]
    )
    def test_empty_and_single_item(self, backend):
        assert backend.run(_square, []) == []
        assert backend.run(_square, [4])[0].value == 16

    def test_make_backend_semantics(self):
        assert isinstance(make_backend(None), SerialBackend)
        assert isinstance(make_backend(0), SerialBackend)
        assert isinstance(make_backend(1), SerialBackend)
        assert isinstance(make_backend(3), ProcessPoolBackend)
        with pytest.raises(ParameterError):
            make_backend(-1)

    def test_make_backend_string_grammar(self):
        assert isinstance(make_backend("serial"), SerialBackend)
        assert isinstance(make_backend("1"), SerialBackend)
        assert isinstance(make_backend("3"), ProcessPoolBackend)
        auto = make_backend("auto")
        if available_cpus() > 1:
            assert isinstance(auto, ProcessPoolBackend)
            assert auto.max_workers == available_cpus()
        else:
            assert isinstance(auto, SerialBackend)
        threads = make_backend("thread")
        assert isinstance(threads, ThreadPoolBackend)
        assert threads.max_workers == available_cpus()
        assert make_backend("thread:5").max_workers == 5
        assert isinstance(make_backend("thread:auto"), ThreadPoolBackend)
        for bad in ("nonsense", "thread:x", "thread:"):
            with pytest.raises(ParameterError):
                make_backend(bad)

    def test_backend_validation(self):
        with pytest.raises(ParameterError):
            ProcessPoolBackend(0)
        with pytest.raises(ParameterError):
            ProcessPoolBackend(2, chunksize=0)
        with pytest.raises(ParameterError):
            ThreadPoolBackend(0)

    def test_available_cpus_positive(self):
        assert available_cpus() >= 1


def _value_bytes(outcomes) -> list[str]:
    """Each result's ``to_dict()`` minus its timing fields, as JSON."""
    records = []
    for outcome in outcomes:
        assert outcome.ok, outcome.error
        record = outcome.value.to_dict()
        del record["build_seconds"], record["solve_seconds"]
        records.append(json.dumps(record, sort_keys=True))
    return records


class TestBackendsReturnSameBytes:
    """Serial, process-pool and vector backends run one solver pipeline,
    so a request's result does not depend on the backend at all."""

    BACKENDS = {
        "serial": SerialBackend,
        "process": lambda: ProcessPoolBackend(2),
        "vector": VectorBackend,
    }

    def _run_everywhere(self, fn, requests) -> dict[str, list[str]]:
        return {
            name: _value_bytes(make().run(fn, requests))
            for name, make in self.BACKENDS.items()
        }

    def test_model_requests(self):
        base = GCSParameters.small_test()
        requests = [
            EvalRequest(params=base.replacing(detection_interval_s=tids))
            for tids in GRID
        ] + [
            EvalRequest(params=base, include_variance=True),
            EvalRequest(params=base.replacing(num_voters=5), include_breakdown=True),
            EvalRequest(params=GCSParameters.paper_defaults(num_nodes=16)),
        ]
        runs = self._run_everywhere(evaluate_request, requests)
        assert runs["serial"] == runs["process"] == runs["vector"]

    def test_survivability_requests(self):
        base = GCSParameters.small_test()
        times = (0.0, 0.5, 2.0, 5.0)
        requests = [
            SurvivabilityRequest(
                params=base.replacing(detection_interval_s=tids), times_s=times
            )
            for tids in GRID
        ] + [SurvivabilityRequest(params=base, times_s=(1.0, 3.0))]
        runs = self._run_everywhere(evaluate_survivability_request, requests)
        assert runs["serial"] == runs["process"] == runs["vector"]


# ---------------------------------------------------------------------------
# batch
# ---------------------------------------------------------------------------

class TestBatchRunner:
    def test_dedup_and_cache_hits(self, params):
        runner = BatchRunner()
        requests = [
            EvalRequest(params=params.replacing(detection_interval_s=t))
            for t in (15.0, 60.0, 15.0)
        ]
        first = runner.run(requests)
        assert first.report.n_requested == 3
        assert first.report.n_unique == 2
        assert first.report.n_evaluated == 2
        assert first.results[0] == first.results[2]

        second = runner.run(requests)
        assert second.report.n_cache_hits == 2
        assert second.report.n_evaluated == 0
        assert [r.mttsf_s for r in second.results] == [
            r.mttsf_s for r in first.results
        ]

    def test_progress_sources(self, params):
        runner = BatchRunner()
        requests = [
            EvalRequest(params=params),
            EvalRequest(params=params),
        ]
        seen: list[tuple[int, str]] = []
        runner.run(requests, progress=lambda i, key, src: seen.append((i, src)))
        assert seen == [(0, "evaluated"), (1, "cache")]
        seen.clear()
        runner.run(requests, progress=lambda i, key, src: seen.append((i, src)))
        assert seen == [(0, "cache"), (1, "cache")]

    def test_point_error_capture(self, params):
        bad = EvalRequest(params=params, method="spn", include_breakdown=True)
        batch = BatchRunner().run([bad, EvalRequest(params=params)])
        assert batch.results[0] is None
        assert batch.results[1] is not None
        assert batch.report.n_errors == 1
        assert batch.report.errors[0].error_type == "ParameterError"
        with pytest.raises(ExperimentError, match="1 of 2 batch points"):
            batch.report.raise_on_error()

    def test_matches_scenario_sweep_exactly(self, params):
        scenario = Scenario(params)
        expected = scenario.sweep_tids(GRID, num_voters=3)
        actual = run_tids_sweep(
            BatchRunner(),
            params,
            GRID,
            network=scenario.network,
            overrides={"num_voters": 3},
        )
        assert [p.tids_s for p in actual] == [p.tids_s for p in expected]
        assert [p.mttsf_s for p in actual] == [p.mttsf_s for p in expected]
        assert [p.ctotal_hop_bits_s for p in actual] == [
            p.ctotal_hop_bits_s for p in expected
        ]

    def test_process_pool_matches_serial(self, params):
        serial = run_tids_sweep(BatchRunner(), params, GRID)
        pooled = run_tids_sweep(
            BatchRunner(backend=ProcessPoolBackend(2)), params, GRID
        )
        assert [p.mttsf_s for p in serial] == [p.mttsf_s for p in pooled]

    def test_rejects_unsorted_grid_like_serial_path(self, params):
        with pytest.raises(ParameterError, match="strictly increasing"):
            run_tids_sweep(BatchRunner(), params, (60.0, 15.0))
        with pytest.raises(ParameterError, match="strictly increasing"):
            run_tids_sweep(BatchRunner(), params, (15.0, 15.0))

    def test_scenario_and_params_only_requests_share_cache(self, params):
        # The engine-backed experiment path (explicit scenario network)
        # and the params-only sweep/campaign path hit the same entries.
        runner = BatchRunner()
        scenario = Scenario(params)
        run_tids_sweep(runner, params, GRID, network=scenario.network)
        runner.run([
            EvalRequest(params=params.replacing(detection_interval_s=t))
            for t in GRID
        ])
        assert runner.cache.stats.hits == len(GRID)
        assert runner.cache.stats.stores == len(GRID)

    def test_cached_rerun_identical_across_processes(self, tmp_path, params):
        cold = run_tids_sweep(
            BatchRunner(cache=ResultCache(cache_dir=tmp_path)), params, GRID
        )
        warm_runner = BatchRunner(cache=ResultCache(cache_dir=tmp_path))
        warm = run_tids_sweep(warm_runner, params, GRID)
        assert warm_runner.cache.stats.disk_hits == len(GRID)
        assert [p.mttsf_s for p in warm] == [p.mttsf_s for p in cold]


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

class TestJobs:
    def test_expansion_order_last_axis_fastest(self):
        job = SweepJob(
            name="j",
            axes={"detection_interval_s": (15.0, 60.0), "num_voters": (3, 5)},
        )
        assert len(job) == 4
        assert job.assignments() == [
            {"detection_interval_s": 15.0, "num_voters": 3},
            {"detection_interval_s": 15.0, "num_voters": 5},
            {"detection_interval_s": 60.0, "num_voters": 3},
            {"detection_interval_s": 60.0, "num_voters": 5},
        ]

    def test_validation(self):
        with pytest.raises(ParameterError):
            SweepJob(name="", axes={"a": (1,)})
        with pytest.raises(ParameterError):
            SweepJob(name="j", axes={})
        with pytest.raises(ParameterError):
            SweepJob(name="j", axes={"a": ()})
        with pytest.raises(ParameterError):
            Campaign(name="c", jobs=())
        job = SweepJob(name="j", axes={"a": (1,)})
        with pytest.raises(ParameterError):
            Campaign(name="c", jobs=(job, job))

    def test_json_roundtrip(self, tmp_path):
        campaign = Campaign(
            name="c",
            jobs=(
                SweepJob(
                    name="j",
                    axes={"detection_interval_s": (15.0, 60.0)},
                    base={"num_nodes": 12},
                ),
            ),
        )
        path = campaign.to_json(tmp_path / "spec.json")
        assert load_campaign(path) == campaign

    def test_load_single_job_spec(self, tmp_path):
        spec = tmp_path / "job.json"
        spec.write_text(
            json.dumps({"name": "solo", "axes": {"num_voters": [3, 5]}})
        )
        campaign = load_campaign(spec)
        assert campaign.name == "solo"
        assert len(campaign) == 2

    def test_campaign_dedups_across_jobs(self):
        shared_axes = {"detection_interval_s": (15.0, 60.0)}
        campaign = Campaign(
            name="c",
            jobs=(
                SweepJob(name="a", axes=shared_axes, base={"num_nodes": 12}),
                SweepJob(name="b", axes=shared_axes, base={"num_nodes": 12}),
            ),
        )
        outcome = campaign.run(BatchRunner())
        assert outcome.report.n_requested == 4
        assert outcome.report.n_unique == 2
        assert outcome.outcome("a").values() == outcome.outcome("b").values()
        with pytest.raises(ParameterError):
            outcome.outcome("nope")

    def test_paper_campaign_shape(self):
        campaign = paper_campaign(quick=True)
        assert [job.name.split("_")[0] for job in campaign.jobs] == [
            "fig2", "fig3", "fig4", "fig5",
        ]
        # Cross-figure overlap (fig2 m=5 column == fig4 linear column)
        # means the campaign has fewer unique points than requests.
        keys = [req.fingerprint() for job in campaign.jobs
                for _, req in job.requests()]
        assert len(set(keys)) < len(keys)


# ---------------------------------------------------------------------------
# experiment harness integration
# ---------------------------------------------------------------------------

class TestExperimentIntegration:
    def test_engine_backed_experiment_identical_to_seed_path(self):
        from repro.analysis.experiments import ExperimentConfig, get_experiment

        exp = get_experiment("abl-hostids")
        seed_path = exp.run(ExperimentConfig(quick=True))
        engine_path = exp.run(
            ExperimentConfig(quick=True, runner=BatchRunner())
        )
        assert [s.to_dict() for s in seed_path.series] == [
            s.to_dict() for s in engine_path.series
        ]
        assert seed_path.notes == engine_path.notes

    @pytest.mark.slow
    @pytest.mark.parametrize("experiment_id", ["abl-coupling", "val-sim"])
    def test_newly_routed_experiments_identical_to_seed_path(
        self, experiment_id
    ):
        # PR 2 routed the last registry experiments through the engine:
        # abl-coupling (two solver variants per point, one batch) and
        # val-sim (analytic batch + replication fan-out). Both must be
        # byte-identical to the serial path.
        from repro.analysis.experiments import ExperimentConfig, get_experiment

        exp = get_experiment(experiment_id)
        seed_path = exp.run(ExperimentConfig(quick=True))
        engine_path = exp.run(
            ExperimentConfig(quick=True, runner=BatchRunner())
        )
        assert [s.to_dict() for s in seed_path.series] == [
            s.to_dict() for s in engine_path.series
        ]
        assert seed_path.notes == engine_path.notes


# ---------------------------------------------------------------------------
# grid_sweep integration (bugfix + backend routing)
# ---------------------------------------------------------------------------

class TestGridSweepEngine:
    def test_generator_axes_accepted(self):
        pts = grid_sweep(
            {"a": (x for x in (1, 2)), "b": iter(["x"])},
            lambda a, b: f"{a}{b}",
        )
        assert [p.value for p in pts] == ["1x", "2x"]

    def test_empty_generator_axis_rejected(self):
        with pytest.raises(ParameterError, match="axis 'a' is empty"):
            grid_sweep({"a": (x for x in ())}, lambda a: a)

    def test_backend_routing_preserves_order(self):
        pts = grid_sweep({"x": [3, 1, 2]}, _square, backend=SerialBackend())
        assert [p.value for p in pts] == [9, 1, 4]

    def test_capture_errors_serial_and_backend(self):
        for kwargs in ({}, {"backend": SerialBackend()}):
            pts = grid_sweep(
                {"x": [1, 2, 3]}, _explode_on_two,
                capture_errors=True, **kwargs,
            )
            assert [p.ok for p in pts] == [True, False, True]
            assert pts[1].value is None and "boom" in pts[1].error

    def test_backend_error_propagates_original_exception(self):
        # Same exception type as the serial path, not a stringified wrap.
        with pytest.raises(ValueError, match="boom"):
            grid_sweep({"x": [1, 2]}, _explode_on_two, backend=SerialBackend())
        with pytest.raises(ValueError, match="boom"):
            grid_sweep({"x": [1, 2]}, _explode_on_two)

    def test_process_backend_sweep(self):
        pts = grid_sweep(
            {"x": list(range(5))}, _square, backend=ProcessPoolBackend(2)
        )
        assert [p.value for p in pts] == [0, 1, 4, 9, 16]
