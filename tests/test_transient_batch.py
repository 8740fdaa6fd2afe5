"""Batched transient survivability: differential + routing tests.

The batched uniformization path must be *numerically equivalent* to the
per-point ``transient_distribution`` / ``absorption_cdf`` functions —
same per-point uniformization rates and truncated Poisson weights,
only the IEEE summation order differs — within the documented
:data:`repro.ctmc.transient.BATCH_EQUIVALENCE_RTOL`. These tests pin
that contract differentially on the paper's fig2/fig4 grids (reduced
``N``; the arithmetic is size-independent) and cover the engine
routing: ``SurvivabilityRequest`` fingerprints, cache hit/miss parity
across ``--jobs vector``, ``vector:N`` (the vector+procs hybrid) and
serial, byte-identity of the hybrid against the single-process vector
path, the ``SurvivabilitySweep`` job spec, and the ``survivability``
CLI subcommand.
"""

import json

import numpy as np
import pytest
import scipy.sparse as sp

from repro.analysis.sweep import survivability_grid_sweep
from repro.cli import main as cli_main
from repro.core.metrics import (
    evaluate_survivability,
    evaluate_survivability_batch,
    evaluate_survivability_batch_outcomes,
)
from repro.ctmc import (
    BATCH_EQUIVALENCE_RTOL,
    CTMC,
    absorption_cdf,
    absorption_cdf_batch,
    transient_distribution,
    transient_distribution_batch,
)
from repro.engine import (
    BatchRunner,
    EvalRequest,
    ResultCache,
    SerialBackend,
    SurvivabilityRequest,
    SurvivabilitySweep,
    VectorBackend,
    evaluate_request,
    evaluate_survivability_request,
    make_backend,
    result_from_dict,
)
from repro.errors import ParameterError, SolverError
from repro.params import GCSParameters

N_TEST = 12  # lattice size that solves in ms
#: Mission grid sized so Λ·t stays in the low thousands (the lattice's
#: uniformization rate is ~1e3 from the fast small-group rekey states).
TIMES = (0.0, 0.5, 2.0, 5.0)
RTOL = BATCH_EQUIVALENCE_RTOL
ATOL = 1e-12


def _fig2_scenarios(tids=(15.0, 60.0, 240.0)) -> list[GCSParameters]:
    base = GCSParameters.paper_defaults(num_nodes=N_TEST)
    return [
        base.replacing(num_voters=m, detection_interval_s=float(t))
        for m in (3, 5, 7, 9)
        for t in tids
    ]


def _fig4_scenarios(tids=(15.0, 60.0, 240.0)) -> list[GCSParameters]:
    base = GCSParameters.paper_defaults(num_nodes=N_TEST)
    return [
        base.replacing(detection_function=fn, detection_interval_s=float(t))
        for fn in ("logarithmic", "linear", "polynomial")
        for t in tids
    ]


def _assert_curves_close(batch_result, point_result):
    assert batch_result.times_s == point_result.times_s
    assert batch_result.num_states == point_result.num_states
    np.testing.assert_allclose(
        batch_result.survival, point_result.survival, rtol=RTOL, atol=ATOL
    )
    assert set(batch_result.failure_cdf) == set(point_result.failure_cdf)
    for name in batch_result.failure_cdf:
        np.testing.assert_allclose(
            batch_result.failure_cdf[name],
            point_result.failure_cdf[name],
            rtol=RTOL,
            atol=ATOL,
        )
    np.testing.assert_allclose(
        batch_result.expected_cost_rate,
        point_result.expected_cost_rate,
        rtol=RTOL,
    )
    np.testing.assert_allclose(
        batch_result.time_bounded_cost,
        point_result.time_bounded_cost,
        rtol=RTOL,
    )


# ---------------------------------------------------------------------------
# transient_distribution_batch / absorption_cdf_batch unit level
# ---------------------------------------------------------------------------

def _random_chain(rng, n=24, density=0.15, cyclic=True):
    """Random rate matrix; strictly lower-triangular when not cyclic."""
    rows, cols, vals = [], [], []
    for i in range(n):
        for j in range(n if cyclic else i):
            if i != j and rng.random() < density:
                rows.append(i)
                cols.append(j)
                vals.append(float(rng.uniform(0.1, 2.0)))
    return CTMC(sp.csr_matrix((vals, (rows, cols)), shape=(n, n)))


def _per_point_chain(shared_csr, values_row):
    return CTMC(
        sp.csr_matrix(
            (values_row, shared_csr.indices.copy(), shared_csr.indptr.copy()),
            shape=shared_csr.shape,
        )
    )


class TestTransientBatchUnit:
    def test_matches_per_point_on_cyclic_chain(self):
        rng = np.random.default_rng(7)
        chain = _random_chain(rng, cyclic=True)
        R = chain.rates
        P = 5
        values = np.stack([R.data * s for s in rng.uniform(0.3, 3.0, size=P)])
        times = [0.0, 0.3, 1.0, 4.0]
        batch = transient_distribution_batch(R.indptr, R.indices, values, times, 0)
        for p in range(P):
            ref = transient_distribution(_per_point_chain(R, values[p]), times, 0)
            np.testing.assert_allclose(batch[p], ref, rtol=RTOL, atol=ATOL)

    def test_explicit_zeros_match_pruned_chain(self):
        rng = np.random.default_rng(11)
        chain = _random_chain(rng, n=18, density=0.3, cyclic=False)
        R = chain.rates
        values = np.stack([R.data.copy(), R.data * 0.5])
        values[1, rng.random(R.nnz) < 0.3] = 0.0
        times = [0.5, 2.0, 8.0]
        batch = transient_distribution_batch(
            R.indptr, R.indices, values, times, chain.num_states - 1
        )
        for p in range(2):
            ref = transient_distribution(
                _per_point_chain(R, values[p]), times, chain.num_states - 1
            )
            np.testing.assert_allclose(batch[p], ref, rtol=RTOL, atol=ATOL)

    def test_absorption_cdf_matches_per_point(self):
        rng = np.random.default_rng(3)
        chain = _random_chain(rng, n=16, density=0.3, cyclic=False)
        R = chain.rates
        values = np.stack([R.data * s for s in (1.0, 0.4, 2.5)])
        times = [0.5, 2.0, 8.0]
        initial = chain.num_states - 1
        classes = {"zero": [0], "empty": []}
        batch = absorption_cdf_batch(
            R.indptr, R.indices, values, times, initial, classes=classes
        )
        for p in range(3):
            ref = absorption_cdf(
                _per_point_chain(R, values[p]), times, initial, classes=classes
            )
            for name in ("any", "zero", "empty"):
                np.testing.assert_allclose(
                    batch[name][p], ref[name], rtol=RTOL, atol=ATOL
                )
            assert np.all(np.diff(batch["any"][p]) >= -ATOL)

    def test_scalar_times_shape(self):
        chain = CTMC.from_transitions(3, [(2, 1, 1.0), (1, 0, 0.5)])
        R = chain.rates
        values = R.data[None, :]
        dist = transient_distribution_batch(R.indptr, R.indices, values, 0.7, 2)
        assert dist.shape == (1, 3)
        ref = transient_distribution(chain, 0.7, 2)
        np.testing.assert_allclose(dist[0], ref, rtol=RTOL, atol=ATOL)

    def test_empty_batch_shapes(self):
        # The scalar-squeeze epilogue must apply to empty batches too,
        # so chunked callers can concatenate without rank mismatches.
        chain = CTMC.from_transitions(3, [(2, 1, 1.0)])
        R = chain.rates
        empty = np.empty((0, R.nnz))
        scalar = transient_distribution_batch(R.indptr, R.indices, empty, 2.0)
        assert scalar.shape == (0, 3)
        grid = transient_distribution_batch(R.indptr, R.indices, empty, [1.0, 2.0])
        assert grid.shape == (0, 2, 3)

    def test_time_zero_is_initial(self):
        chain = CTMC.from_transitions(3, [(0, 1, 1.0), (1, 2, 1.0)])
        R = chain.rates
        dist = transient_distribution_batch(
            R.indptr, R.indices, R.data[None, :], [0.0], 0
        )
        np.testing.assert_allclose(dist[0, 0], [1.0, 0.0, 0.0])

    def test_shared_initial_distribution_broadcasts(self):
        chain = CTMC.from_transitions(3, [(2, 1, 1.0), (1, 0, 0.5)])
        R = chain.rates
        values = np.stack([R.data, R.data * 2.0])
        pi0 = np.array([0.2, 0.3, 0.5])
        batch = transient_distribution_batch(
            R.indptr, R.indices, values, [1.0], pi0
        )
        for p in range(2):
            ref = transient_distribution(_per_point_chain(R, values[p]), [1.0], pi0)
            np.testing.assert_allclose(batch[p], ref, rtol=RTOL, atol=ATOL)

    def test_validation_errors(self):
        chain = CTMC.from_transitions(3, [(2, 1, 1.0)])
        R = chain.rates
        good = R.data[None, :]
        with pytest.raises(SolverError, match="values"):
            transient_distribution_batch(R.indptr, R.indices, good[:, :-1], [1.0])
        with pytest.raises(ParameterError, match="non-negative"):
            transient_distribution_batch(R.indptr, R.indices, -good, [1.0])
        with pytest.raises(ParameterError, match="times"):
            transient_distribution_batch(R.indptr, R.indices, good, [-1.0])
        with pytest.raises(ParameterError, match="initial"):
            transient_distribution_batch(R.indptr, R.indices, good, [1.0], 99)


# ---------------------------------------------------------------------------
# evaluate_survivability_batch differential on the paper grids
# ---------------------------------------------------------------------------

class TestSurvivabilityDifferential:
    def test_fig2_grid(self):
        scenarios = _fig2_scenarios()
        batch = evaluate_survivability_batch(scenarios, times=TIMES)
        for scenario, result in zip(scenarios, batch):
            assert result.solver == "uniformization-batch"
            point = evaluate_survivability(scenario, times=TIMES)
            assert point.solver == "uniformization"
            _assert_curves_close(result, point)

    def test_fig4_grid(self):
        scenarios = _fig4_scenarios()
        batch = evaluate_survivability_batch(scenarios, times=TIMES)
        for scenario, result in zip(scenarios, batch):
            _assert_curves_close(
                result, evaluate_survivability(scenario, times=TIMES)
            )

    def test_degenerate_single_point_batch(self):
        scenario = GCSParameters.small_test()
        (result,) = evaluate_survivability_batch([scenario], times=TIMES)
        _assert_curves_close(
            result, evaluate_survivability(scenario, times=TIMES)
        )

    def test_empty_batch(self):
        assert evaluate_survivability_batch([], times=TIMES) == []

    def test_mixed_group_sizes_keep_input_order(self):
        small = GCSParameters.small_test()
        bigger = GCSParameters.paper_defaults(num_nodes=N_TEST)
        scenarios = [bigger, small, bigger.replacing(num_voters=3), small]
        batch = evaluate_survivability_batch(scenarios, times=TIMES)
        for scenario, result in zip(scenarios, batch):
            assert result.params == scenario
            _assert_curves_close(
                result, evaluate_survivability(scenario, times=TIMES)
            )

    def test_survival_is_one_minus_any(self):
        (result,) = evaluate_survivability_batch(
            [GCSParameters.small_test()], times=TIMES
        )
        np.testing.assert_allclose(
            np.asarray(result.survival) + np.asarray(result.failure_cdf["any"]),
            1.0,
            atol=1e-12,
        )
        assert result.survival[0] == 1.0  # grid starts at t = 0

    def test_per_point_error_capture(self):
        good = GCSParameters.small_test()
        outcomes = evaluate_survivability_batch_outcomes(
            [good, "not-a-scenario"], times=TIMES
        )
        assert outcomes[0][1] is None
        assert outcomes[1][0] is None
        assert isinstance(outcomes[1][1], ParameterError)
        with pytest.raises(ParameterError, match="batch scenario"):
            evaluate_survivability_batch([good, "not-a-scenario"], times=TIMES)

    def test_times_must_be_sorted_and_non_negative(self):
        scenario = GCSParameters.small_test()
        with pytest.raises(ParameterError, match="strictly increasing"):
            evaluate_survivability(scenario, times=(2.0, 1.0))
        with pytest.raises(ParameterError, match="non-negative"):
            evaluate_survivability(scenario, times=(-1.0, 1.0))
        with pytest.raises(ParameterError, match="non-empty"):
            evaluate_survivability_batch([scenario], times=())

    def test_survival_at_interpolates(self):
        result = evaluate_survivability(GCSParameters.small_test(), times=TIMES)
        assert result.survival_at(0.0) == result.survival[0]
        assert result.survival_at(TIMES[-1]) == result.survival[-1]
        mid = 0.5 * (TIMES[1] + TIMES[2])
        lo, hi = sorted((result.survival[1], result.survival[2]))
        assert lo <= result.survival_at(mid) <= hi


# ---------------------------------------------------------------------------
# Engine routing: VectorBackend, hybrid, cache parity
# ---------------------------------------------------------------------------

def _surv_requests(n_points=6) -> list[SurvivabilityRequest]:
    return [
        SurvivabilityRequest(params=params, times_s=TIMES)
        for params in _fig2_scenarios(tids=(60.0, 240.0))[:n_points]
    ]


class TestVectorBackendSurvivability:
    def test_vector_matches_serial_backend(self):
        requests = _surv_requests()
        serial = SerialBackend().run(evaluate_survivability_request, requests)
        vector = VectorBackend().run(evaluate_survivability_request, requests)
        assert [o.index for o in vector] == [o.index for o in serial]
        for request, vec, ser in zip(requests, vector, serial):
            assert vec.ok and ser.ok
            reference = evaluate_survivability(
                request.params, times=request.times_s
            )
            _assert_curves_close(vec.value, reference)
            _assert_curves_close(ser.value, reference)

    def test_error_capture_in_batch(self):
        good = _surv_requests(1)[0]
        bad = SurvivabilityRequest(
            params=GCSParameters.small_test(), times_s=(1.0,), eps=-1.0
        )
        outcomes = VectorBackend().run(
            evaluate_survivability_request, [good, bad]
        )
        assert outcomes[0].ok
        assert not outcomes[1].ok
        serial = SerialBackend().run(evaluate_survivability_request, [good, bad])
        assert not serial[1].ok
        assert serial[1].error_type == outcomes[1].error_type


class TestVectorProcsHybrid:
    """--jobs vector:N must be byte-identical to --jobs vector."""

    def test_model_chunks_identical_to_sequential(self):
        requests = [EvalRequest(params=p) for p in _fig2_scenarios()]
        vector = VectorBackend().run(evaluate_request, requests)
        hybrid = VectorBackend(chunk_workers=2).run(evaluate_request, requests)
        assert [o.index for o in hybrid] == [o.index for o in vector]
        for h, v in zip(hybrid, vector):
            assert h.ok and v.ok
            assert h.value.mttsf_s == v.value.mttsf_s
            assert h.value.ctotal_hop_bits_s == v.value.ctotal_hop_bits_s
            assert dict(h.value.failure_probabilities) == dict(
                v.value.failure_probabilities
            )

    def test_survivability_chunks_identical_to_sequential(self):
        requests = _surv_requests()
        vector = VectorBackend().run(evaluate_survivability_request, requests)
        hybrid = VectorBackend(chunk_workers=2).run(
            evaluate_survivability_request, requests
        )
        for h, v in zip(hybrid, vector):
            assert h.ok and v.ok
            assert h.value.survival == v.value.survival
            assert h.value.failure_cdf == v.value.failure_cdf
            assert h.value.time_bounded_cost == v.value.time_bounded_cost

    def test_explicit_chunk_size_still_identical(self):
        requests = _surv_requests()
        vector = VectorBackend().run(evaluate_survivability_request, requests)
        hybrid = VectorBackend(chunk_workers=2, chunk_size=1).run(
            evaluate_survivability_request, requests
        )
        for h, v in zip(hybrid, vector):
            assert h.value.survival == v.value.survival

    def test_error_capture_across_pool(self):
        requests = _surv_requests(3) + [
            SurvivabilityRequest(
                params=GCSParameters.small_test(), times_s=(1.0,), eps=-1.0
            )
        ]
        hybrid = VectorBackend(chunk_workers=2, chunk_size=2).run(
            evaluate_survivability_request, requests
        )
        assert [o.ok for o in hybrid] == [True, True, True, False]
        assert hybrid[3].error_type == "ParameterError"

    def test_small_groups_solve_inline(self):
        # A single chunk never pays pool spin-up; results still correct.
        requests = _surv_requests(2)
        hybrid = VectorBackend(chunk_workers=8).run(
            evaluate_survivability_request, requests
        )
        assert all(o.ok for o in hybrid)

    def test_make_backend_specs(self):
        assert isinstance(make_backend("vector"), VectorBackend)
        assert make_backend("vector").chunk_workers is None
        hybrid = make_backend("vector:3")
        assert isinstance(hybrid, VectorBackend)
        assert hybrid.chunk_workers == 3
        assert hybrid.describe() == "vector+procs(workers=3)"
        auto = make_backend("vector:auto")
        assert isinstance(auto, VectorBackend)
        with pytest.raises(ParameterError, match="vector"):
            make_backend("vector:warp")
        with pytest.raises(ParameterError, match="chunk_workers"):
            VectorBackend(chunk_workers=0)


class TestCacheParityAcrossBackends:
    """serial, vector and vector:N must be cache-indistinguishable."""

    GRID = [
        SurvivabilityRequest(
            params=GCSParameters.small_test(
                num_voters=m, detection_interval_s=float(tids)
            ),
            times_s=TIMES,
        )
        for m in (3, 5)
        for tids in (15.0, 60.0, 240.0)
    ]

    def _cold_then_warm(self, tmp_path, cold_jobs, warm_jobs):
        cache_dir = tmp_path / f"{cold_jobs}-then-{warm_jobs}"
        stats = []
        results = []
        for jobs in (cold_jobs, warm_jobs):
            runner = BatchRunner(
                cache=ResultCache(cache_dir=cache_dir),
                backend=make_backend(jobs),
            )
            batch = runner.run(
                self.GRID, evaluate=evaluate_survivability_request
            )
            batch.report.raise_on_error()
            stats.append((batch.report.n_cache_hits, batch.report.n_evaluated))
            results.append([r.survival for r in batch.results])
        return stats, results

    @pytest.mark.parametrize(
        "cold,warm",
        [("vector", "serial"), ("serial", "vector"), ("vector", "vector:2")],
    )
    def test_hit_miss_parity(self, tmp_path, cold, warm):
        stats, results = self._cold_then_warm(tmp_path, cold, warm)
        # Cold run all misses; warm run served entirely by the other
        # backend's records (same content-addressed keys, times grid
        # included).
        assert stats == [(0, len(self.GRID)), (len(self.GRID), 0)]
        # The warm run returns the cold run's stored curves verbatim.
        assert results[0] == results[1]

    def test_time_grid_is_part_of_the_key(self, tmp_path):
        runner = BatchRunner(cache=ResultCache(cache_dir=tmp_path / "grid"))
        params = GCSParameters.small_test()
        a = SurvivabilityRequest(params=params, times_s=(0.5, 1.0))
        b = SurvivabilityRequest(params=params, times_s=(0.5, 2.0))
        c = SurvivabilityRequest(params=params, times_s=(0.5, 1.0), eps=1e-10)
        assert len({a.fingerprint(), b.fingerprint(), c.fingerprint()}) == 3
        # And none collide with the steady-state evaluation of the
        # same parameters.
        assert EvalRequest(params=params).fingerprint() != a.fingerprint()
        batch = runner.run([a, b], evaluate=evaluate_survivability_request)
        batch.report.raise_on_error()
        assert batch.report.n_unique == 2

    def test_survivability_record_roundtrip(self):
        result = evaluate_survivability(GCSParameters.small_test(), times=TIMES)
        rebuilt = result_from_dict(json.loads(json.dumps(result.to_dict())))
        assert rebuilt == result


# ---------------------------------------------------------------------------
# SurvivabilitySweep + analysis sweep + CLI
# ---------------------------------------------------------------------------

class TestSurvivabilitySweep:
    def _sweep(self) -> SurvivabilitySweep:
        return SurvivabilitySweep(
            name="t",
            times_s=TIMES,
            axes={"detection_interval_s": (60.0, 240.0)},
            base={"num_nodes": N_TEST},
        )

    def test_json_roundtrip(self, tmp_path):
        sweep = self._sweep()
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(sweep.to_dict()))
        rebuilt = SurvivabilitySweep.from_dict(json.loads(path.read_text()))
        assert rebuilt == sweep

    def test_empty_axes_is_single_point(self):
        sweep = SurvivabilitySweep(
            name="single", times_s=TIMES, base={"num_nodes": N_TEST}
        )
        assert len(sweep) == 1
        outcome = sweep.run(BatchRunner(backend=VectorBackend()))
        assert outcome.n_failed == 0
        assert len(outcome.points) == 1
        assert outcome.points[0][0] == {}

    def test_run_and_warm_cache(self, tmp_path):
        sweep = self._sweep()
        cache = ResultCache(cache_dir=tmp_path / "c")
        outcome = sweep.run(
            BatchRunner(cache=cache, backend=make_backend("vector"))
        )
        assert outcome.n_failed == 0
        assert outcome.report.n_evaluated == len(sweep)
        assert all(curve is not None for curve in outcome.curves())
        warm = sweep.run(
            BatchRunner(
                cache=ResultCache(cache_dir=tmp_path / "c"),
                backend=make_backend("vector"),
            )
        )
        assert warm.report.n_cache_hits == len(sweep)

    def test_validation(self):
        with pytest.raises(ParameterError, match="strictly increasing"):
            SurvivabilitySweep(name="x", times_s=(2.0, 1.0))
        with pytest.raises(ParameterError, match="name"):
            SurvivabilitySweep(name="", times_s=TIMES)
        with pytest.raises(ParameterError, match="axis"):
            SurvivabilitySweep(name="x", times_s=TIMES, axes={"num_voters": ()})


class TestSurvivabilityGridSweep:
    def test_vector_parity_with_serial(self):
        grid = {"detection_interval_s": (60.0, 240.0)}
        serial = survivability_grid_sweep(
            grid, TIMES, params=GCSParameters.small_test()
        )
        vector = survivability_grid_sweep(
            grid, TIMES, params=GCSParameters.small_test(), backend="vector"
        )
        assert [p.assignment for p in serial] == [p.assignment for p in vector]
        for s, v in zip(serial, vector):
            _assert_curves_close(v.value, s.value)

    def test_base_path_uses_sweep_spec(self):
        points = survivability_grid_sweep(
            {"num_voters": (3, 5)},
            TIMES,
            base={"num_nodes": N_TEST},
            backend="vector",
        )
        assert [p.assignment["num_voters"] for p in points] == [3, 5]
        assert all(p.ok for p in points)

    def test_rejects_params_and_base(self):
        with pytest.raises(ParameterError, match="params or base"):
            survivability_grid_sweep(
                {"num_voters": (3,)},
                TIMES,
                params=GCSParameters.small_test(),
                base={"num_nodes": 12},
            )


class TestSurvivabilityCli:
    def test_smoke_with_artifact(self, tmp_path, capsys):
        out = tmp_path / "surv.json"
        code = cli_main(
            [
                "survivability",
                "--axis",
                "detection_interval_s=60,240",
                "--n",
                str(N_TEST),
                "--times",
                "0,0.5,2,5",
                "--jobs",
                "vector",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "S@5s" in captured.out
        artifact = json.loads(out.read_text())
        assert artifact["report"]["n_errors"] == 0
        assert len(artifact["points"]) == 2
        curves = [p["result"]["survival"] for p in artifact["points"]]
        assert all(len(c) == 4 for c in curves)

    def test_until_grid(self, capsys):
        code = cli_main(
            [
                "survivability",
                "--n",
                str(N_TEST),
                "--until",
                "4",
                "--points",
                "4",
                "--jobs",
                "vector",
            ]
        )
        assert code == 0
        assert "S@4s" in capsys.readouterr().out

    def test_times_and_until_conflict(self, capsys):
        code = cli_main(
            ["survivability", "--times", "1,2", "--until", "5", "--n", "8"]
        )
        assert code == 2
        assert "either --times or --until" in capsys.readouterr().err

    def test_missing_grid_errors(self, capsys):
        assert cli_main(["survivability", "--n", "8"]) == 2
        assert "--times" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Fused-gather batched uniformization: assembly and batching independence
# ---------------------------------------------------------------------------

class TestFusedTransientKernel:
    """The stacked jump matrix and the distributions it produces are
    exactly what each point would get on its own."""

    def _fills(self):
        from repro.core.fastpath import fill_transition_rates, lattice_structure
        from repro.core.metrics import resolve_network
        from repro.core.rates import GCSRates

        structure = lattice_structure(N_TEST)
        scenarios = [
            GCSParameters.paper_defaults(
                num_nodes=N_TEST, detection_interval_s=t
            )
            for t in (15.0, 60.0, 240.0)
        ]
        values = np.stack(
            [
                fill_transition_rates(
                    structure,
                    GCSRates.from_scenario(p, resolve_network(p, None)),
                ).values
                for p in scenarios
            ]
        )
        return structure, values

    def test_stacked_matrix_assembly_identical(self):
        from repro.ctmc.transient import _stacked_jump_csr, csr_row_sums

        structure, values = self._fills()
        q = csr_row_sums(structure.indptr, values)
        lam = q.max(axis=1)
        lam[lam <= 0.0] = 1.0
        stacked = _stacked_jump_csr(
            structure.indptr, structure.indices, values, q, lam
        )
        n = structure.num_states
        assert stacked.shape == (len(values) * n, len(values) * n)
        # Block p is exactly ``(I + Q_p/Λ_p)ᵀ`` for point p's rates,
        # assembled the plain scipy way (COO → LIL diagonal → dense);
        # nothing leaks between blocks.
        for p, row in enumerate(values):
            jump = sp.csr_matrix(
                (row / lam[p], structure.indices, structure.indptr),
                shape=(n, n),
            ).tolil()
            jump.setdiag(1.0 - q[p] / lam[p])
            block = stacked[p * n : (p + 1) * n].toarray()
            expected = np.zeros_like(block)
            expected[:, p * n : (p + 1) * n] = jump.T.toarray()
            assert np.array_equal(block, expected)

    def test_distributions_bit_identical(self):
        # A point's distributions do not depend on its batch mates:
        # every batch row equals that point solved as a batch of one.
        structure, values = self._fills()
        batch = transient_distribution_batch(
            structure.indptr,
            structure.indices,
            values,
            TIMES,
            structure.initial_state,
        )
        for p in range(len(values)):
            alone = transient_distribution_batch(
                structure.indptr,
                structure.indices,
                values[p : p + 1],
                TIMES,
                structure.initial_state,
            )
            assert np.array_equal(batch[p], alone[0])

    def test_env_toggle_matches_explicit(self, monkeypatch):
        structure, values = self._fills()
        explicit = transient_distribution_batch(
            structure.indptr,
            structure.indices,
            values,
            TIMES,
            structure.initial_state,
            kernel="fused",
        )
        # REPRO_KERNEL=numpy names the retired tier: ignored, so the
        # default fused tier runs.
        for env in ("fused", "numpy"):
            monkeypatch.setenv("REPRO_KERNEL", env)
            via_env = transient_distribution_batch(
                structure.indptr,
                structure.indices,
                values,
                TIMES,
                structure.initial_state,
            )
            assert np.array_equal(via_env, explicit)
