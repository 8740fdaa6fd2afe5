"""Structure-sharing batched lattice solver: bit-identity + routing.

The batched path must be *bit-identical* to the independent per-point
reference (:func:`lattice_reference.reference_evaluate`: the point's
own CTMC through the generic absorbing analysis) — not approximately
equal — across the paper's figure grids, including the variance sweep
and the cost breakdown. ``evaluate()`` is itself a batch of one, so it
is checked against the reference too rather than used as one. These
tests pin that contract at a reduced ``N`` (the arithmetic is
size-independent; the full-scale campaign equality is asserted by
``benchmarks/bench_batch_solver.py``), and cover the engine routing:
``VectorBackend`` / ``--jobs vector``, cache hit/miss parity with the
process-pool path, ``tradeoff_curve``/``optimize_tids`` and
``model_grid_sweep``.
"""

import numpy as np
import pytest

from repro import constants as C
from repro.analysis.sweep import model_grid_sweep
from repro.core.fastpath import (
    build_lattice_chain,
    clear_structure_cache,
    fill_transition_rates,
    lattice_structure,
)
from repro.core.metrics import (
    evaluate,
    evaluate_batch,
    evaluate_batch_outcomes,
    resolve_network,
)
from repro.core.optimizer import optimize_tids, select_optimum, tradeoff_curve
from repro.core.rates import GCSRates
from repro.ctmc.acyclic import (
    batch_dag_structure,
    solve_dag,
    solve_dag_batch,
    topological_levels,
)
from repro.ctmc.chain import CTMC
from repro.ctmc.kernels import resolve_kernel
from repro.engine import (
    BatchRunner,
    EvalRequest,
    ResultCache,
    SerialBackend,
    VectorBackend,
    make_backend,
)
from repro.engine.batch import evaluate_request, run_tids_sweep
from repro.errors import ParameterError, SolverError
from repro.params import GCSParameters

from lattice_reference import reference_evaluate

N_TEST = 16  # full paper grids at a lattice size that solves in ms


def _fig2_scenarios() -> list[GCSParameters]:
    base = GCSParameters.paper_defaults(num_nodes=N_TEST)
    return [
        base.replacing(num_voters=m, detection_interval_s=float(tids))
        for m in C.PAPER_M_VALUES
        for tids in C.PAPER_TIDS_GRID_S
    ]


def _fig4_scenarios() -> list[GCSParameters]:
    base = GCSParameters.paper_defaults(num_nodes=N_TEST)
    return [
        base.replacing(detection_function=fn, detection_interval_s=float(tids))
        for fn in ("logarithmic", "linear", "polynomial")
        for tids in C.PAPER_TIDS_GRID_S
    ]


def _assert_identical(batch_result, point_result, *, variance=False):
    assert batch_result.mttsf_s == point_result.mttsf_s
    assert batch_result.ctotal_hop_bits_s == point_result.ctotal_hop_bits_s
    assert batch_result.channel_utilization == point_result.channel_utilization
    assert dict(batch_result.failure_probabilities) == dict(
        point_result.failure_probabilities
    )
    assert batch_result.num_states == point_result.num_states
    if variance:
        assert batch_result.mttsf_std_s == point_result.mttsf_std_s


# ---------------------------------------------------------------------------
# solve_dag_batch unit level
# ---------------------------------------------------------------------------

def _random_dag_chain(rng, n=40, density=0.2):
    """Strictly lower-triangular random rate matrix (guaranteed DAG)."""
    transitions = []
    for src in range(1, n):
        for dst in range(src):
            if rng.random() < density:
                transitions.append((src, dst, float(rng.uniform(0.1, 5.0))))
    return CTMC.from_transitions(n, transitions)


class TestSolveDagBatch:
    def test_matches_solve_dag_per_point(self):
        rng = np.random.default_rng(7)
        chain = _random_dag_chain(rng)
        R = chain.rates
        shared = batch_dag_structure(R.indptr, R.indices)
        n, k, P = chain.num_states, 3, 5

        scales = rng.uniform(0.5, 2.0, size=P)
        values = np.stack([R.data * s for s in scales])
        numer = rng.uniform(0.0, 1.0, size=(P, n, k))
        boundary = np.zeros((n, k))
        boundary[chain.absorbing_states, 0] = 1.0

        x = solve_dag_batch(shared, values, numer, boundary)
        for p in range(P):
            import scipy.sparse as sp

            chain_p = CTMC(
                sp.csr_matrix(
                    (values[p], R.indices.copy(), R.indptr.copy()),
                    shape=R.shape,
                )
            )
            structure_p = topological_levels(chain_p)
            x_p = solve_dag(chain_p, structure_p, numer[p], boundary)
            assert np.array_equal(x[p], x_p), f"point {p} diverged"

    def test_explicit_zeros_match_pruned_chain(self):
        rng = np.random.default_rng(11)
        chain = _random_dag_chain(rng, n=30, density=0.3)
        R = chain.rates
        shared = batch_dag_structure(R.indptr, R.indices)
        n = chain.num_states

        values = R.data.copy()
        values[rng.random(values.size) < 0.3] = 0.0  # rate-disabled edges
        numer = np.ones((1, n, 1))
        boundary = np.zeros((n, 1))

        x = solve_dag_batch(shared, values[None, :], numer, boundary)[0]
        import scipy.sparse as sp

        pruned = CTMC(
            sp.csr_matrix(
                (values, R.indices.copy(), R.indptr.copy()), shape=R.shape
            )
        )  # CTMC prunes the explicit zeros
        x_p = solve_dag(
            pruned, topological_levels(pruned), numer[0], boundary
        )
        assert np.array_equal(x[:, 0], x_p[:, 0])

    def test_cyclic_pattern_rejected(self):
        cyclic = CTMC.from_transitions(2, [(0, 1, 1.0), (1, 0, 1.0)])
        R = cyclic.rates
        with pytest.raises(SolverError, match="cyclic"):
            batch_dag_structure(R.indptr, R.indices)

    def test_shape_validation(self):
        chain = _random_dag_chain(np.random.default_rng(3), n=10)
        R = chain.rates
        shared = batch_dag_structure(R.indptr, R.indices)
        good_vals = R.data[None, :]
        with pytest.raises(SolverError, match="values"):
            solve_dag_batch(shared, R.data[None, :-1], np.ones((1, 10, 1)), np.zeros((10, 1)))
        with pytest.raises(SolverError, match="numerators"):
            solve_dag_batch(shared, good_vals, np.ones((1, 9, 1)), np.zeros((10, 1)))
        with pytest.raises(SolverError, match="boundary"):
            solve_dag_batch(shared, good_vals, np.ones((1, 10, 1)), np.zeros((9, 1)))


# ---------------------------------------------------------------------------
# Fused-gather kernel: differential tests against per-point solve_dag
# ---------------------------------------------------------------------------

class TestFusedGatherKernel:
    """The fused kernel (and numba, which must match it) against
    per-point :func:`solve_dag` on each point's own chain, bit for bit."""

    def _lattice_fills(self, scenarios):
        structure = lattice_structure(scenarios[0].num_nodes)
        rates = [
            GCSRates.from_scenario(p, resolve_network(p, None))
            for p in scenarios
        ]
        values = np.stack(
            [fill_transition_rates(structure, r).values for r in rates]
        )
        return structure, rates, values

    @pytest.mark.parametrize("grid", ["fig2", "fig4"])
    def test_fused_bit_identical_on_paper_grids(self, grid):
        scenarios = _fig2_scenarios() if grid == "fig2" else _fig4_scenarios()
        structure, rates, values = self._lattice_fills(scenarios)
        n = structure.num_states
        numer = np.ones((len(scenarios), n, 1))
        boundary = np.zeros((n, 1))
        boundary[structure.c1_state, 0] = 1.0
        x = solve_dag_batch(
            structure.dag, values, numer, boundary, kernel="fused"
        )
        for p, (params, point_rates) in enumerate(zip(scenarios, rates)):
            chain = build_lattice_chain(
                params, resolve_network(params, None), rates=point_rates
            ).chain
            x_p = solve_dag(chain, topological_levels(chain), numer[p], boundary)
            assert np.array_equal(x[p], x_p), f"{grid} point {p} diverged"

    @pytest.mark.parametrize("zero_pruned", [True, False])
    def test_both_kernels_match_per_point_solve_dag(self, zero_pruned):
        rng = np.random.default_rng(23)
        chain = _random_dag_chain(rng, n=35, density=0.25)
        R = chain.rates
        shared = batch_dag_structure(R.indptr, R.indices)
        n, k, P = chain.num_states, 2, 4
        values = np.stack([R.data * s for s in rng.uniform(0.5, 2.0, size=P)])
        if zero_pruned:
            values[0, rng.random(values.shape[1]) < 0.2] = 0.0
        numer = rng.uniform(0.0, 1.0, size=(P, n, k))
        boundary = np.zeros((n, k))
        boundary[chain.absorbing_states, 0] = 1.0

        import scipy.sparse as sp

        for kernel in ("fused", "numba"):
            x = solve_dag_batch(shared, values, numer, boundary, kernel=kernel)
            for p in range(P):
                chain_p = CTMC(
                    sp.csr_matrix(
                        (values[p], R.indices.copy(), R.indptr.copy()),
                        shape=R.shape,
                    )
                )
                x_p = solve_dag(
                    chain_p, topological_levels(chain_p), numer[p], boundary
                )
                assert np.array_equal(x[p], x_p), f"point {p} ({kernel})"

    def test_env_toggle_and_explicit_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "fused")
        assert resolve_kernel() == "fused"
        # The retired pre-fusion tier: ignored from the environment,
        # rejected when asked for explicitly.
        monkeypatch.setenv("REPRO_KERNEL", "numpy")
        assert resolve_kernel() == "fused"
        assert resolve_kernel("fused") == "fused"
        R = _random_dag_chain(np.random.default_rng(5), n=10).rates
        shared = batch_dag_structure(R.indptr, R.indices)
        with pytest.raises(SolverError, match="numpy"):
            solve_dag_batch(
                shared,
                R.data[None, :],
                np.ones((1, 10, 1)),
                np.zeros((10, 1)),
                kernel="numpy",
            )

    def test_evaluate_batch_identical_under_both_kernels(self, monkeypatch):
        scenarios = _fig2_scenarios()[:6]
        monkeypatch.setenv("REPRO_KERNEL", "fused")
        fused = evaluate_batch(scenarios, include_variance=True)
        monkeypatch.setenv("REPRO_KERNEL", "numba")
        jitted = evaluate_batch(scenarios, include_variance=True)
        for scenario, a, b in zip(scenarios, fused, jitted):
            _assert_identical(b, a, variance=True)
            _assert_identical(
                a,
                reference_evaluate(scenario, include_variance=True),
                variance=True,
            )


# ---------------------------------------------------------------------------
# evaluate_batch bit-identity on the paper grids
# ---------------------------------------------------------------------------

class TestEvaluateBatchBitIdentical:
    def test_fig2_grid(self):
        scenarios = _fig2_scenarios()
        batch = evaluate_batch(scenarios)
        for scenario, result in zip(scenarios, batch):
            _assert_identical(result, reference_evaluate(scenario))

    def test_fig4_grid_with_variance(self):
        scenarios = _fig4_scenarios()
        batch = evaluate_batch(scenarios, include_variance=True)
        for scenario, result in zip(scenarios, batch):
            _assert_identical(
                result,
                reference_evaluate(scenario, include_variance=True),
                variance=True,
            )

    def test_breakdown_parity(self):
        scenarios = _fig2_scenarios()[:4]
        batch = evaluate_batch(scenarios, include_breakdown=True)
        for scenario, result in zip(scenarios, batch):
            point = reference_evaluate(scenario, include_breakdown=True)
            _assert_identical(result, point)
            assert dict(result.cost_breakdown) == dict(point.cost_breakdown)

    def test_zero_rate_edges(self):
        # Non-shifted logarithmic detection disables edges at md == 1,
        # exercising the pruned-row-sum path of the batched solver.
        base = GCSParameters.paper_defaults(
            num_nodes=N_TEST, detection_function="logarithmic", shifted_log=False
        )
        scenarios = [
            base.replacing(detection_interval_s=float(tids))
            for tids in (15.0, 60.0, 240.0)
        ]
        for scenario, result in zip(scenarios, evaluate_batch(scenarios)):
            _assert_identical(result, reference_evaluate(scenario))

    def test_degenerate_single_point_batch(self):
        scenario = GCSParameters.small_test()
        (result,) = evaluate_batch([scenario], include_variance=True)
        reference = reference_evaluate(scenario, include_variance=True)
        _assert_identical(result, reference, variance=True)
        # evaluate() is the same pipeline with one point.
        _assert_identical(
            evaluate(scenario, include_variance=True), reference, variance=True
        )

    def test_empty_batch(self):
        assert evaluate_batch([]) == []

    def test_mixed_group_sizes_keep_input_order(self):
        small = GCSParameters.small_test()
        bigger = GCSParameters.paper_defaults(num_nodes=N_TEST)
        scenarios = [bigger, small, bigger.replacing(num_voters=3), small]
        batch = evaluate_batch(scenarios)
        for scenario, result in zip(scenarios, batch):
            assert result.params == scenario
            _assert_identical(result, reference_evaluate(scenario))

    def test_network_tuple_scenarios(self):
        params = GCSParameters.small_test()
        network = resolve_network(params, None)
        (explicit,) = evaluate_batch([(params, network)])
        (implicit,) = evaluate_batch([params])
        _assert_identical(explicit, implicit)

    def test_spn_method_falls_back_per_point(self):
        params = GCSParameters.small_test()
        (batch,) = evaluate_batch([params], method="spn")
        point = evaluate(params, method="spn")
        _assert_identical(batch, point)
        assert batch.solver.startswith("spn/")

    def test_per_point_error_capture(self):
        good = GCSParameters.small_test()
        outcomes = evaluate_batch_outcomes([good, "not-a-scenario"])
        assert outcomes[0][1] is None
        _assert_identical(outcomes[0][0], reference_evaluate(good))
        assert outcomes[1][0] is None
        assert isinstance(outcomes[1][1], ParameterError)
        with pytest.raises(ParameterError, match="batch scenario"):
            evaluate_batch([good, "not-a-scenario"])

    def test_solver_tag(self):
        (result,) = evaluate_batch([GCSParameters.small_test()])
        assert result.solver == "acyclic-batch"
        assert evaluate(GCSParameters.small_test()).solver == "acyclic-batch"


# ---------------------------------------------------------------------------
# Structure cache
# ---------------------------------------------------------------------------

class TestLatticeStructureCache:
    def test_cached_and_clearable(self):
        clear_structure_cache()
        first = lattice_structure(10)
        assert lattice_structure(10) is first
        clear_structure_cache()
        assert lattice_structure(10) is not first

    def test_structure_backed_chain_matches_historical_fields(self):
        params = GCSParameters.small_test()
        network = resolve_network(params, None)
        lattice = build_lattice_chain(params, network)
        structure = lattice_structure(params.num_nodes)
        assert lattice.num_states == structure.num_states
        assert lattice.initial_state == structure.initial_state
        assert np.array_equal(lattice.t, structure.t)
        # The chain's canonical CSR pattern is exactly the structural
        # pattern minus rate-zero slots.
        fill = fill_transition_rates(
            structure, GCSRates.from_scenario(params, network)
        )
        keep = fill.values > 0.0
        assert np.array_equal(
            lattice.chain.rates.indices, structure.indices[keep]
        )
        assert np.array_equal(lattice.chain.rates.data, fill.values[keep])


# ---------------------------------------------------------------------------
# VectorBackend + engine routing
# ---------------------------------------------------------------------------

def _square(x):  # module level: picklable for pool backends
    return x * x


def _explode_on_two(x):
    if x == 2:
        raise ValueError("boom")
    return x


class TestVectorBackend:
    def test_make_backend_spec(self):
        assert isinstance(make_backend("vector"), VectorBackend)
        assert make_backend("vector").describe() == "vector"
        with pytest.raises(ParameterError, match="vector"):
            make_backend("warp")

    def test_model_batch_matches_serial_backend(self):
        requests = [
            EvalRequest(params=p) for p in _fig2_scenarios()[:6]
        ] + [EvalRequest(params=GCSParameters.small_test(), include_variance=True)]
        serial = SerialBackend().run(evaluate_request, requests)
        vector = VectorBackend().run(evaluate_request, requests)
        assert [o.index for o in vector] == [o.index for o in serial]
        for request, vec, ser in zip(requests, vector, serial):
            assert vec.ok and ser.ok
            reference = reference_evaluate(
                request.params, include_variance=request.include_variance
            )
            _assert_identical(vec.value, reference, variance=True)
            _assert_identical(ser.value, reference, variance=True)

    def test_generic_callable_falls_back(self):
        outcomes = VectorBackend().run(_square, [1, 2, 3])
        assert [o.value for o in outcomes] == [1, 4, 9]
        failing = VectorBackend().run(_explode_on_two, [1, 2, 3])
        assert [o.ok for o in failing] == [True, False, True]
        assert failing[1].error_type == "ValueError"

    def test_empty_batch(self):
        assert VectorBackend().run(evaluate_request, []) == []

    def test_error_capture_in_model_batch(self):
        good = EvalRequest(params=GCSParameters.small_test())
        bad = EvalRequest(
            params=GCSParameters.small_test(), method="no-such-method"
        )
        outcomes = VectorBackend().run(evaluate_request, [good, bad])
        assert outcomes[0].ok
        _assert_identical(
            outcomes[0].value, reference_evaluate(GCSParameters.small_test())
        )
        assert not outcomes[1].ok
        assert outcomes[1].error_type == "ParameterError"
        # Parity: the serial backend captures the same failure.
        serial = SerialBackend().run(evaluate_request, [good, bad])
        assert not serial[1].ok
        assert serial[1].error_type == outcomes[1].error_type

    def test_batch_runner_composition(self):
        runner = BatchRunner(backend=VectorBackend())
        requests = [EvalRequest(params=p) for p in _fig2_scenarios()[:4]]
        batch = runner.run(requests + requests)  # duplicates dedup
        batch.report.raise_on_error()
        assert batch.report.n_unique == 4
        assert batch.report.n_evaluated == 4
        for request, result in zip(requests, batch.results[:4]):
            _assert_identical(result, reference_evaluate(request.params))


class TestCacheParityVectorVsWorkers:
    """--jobs vector and --jobs N must be cache-indistinguishable."""

    GRID = [
        EvalRequest(
            params=GCSParameters.small_test(
                num_voters=m, detection_interval_s=float(tids)
            )
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
            batch = runner.run(self.GRID)
            batch.report.raise_on_error()
            stats.append((batch.report.n_cache_hits, batch.report.n_evaluated))
            results.append([r.mttsf_s for r in batch.results])
        return stats, results

    def test_hit_miss_parity_both_orders(self, tmp_path):
        stats_v, results_v = self._cold_then_warm(tmp_path, "vector", 2)
        stats_p, results_p = self._cold_then_warm(tmp_path, 2, "vector")
        # Same hit/miss profile regardless of which backend ran first:
        # cold run all misses, warm run served entirely by the other
        # backend's records (same content-addressed keys).
        assert stats_v == stats_p == [(0, len(self.GRID)), (len(self.GRID), 0)]
        # And every combination produced identical numbers.
        assert results_v[0] == results_v[1] == results_p[0] == results_p[1]


# ---------------------------------------------------------------------------
# tradeoff_curve / optimize_tids / model_grid_sweep routing
# ---------------------------------------------------------------------------

class TestSweepRouting:
    GRID = (15.0, 60.0, 240.0, 960.0)

    def test_tradeoff_curve_vector_parity(self):
        # One batched sweep for the whole curve; each point equals its
        # own chain's reference solve, and progress fires in grid order.
        params = GCSParameters.small_test()
        seen = []
        curve = tradeoff_curve(params, self.GRID, progress=seen.append)
        assert [p.tids_s for p in curve] == list(self.GRID)
        assert seen == curve
        for point in curve:
            _assert_identical(
                point.result,
                reference_evaluate(
                    params.replacing(detection_interval_s=point.tids_s)
                ),
            )

    def test_optimize_tids_vector_parity(self):
        # The direct search and the engine's vector+procs path agree.
        params = GCSParameters.small_test()
        direct = optimize_tids(params, self.GRID)
        runner = BatchRunner(backend=make_backend("vector:2"))
        engine = select_optimum(run_tids_sweep(runner, params, self.GRID))
        assert engine.optimal_tids_s == direct.optimal_tids_s
        for d, e in zip(direct.curve, engine.curve):
            _assert_identical(e.result, d.result)

    def test_model_grid_sweep_vector_parity(self):
        grid = {"num_voters": (3, 5), "detection_interval_s": (15.0, 60.0)}
        serial = model_grid_sweep(grid, params=GCSParameters.small_test())
        vector = model_grid_sweep(
            grid, params=GCSParameters.small_test(), backend="vector"
        )
        assert [p.assignment for p in serial] == [p.assignment for p in vector]
        for s, v in zip(serial, vector):
            _assert_identical(v.value, s.value)

    def test_model_grid_sweep_rejects_params_and_base(self):
        with pytest.raises(ParameterError, match="params or base"):
            model_grid_sweep(
                {"num_voters": (3,)},
                params=GCSParameters.small_test(),
                base={"num_nodes": 12},
            )
