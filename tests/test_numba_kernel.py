"""Numba kernel tier: selection seam, fallback, and bit-identity.

Two families of guarantees, tested in two regimes:

* **Without numba** (the container default): requesting the ``numba``
  tier must degrade to ``fused`` — same bits, counted under
  ``solver.kernel_fallbacks`` / ``solver.kernel_jit_failures`` — and
  never error. These tests force the degradation paths with
  monkeypatching so they are deterministic on hosts that *do* have
  numba.
* **With numba** (the CI ``tests-numba`` leg): the jitted sweep and
  the jitted stacked matvec must be *bit-identical* to the fused
  NumPy tier on the paper grids — the jit reproduces the exact IEEE
  accumulation order, so ``np.array_equal`` holds, not just allclose.

The ``expm`` transient backend is a genuinely different algorithm, so
its contract is a pinned tolerance
(:data:`repro.ctmc.EXPM_EQUIVALENCE_RTOL`), not bit-identity.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fastpath import (
    fill_transition_rates,
    lattice_structure,
)
from repro.core.metrics import evaluate_batch, resolve_network
from repro.core.rates import GCSRates
from repro.ctmc import (
    CTMC,
    EXPM_EQUIVALENCE_RTOL,
    KERNEL_CHOICES,
    TRANSIENT_BACKEND_CHOICES,
    numba_available,
    resolve_kernel,
    resolve_transient_backend,
    transient_distribution_batch,
)
from repro.ctmc import kernels as kernels_module
from repro.ctmc.acyclic import batch_dag_structure, solve_dag, solve_dag_batch
from repro.ctmc.acyclic import topological_levels
from repro.errors import SolverError
from repro.obs import metrics
from repro.params import GCSParameters

N_TEST = 12
TIMES = (0.0, 0.5, 2.0, 5.0)
EXPM_ATOL = 1e-10


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


def _lattice_fills(scenarios):
    structure = lattice_structure(scenarios[0].num_nodes)
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


def _random_dag_chain(rng, n=40, density=0.2):
    transitions = []
    for src in range(1, n):
        for dst in range(src):
            if rng.random() < density:
                transitions.append((src, dst, float(rng.uniform(0.1, 5.0))))
    return CTMC.from_transitions(n, transitions)


def _random_cyclic_chain(rng, n=20, density=0.2):
    rows, cols, vals = [], [], []
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < density:
                rows.append(i)
                cols.append(j)
                vals.append(float(rng.uniform(0.1, 2.0)))
    return CTMC(sp.csr_matrix((vals, (rows, cols)), shape=(n, n)))


def _dag_problem(seed=7, n=35, P=4, k=2):
    rng = np.random.default_rng(seed)
    chain = _random_dag_chain(rng, n=n, density=0.25)
    R = chain.rates
    shared = batch_dag_structure(R.indptr, R.indices)
    values = np.stack([R.data * s for s in rng.uniform(0.5, 2.0, size=P)])
    values[0, rng.random(values.shape[1]) < 0.2] = 0.0  # zero-pruned point
    numer = rng.uniform(0.0, 1.0, size=(P, chain.num_states, k))
    boundary = np.zeros((chain.num_states, k))
    boundary[chain.absorbing_states, 0] = 1.0
    return shared, values, numer, boundary


# ---------------------------------------------------------------------------
# Selection seam (runs with or without numba installed)
# ---------------------------------------------------------------------------

class TestResolveKernel:
    def test_choices_are_exported(self):
        assert KERNEL_CHOICES == ("numba", "fused")
        assert TRANSIENT_BACKEND_CHOICES == ("uniformization", "expm")

    def test_default_is_fused(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert resolve_kernel() == "fused"

    def test_explicit_kernel_beats_everything(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "numba")
        assert resolve_kernel("fused") == "fused"

    def test_retired_numpy_tier_env_warns_once_and_is_ignored(
        self, monkeypatch, caplog
    ):
        monkeypatch.setattr(kernels_module, "_WARNED_ENV", False)
        monkeypatch.setenv("REPRO_KERNEL", "numpy")
        with caplog.at_level("WARNING", logger="repro.ctmc.kernels"):
            assert resolve_kernel() == "fused"
            assert resolve_kernel() == "fused"
        warnings = [r for r in caplog.records if "REPRO_KERNEL" in r.getMessage()]
        assert len(warnings) == 1
        assert "'numpy'" in warnings[0].getMessage()

    def test_retired_numpy_tier_explicit_raises(self):
        with pytest.raises(SolverError, match="numpy"):
            resolve_kernel("numpy")
        shared, values, numer, boundary = _dag_problem()
        with pytest.raises(SolverError, match="kernel"):
            solve_dag_batch(shared, values, numer, boundary, kernel="numpy")

    def test_unknown_explicit_kernel_raises(self):
        with pytest.raises(SolverError, match="warp"):
            resolve_kernel("warp")
        shared, values, numer, boundary = _dag_problem()
        with pytest.raises(SolverError, match="kernel"):
            solve_dag_batch(shared, values, numer, boundary, kernel="warp")

    def test_unknown_env_kernel_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "warp")
        assert resolve_kernel() == "fused"

    def test_numba_request_without_numba_degrades_counted(self, monkeypatch):
        monkeypatch.setattr(kernels_module, "_NUMBA_AVAILABLE", False)
        before = metrics().counter("solver.kernel_fallbacks").value
        assert resolve_kernel("numba") == "fused"
        assert metrics().counter("solver.kernel_fallbacks").value == before + 1

    def test_numba_request_with_numba_sticks(self, monkeypatch):
        monkeypatch.setattr(kernels_module, "_NUMBA_AVAILABLE", True)
        assert resolve_kernel("numba") == "numba"

    def test_numba_available_matches_import_reality(self):
        try:
            import numba  # noqa: F401

            expected = True
        except Exception:  # noqa: BLE001 — import failure means "no"
            expected = False
        assert numba_available() is expected


class TestResolveTransientBackend:
    def test_default_is_uniformization(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRANSIENT_BACKEND", raising=False)
        assert resolve_transient_backend() == "uniformization"

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRANSIENT_BACKEND", "uniformization")
        assert resolve_transient_backend("expm") == "expm"

    def test_env_selects_expm(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRANSIENT_BACKEND", "expm")
        assert resolve_transient_backend() == "expm"

    def test_unknown_explicit_raises(self):
        with pytest.raises(SolverError, match="pade"):
            resolve_transient_backend("pade")

    def test_unknown_env_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRANSIENT_BACKEND", "pade")
        assert resolve_transient_backend() == "uniformization"


# ---------------------------------------------------------------------------
# Fallback paths must produce fused bits (deterministic on any host)
# ---------------------------------------------------------------------------

class TestNumbaFallback:
    def test_solve_dag_batch_falls_back_bitwise(self, monkeypatch):
        monkeypatch.setattr(kernels_module, "_NUMBA_AVAILABLE", False)
        shared, values, numer, boundary = _dag_problem()
        fused = solve_dag_batch(shared, values, numer, boundary, kernel="fused")
        degraded = solve_dag_batch(shared, values, numer, boundary, kernel="numba")
        assert np.array_equal(fused, degraded)

    def test_transient_falls_back_bitwise(self, monkeypatch):
        monkeypatch.setattr(kernels_module, "_NUMBA_AVAILABLE", False)
        chain = _random_cyclic_chain(np.random.default_rng(5))
        R = chain.rates
        values = np.stack([R.data, R.data * 0.5])
        fused = transient_distribution_batch(
            R.indptr, R.indices, values, TIMES, 0, kernel="fused"
        )
        degraded = transient_distribution_batch(
            R.indptr, R.indices, values, TIMES, 0, kernel="numba"
        )
        assert np.array_equal(fused, degraded)

    def test_jit_failure_degrades_counted(self, monkeypatch):
        # numba "available" but compilation explodes: the solver must
        # absorb the failure before the span opens and run fused bits.
        import repro.ctmc._numba_kernels as nk

        def _boom():
            raise RuntimeError("synthetic jit failure")

        monkeypatch.setattr(kernels_module, "_NUMBA_AVAILABLE", True)
        monkeypatch.setattr(nk, "ensure_compiled", _boom)
        shared, values, numer, boundary = _dag_problem(seed=13)
        before = metrics().counter("solver.kernel_jit_failures").value
        degraded = solve_dag_batch(shared, values, numer, boundary, kernel="numba")
        assert metrics().counter("solver.kernel_jit_failures").value == before + 1
        fused = solve_dag_batch(shared, values, numer, boundary, kernel="fused")
        assert np.array_equal(fused, degraded)

    def test_jit_failure_degrades_transient(self, monkeypatch):
        import repro.ctmc._numba_kernels as nk

        def _boom():
            raise RuntimeError("synthetic jit failure")

        monkeypatch.setattr(kernels_module, "_NUMBA_AVAILABLE", True)
        monkeypatch.setattr(nk, "ensure_compiled", _boom)
        chain = _random_cyclic_chain(np.random.default_rng(17))
        R = chain.rates
        values = R.data[None, :]
        before = metrics().counter("solver.kernel_jit_failures").value
        degraded = transient_distribution_batch(
            R.indptr, R.indices, values, TIMES, 0, kernel="numba"
        )
        assert metrics().counter("solver.kernel_jit_failures").value == before + 1
        fused = transient_distribution_batch(
            R.indptr, R.indices, values, TIMES, 0, kernel="fused"
        )
        assert np.array_equal(fused, degraded)


# ---------------------------------------------------------------------------
# Strict bit-identity with numba installed (CI tests-numba leg)
# ---------------------------------------------------------------------------

@pytest.mark.skipif(not numba_available(), reason="numba not installed")
class TestNumbaBitIdentity:
    @pytest.mark.parametrize("grid", ["fig2", "fig4"])
    def test_dag_sweep_bit_identical_on_paper_grids(self, grid):
        scenarios = _fig2_scenarios() if grid == "fig2" else _fig4_scenarios()
        structure, values = _lattice_fills(scenarios)
        n = structure.num_states
        numer = np.ones((len(scenarios), n, 1))
        boundary = np.zeros((n, 1))
        boundary[structure.c1_state, 0] = 1.0
        fused = solve_dag_batch(
            structure.dag, values, numer, boundary, kernel="fused"
        )
        jitted = solve_dag_batch(
            structure.dag, values, numer, boundary, kernel="numba"
        )
        assert np.array_equal(fused, jitted)

    def test_dag_sweep_matches_per_point_solve_dag(self):
        shared, values, numer, boundary = _dag_problem(seed=23)
        R_indptr, R_indices = shared.indptr, shared.indices
        x = solve_dag_batch(shared, values, numer, boundary, kernel="numba")
        for p in range(values.shape[0]):
            chain_p = CTMC(
                sp.csr_matrix(
                    (values[p], R_indices.copy(), R_indptr.copy()),
                    shape=(numer.shape[1], numer.shape[1]),
                )
            )
            x_p = solve_dag(
                chain_p, topological_levels(chain_p), numer[p], boundary
            )
            assert np.array_equal(x[p], x_p), f"point {p} diverged"

    def test_transient_matvec_bit_identical_on_paper_grid(self):
        structure, values = _lattice_fills(_fig2_scenarios(tids=(15.0, 240.0)))
        fused = transient_distribution_batch(
            structure.indptr,
            structure.indices,
            values,
            TIMES,
            structure.initial_state,
            kernel="fused",
        )
        jitted = transient_distribution_batch(
            structure.indptr,
            structure.indices,
            values,
            TIMES,
            structure.initial_state,
            kernel="numba",
        )
        assert np.array_equal(fused, jitted)

    def test_evaluate_batch_identical_under_env(self, monkeypatch):
        scenarios = _fig2_scenarios()[:6]
        monkeypatch.setenv("REPRO_KERNEL", "fused")
        fused = evaluate_batch(scenarios, include_variance=True)
        monkeypatch.setenv("REPRO_KERNEL", "numba")
        jitted = evaluate_batch(scenarios, include_variance=True)
        for a, b in zip(fused, jitted):
            assert a.mttsf_s == b.mttsf_s
            assert a.mttsf_std_s == b.mttsf_std_s
            assert a.ctotal_hop_bits_s == b.ctotal_hop_bits_s
            assert dict(a.failure_probabilities) == dict(b.failure_probabilities)


# ---------------------------------------------------------------------------
# expm transient backend: pinned-tolerance equivalence
# ---------------------------------------------------------------------------

class TestExpmBackend:
    def test_matches_uniformization_on_cyclic_chain(self):
        chain = _random_cyclic_chain(np.random.default_rng(7))
        R = chain.rates
        rng = np.random.default_rng(8)
        values = np.stack([R.data * s for s in rng.uniform(0.3, 3.0, size=4)])
        uni = transient_distribution_batch(
            R.indptr, R.indices, values, TIMES, 0, backend="uniformization"
        )
        expm = transient_distribution_batch(
            R.indptr, R.indices, values, TIMES, 0, backend="expm"
        )
        np.testing.assert_allclose(
            expm, uni, rtol=EXPM_EQUIVALENCE_RTOL, atol=EXPM_ATOL
        )

    def test_matches_uniformization_on_paper_grid(self):
        structure, values = _lattice_fills(_fig2_scenarios(tids=(15.0, 240.0)))
        uni = transient_distribution_batch(
            structure.indptr,
            structure.indices,
            values,
            TIMES,
            structure.initial_state,
            backend="uniformization",
        )
        expm = transient_distribution_batch(
            structure.indptr,
            structure.indices,
            values,
            TIMES,
            structure.initial_state,
            backend="expm",
        )
        np.testing.assert_allclose(
            expm, uni, rtol=EXPM_EQUIVALENCE_RTOL, atol=EXPM_ATOL
        )

    def test_unsorted_times_and_time_zero(self):
        chain = CTMC.from_transitions(3, [(0, 1, 1.0), (1, 2, 1.0)])
        R = chain.rates
        values = R.data[None, :]
        times = [2.0, 0.0, 0.5]  # deliberately unsorted, includes t=0
        expm = transient_distribution_batch(
            R.indptr, R.indices, values, times, 0, backend="expm"
        )
        uni = transient_distribution_batch(
            R.indptr, R.indices, values, times, 0, backend="uniformization"
        )
        np.testing.assert_allclose(
            expm, uni, rtol=EXPM_EQUIVALENCE_RTOL, atol=EXPM_ATOL
        )
        np.testing.assert_allclose(expm[0, 1], [1.0, 0.0, 0.0])

    def test_scalar_time_shape(self):
        chain = CTMC.from_transitions(3, [(2, 1, 1.0), (1, 0, 0.5)])
        R = chain.rates
        dist = transient_distribution_batch(
            R.indptr, R.indices, R.data[None, :], 0.7, 2, backend="expm"
        )
        assert dist.shape == (1, 3)
        ref = transient_distribution_batch(
            R.indptr, R.indices, R.data[None, :], 0.7, 2
        )
        np.testing.assert_allclose(
            dist, ref, rtol=EXPM_EQUIVALENCE_RTOL, atol=EXPM_ATOL
        )

    def test_env_selection(self, monkeypatch):
        chain = _random_cyclic_chain(np.random.default_rng(9), n=10)
        R = chain.rates
        values = R.data[None, :]
        monkeypatch.setenv("REPRO_TRANSIENT_BACKEND", "expm")
        via_env = transient_distribution_batch(
            R.indptr, R.indices, values, TIMES, 0
        )
        monkeypatch.delenv("REPRO_TRANSIENT_BACKEND")
        explicit = transient_distribution_batch(
            R.indptr, R.indices, values, TIMES, 0, backend="expm"
        )
        assert np.array_equal(via_env, explicit)

    def test_rows_are_distributions(self):
        chain = _random_cyclic_chain(np.random.default_rng(10), n=12)
        R = chain.rates
        values = R.data[None, :]
        dist = transient_distribution_batch(
            R.indptr, R.indices, values, TIMES, 0, backend="expm"
        )
        assert np.all(dist >= 0.0)
        np.testing.assert_allclose(dist.sum(axis=-1), 1.0, atol=1e-9)

    def test_absorption_cdf_backend_passthrough(self):
        from repro.ctmc import absorption_cdf_batch

        rng = np.random.default_rng(3)
        chain = _random_dag_chain(rng, n=16, density=0.3)
        R = chain.rates
        values = np.stack([R.data * s for s in (1.0, 0.4)])
        initial = chain.num_states - 1
        uni = absorption_cdf_batch(R.indptr, R.indices, values, TIMES, initial)
        expm = absorption_cdf_batch(
            R.indptr, R.indices, values, TIMES, initial, backend="expm"
        )
        np.testing.assert_allclose(
            expm["any"], uni["any"], rtol=EXPM_EQUIVALENCE_RTOL, atol=EXPM_ATOL
        )


# ---------------------------------------------------------------------------
# Manifest echo
# ---------------------------------------------------------------------------

class TestManifestKernelFlags:
    def test_kernel_flags_echo_env(self, monkeypatch):
        from repro.obs.manifest import kernel_flags

        monkeypatch.setenv("REPRO_KERNEL", "fused")
        monkeypatch.setenv("REPRO_TRANSIENT_BACKEND", "expm")
        flags = kernel_flags()
        assert flags["kernel"] == "fused"
        assert flags["transient_backend"] == "expm"
        assert flags["env"]["REPRO_KERNEL"] == "fused"
        assert flags["env"]["REPRO_TRANSIENT_BACKEND"] == "expm"

    def test_numba_request_reflects_availability(self, monkeypatch):
        from repro.obs.manifest import kernel_flags

        monkeypatch.setenv("REPRO_KERNEL", "numba")
        expected = "numba" if numba_available() else "fused"
        assert kernel_flags()["kernel"] == expected

    @pytest.mark.parametrize("env", [None, "fused", "numba", "numpy", "junk"])
    def test_manifest_resolver_matches_resolve_kernel(self, monkeypatch, env):
        """The manifest's import-light copy of the resolver cannot drift."""
        from repro.obs.manifest import kernel_flags

        if env is None:
            monkeypatch.delenv("REPRO_KERNEL", raising=False)
        else:
            monkeypatch.setenv("REPRO_KERNEL", env)
        assert kernel_flags()["kernel"] == resolve_kernel()


# ---------------------------------------------------------------------------
# Property: the numba request never changes the answer
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_numba_request_matches_fused(seed):
    """With or without numba installed, kernel='numba' returns fused bits."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 30))
    chain = _random_dag_chain(rng, n=n, density=0.3)
    R = chain.rates
    if R.nnz == 0:
        return
    shared = batch_dag_structure(R.indptr, R.indices)
    P, k = 3, 2
    values = np.stack([R.data * s for s in rng.uniform(0.5, 2.0, size=P)])
    numer = rng.uniform(0.0, 1.0, size=(P, n, k))
    boundary = np.zeros((n, k))
    boundary[chain.absorbing_states, 0] = 1.0
    fused = solve_dag_batch(shared, values, numer, boundary, kernel="fused")
    jitted = solve_dag_batch(shared, values, numer, boundary, kernel="numba")
    assert np.array_equal(fused, jitted)
