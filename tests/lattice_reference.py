"""Independent per-point lattice reference for the differential tests.

``evaluate(method="fast")`` runs the batched lattice pipeline with one
point, so comparing it with ``evaluate_batch`` would compare that
pipeline with itself. :func:`reference_evaluate` solves the same model
the generic way instead: build the point's own CTMC
(:func:`~repro.core.fastpath.build_lattice_chain`), attach the cost
rewards (:meth:`~repro.costs.aggregate.GCSCostModel.cost_vector`), and
run :func:`~repro.ctmc.absorbing.analyze_absorbing` on it — scipy CSR
matvecs and a topological sweep per point, no shared structure, no
stacked rate arrays. The batched pipeline must match it bit for bit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.failure import FailureClass
from repro.core.fastpath import build_lattice_chain
from repro.core.metrics import GCSEvaluation, resolve_network
from repro.core.results import GCSResult
from repro.costs.aggregate import GCSCostModel
from repro.ctmc.absorbing import analyze_absorbing
from repro.manet.network import NetworkModel
from repro.params import GCSParameters


def reference_evaluate(
    params: GCSParameters,
    network: Optional[NetworkModel] = None,
    *,
    include_breakdown: bool = False,
    include_variance: bool = False,
) -> GCSResult:
    """One scenario through the generic absorbing analysis."""
    scenario = GCSEvaluation(params, resolve_network(params, network))
    lattice = build_lattice_chain(
        params, scenario.network, expected_groups=scenario.expected_groups
    )
    cost_model = GCSCostModel(
        params, scenario.network, ng_distribution=scenario.ng_distribution
    )
    costs = cost_model.cost_vector(
        lattice.t, lattice.u, lattice.d, per_component=include_breakdown
    )
    rewards: dict[str, np.ndarray] = {}
    if include_breakdown:
        total = np.zeros(lattice.num_states)
        for name, vec in costs.items():
            padded = np.append(vec, 0.0)  # C1 state accrues nothing
            rewards[f"cost_{name}"] = padded
            total += padded
        rewards["cost"] = total
    else:
        rewards["cost"] = np.append(costs, 0.0)

    solution = analyze_absorbing(
        lattice.chain,
        initial=lattice.initial_state,
        rewards=rewards,
        absorbing_classes=lattice.absorbing_classes(),
        second_moment=include_variance,
    )
    mttsf = solution.mtta
    ctotal = solution.expected_reward("cost") / mttsf
    breakdown = None
    if include_breakdown:
        breakdown = {
            name.removeprefix("cost_"): solution.expected_reward(name) / mttsf
            for name in rewards
            if name != "cost"
        }
        breakdown["total"] = ctotal
    return GCSResult(
        params=params,
        mttsf_s=mttsf,
        ctotal_hop_bits_s=ctotal,
        failure_probabilities={
            str(cls): solution.absorption_probability(name)
            for cls, name in (
                (FailureClass.C1_DATA_LEAK, "c1_data_leak"),
                (FailureClass.C2_BYZANTINE, "c2_byzantine"),
                (FailureClass.DEPLETION, "depletion"),
            )
        },
        channel_utilization=cost_model.channel_utilization(ctotal),
        num_states=lattice.num_states,
        solver=solution.method,
        build_seconds=0.0,
        solve_seconds=0.0,
        cost_breakdown=breakdown,
        mttsf_std_s=solution.mtta_std if include_variance else None,
    )
