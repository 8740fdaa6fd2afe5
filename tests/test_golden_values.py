"""Golden-value regression pins for the paper-figure operating points.

``tests/golden/paper_points.json`` stores exact expectations for
representative fig2–fig5 grid points (quick ``N = 40``) plus one
survivability curve. Solver refactors — batched sweeps, fused kernels,
structure-cache changes — must reproduce these to ``rtol = 1e-9``; a
legitimate *model semantics* change must regenerate the file
deliberately (see its ``description`` field) and bump
``repro.engine.keys.SCHEMA_VERSION`` so cached results invalidate with
it. This is the tripwire that keeps future optimisation PRs from
silently drifting the reproduction.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.metrics import (
    evaluate,
    evaluate_batch,
    evaluate_survivability,
    evaluate_survivability_batch,
)
from repro.params import GCSParameters

from lattice_reference import reference_evaluate

GOLDEN_PATH = Path(__file__).parent / "golden" / "paper_points.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())
RTOL = float(GOLDEN["rtol"])


def _params(overrides: dict) -> GCSParameters:
    return GCSParameters.paper_defaults(**overrides)


def _values(result) -> dict:
    """``to_dict()`` minus the fields allowed to differ between paths."""
    record = result.to_dict()
    for key in ("solver", "build_seconds", "solve_seconds"):
        del record[key]
    return record


@pytest.mark.parametrize(
    "point", GOLDEN["points"], ids=[p["id"] for p in GOLDEN["points"]]
)
def test_paper_operating_point(point):
    params = _params(point["overrides"])
    result = reference_evaluate(params)
    # evaluate() (the batched pipeline with one point) must be exactly
    # the independent per-point reference, so both meet the pins.
    assert _values(evaluate(params)) == _values(result)
    expected = point["expected"]
    assert result.mttsf_s == pytest.approx(expected["mttsf_s"], rel=RTOL)
    assert result.ctotal_hop_bits_s == pytest.approx(
        expected["ctotal_hop_bits_s"], rel=RTOL
    )
    assert result.channel_utilization == pytest.approx(
        expected["channel_utilization"], rel=RTOL
    )
    for name, prob in expected["failure_probabilities"].items():
        assert result.failure_probabilities[name] == pytest.approx(
            prob, rel=RTOL, abs=1e-12
        )


def test_batched_solver_hits_the_same_pins():
    """The batched path must satisfy the same golden pins (it is
    bit-identical to the per-point reference, so this can only fail if
    both drift together — exactly the regression this file exists
    for)."""
    scenarios = [_params(p["overrides"]) for p in GOLDEN["points"]]
    for point, result in zip(GOLDEN["points"], evaluate_batch(scenarios)):
        assert result.mttsf_s == pytest.approx(
            point["expected"]["mttsf_s"], rel=RTOL
        )
        assert result.ctotal_hop_bits_s == pytest.approx(
            point["expected"]["ctotal_hop_bits_s"], rel=RTOL
        )


@pytest.mark.parametrize(
    "curve",
    GOLDEN["survivability"],
    ids=[c["id"] for c in GOLDEN["survivability"]],
)
def test_survivability_curve_pin(curve):
    params = _params(
        {"num_nodes": curve["overrides"]["num_nodes"]}
    ).replacing(
        **{k: v for k, v in curve["overrides"].items() if k != "num_nodes"}
    )
    times = tuple(curve["times_s"])
    expected = curve["expected"]

    point = evaluate_survivability(params, times=times)
    np.testing.assert_allclose(point.survival, expected["survival"], rtol=RTOL)
    np.testing.assert_allclose(
        point.failure_cdf["any"], expected["failure_cdf_any"], rtol=RTOL
    )
    np.testing.assert_allclose(
        point.time_bounded_cost, expected["time_bounded_cost"], rtol=RTOL
    )

    (batched,) = evaluate_survivability_batch([params], times=times)
    np.testing.assert_allclose(
        batched.survival, expected["survival"], rtol=RTOL
    )


def test_golden_file_shape():
    """The file itself is part of the contract — catch accidental edits."""
    assert RTOL <= 1e-8
    assert len(GOLDEN["points"]) >= 5
    ids = [p["id"] for p in GOLDEN["points"]]
    assert len(set(ids)) == len(ids)
    for point in GOLDEN["points"]:
        assert point["expected"]["mttsf_s"] > 0
        probs = point["expected"]["failure_probabilities"]
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-6)
