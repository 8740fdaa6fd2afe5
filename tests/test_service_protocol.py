"""Protocol-layer tests: wire round-trips and malformed-payload handling.

Everything here runs without a socket — the payload dataclasses in
:mod:`repro.service.protocol` must round-trip through plain JSON and
reject junk with :class:`ProtocolError` (which the HTTP layer maps onto
4xx; see ``test_service.py`` for the socket-level assertions).
"""

import json

import pytest

from repro.engine.batch import (
    EvalRequest,
    SurvivabilityRequest,
    network_from_dict,
    network_to_dict,
    request_from_dict,
    request_to_dict,
)
from repro.core.metrics import resolve_network
from repro.errors import ParameterError, ReproError
from repro.params import GCSParameters, NetworkParameters
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ChunkReport,
    FetchResponse,
    JobStatus,
    ProtocolError,
    SubmitRequest,
    SubmitResponse,
    job_id_for,
    outcome_entry_to_dict,
)


def _requests():
    return (
        EvalRequest(params=GCSParameters.small_test()),
        EvalRequest(params=GCSParameters.small_test(), include_variance=True),
        SurvivabilityRequest(
            params=GCSParameters.small_test(), times_s=(10.0, 100.0)
        ),
    )


def _json_round_trip(payload: dict) -> dict:
    return json.loads(json.dumps(payload))


class TestRequestWireFormat:
    def test_eval_request_round_trip(self):
        request = EvalRequest(
            params=GCSParameters.small_test(),
            method="spn",
            include_breakdown=True,
        )
        rebuilt = request_from_dict(_json_round_trip(request_to_dict(request)))
        assert rebuilt == request
        assert rebuilt.fingerprint() == request.fingerprint()

    def test_survivability_request_round_trip(self):
        request = SurvivabilityRequest(
            params=GCSParameters.small_test(),
            times_s=(5.0, 50.0, 500.0),
            eps=1e-10,
        )
        rebuilt = request_from_dict(_json_round_trip(request_to_dict(request)))
        assert rebuilt == request
        assert rebuilt.fingerprint() == request.fingerprint()

    def test_explicit_network_round_trips(self):
        from repro.manet.network import NetworkModel

        params = GCSParameters.small_test()
        network = NetworkModel.analytic(
            NetworkParameters(radius_m=2000.0, wireless_range_m=400.0)
        )
        request = EvalRequest(params=params, network=network)
        rebuilt = request_from_dict(_json_round_trip(request_to_dict(request)))
        assert rebuilt.network == network
        assert rebuilt.fingerprint() == request.fingerprint()

    def test_default_network_collapses_to_none_on_wire(self):
        # An explicit NetworkModel equal to the params-derived default is
        # canonicalised away (exactly like the cache fingerprint does),
        # keeping payloads small and fingerprints stable.
        params = GCSParameters.small_test()
        request = EvalRequest(params=params, network=resolve_network(params, None))
        record = request_to_dict(request)
        assert record["network"] is None
        assert request_from_dict(record).fingerprint() == request.fingerprint()

    def test_network_dict_none_passthrough(self):
        assert network_to_dict(None) is None
        assert network_from_dict(None) is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            request_from_dict({"kind": "mystery", "params": {}})

    def test_malformed_params_rejected(self):
        with pytest.raises(ParameterError):
            request_from_dict({"kind": "eval", "params": {"num_nodes": "many"}})


class TestJobId:
    def test_order_independent(self):
        requests = _requests()
        assert job_id_for(requests) == job_id_for(tuple(reversed(requests)))

    def test_content_sensitive(self):
        a, b, c = _requests()
        assert job_id_for((a, b)) != job_id_for((a, c))

    def test_survives_wire_round_trip(self):
        requests = _requests()
        rebuilt = tuple(
            request_from_dict(_json_round_trip(request_to_dict(r)))
            for r in requests
        )
        assert job_id_for(rebuilt) == job_id_for(requests)


class TestSubmitPayloads:
    def test_submit_round_trip(self):
        submit = SubmitRequest(requests=_requests(), name="trip")
        rebuilt = SubmitRequest.from_dict(_json_round_trip(submit.to_dict()))
        assert rebuilt.name == "trip"
        assert rebuilt.requests == submit.requests
        assert rebuilt.job_id == submit.job_id

    def test_empty_campaign_rejected(self):
        with pytest.raises(ProtocolError):
            SubmitRequest(requests=())

    def test_non_request_items_rejected(self):
        with pytest.raises(ProtocolError):
            SubmitRequest(requests=("not-a-request",))

    @pytest.mark.parametrize(
        "body",
        [
            "a string",
            {"name": "x"},  # missing requests
            {"requests": "nope"},
            {"requests": [{"kind": "mystery"}]},
            {"requests": [], "name": "empty"},
            {"requests": [{"kind": "eval", "params": {"num_nodes": -3}}]},
            {"requests": [{"kind": "eval"}]},  # missing params
            {"protocol_version": 999, "requests": []},
            {"requests": [{"kind": "eval", "params": {}}], "name": ""},
        ],
    )
    def test_malformed_submit_raises_protocol_error(self, body):
        with pytest.raises(ProtocolError):
            SubmitRequest.from_dict(body)

    def test_protocol_error_is_repro_error_with_400(self):
        with pytest.raises(ReproError) as excinfo:
            SubmitRequest.from_dict({"requests": "nope"})
        assert excinfo.value.status == 400

    def test_submit_response_round_trip(self):
        response = SubmitResponse(
            job_id="abc", total=7, state="queued", resubmitted=True
        )
        rebuilt = SubmitResponse.from_dict(_json_round_trip(response.to_dict()))
        assert rebuilt == response

    def test_submit_response_missing_fields(self):
        with pytest.raises(ProtocolError):
            SubmitResponse.from_dict({"job_id": "abc"})


class TestStatusAndFetchPayloads:
    def test_job_status_round_trip(self):
        status = JobStatus(
            job_id="abc",
            name="fig2",
            state="running",
            total=40,
            done=12,
            cache_hits=5,
            evaluated=7,
            errors=0,
            created_at="2026-01-01T00:00:00+0000",
            elapsed_seconds=1.5,
            metrics_delta={"engine.requests": {"kind": "counter", "value": 12}},
        )
        rebuilt = JobStatus.from_dict(_json_round_trip(status.to_dict()))
        assert rebuilt == status

    def test_job_status_version_tagged(self):
        payload = JobStatus(
            job_id="x", name="campaign", state="done", total=1
        ).to_dict()
        assert payload["protocol_version"] == PROTOCOL_VERSION

    def test_fetch_round_trip(self):
        fetch = FetchResponse(
            job_id="abc",
            state="done",
            entries=(
                outcome_entry_to_dict(0, "cache", result={"mttsf_s": 1.0}),
                outcome_entry_to_dict(
                    1, "error", error={"error_type": "SolverError", "error": "x"}
                ),
            ),
            next_offset=2,
            complete=True,
            telemetry={"metrics": {}, "spans": []},
        )
        rebuilt = FetchResponse.from_dict(_json_round_trip(fetch.to_dict()))
        assert rebuilt == fetch

    def test_fetch_entries_must_be_list(self):
        with pytest.raises(ProtocolError):
            FetchResponse.from_dict(
                {"job_id": "x", "state": "done", "entries": "nope"}
            )

    def test_outcome_entry_shape(self):
        entry = outcome_entry_to_dict(3, "evaluated", result={"a": 1})
        assert entry == {"index": 3, "source": "evaluated", "result": {"a": 1}}
        bare = outcome_entry_to_dict(0, "cache")
        assert "result" not in bare and "error" not in bare


class TestChunkReportTelemetry:
    @pytest.mark.parametrize(
        "telemetry", [None, {}, {"metrics": {}, "spans": []}]
    )
    def test_well_formed_telemetry_accepted(self, telemetry):
        report = ChunkReport.from_dict(
            {"chunk_id": "c", "telemetry": telemetry}
        )
        assert report.telemetry == telemetry

    @pytest.mark.parametrize(
        "telemetry",
        ["junk", [1], {"metrics": "junk"}, {"spans": {"a": 1}}, {"spans": "x"}],
    )
    def test_malformed_telemetry_raises_protocol_error(self, telemetry):
        with pytest.raises(ProtocolError):
            ChunkReport.from_dict({"chunk_id": "c", "telemetry": telemetry})
