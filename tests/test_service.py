"""End-to-end sweep-service tests: in-process server, remote backend.

The correctness bar for the service tier (see ISSUE 7 / ROADMAP item 1):

* a campaign run via ``--jobs remote`` is **byte-identical** to
  ``--jobs serial`` — exactly equal on a warm shared cache, equal
  modulo wall-clock timing fields on a cold one;
* resubmitting a finished campaign — including to a *restarted* server
  sharing the same cache directory — is 100% cache hits;
* ``/health`` and per-job progress are rendered from the merged obs
  metrics registry;
* malformed requests are 4xx JSON errors, never tracebacks.

Every server here is booted in-process on an ephemeral port.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.engine.batch import BatchRunner, EvalRequest, evaluate_auto
from repro.engine.cache import ResultCache
from repro.engine.executor import SerialBackend, make_backend
from repro.obs import metrics, reset_observability
from repro.params import GCSParameters
from repro.service import (
    RemoteBackend,
    ServiceClient,
    ServiceError,
    ServiceServer,
    SweepService,
)

# Wall-clock fields measured where the result was computed; everything
# else must match bit-for-bit between local and remote evaluation.
TIMING_FIELDS = ("build_seconds", "solve_seconds")


@pytest.fixture(autouse=True)
def _fresh_obs():
    reset_observability()
    yield
    reset_observability()


@pytest.fixture()
def server(tmp_path):
    service = SweepService(
        cache=ResultCache(cache_dir=str(tmp_path / "server-cache")),
        backend=SerialBackend(),
        manifest_dir=str(tmp_path / "manifests"),
    )
    srv = ServiceServer(service, port=0)
    srv.start_in_background()
    yield srv
    srv.stop()


def _requests(count=3):
    scenarios = [
        GCSParameters.small_test(),
        GCSParameters.small_test().replacing(num_voters=3),
        GCSParameters.small_test().replacing(detection_interval_s=120.0),
    ]
    return [EvalRequest(params=p) for p in scenarios[:count]]


def _strip_timings(record: dict) -> dict:
    return {k: v for k, v in record.items() if k not in TIMING_FIELDS}


def _http(url, payload=None, method=None):
    """Raw HTTP helper returning (status, parsed JSON body)."""
    data = None
    headers = {}
    if payload is not None:
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(url, data=data, headers=headers, method=method)
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestRemoteVsSerial:
    def test_cold_cache_identical_modulo_wall_clock(self, server, tmp_path):
        requests = _requests()
        remote = BatchRunner(
            cache=ResultCache(cache_dir=str(tmp_path / "client-cache")),
            backend=RemoteBackend(server.url),
        ).run(requests, evaluate=evaluate_auto)
        remote.report.raise_on_error()
        serial = BatchRunner(
            cache=ResultCache(cache_dir=str(tmp_path / "serial-cache")),
            backend=SerialBackend(),
        ).run(requests, evaluate=evaluate_auto)
        serial.report.raise_on_error()
        for ours, theirs in zip(remote.results, serial.results):
            assert _strip_timings(ours.to_dict()) == _strip_timings(
                theirs.to_dict()
            )

    def test_warm_shared_cache_byte_identical(self, server, tmp_path):
        requests = _requests()
        remote = BatchRunner(backend=RemoteBackend(server.url)).run(
            requests, evaluate=evaluate_auto
        )
        remote.report.raise_on_error()
        # Serial run over the *server's* cache directory: every point is
        # a disk hit, so the JSON bytes must match exactly — timing
        # fields included (they were measured once, server-side).
        with_server_cache = BatchRunner(
            cache=ResultCache(
                cache_dir=server.service.runner.cache.cache_dir
            ),
            backend=SerialBackend(),
        ).run(requests, evaluate=evaluate_auto)
        assert with_server_cache.report.n_cache_hits == len(requests)
        for ours, theirs in zip(remote.results, with_server_cache.results):
            assert json.dumps(ours.to_dict(), sort_keys=True) == json.dumps(
                theirs.to_dict(), sort_keys=True
            )

    def test_streams_outcomes_in_completion_order(self, server):
        requests = _requests()
        seen = []
        backend = RemoteBackend(server.url)
        outcomes = backend.run(
            evaluate_auto, requests, on_outcome=lambda o: seen.append(o.index)
        )
        assert sorted(seen) == list(range(len(requests)))
        assert [o.index for o in outcomes] == list(range(len(requests)))
        assert all(o.ok for o in outcomes)

    def test_error_points_propagate_with_traceback(self, server):
        good = EvalRequest(params=GCSParameters.small_test())
        bad = EvalRequest(
            params=GCSParameters.small_test(), method="no-such-method"
        )
        batch = BatchRunner(backend=RemoteBackend(server.url)).run(
            [good, bad], evaluate=evaluate_auto
        )
        assert batch.results[0] is not None
        assert batch.results[1] is None
        (error,) = batch.report.errors
        assert error.error_type == "ParameterError"
        assert error.traceback  # server-side traceback rides the wire

    def test_fallback_for_non_wire_batches(self, server):
        # Arbitrary callables can't cross the wire; the backend must
        # quietly run them on its local fallback instead.
        backend = RemoteBackend(server.url)
        outcomes = backend.run(lambda x: x * 2, [1, 2, 3])
        assert [o.value for o in outcomes] == [2, 4, 6]


class TestIdempotencyAndRecovery:
    def test_resubmit_same_server_reuses_job(self, server):
        client = ServiceClient(server.url)
        requests = _requests()
        first = client.submit(requests, name="once")
        assert not first.resubmitted
        # Wait for completion through the remote backend's machinery.
        RemoteBackend(server.url).run(evaluate_auto, requests)
        again = client.submit(requests, name="twice")
        assert again.resubmitted
        assert again.job_id == first.job_id

    def test_restarted_server_serves_from_shared_cache(self, server, tmp_path):
        requests = _requests()
        RemoteBackend(server.url).run(evaluate_auto, requests)
        cache_dir = server.service.runner.cache.cache_dir
        server.stop()

        # "Restart": a fresh service over the same cache directory.
        service = SweepService(
            cache=ResultCache(cache_dir=cache_dir), backend=SerialBackend()
        )
        restarted = ServiceServer(service, port=0)
        url = restarted.start_in_background()
        try:
            outcomes = RemoteBackend(url).run(evaluate_auto, requests)
            assert all(o.ok for o in outcomes)
            client = ServiceClient(url)
            (job,) = client.jobs()
            assert job.state == "done"
            assert job.cache_hits == len(requests)
            assert job.evaluated == 0
            assert job.report["hit_rate"] == 1.0
        finally:
            restarted.stop()

    def test_manifest_artifact_is_valid(self, server, tmp_path):
        requests = _requests()
        RemoteBackend(server.url).run(evaluate_auto, requests)
        client = ServiceClient(server.url)
        (job,) = client.jobs()
        assert job.manifest_path is not None
        manifest = json.loads(open(job.manifest_path).read())
        assert manifest["schema_version"] == 1
        assert manifest["params_digest"] == job.job_id
        assert manifest["backend"] == "serial"
        (report,) = manifest["reports"]
        assert report["n_requested"] == len(requests)
        assert manifest["cache_stats"]["stores"] >= len(requests)


class TestObservabilitySurface:
    def test_health_renders_merged_metrics(self, server):
        client = ServiceClient(server.url)
        before = client.health()
        assert before["status"] == "ok"
        assert before["jobs"]["total"] == 0
        RemoteBackend(server.url).run(evaluate_auto, _requests())
        after = client.health()
        assert after["jobs"]["done"] == 1
        counters = after["metrics"]
        assert counters["engine.requests"]["value"] >= 3
        assert counters["engine.evaluated"]["value"] >= 3
        assert after["cache"]["stores"] >= 3
        assert after["backend"] == "serial"

    def test_job_status_carries_metrics_delta_and_report(self, server):
        requests = _requests()
        RemoteBackend(server.url).run(evaluate_auto, requests)
        client = ServiceClient(server.url)
        (job,) = client.jobs()
        status = client.poll(job.job_id)
        assert status.state == "done"
        assert status.done == len(requests)
        assert status.report["n_evaluated"] == len(requests)
        assert status.metrics_delta["engine.requests"]["value"] == len(requests)
        assert status.elapsed_seconds > 0

    def test_client_absorbs_server_telemetry(self, server):
        # The fetch telemetry payload folds server-side counters into
        # the *client's* registry — same channel as pool workers.
        RemoteBackend(server.url).run(evaluate_auto, _requests())
        snapshot = metrics().snapshot()
        assert snapshot["engine.requests"]["value"] >= 3


class TestHttpFailureModes:
    def test_bad_json_is_400(self, server):
        status, body = _http(
            server.url + "/api/v1/campaigns", payload=b"{not json", method="POST"
        )
        assert status == 400
        assert "error" in body and "Traceback" not in body["error"]

    def test_malformed_submit_is_400(self, server):
        status, body = _http(
            server.url + "/api/v1/campaigns",
            payload={"requests": "nope"},
            method="POST",
        )
        assert status == 400
        assert "error" in body

    def test_bad_request_record_is_400(self, server):
        status, body = _http(
            server.url + "/api/v1/campaigns",
            payload={"requests": [{"kind": "eval", "params": {"num_nodes": -1}}]},
            method="POST",
        )
        assert status == 400
        assert "error" in body

    def test_unknown_job_is_404(self, server):
        status, body = _http(server.url + "/api/v1/jobs/deadbeef")
        assert status == 404
        status, _ = _http(server.url + "/api/v1/jobs/deadbeef/results")
        assert status == 404

    def test_unknown_route_is_404(self, server):
        status, _ = _http(server.url + "/api/v1/nonsense")
        assert status == 404

    def test_wrong_method_is_405(self, server):
        status, _ = _http(server.url + "/health", payload={}, method="POST")
        assert status == 405

    def test_bad_offset_is_400(self, server):
        client = ServiceClient(server.url)
        submitted = client.submit(_requests())
        RemoteBackend(server.url).run(evaluate_auto, _requests())
        status, _ = _http(
            server.url + f"/api/v1/jobs/{submitted.job_id}/results?offset=nope"
        )
        assert status == 400
        status, _ = _http(
            server.url + f"/api/v1/jobs/{submitted.job_id}/results?offset=9999"
        )
        assert status == 400

    def test_client_raises_service_error_with_server_message(self, server):
        client = ServiceClient(server.url)
        with pytest.raises(ServiceError) as excinfo:
            client.poll("deadbeef")
        assert excinfo.value.status == 404
        assert "unknown job" in str(excinfo.value)

    def test_unreachable_server_is_service_error(self):
        client = ServiceClient("http://127.0.0.1:1", timeout=2)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.health()


class TestBackendRegistration:
    def test_make_backend_remote_spec_preserves_url_case(self):
        backend = make_backend("remote:http://Example.Test:9999")
        assert backend.describe() == "remote:http://Example.Test:9999"

    def test_make_backend_remote_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_URL", "http://10.0.0.7:4321")
        backend = make_backend("remote")
        assert backend.describe() == "remote:http://10.0.0.7:4321"

    def test_make_backend_remote_fallback_is_vector(self):
        backend = make_backend("remote:http://127.0.0.1:1")
        assert backend.fallback.describe() == "vector"

    def test_cli_serve_rejects_remote_jobs(self, capsys):
        from repro.cli import main

        code = main(["serve", "--port", "0", "--jobs", "remote"])
        assert code == 2
        assert "cannot evaluate through --jobs remote" in capsys.readouterr().err

    def test_cli_parser_has_serve(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--manifest-dir", "m"]
        )
        assert args.command == "serve"
        assert args.manifest_dir == "m"
