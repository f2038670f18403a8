"""Tests for the simulation-as-a-service layer (``repro.serve``).

Coverage, per the v1 contract:

* schema-valid JSON out of every endpoint;
* the SSE stream: status frame, span frames, terminal done frame;
* registry semantics: a repeated submission is a *hit* -- ``cached:
  true``, zero simulation ticks, originating manifest path, and a
  fingerprint bit-identical to a direct ``api.run`` of the same config;
* concurrent submissions settle independently (no interleaved state);
* malformed requests come back as structured 4xx JSON, never a
  traceback;
* crash recovery: a manager restarted over the same data directory
  re-enqueues in-flight jobs and completes them.

Everything runs against a real server on an ephemeral port -- requests
go over actual sockets, not handler calls.
"""

import hashlib
import json
import socket
import time
import urllib.error
import urllib.request
from dataclasses import dataclass

import pytest

from repro import api
from repro.config import TraceConfig, paper_cluster_config
from repro.perf import clear_shared_cache
from repro.serve import Server
from repro.serve.jobs import JobManager
from repro.serve.registry import RunRegistry, registry_key

pytestmark = pytest.mark.serve

TINY = {"policy": "vmt-ta", "num_servers": 6, "duration_hours": 2.0,
        "seed": 11}


def tiny_config():
    config = paper_cluster_config(num_servers=6, grouping_value=22.0,
                                  seed=11)
    return config.replace(trace=TraceConfig(duration_hours=2.0))


@pytest.fixture()
def server(tmp_path):
    instance = Server(tmp_path / "state", port=0, max_workers=2).start()
    yield instance
    instance.stop()


def _get(server, path):
    with urllib.request.urlopen(server.base_url + path, timeout=30) as r:
        return r.status, json.loads(r.read())


def _post(server, path, payload):
    request = urllib.request.Request(
        server.base_url + path, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=30) as r:
        return r.status, json.loads(r.read())


def _await_job(server, job_id, timeout_s=120.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        _, job = _get(server, f"/v1/runs/{job_id}")
        if job["status"] in ("done", "failed"):
            return job
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not settle in {timeout_s}s")


def _submit_and_await(server, path, payload):
    status, body = _post(server, path, payload)
    assert status == 202
    job = _await_job(server, body["job"]["id"])
    assert job["status"] == "done", job["error"]
    return job


class TestEndpointSchemas:
    def test_index_and_healthz_and_meta(self, server):
        status, index = _get(server, "/")
        assert status == 200
        assert index["api_version"] == api.API_VERSION
        assert "POST /v1/runs" in index["endpoints"]

        _, health = _get(server, "/v1/healthz")
        assert health == {"status": "ok",
                          "api_version": api.API_VERSION}

        _, meta = _get(server, "/v1/meta")
        assert set(meta["policies"]) >= {"round-robin", "vmt-ta"}
        assert len(meta["scenarios"]) == 9
        assert meta["backends"] == ["reference", "fast"]

    def test_run_job_lifecycle_and_result_schema(self, server):
        status, body = _post(server, "/v1/runs", TINY)
        assert status == 202
        job = body["job"]
        assert job["schema"] == "repro.job/1"
        assert job["kind"] == "run"
        assert job["status"] in ("queued", "running")
        assert job["request"]["policy"] == "vmt-ta"

        done = _await_job(server, job["id"])
        assert done["cached"] is False
        assert done["sim_ticks_executed"] == 120  # 2 h of minute ticks
        assert done["fingerprint"]
        assert done["has_result"] is True

        _, result = _get(server, f"/v1/runs/{job['id']}/result")
        assert result["cached"] is False
        assert result["result"]["schema"] == "repro.result/1"
        assert result["result"]["fingerprint"] == done["fingerprint"]

        _, jobs = _get(server, "/v1/jobs")
        assert [j["id"] for j in jobs["jobs"]] == [job["id"]]

    def test_sweep_job_returns_sweep_schema(self, server):
        job = _submit_and_await(server, "/v1/sweeps", {
            "grouping_values": [20.0, 24.0], "policies": ["vmt-ta"],
            "num_servers": 6, "seed": 11})
        _, result = _get(server, f"/v1/runs/{job['id']}/result")
        payload = result["result"]
        assert payload["schema"] == "repro.sweep/1"
        assert payload["values"] == [20.0, 24.0]
        assert len(payload["reductions"]["vmt-ta"]) == 2

    def test_suite_job_returns_suite_schema(self, server):
        job = _submit_and_await(server, "/v1/suites", {
            "scenarios": ["heat-wave"],
            "policies": ["vmt-ta", "round-robin"], "num_servers": 8,
            "duration_hours": 6.0, "seed": 11})
        _, result = _get(server, f"/v1/runs/{job['id']}/result")
        payload = result["result"]
        assert payload["schema"] == "repro.suite/1"
        assert {row["policy"] for row in payload["leaderboard"]} == \
            {"vmt-ta", "round-robin"}

    def test_result_conflicts_while_pending(self, server):
        _, body = _post(server, "/v1/runs", TINY)
        job_id = body["job"]["id"]
        try:
            status, _ = _get(server, f"/v1/runs/{job_id}/result")
        except urllib.error.HTTPError as exc:
            assert exc.code == 409
            assert "not ready" in json.loads(exc.read())["error"]
        else:
            # The tiny run may legitimately finish before the poll.
            assert status == 200
        _await_job(server, job_id)


class TestRegistrySemantics:
    def test_second_submission_is_a_labeled_hit(self, server):
        first = _submit_and_await(server, "/v1/runs", TINY)
        assert first["cached"] is False

        second = _submit_and_await(server, "/v1/runs", TINY)
        assert second["cached"] is True
        assert second["sim_ticks_executed"] == 0
        assert second["fingerprint"] == first["fingerprint"]
        assert second["registry_key"] == first["registry_key"]
        # Provenance: the hit names the ledger manifest it came from.
        assert second["manifest"].endswith(".manifest.json")
        with open(second["manifest"]) as handle:
            manifest = json.load(handle)
        assert manifest["result_fingerprint"] == first["fingerprint"]
        assert manifest["registry_key"] == first["registry_key"]

    def test_hit_fingerprint_matches_direct_api_run(self, server):
        job = _submit_and_await(server, "/v1/runs", TINY)
        clear_shared_cache()
        direct = api.run(policy="vmt-ta", config=tiny_config())
        assert job["fingerprint"] == direct.fingerprint()

    def test_different_policy_is_a_different_key(self, server):
        first = _submit_and_await(server, "/v1/runs", TINY)
        other = _submit_and_await(server, "/v1/runs",
                                  dict(TINY, policy="round-robin"))
        assert other["cached"] is False
        assert other["registry_key"] != first["registry_key"]

    def test_registry_endpoint_lists_entries(self, server):
        job = _submit_and_await(server, "/v1/runs", TINY)
        _, listing = _get(server, "/v1/registry")
        assert len(listing["entries"]) == 1
        entry = listing["entries"][0]
        assert entry["schema"] == "repro.registry-entry/1"
        assert entry["fingerprint"] == job["fingerprint"]
        assert entry["policy"] == "vmt-ta"

    def test_registry_standalone_roundtrip(self, tmp_path):
        clear_shared_cache()
        config = tiny_config()
        result = api.run(policy="vmt-ta", config=config)
        registry = RunRegistry(tmp_path / "reg")
        key = registry_key(config, "vmt-ta")
        assert registry.lookup(key) is None
        registry.store(key, result, wall_clock_s=1.0)
        entry = registry.lookup(key)
        assert entry is not None
        loaded = registry.load(entry)
        assert loaded.fingerprint() == result.fingerprint()


@dataclass(frozen=True)
class _FourComponentKey:
    """The registry key as it was while it also hashed the backend."""

    config_sha256: str
    trace_sha256: str
    policy: str
    backend: str

    @property
    def digest(self) -> str:
        blob = json.dumps(
            {"config_sha256": self.config_sha256,
             "trace_sha256": self.trace_sha256,
             "policy": self.policy, "backend": self.backend},
            sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    @property
    def run_id(self) -> str:
        return f"reg-{self.digest[:24]}"


class TestRetiredBackendKey:
    def test_fast_after_reference_is_a_hit(self, server):
        first = _submit_and_await(server, "/v1/runs",
                                  dict(TINY, backend="reference"))
        assert first["cached"] is False
        second = _submit_and_await(server, "/v1/runs",
                                   dict(TINY, backend="fast"))
        assert second["cached"] is True
        assert second["sim_ticks_executed"] == 0
        assert second["registry_key"] == first["registry_key"]
        assert second["fingerprint"] == first["fingerprint"]

    def test_entry_under_the_four_component_key_is_a_miss(self, tmp_path):
        """An entry stored under the earlier key reads as a miss and is
        re-stored under the three-component one -- never an error."""
        clear_shared_cache()
        config = tiny_config()
        key = registry_key(config, "vmt-ta")
        old = _FourComponentKey(key.config_sha256, key.trace_sha256,
                                key.policy, "reference")
        registry = RunRegistry(tmp_path / "state" / "registry")
        registry.store(old, api.run(policy="vmt-ta", config=config),
                       wall_clock_s=1.0)
        assert registry.lookup(key) is None
        instance = Server(tmp_path / "state", port=0, max_workers=1).start()
        try:
            first = _submit_and_await(instance, "/v1/runs",
                                      dict(TINY, backend="reference"))
            assert first["cached"] is False
            assert first["registry_key"] == key.digest != old.digest
            second = _submit_and_await(instance, "/v1/runs", TINY)
            assert second["cached"] is True
        finally:
            instance.stop()
        assert registry.lookup(key) is not None
        assert len(registry.entries()) == 2


class TestConcurrency:
    def test_concurrent_submissions_do_not_interleave(self, server):
        policies = ["vmt-ta", "round-robin", "coolest-first", "vmt-wa"]
        ids = {}
        for policy in policies:
            _, body = _post(server, "/v1/runs", dict(TINY, policy=policy))
            ids[policy] = body["job"]["id"]
        jobs = {policy: _await_job(server, job_id)
                for policy, job_id in ids.items()}

        clear_shared_cache()
        config = tiny_config()
        for policy, job in jobs.items():
            assert job["request"]["policy"] == policy
            direct = api.run(policy=policy, config=config)
            assert job["fingerprint"] == direct.fingerprint(), policy
        # Distinct policies, distinct physics, distinct registry keys.
        assert len({j["fingerprint"] for j in jobs.values()}) == 4
        assert len({j["registry_key"] for j in jobs.values()}) == 4


class TestMalformedRequests:
    @pytest.mark.parametrize("payload,fragment", [
        ({}, "requires a policy"),
        ({"policy": "hottest-first"}, "unknown policy"),
        ({"policy": "vmt-ta", "bogus": 1}, "unknown run request"),
        ({"policy": "vmt-ta", "num_servers": 0}, "num_servers"),
        ({"policy": "vmt-ta", "num_servers": "six"}, "num_servers"),
        ({"policy": "vmt-ta", "backend": "gpu"}, "backend"),
        ({"policy": "vmt-ta", "checks": "paranoid"}, "checks"),
    ])
    def test_bad_run_payloads_are_400(self, server, payload, fragment):
        with pytest.raises(urllib.error.HTTPError) as info:
            _post(server, "/v1/runs", payload)
        assert info.value.code == 400
        body = json.loads(info.value.read())
        assert fragment in body["error"]
        assert "Traceback" not in body["error"]

    def test_bad_json_body_is_400(self, server):
        request = urllib.request.Request(
            server.base_url + "/v1/runs", data=b"{not json")
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=30)
        assert info.value.code == 400

    def test_unknown_path_404_and_wrong_method_405(self, server):
        with pytest.raises(urllib.error.HTTPError) as info:
            _get(server, "/v2/runs")
        assert info.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as info:
            _get(server, "/v1/runs/no-such-job")
        assert info.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as info:
            _post(server, "/v1/healthz", {})
        assert info.value.code == 405

    def test_bad_sweep_and_suite_payloads(self, server):
        with pytest.raises(urllib.error.HTTPError) as info:
            _post(server, "/v1/sweeps", {"grouping_values": []})
        assert info.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as info:
            _post(server, "/v1/suites", {"scenarios": ["volcano"]})
        assert info.value.code == 400


class TestSse:
    def test_stream_yields_status_spans_and_done(self, server):
        _, body = _post(server, "/v1/runs", TINY)
        job_id = body["job"]["id"]
        raw = self._drain_sse(server, f"/v1/runs/{job_id}/events")
        events = _parse_sse(raw)
        assert events[0][0] == "status"
        status_frame = json.loads(events[0][1])
        assert status_frame["id"] == job_id
        spans = [data for name, data in events if name == "span"]
        assert spans, "a fresh run must stream span frames"
        for line in spans[:5]:
            json.loads(line)  # every frame is one JSONL span
        assert events[-1][0] == "done"
        final = json.loads(events[-1][1])
        assert final["status"] == "done"
        assert final["cached"] is False

    def test_cached_job_replays_source_spans(self, server):
        """A registry hit replays the originating run's persisted spans
        behind a typed ``cached-replay`` frame -- never zero history,
        never passed off as fresh execution."""
        first = _submit_and_await(server, "/v1/runs", TINY)
        _, body = _post(server, "/v1/runs", TINY)
        job_id = body["job"]["id"]
        events = _parse_sse(
            self._drain_sse(server, f"/v1/runs/{job_id}/events"))
        names = [name for name, _ in events]
        assert "cached-replay" in names
        marker = json.loads(
            next(data for name, data in events
                 if name == "cached-replay"))
        assert marker["source"] == first["id"]
        spans = [data for name, data in events if name == "span"]
        assert len(spans) == marker["spans"] > 0
        for line in spans[:5]:
            json.loads(line)
        # The replay marker precedes every span: provenance up front.
        assert names.index("cached-replay") < names.index("span")
        assert events[-1][0] == "done"
        assert json.loads(events[-1][1])["cached"] is True

    @staticmethod
    def _drain_sse(server, path, timeout_s=120.0):
        conn = socket.create_connection((server.host, server.port),
                                        timeout=timeout_s)
        try:
            conn.sendall(f"GET {path} HTTP/1.1\r\n"
                         f"Host: {server.host}\r\n\r\n".encode())
            chunks = []
            deadline = time.monotonic() + timeout_s
            while time.monotonic() < deadline:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        finally:
            conn.close()
        raw = b"".join(chunks)
        head, _, body = raw.partition(b"\r\n\r\n")
        assert b"text/event-stream" in head
        return body.decode("utf-8")


class TestLeaderboard:
    QUERY = ("/v1/leaderboard?scenarios=heat-wave"
             "&policies=vmt-ta,round-robin"
             "&num_servers=8&duration_hours=6&seed=11")

    def test_miss_enqueues_then_hit_serves_cached(self, server):
        status, body = _get(server, self.QUERY)
        assert status == 202
        job = _await_job(server, body["job"]["id"])
        assert job["status"] == "done", job["error"]

        status, board = _get(server, self.QUERY)
        assert status == 200
        assert board["schema"] == "repro.leaderboard/1"
        assert board["cached"] is True
        assert set(board["policies_ranked"]) == \
            {"vmt-ta", "round-robin"}
        ranks = [row["rank"] for row in board["leaderboard"]]
        assert ranks == [1, 2]
        for row in board["leaderboard"]:
            for field in ("policy", "mean_peak_cooling_kw",
                          "mean_qos_ok_fraction", "min_availability",
                          "tco_net_savings_usd"):
                assert field in row

    def test_bad_query_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as info:
            _get(server, "/v1/leaderboard?num_servers=eight")
        assert info.value.code == 400


class TestRecovery:
    def test_restarted_manager_reenqueues_and_completes(self, tmp_path):
        clear_shared_cache()
        data = tmp_path / "state"
        manager = JobManager(data, max_workers=1)
        record = manager.submit("run", dict(TINY))
        # Simulate a hard kill: close() leaves the job either cancelled
        # (still "queued") or settled -- force the persisted state back
        # to in-flight either way.  close() waiting for the worker is
        # load-bearing here: a thread still executing this job would
        # race the revived manager on the same telemetry/registry paths.
        manager.close()
        path = data / "jobs" / f"{record.job_id}.json"
        payload = json.loads(path.read_text())
        payload["status"] = "running"
        path.write_text(json.dumps(payload))

        revived = JobManager(data, max_workers=1)
        try:
            assert revived.recover() == [record.job_id]
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                job = revived.get(record.job_id)
                if job.status in ("done", "failed"):
                    break
                time.sleep(0.05)
            assert job.status == "done", job.error
            clear_shared_cache()
            direct = api.run(policy="vmt-ta", config=tiny_config())
            assert job.fingerprint == direct.fingerprint()
        finally:
            revived.close()


def _parse_sse(text):
    """Parse an SSE body into ordered (event, data) pairs."""
    events = []
    for frame in text.split("\n\n"):
        if not frame.strip():
            continue
        name = None
        data_lines = []
        for line in frame.split("\n"):
            if line.startswith("event: "):
                name = line[len("event: "):]
            elif line.startswith("data: "):
                data_lines.append(line[len("data: "):])
        if name is not None:
            events.append((name, "\n".join(data_lines)))
    return events
