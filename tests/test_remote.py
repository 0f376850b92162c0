"""Tests for the remote cache tier and fleet job dispatch.

The property suites (hypothesis) pin the wire protocol: any payload
round-trips through the canonical pickle envelope byte-exactly, and
any single-byte tamper is caught by the sha256 digest before the
bytes can reach a ``pickle.loads``.  The socket suites run a real
cache server (:class:`~repro.remote.cache_server.
BackgroundCacheServer`) and a real ``repro serve`` peer (subprocess):
a warm remote cache serves a second "host" with zero executions, and
a dead peer's share runs locally with identical results.  That a live
peer leaves every report's bits unchanged is a golden-ledger arm
(``tests/test_golden.py``).
"""

import http.client
import json
import os
import pathlib
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import MISS, EvalJob, ExperimentEngine, ResultCache
from repro.engine.cache import ByteStore
from repro.engine.faults import PeerUnreachable
from repro.remote import cache_server, protocol
from repro.remote.cache_server import BackgroundCacheServer
from repro.remote.client import (
    RemoteCacheClient,
    RemoteCacheVerificationError,
)
from repro.remote.dispatch import (
    LOCAL_NODE,
    FleetDispatcher,
    PeerClient,
    rendezvous_owner,
)


def _job(**overrides) -> EvalJob:
    defaults = dict(model="llava-video", dataset="videomme",
                    method="dense", num_samples=1, seed=0)
    defaults.update(overrides)
    return EvalJob(**defaults)


# A closed port: connecting is refused immediately (no timeout wait).
DEAD_PEER = "http://127.0.0.1:1"


payloads = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False) | st.text() | st.binary(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


class TestProtocol:
    @given(payload=payloads)
    @settings(max_examples=50, deadline=None)
    def test_payload_round_trip(self, payload):
        data = protocol.encode_payload(payload)
        assert protocol.decode_payload(data) == payload
        # Canonical bytes: re-encoding the decoded payload is stable.
        assert protocol.encode_payload(
            protocol.decode_payload(data)
        ) == data

    @given(data=st.binary(min_size=1), index=st.integers(min_value=0))
    @settings(max_examples=50, deadline=None)
    def test_digest_catches_any_single_byte_tamper(self, data, index):
        index %= len(data)
        tampered = bytearray(data)
        tampered[index] ^= 0xFF
        assert protocol.payload_digest(data) != protocol.payload_digest(
            bytes(tampered)
        )

    @given(seeds=st.lists(st.integers(0, 2**31), min_size=1,
                          max_size=5))
    @settings(max_examples=25, deadline=None)
    def test_job_batch_round_trip(self, seeds):
        jobs = [_job(seed=seed) for seed in seeds]
        assert protocol.decode_jobs(protocol.encode_jobs(jobs)) == jobs

    def test_job_results_round_trip(self):
        data = protocol.encode_payload({"accuracy": 61.2})
        entries = {
            _job().job_id: ("ok", protocol.payload_digest(data), data),
            _job(seed=1).job_id: ("failed", {"error": "boom"}),
        }
        assert protocol.decode_job_results(
            protocol.encode_job_results(entries)
        ) == entries

    @pytest.mark.parametrize("body", [
        b"", b"junk", protocol.encode_payload((99, [])),
        protocol.encode_payload((protocol.PROTOCOL_VERSION, "nope")),
    ])
    def test_decode_jobs_rejects_junk(self, body):
        with pytest.raises(ValueError):
            protocol.decode_jobs(body)

    def test_valid_job_id(self):
        assert protocol.valid_job_id(_job().job_id)
        assert not protocol.valid_job_id("deadbeef")
        assert not protocol.valid_job_id("Z" * 32)
        assert not protocol.valid_job_id("../../etc/passwd")


class TestRendezvous:
    NODES = [LOCAL_NODE, "http://a:1", "http://b:1", "http://c:1"]

    def test_deterministic_and_order_insensitive(self):
        job_id = _job().job_id
        owner = rendezvous_owner(job_id, self.NODES)
        assert owner in self.NODES
        assert rendezvous_owner(job_id, list(reversed(self.NODES))) \
            == owner

    def test_removing_a_node_only_reassigns_its_jobs(self):
        job_ids = [_job(seed=seed).job_id for seed in range(64)]
        before = {jid: rendezvous_owner(jid, self.NODES)
                  for jid in job_ids}
        survivors = [n for n in self.NODES if n != "http://b:1"]
        for jid in job_ids:
            after = rendezvous_owner(jid, survivors)
            if before[jid] != "http://b:1":
                assert after == before[jid]
            else:
                assert after in survivors

    def test_spreads_over_the_fleet(self):
        job_ids = [_job(seed=seed).job_id for seed in range(128)]
        owners = {rendezvous_owner(jid, self.NODES)
                  for jid in job_ids}
        assert owners == set(self.NODES)  # 128 jobs hit all 4 nodes

    def test_empty_node_set_raises(self):
        with pytest.raises(ValueError):
            rendezvous_owner(_job().job_id, [])


class TestObjectStore:
    def test_put_get_head_present(self, tmp_path):
        store = ByteStore(tmp_path / "store")
        job_id = _job().job_id
        assert store.get(job_id) is None
        assert store.head(job_id) is None
        store.put(job_id, b"payload")
        assert store.get(job_id) == b"payload"
        assert store.head(job_id) == len(b"payload")
        assert store.head("f" * 32) is None
        assert store.usage() == len(b"payload")

    def test_put_is_idempotent_overwrite(self, tmp_path):
        store = ByteStore(tmp_path)
        job_id = _job().job_id
        store.put(job_id, b"first")
        store.put(job_id, b"second")
        assert store.get(job_id) == b"second"
        assert store.usage() == len(b"second")

    def test_prunes_least_recently_used(self, tmp_path):
        store = ByteStore(tmp_path, max_bytes=250)
        job_ids = [_job(seed=seed).job_id for seed in range(4)]
        now = time.time()
        for rank, job_id in enumerate(job_ids[:3]):
            store.put(job_id, b"x" * 100)
            # Deterministic LRU order without sleeping.
            path = store.path(job_id)
            import os
            os.utime(path, (now + rank, now + rank))
        store.put(job_ids[3], b"x" * 100)  # over cap: evict oldest
        assert store.get(job_ids[0]) is None
        assert store.evictions >= 1
        assert store.usage() <= 250


def _raw(server, method, path):
    """``(status, body)`` of one raw request against ``server``."""
    host, port = server.url.split("//")[1].split(":")
    conn = http.client.HTTPConnection(host, int(port))
    try:
        conn.request(method, path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _healthz(server):
    status, body = _raw(server, "GET", "/healthz")
    assert status == 200
    return json.loads(body)


class TestCacheServer:
    def test_round_trip_over_http(self, tmp_path):
        with BackgroundCacheServer(tmp_path) as server:
            client = RemoteCacheClient(server.url)
            job_id = _job().job_id
            data = protocol.encode_payload({"accuracy": 61.2})
            health = _healthz(server)
            assert health["ok"] is True
            assert health["objects"] == 0
            assert client.get(job_id) is None
            assert _raw(server, "HEAD", f"/cache/{job_id}")[0] == 404
            assert client.put(job_id, data)
            assert _raw(server, "HEAD", f"/cache/{job_id}")[0] == 200
            assert client.get(job_id) == data
            health = _healthz(server)
            assert health["ok"] is True
            assert health["objects"] == 1
            assert health["bytes"] == len(data)
            assert client.manifest([job_id, "f" * 32]) == {job_id}

    def test_rejects_corrupt_upload_and_bad_ids(self, tmp_path):
        with BackgroundCacheServer(tmp_path) as server:
            job_id = _job().job_id
            host, port = server.url.split("//")[1].split(":")
            conn = http.client.HTTPConnection(host, int(port))
            try:
                conn.request(
                    "PUT", f"/cache/{job_id}", body=b"payload",
                    headers={protocol.DIGEST_HEADER: "0" * 64},
                )
                assert conn.getresponse().status == 400
            finally:
                conn.close()
            client = RemoteCacheClient(server.url)
            assert client.get(job_id) is None  # nothing was stored
            conn = http.client.HTTPConnection(host, int(port))
            try:
                conn.request("GET", "/cache/not-a-job-id")
                assert conn.getresponse().status == 400
            finally:
                conn.close()

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_max_mb_must_be_finite_and_nonnegative(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            cache_server.main(["--max-mb", value])
        assert exc.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err

    def test_client_verifies_fetched_digest(self, tmp_path):
        client = RemoteCacheClient("http://127.0.0.1:9")
        client.request = lambda *a, **k: (  # type: ignore[assignment]
            200, {protocol.DIGEST_HEADER: "0" * 64}, b"tampered"
        )
        with pytest.raises(RemoteCacheVerificationError):
            client.get(_job().job_id)

    def test_client_validates_base_url(self):
        with pytest.raises(ValueError):
            RemoteCacheClient("ftp://nope:1")
        with pytest.raises(ValueError):
            RemoteCacheClient("not a url")

    def test_client_survives_a_dead_server(self):
        client = RemoteCacheClient(DEAD_PEER, timeout=0.5)
        job_id = _job().job_id
        assert client.get(job_id) is None
        assert not client.put(job_id, b"data")
        assert client.manifest([job_id]) is None
        # Three consecutive failures mark the server down; further
        # calls skip the network entirely during the cooldown.
        assert not client.available()


class _FakeRemote:
    """In-memory stand-in with the client's get/put/manifest surface."""

    def __init__(self):
        self.objects: dict[str, bytes] = {}
        self.gets = 0
        self.verify_error = False

    def get(self, job_id):
        self.gets += 1
        if self.verify_error:
            raise RemoteCacheVerificationError("digest mismatch")
        return self.objects.get(job_id)

    def put(self, job_id, data):
        self.objects[job_id] = data
        return True

    def manifest(self, job_ids):
        return {j for j in job_ids if j in self.objects}


class TestRemoteTier:
    def test_lookup_falls_through_to_remote_and_backfills(
        self, tmp_path
    ):
        job = _job()
        remote = _FakeRemote()
        remote.put(job.job_id,
                   protocol.encode_payload({"accuracy": 50.0}))
        cache = ResultCache(cache_dir=tmp_path, remote=remote)
        payload, tier = cache.lookup(job)
        assert payload == {"accuracy": 50.0}
        assert tier == "remote"
        assert cache.stats.remote_hits == 1
        # Back-filled into both local tiers: served from memory now,
        # and a fresh cache on the same directory serves from disk.
        assert cache.lookup(job)[1] == "memory"
        sibling = ResultCache(cache_dir=tmp_path)
        assert sibling.lookup(job)[1] == "disk"

    def test_put_publishes_write_behind(self, tmp_path):
        with BackgroundCacheServer(tmp_path / "store") as server:
            client = RemoteCacheClient(server.url)
            cache = ResultCache(remote=client)
            job = _job()
            cache.put(job, {"accuracy": 61.2})
            cache.flush_remote()
            assert client.get(job.job_id) == protocol.encode_payload(
                {"accuracy": 61.2}
            )
            assert cache.stats.remote_stores == 1

    def test_verification_failure_degrades_to_miss(self):
        remote = _FakeRemote()
        remote.verify_error = True
        cache = ResultCache(remote=remote)
        payload, tier = cache.lookup(_job())
        assert payload is MISS and tier is None
        assert cache.stats.remote_verify_failures == 1
        assert cache.stats.misses == 1

    def test_prefetch_marks_absence_and_skips_the_network(self):
        remote = _FakeRemote()
        present = _job()
        absent = _job(seed=1)
        remote.put(present.job_id, protocol.encode_payload("hit"))
        cache = ResultCache(remote=remote)
        assert cache.prefetch([present, absent]) == 1
        assert cache.lookup(absent) == (MISS, None)
        assert remote.gets == 0  # known-absent: no GET issued
        assert cache.lookup(present)[1] == "remote"
        assert remote.gets == 1

    def test_stats_delta_and_tiers(self):
        remote = _FakeRemote()
        job = _job()
        remote.put(job.job_id, protocol.encode_payload("x"))
        cache = ResultCache(remote=remote)
        before = cache.stats.snapshot()
        cache.lookup(job)           # remote hit
        cache.lookup(job)           # memory hit
        cache.lookup(_job(seed=9))  # miss
        delta = cache.stats.snapshot().delta(before)
        assert delta.tiers() == {"memory": 1, "disk": 0, "remote": 1}
        assert delta.hits == 2 and delta.misses == 1
        # The snapshot is detached: mutating the live stats afterwards
        # does not disturb an already-computed delta.
        cache.lookup(job)
        assert delta.hits == 2


class TestFleetDispatch:
    def test_dispatcher_dedupes_and_partitions(self):
        fleet = FleetDispatcher(
            ["http://a:1/", "http://a:1", "http://b:1"]
        )
        assert fleet.peer_urls == ["http://a:1", "http://b:1"]
        jobs = [_job(seed=seed) for seed in range(32)]
        shares = fleet.partition(jobs)
        scattered = [job for share in shares.values() for job in share]
        assert sorted(scattered, key=lambda j: j.job_id) \
            == sorted(jobs, key=lambda j: j.job_id)
        assert set(shares) <= {LOCAL_NODE, "http://a:1", "http://b:1"}

    def test_no_peers_means_all_local(self):
        fleet = FleetDispatcher([])
        jobs = [_job(seed=seed) for seed in range(8)]
        assert fleet.partition(jobs) == {LOCAL_NODE: jobs}

    def test_down_peer_excluded_from_partition(self):
        fleet = FleetDispatcher(["http://a:1"])
        peer = fleet.peer("http://a:1")
        peer.note_failure()
        peer.note_failure()  # DOWN_AFTER_FAILURES = 2
        assert not peer.available()
        jobs = [_job(seed=seed) for seed in range(8)]
        assert fleet.partition(jobs) == {LOCAL_NODE: jobs}

    def test_execute_raises_peer_unreachable(self):
        client = PeerClient(DEAD_PEER, execute_timeout=0.5)
        with pytest.raises(PeerUnreachable):
            client.execute([_job()])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_engine_degrades_to_local_when_peer_is_dead(self, workers):
        # At workers=2 the requeued share feeds the pool executor.
        fleet_engine = ExperimentEngine(workers=workers, peers=[DEAD_PEER])
        solo_engine = ExperimentEngine()
        # Enough jobs that rendezvous deterministically owns some to
        # the (dead) peer.
        jobs = [_job(num_samples=1, seed=seed) for seed in range(16)]
        try:
            fleet_results = fleet_engine.run(list(jobs))
            solo_results = solo_engine.run(list(jobs))
        finally:
            fleet_engine.close()
            solo_engine.close()
        def canon(results):
            # run() returns results in completion order; identity is
            # per-payload, not dict insertion order.
            return protocol.encode_payload(sorted(
                (job.job_id, protocol.encode_payload(payload))
                for job, payload in results.items()
            ))

        assert canon(fleet_results) == canon(solo_results)
        assert fleet_engine.stats.peer_failures >= 1
        assert fleet_engine.stats.remote_jobs == 0
        assert fleet_engine.stats.executed == len(jobs)


def _children(pid):
    """Pids whose parent is ``pid`` (read from ``/proc``)."""
    children = []
    for stat in pathlib.Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            children.append(int(stat.parent.name))
    return children


@pytest.mark.slow
@pytest.mark.skipif(not pathlib.Path("/proc/self/stat").exists(),
                    reason="needs /proc")
def test_terminated_peer_reaps_its_pool_workers(serve_peers):
    proc, _ = serve_peers.start("--workers", "2")
    # The pool is forked before the server announces its address.
    workers = _children(proc.pid)
    assert workers
    serve_peers.stop(proc)
    assert proc.returncode == 0
    for pid in workers:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
