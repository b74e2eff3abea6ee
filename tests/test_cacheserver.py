"""Shared translation-cache server: protocol codec, ops, end-to-end.

The server under test is a real one — every test speaks actual frames
over an actual socket (TCP on loopback), because the failure modes the
robustness plan cares about (torn frames, mid-stream garbage, dropped
connections) only exist on real transports.
"""

import json
import os
import socket
import threading
import time

import pytest

from repro.cacheserver import CacheServer, protocol
from repro.core.config import vm_soft
from repro.core.vm import CoDesignedVM
from repro.isa.x86lite import assemble
from repro.persist import (
    RemoteRepository,
    WriterLease,
    capture_translations,
    config_fingerprint,
    image_fingerprint,
)
from repro.persist.remote import pulled_records
from tests.stored import stored_texts

LOOP = """
start:
    mov ecx, 200
    mov esi, 0
top:
    add esi, ecx
    dec ecx
    jnz top
    mov eax, 1
    mov ebx, esi
    int 0x80
    mov eax, 0
    mov ebx, 0
    int 0x80
"""

# same loop prefix as LOOP (identical bytes at identical addresses), so
# its hot-block translations content-address to the same objects; only
# the tail differs.  This is the cross-workload dedup scenario: shared
# prefix code stored once on the server.
LOOP_VARIANT = """
start:
    mov ecx, 200
    mov esi, 0
top:
    add esi, ecx
    dec ecx
    jnz top
    mov eax, 1
    mov ebx, 7
    int 0x80
    mov eax, 0
    mov ebx, 0
    int 0x80
"""


def texts(records):
    """What a push ships: each record's stored text."""
    return [record.text for record in records]


def cold_records(source=LOOP, hot_threshold=50):
    """Run cold; return (records, config_fp, image_fp, vm)."""
    vm = CoDesignedVM(vm_soft(), hot_threshold=hot_threshold)
    image = assemble(source)
    vm.load(image)
    vm.run()
    records = capture_translations(vm.runtime.directory, vm.state.memory)
    return records, config_fingerprint(vm.config), \
        image_fingerprint(image), vm


@pytest.fixture
def server(tmp_path):
    with CacheServer(tmp_path / "served") as srv:
        yield srv


def raw_call(server, message, sock=None):
    """One request frame over a fresh (or given) TCP connection."""
    own = sock is None
    if own:
        sock = socket.create_connection((server.host, server.port),
                                        timeout=5.0)
    try:
        protocol.send_message(sock, message)
        return protocol.recv_message(sock)
    finally:
        if own:
            sock.close()


class TestProtocolCodec:
    def test_round_trip(self):
        message = {"op": "push", "records": [{"a": 1}], "n": 7}
        assert protocol.decode_frame(
            protocol.encode_frame(message)) == message

    def test_flipped_payload_byte_fails_checksum(self):
        frame = bytearray(protocol.encode_frame({"op": "ping"}))
        frame[-1] ^= 0x40
        with pytest.raises(protocol.ProtocolError,
                           match="checksum"):
            protocol.decode_frame(bytes(frame))

    def test_bad_magic_rejected(self):
        frame = b"XXXX" + protocol.encode_frame({"op": "ping"})[4:]
        with pytest.raises(protocol.ProtocolError, match="magic"):
            protocol.decode_frame(frame)

    def test_short_header_rejected(self):
        with pytest.raises(protocol.ProtocolError, match="short"):
            protocol.decode_header(b"RTC1")

    def test_length_bound_enforced(self):
        header = protocol._HEADER.pack(protocol.MAGIC,
                                       protocol.MAX_PAYLOAD + 1, 0)
        with pytest.raises(protocol.ProtocolError, match="exceeds"):
            protocol.decode_header(header)

    def test_truncated_payload_rejected(self):
        frame = protocol.encode_frame({"op": "ping"})
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_frame(frame[:-2])

    def test_non_object_payload_rejected(self):
        import json
        import zlib
        payload = json.dumps([1, 2]).encode()
        frame = protocol._HEADER.pack(protocol.MAGIC, len(payload),
                                      zlib.crc32(payload)) + payload
        with pytest.raises(protocol.ProtocolError, match="not an object"):
            protocol.decode_frame(frame)

    def test_mid_frame_eof_detected(self, server):
        # connect, send half a frame, shut down the write side: the
        # server must treat it as a protocol error, not hang or die
        frame = protocol.encode_frame({"op": "ping"})
        sock = socket.create_connection((server.host, server.port),
                                        timeout=5.0)
        try:
            sock.sendall(frame[:len(frame) // 2])
            sock.shutdown(socket.SHUT_WR)
            # server drops the connection (possibly after an error frame)
            data = sock.recv(1 << 16)
            if data:
                assert protocol.decode_frame(data)["ok"] is False
        finally:
            sock.close()
        # and stays alive for the next client
        assert raw_call(server, {"op": "ping"})["ok"] is True


class TestServerOps:
    def test_ping(self, server):
        response = raw_call(server, {"op": "ping"})
        assert response["ok"] is True
        assert str(server.repository.root) == response["root"]

    def test_unknown_op_is_bad_request(self, server):
        sock = socket.create_connection((server.host, server.port),
                                        timeout=5.0)
        try:
            response = raw_call(server, {"op": "frobnicate"}, sock=sock)
            assert response["error"] == "bad-request"
            # a bad *op* (well-formed frame) keeps the connection open
            assert raw_call(server, {"op": "ping"},
                            sock=sock)["ok"] is True
        finally:
            sock.close()

    def test_garbage_frame_answered_then_dropped(self, server):
        sock = socket.create_connection((server.host, server.port),
                                        timeout=5.0)
        try:
            sock.sendall(b"not a frame at all, definitely " * 2)
            response = protocol.recv_message(sock)
            assert response["ok"] is False
            assert response["error"] == "bad-request"
            assert sock.recv(1) == b""     # connection dropped
        finally:
            sock.close()
        assert raw_call(server, {"op": "ping"})["ok"] is True

    def test_push_then_pull_round_trip(self, server):
        records, config_fp, image_fp, _vm = cold_records()
        response = raw_call(server, {
            "op": "push", "records": texts(records), "config_fp": config_fp,
            "image_fp": image_fp, "config_name": "test"})
        assert response["ok"] is True
        assert response["written"] == len(records)
        assert response["rejected"] == 0
        pulled = raw_call(server, {"op": "pull", "config_fp": config_fp,
                                   "image_fp": image_fp})
        assert pulled["ok"] is True
        # each object rides as the text the store holds, under its key
        assert set(pulled["entries"]) == {r["key"] for r in records}
        assert len(pulled["entries"]) == len(records)
        assert sorted(pulled_records(pulled), key=lambda r: r["key"]) == \
            sorted(records, key=lambda r: r["key"])
        stored = stored_texts(server.repository.root)
        assert pulled["objects"][0] == stored[pulled["entries"][0]]

    def test_wire_snapshot_ships_every_counter_from_birth(self, tmp_path):
        fresh = CacheServer(tmp_path / "fresh")
        assert fresh.stats.registry_snapshot() == {
            f"server_{name}": 0 for name in (
                "errors", "connections", "conns_rejected", "records_served",
                "records_received", "objects_deduped", "records_rejected",
                "lease_busy", "requests_shed", "deadline_rejected")}
        records, config_fp, image_fp, _vm = cold_records()
        fresh.dispatch({"op": "push", "records": texts(records),
                        "config_fp": config_fp, "image_fp": image_fp})
        pulled = fresh.dispatch({"op": "pull", "config_fp": config_fp,
                                 "image_fp": image_fp})
        snapshot = fresh.stats.registry_snapshot()
        assert snapshot["server_requests{op=pull}"] == 1
        assert snapshot["server_records_served"] == len(pulled["entries"])

    def test_manifest_probe(self, server):
        records, config_fp, image_fp, _vm = cold_records()
        absent = raw_call(server, {"op": "manifest",
                                   "config_fp": config_fp,
                                   "image_fp": image_fp})
        assert absent["ok"] is True and absent["entries"] is None
        raw_call(server, {"op": "push", "records": texts(records),
                          "config_fp": config_fp, "image_fp": image_fp})
        present = raw_call(server, {"op": "manifest",
                                    "config_fp": config_fp,
                                    "image_fp": image_fp})
        assert present["entries"] == len(records)

    def test_missing_fingerprints_rejected(self, server):
        for op in ("pull", "push", "manifest"):
            response = raw_call(server, {"op": op, "records": []})
            assert response["ok"] is False
            assert response["error"] == "bad-request"

    def test_server_validates_pushed_records(self, server):
        """A corrupt client cannot poison the store other VMs pull from."""
        records, config_fp, image_fp, _vm = cold_records()
        tampered = json.loads(records[0].text)
        tampered["code"] = "ffffffff"       # key no longer matches body
        response = raw_call(server, {
            "op": "push",
            "records": [records[1].text, json.dumps(tampered),
                        '{"garbage": true}', None],
            "config_fp": config_fp, "image_fp": image_fp})
        assert response["ok"] is True
        assert response["written"] == 1
        assert response["rejected"] == 3
        pulled = raw_call(server, {"op": "pull", "config_fp": config_fp,
                                   "image_fp": image_fp})
        assert pulled["entries"] == [records[1]["key"]]
        assert pulled_records(pulled) == [records[1]]
        assert server.stats.to_dict()["records_rejected"] == 3

    def test_a_pushed_text_without_bytes_is_rejected(self, server):
        """A lone surrogate in a source run (the frame's ``\\ud800``):
        that record is rejected, the rest of the push is written."""
        records, config_fp, image_fp, _vm = cold_records()
        addr, data = records[0]["source"][0]
        damaged = records[0].text.replace(f'[{addr},"{data}"]',
                                          f'[{addr},"\ud800{data[1:]}"]', 1)
        assert damaged != records[0].text
        response = raw_call(server, {
            "op": "push", "records": [damaged] + texts(records[1:]),
            "config_fp": config_fp, "image_fp": image_fp})
        assert response["ok"] is True
        assert (response["written"], response["rejected"]) == \
            (len(records) - 1, 1)
        assert server.stats.to_dict()["records_rejected"] == 1

    def test_cross_workload_dedup(self, server):
        """Two programs sharing a code prefix store the prefix once."""
        rec_a, config_fp, image_a, _ = cold_records(LOOP)
        rec_b, _, image_b, _ = cold_records(LOOP_VARIANT)
        assert image_a != image_b
        first = raw_call(server, {"op": "push", "records": texts(rec_a),
                                  "config_fp": config_fp,
                                  "image_fp": image_a})
        assert first["deduped"] == 0
        second = raw_call(server, {"op": "push", "records": texts(rec_b),
                                   "config_fp": config_fp,
                                   "image_fp": image_b})
        # the shared loop blocks content-address identically
        assert second["deduped"] > 0
        assert second["written"] < len(rec_b)
        assert server.stats.to_dict()["objects_deduped"] == \
            second["deduped"]
        # both manifests still pull their full record sets
        for image_fp, records in ((image_a, rec_a), (image_b, rec_b)):
            pulled = raw_call(server, {"op": "pull",
                                       "config_fp": config_fp,
                                       "image_fp": image_fp})
            assert len(pulled_records(pulled)) == len(records)

    def test_contended_lease_surfaces_as_lease_busy(self, tmp_path):
        with CacheServer(tmp_path / "repo",
                         lease_timeout=0.05) as server:
            records, config_fp, image_fp, _vm = cold_records()
            with WriterLease(server.repository.root, ttl=60.0):
                response = raw_call(server, {
                    "op": "push", "records": texts(records),
                    "config_fp": config_fp, "image_fp": image_fp})
            assert response["ok"] is False
            assert response["error"] == "lease-busy"
            assert response["error"] in protocol.RETRYABLE_ERRORS
            assert server.stats.to_dict()["lease_busy"] == 1
            # released: the same push now lands
            retry = raw_call(server, {
                "op": "push", "records": texts(records),
                "config_fp": config_fp, "image_fp": image_fp})
            assert retry["ok"] is True and retry["written"] > 0

    def test_stats_op_reports_both_sides(self, server):
        records, config_fp, image_fp, _vm = cold_records()
        raw_call(server, {"op": "push", "records": texts(records),
                          "config_fp": config_fp, "image_fp": image_fp})
        response = raw_call(server, {"op": "stats"})
        assert response["repository"]["objects"] == len(records)
        assert response["server"]["requests"]["push"] == 1
        assert response["server"]["connections"] >= 2

    def test_persistent_connection_serves_many_requests(self, server):
        sock = socket.create_connection((server.host, server.port),
                                        timeout=5.0)
        try:
            for _ in range(5):
                assert raw_call(server, {"op": "ping"},
                                sock=sock)["ok"] is True
        finally:
            sock.close()
        assert server.stats.to_dict()["requests"]["ping"] == 5
        assert server.stats.to_dict()["connections"] == 1


class TestManyClients:
    """Herd-scale contention: >=16 simultaneous clients, one server.

    These are the fleet scenario's server-side invariants in
    isolation: content-addressed dedup must hold under concurrent
    pushes, admission backpressure must surface as the retryable
    ``busy`` category, and a drain must finish in-flight work before
    closing.
    """

    CLIENTS = 16

    def _run_clients(self, body, count=None):
        """Run ``body(idx)`` on ``count`` threads released together."""
        count = count or self.CLIENTS
        errors = []
        barrier = threading.Barrier(count)

        def runner(idx):
            try:
                barrier.wait(timeout=10.0)
                body(idx)
            except Exception as error:   # noqa: BLE001 - reported below
                errors.append((idx, repr(error)))

        threads = [threading.Thread(target=runner, args=(idx,))
                   for idx in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

    def test_sixteen_clients_pull_and_push(self, server):
        """Every client pulls complete and dedups against the store."""
        records, config_fp, image_fp, _vm = cold_records()
        raw_call(server, {"op": "push", "records": texts(records),
                          "config_fp": config_fp, "image_fp": image_fp})
        results = [None] * self.CLIENTS

        def client(idx):
            remote = RemoteRepository(server.address, retries=6,
                                      sleep=lambda _s: None)
            pulled = remote.load(config_fp, image_fp)
            written = remote.save(records, config_fp, f"img-{idx}",
                                  config_name=f"c{idx}")
            results[idx] = (len(pulled), written,
                            remote.remote_stats.fallbacks)
            remote.close()

        self._run_clients(client)
        # every client pulled the full record set and, because objects
        # are content-addressed, wrote zero new objects for its own
        # image; nobody degraded to cold
        assert results == [(len(records), 0, 0)] * self.CLIENTS
        assert server.repository.stats().objects == len(records)
        check = server.repository.fsck(repair=False)
        assert check.ok, check.format()
        for idx in range(self.CLIENTS):
            loaded = server.repository.load(config_fp, f"img-{idx}")
            assert {r["key"] for r in loaded} == \
                {r["key"] for r in records}
        requests = server.stats.to_dict()["requests"]
        assert requests["pull"] == self.CLIENTS
        assert requests["push"] == self.CLIENTS + 1

    def test_concurrent_shared_image_push_writes_each_object_once(
            self, tmp_path):
        """16 racing pushes of one manifest store each object once."""
        with CacheServer(tmp_path / "served",
                         lease_timeout=10.0) as server:
            records, config_fp, _image_fp, _vm = cold_records()
            written = [None] * self.CLIENTS

            def client(idx):
                remote = RemoteRepository(server.address, retries=6,
                                          sleep=lambda _s: None)
                written[idx] = remote.save(records, config_fp,
                                           "img-shared")
                assert remote.remote_stats.fallbacks == 0
                remote.close()

            self._run_clients(client)
            assert sum(written) == len(records)
            repo = server.repository
            assert repo.stats().objects == len(records)
            assert len(repo.load(config_fp, "img-shared")) == \
                len(records)
            check = repo.fsck(repair=False)
            assert check.ok, check.format()

    def test_max_conns_rejects_with_retryable_busy(self, tmp_path):
        with CacheServer(tmp_path / "limited", max_conns=2) as server:
            holders = [socket.create_connection(
                (server.host, server.port), timeout=5.0)
                for _ in range(2)]
            try:
                for holder in holders:
                    assert raw_call(server, {"op": "ping"},
                                    sock=holder)["ok"] is True
                # both slots held: the next connection is answered
                # with an unsolicited busy frame and dropped
                extra = socket.create_connection(
                    (server.host, server.port), timeout=5.0)
                try:
                    response = protocol.recv_message(extra)
                finally:
                    extra.close()
                assert response["ok"] is False
                assert response["error"] == "busy"
                assert response["error"] in protocol.RETRYABLE_ERRORS
                assert server.stats.to_dict()["conns_rejected"] >= 1
            finally:
                for holder in holders:
                    holder.close()

    def test_busy_retry_recovers_once_a_slot_frees(self, tmp_path):
        with CacheServer(tmp_path / "limited", max_conns=1) as server:
            holder = socket.create_connection(
                (server.host, server.port), timeout=5.0)
            assert raw_call(server, {"op": "ping"},
                            sock=holder)["ok"] is True

            def free_slot(_seconds):
                # first backoff: free the held slot, then wait for the
                # server to release it before the retry reconnects
                holder.close()
                deadline = time.monotonic() + 5.0
                while server.active_connections > 0 \
                        and time.monotonic() < deadline:
                    time.sleep(0.01)

            client = RemoteRepository(server.address, retries=3,
                                      sleep=free_slot)
            assert client.ping() is True
            # the rejection was counted and retried, not fatal
            assert client.remote_stats.lease_busy >= 1
            assert client.remote_stats.retries >= 1
            assert server.stats.to_dict()["conns_rejected"] >= 1
            client.close()

    def test_drain_finishes_inflight_push(self, tmp_path):
        server = CacheServer(tmp_path / "inflight")
        server.start()
        records, config_fp, image_fp, _vm = cold_records()
        real_save = server.repository.save
        entered = threading.Event()

        def slow_save(*args, **kwargs):
            entered.set()
            time.sleep(0.3)         # hold the push in flight
            return real_save(*args, **kwargs)

        server.repository.save = slow_save
        result = {}

        def pusher():
            client = RemoteRepository(server.address, retries=0)
            result["written"] = client.save(records, config_fp,
                                            image_fp)
            result["fallbacks"] = client.remote_stats.fallbacks
            client.close()

        thread = threading.Thread(target=pusher)
        thread.start()
        assert entered.wait(timeout=5.0)
        clean = server.drain(grace=5.0)
        thread.join(timeout=10.0)
        assert clean is True
        assert result == {"written": len(records), "fallbacks": 0}
        server.repository.save = real_save
        assert server.repository.stats().objects == len(records)

    def test_drain_cuts_idle_connection_and_stops(self, tmp_path):
        server = CacheServer(tmp_path / "drained")
        server.start()
        # a connection that never sends a frame: its handler sits in
        # recv() and only the drain's post-grace cut can wake it (a
        # connection that just finished a response would instead close
        # gracefully at the frame boundary and count as clean)
        idle = socket.create_connection((server.host, server.port),
                                        timeout=5.0)
        try:
            deadline = time.monotonic() + 5.0
            while server.active_connections < 1 \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.active_connections == 1
            assert server.drain(grace=0.2) is False
            try:
                assert idle.recv(1) == b""      # cut by the server
            except OSError:
                pass
        finally:
            idle.close()
        with pytest.raises(OSError):
            socket.create_connection((server.host, server.port),
                                     timeout=0.5)

    def test_drain_clean_after_clients_closed(self, tmp_path):
        server = CacheServer(tmp_path / "drained2")
        server.start()
        assert raw_call(server, {"op": "ping"})["ok"] is True
        deadline = time.monotonic() + 5.0
        while server.active_connections and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.drain(grace=1.0) is True
        assert server.drain(grace=1.0) is True      # idempotent

    def test_per_op_latency_histograms_in_stats(self, server):
        records, config_fp, image_fp, _vm = cold_records()
        for _ in range(3):
            assert raw_call(server, {"op": "ping"})["ok"] is True
        raw_call(server, {"op": "push", "records": texts(records),
                          "config_fp": config_fp, "image_fp": image_fp})
        latency = raw_call(server, {"op": "stats"})["server"]["latency"]
        for op, count in (("ping", 3), ("push", 1)):
            entry = latency[op]
            assert entry["count"] == count
            assert entry["min"] <= entry["mean"] <= entry["max"]
            assert entry["p50"] <= entry["p95"] <= entry["p99"]


class TestEndToEnd:
    def test_warm_start_through_live_server(self, tmp_path):
        with CacheServer(tmp_path / "shared") as server:
            cold_vm = CoDesignedVM(vm_soft(), hot_threshold=50)
            cold_vm.load(assemble(LOOP))
            cold = cold_vm.run()
            pushed = cold_vm.save_translations(
                RemoteRepository(server.address))
            assert pushed > 0

            warm_vm = CoDesignedVM(vm_soft(), hot_threshold=50)
            warm_vm.load(assemble(LOOP))
            load = warm_vm.warm_start(RemoteRepository(server.address))
            warm = warm_vm.run()
        assert load.loaded == load.attempted > 0
        assert warm.blocks_translated == 0
        assert warm.superblocks_translated == 0
        assert warm.output == cold.output
        assert warm.exit_code == cold.exit_code

    def test_unix_socket_transport(self, tmp_path):
        path = tmp_path / "cache.sock"
        with CacheServer(tmp_path / "repo", socket_path=path) as server:
            assert server.address == f"unix:{path}"
            client = RemoteRepository(server.address)
            assert client.ping() is True
        assert not path.exists()    # stop() cleans the socket up

    def test_remote_stats_reach_vm_stats(self, tmp_path):
        with CacheServer(tmp_path / "shared") as server:
            vm = CoDesignedVM(vm_soft(), hot_threshold=50)
            vm.load(assemble(LOOP))
            vm.run()
            vm.save_translations(RemoteRepository(server.address))
            stats = vm.stats()
        assert stats["remote"]["requests"] >= 1
        assert stats["remote"]["records_pushed"] > 0


def open_descriptors():
    return len(os.listdir("/proc/self/fd"))


def held_ping(server):
    """Make ``ping`` wait inside its handler: ``(entered, release,
    answer)``, the last a one-slot dict the client thread fills."""
    entered, release, answer = threading.Event(), threading.Event(), {}

    def slow_ping(_request):
        entered.set()
        release.wait(timeout=5.0)
        return protocol.ok(late=True)

    def client():
        try:
            answer["response"] = raw_call(server, {"op": "ping"})
        except (OSError, protocol.ProtocolError) as error:
            answer["error"] = error

    server._op_ping = slow_ping
    thread = threading.Thread(target=client)
    thread.start()
    assert entered.wait(timeout=5.0)
    return thread, release, answer


class TestLifecycle:
    """Stop is a signal, not a poll (docs/cache_server.md,
    "Lifecycle")."""

    CYCLES = 50

    @pytest.mark.parametrize("transport", ["tcp", "unix"])
    def test_start_stop_cycles_leak_nothing_and_are_quick(
            self, tmp_path, transport):
        kwargs = {"socket_path": tmp_path / "cache.sock"} \
            if transport == "unix" else {}
        server = CacheServer(tmp_path / "cycled", **kwargs)
        server.start()
        server.stop()               # lazy imports, the repository root
        threads, descriptors = threading.active_count(), open_descriptors()
        stops = []
        for _ in range(self.CYCLES):
            server.start()
            started = time.perf_counter()
            server.stop()
            stops.append(time.perf_counter() - started)
        assert threading.active_count() == threads
        assert open_descriptors() == descriptors
        # a loop that polled for a stop flag would read tens of ms
        assert sorted(stops)[self.CYCLES // 2] <= 0.005

    def test_stop_is_idempotent_before_start_and_from_many_threads(
            self, tmp_path):
        server = CacheServer(tmp_path / "stopped")
        server.stop()               # never started
        server.signal_stop()
        server.start()
        assert raw_call(server, {"op": "ping"})["ok"] is True
        stoppers = [threading.Thread(target=server.stop)
                    for _ in range(8)]
        for thread in stoppers:
            thread.start()
        for thread in stoppers:
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        server.stop()
        assert server._server is None and server._thread is None
        server.start()              # and it comes back
        assert raw_call(server, {"op": "ping"})["ok"] is True
        server.stop()

    def test_stopped_server_refuses_at_once(self, server):
        server.stop()
        started = time.perf_counter()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection((server.host, server.port),
                                     timeout=5.0)
        assert time.perf_counter() - started < 0.5

    def test_request_in_flight_outlives_stop(self, server):
        thread, release, answer = held_ping(server)
        server.stop()               # returns while the handler waits
        release.set()
        thread.join(timeout=5.0)
        assert answer["response"] == protocol.ok(late=True)

    def test_request_in_flight_dies_with_kill(self, server):
        thread, release, answer = held_ping(server)
        server.kill()
        release.set()
        thread.join(timeout=5.0)
        assert "response" not in answer and "error" in answer

    def test_stop_counts_no_connection_of_its_own(self, tmp_path):
        server = CacheServer(tmp_path / "counted", max_conns=1)
        for _ in range(3):
            server.start()
            assert raw_call(server, {"op": "ping"})["ok"] is True
            server.stop()
        server.start()
        server.drain(grace=1.0)
        server.start()
        server.kill()
        stats = server.stats.to_dict()
        assert stats["connections"] == 3
        assert stats["conns_rejected"] == 0
        assert stats["requests"] == {"ping": 3}

    def test_manifest_with_keys_reads_the_manifest_once(self, server):
        records, config_fp, image_fp, _vm = cold_records()
        pair = {"config_fp": config_fp, "image_fp": image_fp}
        raw_call(server, {"op": "push", "records": texts(records), **pair})
        repository = server.repository
        real_read, reads = repository._read_manifest, []

        def counted_read(*args):
            reads.append(args)
            return real_read(*args)

        repository._read_manifest = counted_read
        response = raw_call(server, {"op": "manifest", "keys": True,
                                     **pair})
        assert len(reads) == 1
        assert response["entries"] == len(response["keys"]) == len(records)
        assert raw_call(server, {"op": "manifest", "keys": True,
                                 "config_fp": "no", "image_fp": "such"}
                        ) == protocol.ok(entries=None, keys=[])
