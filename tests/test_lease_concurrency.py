"""Writer lease, fsync durability, and multi-process repository safety.

Covers the two concurrency bugs this robustness pass closes:

* ``gc`` racing a concurrent ``save`` could evict objects a mid-flight
  manifest was about to reference — both now serialize on the writer
  lease and the loser degrades instead of corrupting;
* journaled writes renamed before their data was durable, so a crash
  could leave an *empty-but-renamed* file — the fsync now happens
  before the rename and has its own fault point.
"""

import json
import multiprocessing
import os
import threading
import time

import pytest

from repro.cacheserver import CacheServer
from repro.core.config import vm_soft
from repro.core.vm import CoDesignedVM
from repro.faults import Fault, FaultInjector
from repro.faults.plane import injecting
from repro.isa.x86lite import assemble
from repro.persist import (
    LeaseBusyError,
    RemoteRepository,
    TranslationRepository,
    WriterLease,
    capture_translations,
    config_fingerprint,
    image_fingerprint,
)
from tests.stored import stored_texts
from tests.test_record_format import unsealed

LOOP = """
start:
    mov ecx, 180
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


def populated_repo(tmp_path, name="repo"):
    repo = TranslationRepository(tmp_path / name)
    vm = CoDesignedVM(vm_soft(), hot_threshold=50)
    vm.load(assemble(LOOP))
    vm.run()
    vm.save_translations(repo)
    return repo


class TestWriterLease:
    def test_exclusive_acquisition(self, tmp_path):
        first = WriterLease(tmp_path)
        second = WriterLease(tmp_path)
        assert first.try_acquire() is True
        assert second.try_acquire() is False
        first.release()
        assert second.try_acquire() is True
        second.release()
        assert not (tmp_path / "writer.lease").exists()

    def test_acquire_times_out(self, tmp_path):
        with WriterLease(tmp_path, ttl=60.0):
            other = WriterLease(tmp_path)
            assert other.acquire(timeout=0.05) is False

    def test_context_manager_raises_when_contended(self, tmp_path,
                                                   monkeypatch):
        import repro.persist.lease as lease_mod
        monkeypatch.setattr(lease_mod, "DEFAULT_TIMEOUT", 0.05)
        started = time.monotonic()
        with WriterLease(tmp_path, ttl=60.0):
            with pytest.raises(LeaseBusyError):
                with WriterLease(tmp_path):
                    pass
        # the patched default is read when acquire runs, not when it
        # was defined: the real 10 s default would blow this bound
        assert time.monotonic() - started < 1.0

    def test_expired_lease_is_stolen(self, tmp_path):
        stale = WriterLease(tmp_path, ttl=-1.0)   # born expired
        assert stale.try_acquire() is True
        thief = WriterLease(tmp_path, ttl=60.0)
        assert thief.acquire(timeout=2.0) is True
        # the original holder's release must not unlink the new lease
        stale.release()
        body = json.loads((tmp_path / "writer.lease").read_text())
        assert body["holder"] == thief.holder
        thief.release()

    def test_unreadable_lease_is_not_broken(self, tmp_path):
        (tmp_path / "writer.lease").write_bytes(b"\xff not json")
        other = WriterLease(tmp_path)
        assert other.acquire(timeout=0.05) is False
        assert (tmp_path / "writer.lease").exists()


def _stale_stealer(root, break_barrier, acquire_barrier, queue):
    """Race worker: everyone breaks the planted stale lease at once,
    then everyone contends one ``try_acquire`` at once (the barrier
    between the phases pins the interleaving the tombstone protocol
    must survive: N concurrent renames of one expired file)."""
    lease = WriterLease(root, ttl=60.0)
    break_barrier.wait(timeout=10.0)
    if lease._expired():
        lease._break_stale()
    acquire_barrier.wait(timeout=10.0)
    won = lease.try_acquire()
    # winners exit still holding: process death must not unlink the
    # lease file (only an explicit release or a later steal may)
    queue.put((lease.holder, won))


class TestStaleStealRace:
    """Two (here: six) processes stealing the same expired lease must
    produce exactly one winner — the unique-tombstone rename means at
    most one process's break succeeds, and ``O_CREAT | O_EXCL`` means
    at most one re-contender creates the replacement."""

    STEALERS = 6

    def test_expired_lease_steal_race_has_one_winner(self, tmp_path):
        (tmp_path / "writer.lease").write_text(json.dumps(
            {"holder": "crashed:0:0", "pid": 0,
             "expires": time.time() - 60.0}))
        context = multiprocessing.get_context("spawn")
        break_barrier = context.Barrier(self.STEALERS)
        acquire_barrier = context.Barrier(self.STEALERS)
        queue = context.Queue()
        workers = [context.Process(
            target=_stale_stealer,
            args=(str(tmp_path), break_barrier, acquire_barrier,
                  queue)) for _ in range(self.STEALERS)]
        for worker in workers:
            worker.start()
        results = [queue.get(timeout=60.0) for _ in workers]
        for worker in workers:
            worker.join(timeout=60.0)
        assert not any(worker.is_alive() for worker in workers)
        winners = [holder for holder, won in results if won]
        assert len(winners) == 1, f"expected one winner: {results}"
        # the surviving lease file names the winner, and every
        # tombstone from the break race was cleaned up
        body = json.loads((tmp_path / "writer.lease").read_text())
        assert body["holder"] == winners[0]
        assert list(tmp_path.glob("writer.lease.stale-*")) == []
        # a loser's release must not disturb the winner's lease
        loser = WriterLease(tmp_path, ttl=60.0)
        loser.release()
        assert (tmp_path / "writer.lease").exists()


class TestLeaseSerialization:
    def test_gc_degrades_while_save_holds_lease(self, tmp_path):
        """The gc-vs-save race: gc must not evict under a live writer."""
        repo = populated_repo(tmp_path)
        objects_before = repo.stats().objects
        assert objects_before > 0
        with WriterLease(repo.root, ttl=60.0):
            report = repo.gc(0, lease_timeout=0.05)
        assert report.lease_busy is True
        assert report.evicted_objects == 0
        assert "lease busy" in report.format()
        assert repo.lease_failures == 1
        assert repo.stats().objects == objects_before
        # lease released: the same gc now evicts everything
        assert repo.gc(0, lease_timeout=2.0).evicted_objects == \
            objects_before

    def test_save_degrades_while_lease_held(self, tmp_path):
        repo = TranslationRepository(tmp_path / "repo")
        vm = CoDesignedVM(vm_soft(), hot_threshold=50)
        vm.load(assemble(LOOP))
        vm.run()
        records = capture_translations(vm.runtime.directory,
                                       vm.state.memory)
        with WriterLease(repo.root, ttl=60.0):
            written = repo.save(records, "cfg", "img",
                                lease_timeout=0.05)
        assert written == 0
        assert repo.lease_failures == 1
        assert repo.stats().objects == 0
        assert repo.save(records, "cfg", "img") == len(records)

    def test_pull_keeps_a_save_that_lands_while_it_reads(self, tmp_path):
        """The load-vs-save race: a load's LRU touch must not write
        back an index read before a save that completed while it was
        reading packs — that save's entries would be on disk and never
        seen by ``stats`` or ``gc`` again."""
        # stored texts under made-up keys: a store does not judge them
        records = [unsealed({"key": f"key{index}", "kind": "bbt",
                             "entry": index}) for index in range(11)]
        repo = TranslationRepository(tmp_path / "repo")
        assert repo.save(records[:5], "cfg", "first") == 5
        # now the most recent: the load of "first" has a stamp to make
        assert repo.save(records[10:], "cfg", "other") == 1
        real_read, landed = repo.read_pack, []

        def read_while_a_save_lands(name):
            if not landed:
                # another process, or a sibling handler thread
                landed.append(TranslationRepository(repo.root).save(
                    records[5:10], "cfg", "second"))
            return real_read(name)

        repo.read_pack = read_while_a_save_lands
        assert len(repo.load("cfg", "first")) == 5
        assert landed == [5]
        assert len(stored_texts(repo.root)) == 11
        assert len(repo._load_meta()["objects"]) == 11
        assert repo.stats().objects == 11
        # and the load's stamp took: its five are the last gc evicts
        repo.gc(sum(len(record.text) for record in records[:5]))
        assert sorted(stored_texts(repo.root)) == \
            sorted(record["key"] for record in records[:5])

    def test_touch_under_a_busy_lease_is_skipped(self, tmp_path):
        repo = populated_repo(tmp_path)
        pair = next(repo.manifests_dir.glob("*.json")).stem.split("__")
        records = [unsealed({"key": "other", "kind": "bbt", "entry": 1})]
        repo.save(records, "cfg", "other")      # now the most recent
        before = repo.meta_path.read_bytes()
        with WriterLease(repo.root, ttl=60.0):
            loaded = repo.load(*pair)           # does not wait
        assert loaded and repo.meta_path.read_bytes() == before
        assert repo.lease_failures == 0
        assert repo.load(*pair) == loaded       # lease free: stamped
        assert repo.meta_path.read_bytes() != before


def _fail_fsync(fault, rng, site, context):
    raise OSError(5, f"injected EIO fsyncing {context.get('path')}")


#: Test-local fault: fail every fsync with EIO.
FSYNC_EIO = Fault("fsync-eio", "warm", ("repo.fsync",), rate=1.0,
                  fire=_fail_fsync)


class TestFsyncDurability:
    def test_save_fsyncs_before_rename(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        renamed = []
        real_replace = os.replace

        def spy_fsync(fd):
            synced.append(fd)
            return real_fsync(fd)

        def spy_replace(src, dst):
            renamed.append(str(dst))
            assert synced, f"renamed {dst} before any fsync"
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        populated_repo(tmp_path)
        assert len(synced) >= len(renamed) > 0

    def test_fsync_failure_absorbed_without_torn_files(self, tmp_path):
        repo = TranslationRepository(tmp_path / "repo")
        vm = CoDesignedVM(vm_soft(), hot_threshold=50)
        vm.load(assemble(LOOP))
        vm.run()
        records = capture_translations(vm.runtime.directory,
                                       vm.state.memory)
        injector = FaultInjector(7, [FSYNC_EIO])
        with injecting(injector):
            written = repo.save(records, config_fingerprint(vm.config),
                                image_fingerprint(vm._image))
        assert written == 0                 # every write failed durably
        assert repo.io_errors > 0
        assert injector.injected["fsync-eio"] > 0
        # nothing renamed into place, nothing torn: no objects, no
        # stray .tmp journals, any surviving file parses as JSON
        leftovers = [path for path in repo.root.rglob("*.tmp")]
        assert leftovers == []
        for path in repo.root.rglob("*.json"):
            json.loads(path.read_text())
        assert repo.stats().objects == 0


# -- multi-process writers ----------------------------------------------------
#
# Spawned workers (must be importable top-level functions): each saves
# the same record set under its own image fingerprint plus one shared
# contended fingerprint, either directly into the repository or through
# the cache server.  Afterwards fsck must find nothing to repair.

def _direct_writer(root, records, config_fp, worker):
    repo = TranslationRepository(root)
    total = 0
    for round_num in range(3):
        total += repo.save(records, config_fp, f"img-{worker}",
                           config_name=f"w{worker}")
        total += repo.save(records, config_fp, "img-shared",
                           config_name="shared")
    return total


def _server_writer(address, local, records, config_fp, worker):
    client = RemoteRepository(address, local=local, retries=3,
                              sleep=lambda _s: None)
    total = 0
    for round_num in range(3):
        total += client.save(records, config_fp, f"img-{worker}",
                             config_name=f"w{worker}")
        total += client.save(records, config_fp, "img-shared",
                             config_name="shared")
    stats = client.remote_stats
    return total, stats.fallbacks


class TestConcurrentWriters:
    WORKERS = 4

    @pytest.fixture
    def payload(self):
        vm = CoDesignedVM(vm_soft(), hot_threshold=50)
        vm.load(assemble(LOOP))
        vm.run()
        records = capture_translations(vm.runtime.directory,
                                       vm.state.memory)
        return records, config_fingerprint(vm.config)

    def test_many_processes_one_repository(self, tmp_path, payload):
        records, config_fp = payload
        root = str(tmp_path / "shared-repo")
        context = multiprocessing.get_context("spawn")
        with context.Pool(self.WORKERS) as pool:
            results = pool.starmap(
                _direct_writer,
                [(root, records, config_fp, worker)
                 for worker in range(self.WORKERS)])
        repo = TranslationRepository(root)
        # the first writer stores every object; the rest dedup to 0
        assert sum(results) == len(records)
        check = repo.fsck(repair=False)
        assert check.ok, check.format()
        for worker in range(self.WORKERS):
            loaded = repo.load(config_fp, f"img-{worker}")
            assert {r["key"] for r in loaded} == \
                {r["key"] for r in records}
        assert len(repo.load(config_fp, "img-shared")) == len(records)

    def test_many_processes_one_server(self, tmp_path, payload):
        records, config_fp = payload
        with CacheServer(tmp_path / "served",
                         lease_timeout=10.0) as server:
            context = multiprocessing.get_context("spawn")
            with context.Pool(self.WORKERS) as pool:
                results = pool.starmap(
                    _server_writer,
                    [(server.address, str(tmp_path / f"local-{worker}"),
                      records, config_fp, worker)
                     for worker in range(self.WORKERS)])
            repo = server.repository
            check = repo.fsck(repair=False)
            assert check.ok, check.format()
            # every writer's manifest pulls complete from the one store
            for worker in range(self.WORKERS):
                loaded = repo.load(config_fp, f"img-{worker}")
                assert {r["key"] for r in loaded} == \
                    {r["key"] for r in records}
            # no client had to fall back: the server serialized writes
            assert all(fallbacks == 0 for _written, fallbacks in results)
            assert repo.stats().objects == len(records)


class TestLeaseFairness:
    """Fleet-herd contention: >=16 simultaneous clients, one lease.

    The writer lease has no queue — contenders retry with
    deterministic backoff — so "fairness" here is the liveness
    guarantee the fleet engine depends on: with a bounded retry
    budget, *every* client's writes eventually land (zero fallbacks)
    no matter how many siblings are pushing, and the store stays
    fsck-clean.
    """

    CLIENTS = 16

    @pytest.fixture
    def payload(self):
        vm = CoDesignedVM(vm_soft(), hot_threshold=50)
        vm.load(assemble(LOOP))
        vm.run()
        records = capture_translations(vm.runtime.directory,
                                       vm.state.memory)
        return records, config_fingerprint(vm.config)

    def _run_clients(self, body):
        errors = []
        barrier = threading.Barrier(self.CLIENTS)

        def runner(idx):
            try:
                barrier.wait(timeout=10.0)
                body(idx)
            except Exception as error:   # noqa: BLE001 - reported below
                errors.append((idx, repr(error)))

        threads = [threading.Thread(target=runner, args=(idx,))
                   for idx in range(self.CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

    def test_sixteen_clients_all_land_through_one_server(
            self, tmp_path, payload):
        records, config_fp = payload
        with CacheServer(tmp_path / "served",
                         lease_timeout=10.0) as server:
            outcomes = [None] * self.CLIENTS

            def client(idx):
                remote = RemoteRepository(server.address, retries=8,
                                          sleep=lambda _s: None)
                total = remote.save(records, config_fp, f"img-{idx}",
                                    config_name=f"c{idx}")
                total += remote.save(records, config_fp, "img-shared",
                                     config_name="shared")
                outcomes[idx] = (total,
                                 remote.remote_stats.fallbacks)
                remote.close()

            self._run_clients(client)
            # liveness: every client landed both pushes; dedup means
            # exactly one copy of each object across all 32 saves
            assert all(fallbacks == 0 for _t, fallbacks in outcomes)
            assert sum(total for total, _f in outcomes) == len(records)
            repo = server.repository
            check = repo.fsck(repair=False)
            assert check.ok, check.format()
            for idx in range(self.CLIENTS):
                loaded = repo.load(config_fp, f"img-{idx}")
                assert {r["key"] for r in loaded} == \
                    {r["key"] for r in records}
            assert len(repo.load(config_fp, "img-shared")) == \
                len(records)

    def test_sixteen_clients_outwait_an_external_lease_holder(
            self, tmp_path, payload):
        """A foreign writer holds the lease; the whole herd retries
        through ``lease-busy`` and every client still lands."""
        records, config_fp = payload
        with CacheServer(tmp_path / "served",
                         lease_timeout=0.05) as server:
            lease = WriterLease(server.repository.root, ttl=60.0)
            assert lease.try_acquire() is True
            release_at = time.monotonic() + 0.3
            outcomes = [None] * self.CLIENTS
            release_lock = threading.Lock()

            def patient_sleep(_seconds):
                # deterministic stand-in for backoff: park until the
                # external holder is due to let go, release it once,
                # then yield so sibling threads make progress
                if time.monotonic() >= release_at:
                    with release_lock:
                        if lease.held:
                            lease.release()
                time.sleep(0.02)

            def client(idx):
                remote = RemoteRepository(server.address, retries=40,
                                          backoff_base=0.0,
                                          sleep=patient_sleep)
                written = remote.save(records, config_fp, "img-shared")
                outcomes[idx] = (written, remote.remote_stats.fallbacks,
                                 remote.remote_stats.lease_busy)
                remote.close()

            self._run_clients(client)
            if lease.held:
                lease.release()
            assert all(fallbacks == 0
                       for _w, fallbacks, _b in outcomes)
            # the herd arrived while the lease was held, so busy
            # rejections were actually exercised, and still every
            # object landed exactly once
            assert sum(w for w, _f, _b in outcomes) == len(records)
            assert server.stats.to_dict()["lease_busy"] > 0
            assert any(busy > 0 for _w, _f, busy in outcomes)
            repo = server.repository
            check = repo.fsck(repair=False)
            assert check.ok, check.format()
            assert len(repo.load(config_fp, "img-shared")) == \
                len(records)
