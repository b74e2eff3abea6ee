"""The read path: a store only stores, the loader is the one judge.

A pull ships each stored object as the text on the server's disk; no
store or server parses, validates or re-keys it.  These tests damage
stored objects and check, through a live ``CacheServer`` and through a
2x2 ``LocalCluster``, where each kind of damage is caught:

* an object that still parses and still sits under its own key reaches
  the loader, whose ``validate_record`` counts it ``corrupt``;
* an object that is truncated, is not JSON, or holds another record is
  dropped by ``pulled_records`` and shows as a ``missing_objects``;
* either way nothing of it is installed, the VM translates the block
  itself and computes what the interpreter computes.
"""

import json
import shutil
from pathlib import Path

import pytest

import repro.persist.loader as loader_module
from repro.cacheserver import CacheServer
from repro.cluster import ClusterRepository, LocalCluster, anti_entropy
from repro.core.config import ref_superscalar, vm_soft
from repro.core.vm import CoDesignedVM
from repro.isa.x86lite import assemble
from repro.persist import (
    PersistFormatError,
    RemoteRepository,
    TranslationRepository,
    WarmStartLoader,
    capture_translations,
    config_fingerprint,
    image_fingerprint,
    parse_record,
    validate_record,
)
from repro.persist.remote import pulled_records
from repro.verify import rule_ids, sanitizer
from tests.test_persist import LOOP
from tests.stored import damage_stored, stored_texts
from tests.test_record_format import forge_manifest

DATA = Path(__file__).parent / "data"


def booted(config=None) -> CoDesignedVM:
    vm = CoDesignedVM(config or vm_soft(), hot_threshold=50)
    vm.load(assemble(LOOP))
    return vm


@pytest.fixture(scope="module")
def reference():
    vm = booted(ref_superscalar())
    vm.run()
    return vm.state.exit_code, vm.state.output


@pytest.fixture(scope="module")
def payload():
    vm = booted()
    vm.run()
    return (capture_translations(vm.runtime.directory, vm.state.memory),
            config_fingerprint(vm.config), image_fingerprint(vm._image))


# -- damage, applied to stored copies on disk --------------------------------

def tamper(text: str, _others) -> str:
    """Flip a bit of a record's source; the key stays, so the text
    parses and sits under its own name: only recomputing the content key
    finds it."""
    record = json.loads(text)
    source = bytearray.fromhex(record["source"][0][1])
    source[-1] ^= 1
    record["source"][0][1] = source.hex()
    return json.dumps(record)


def truncate(text: str, _others) -> str:
    return text[:40]


def scribble(_text: str, _others) -> str:
    return "{not json"


def misname(text: str, others) -> str:
    """An intact record, stored under another record's name (one of any
    store: a shard may hold a single object)."""
    return next(other for other in others if other != text)


DROPPED_BEFORE_THE_LOADER = {"truncated": truncate, "non-json": scribble,
                             "wrong-name": misname}


def by_entry(text: str):
    """A stored record's place in a pick that the layout cannot move: by
    its entry and kind, not by its key."""
    record = json.loads(text)
    return record["entry"], record["kind"]


def damage(store_dirs, how, every=False):
    """Damage one stored record (the one of the lowest entry) or every
    record in each store directory the same way; returns how many
    records of one store were hit."""
    hit = 0
    everywhere = [text for store in store_dirs
                  for _key, text in sorted(stored_texts(store).items())]
    for store in store_dirs:
        texts = stored_texts(store)
        keys = sorted(texts, key=lambda key: by_entry(texts[key]))
        if not keys:
            continue
        victims = keys if every else keys[:1]
        for victim in victims:
            damage_stored(store, victim,
                          lambda text: how(text, everywhere))
        hit = max(hit, len(victims))
    return hit


# -- the two served surfaces --------------------------------------------------

class Served:
    """One live server, or a 2x2 cluster, holding the payload."""

    def __init__(self, kind, root, payload):
        self.records, self.config_fp, self.image_fp = payload
        if kind == "server":
            self.grid = None
            self.server = CacheServer(root / "served")
            self.server.start()
            self.stores = [root / "served"]
        else:
            self.grid = LocalCluster(root / "grid", shards=2, replicas=2)
            self.grid.start()
            self.stores = [self.grid.repo_dir(group, index)
                           for group, index in sorted(self.grid.servers)]
        publisher = self.client()
        publisher.save(self.records, self.config_fp, self.image_fp)
        publisher.close()

    def client(self):
        if self.grid is None:
            return RemoteRepository(self.server.address, local=None,
                                    retries=0)
        return ClusterRepository(self.grid.spec(), retries=1,
                                 sleep=lambda _s: None)

    def warm_boot(self):
        vm = booted()
        client = self.client()
        try:
            return vm, vm.warm_start(client)
        finally:
            client.close()

    def close(self):
        if self.grid is None:
            self.server.stop()
        else:
            self.grid.stop()


@pytest.fixture(params=["server", "cluster"])
def served(request, tmp_path, payload):
    surface = Served(request.param, tmp_path, payload)
    yield surface
    surface.close()


def assert_boots_like_the_interpreter(vm, reference, translated=True):
    result = vm.run()
    assert (vm.state.exit_code, vm.state.output) == reference
    assert (result.blocks_translated > 0) == translated


class TestDamagedStores:
    def test_clean_store_boots_warm(self, served, reference):
        vm, report = served.warm_boot()
        assert report.loaded == len(served.records)
        assert report.dropped == 0
        assert_boots_like_the_interpreter(vm, reference, translated=False)

    def test_tampered_objects_reach_the_loader_and_die_there(
            self, served, reference):
        hit = damage(served.stores, tamper, every=True)
        assert hit > 0
        vm, report = served.warm_boot()
        assert report.attempted == report.corrupt == len(served.records)
        assert (report.loaded, report.missing_objects) == (0, 0)
        directory = vm.runtime.directory
        assert not directory.bbt_cache.translations
        assert not directory.sbt_cache.translations
        assert_boots_like_the_interpreter(vm, reference)

    @pytest.mark.parametrize("kind", sorted(DROPPED_BEFORE_THE_LOADER))
    def test_unparseable_objects_never_reach_the_loader(
            self, served, reference, kind):
        # one object per store: in the cluster, one per owning group
        # (both replicas alike, or the sibling would serve the good copy)
        damage(served.stores, DROPPED_BEFORE_THE_LOADER[kind])
        groups = 1 if served.grid is None else sum(
            1 for keys in served.grid.spec().ring().partition(
                [r["key"] for r in served.records]).values() if keys)
        vm, report = served.warm_boot()
        assert report.missing_objects == groups
        assert report.attempted == len(served.records) - groups
        assert report.corrupt == 0
        assert report.loaded == report.attempted
        assert_boots_like_the_interpreter(vm, reference)


class TestServerShipsWhatItHolds:
    @pytest.fixture
    def server(self, tmp_path, payload):
        surface = Served("server", tmp_path, payload)
        yield surface
        surface.close()

    def pull(self, surface):
        return surface.server.dispatch({
            "op": "pull", "config_fp": surface.config_fp,
            "image_fp": surface.image_fp})

    def test_objects_are_the_stored_text(self, server):
        damage(server.stores, tamper)
        damage(server.stores, scribble)     # the same, first object
        response = self.pull(server)
        assert len(response["entries"]) == len(response["objects"]) \
            == len(server.records)
        stored = stored_texts(server.stores[0])
        for key, text in zip(response["entries"], response["objects"]):
            assert text == stored[key]
        assert "{not json" in response["objects"]
        # stored text is wire text: compact, canonical key order
        clean = json.loads(response["objects"][-1])
        assert response["objects"][-1] == json.dumps(
            clean, sort_keys=True, separators=(",", ":"))
        assert len(pulled_records(response)) == len(server.records) - 1

    def test_a_missing_object_ships_as_null(self, server):
        texts = stored_texts(server.stores[0])
        victim = min(texts, key=lambda key: by_entry(texts[key]))
        damage_stored(server.stores[0], victim, lambda _text: None)
        response = self.pull(server)
        assert response["objects"].count(None) == 1
        assert len(response["entries"]) == len(server.records)
        assert len(pulled_records(response)) == len(server.records) - 1

    def test_the_server_neither_validates_nor_rekeys(self, server,
                                                     monkeypatch):
        import repro.cacheserver.server as server_module
        import repro.persist.format as format_module

        def forbidden(*_args):
            raise AssertionError("the read path judged a record")
        for module, name in ((format_module, "encode_record"),
                             (format_module, "validate_record"),
                             (server_module, "parse_record"),
                             (server_module, "validate_record")):
            monkeypatch.setattr(module, name, forbidden)
        response = self.pull(server)
        assert len(pulled_records(response)) == len(server.records)

    def test_manifest_and_objects_come_from_one_read(self, server,
                                                     monkeypatch):
        """A merge-push landing between two manifest reads used to make
        ``manifest_entries`` disagree with the records served."""
        repository = server.server.repository
        real = repository._read_manifest
        reads = []

        def racing(config_fp, image_fp):
            manifest = real(config_fp, image_fp)
            reads.append(len(manifest["entries"]))
            # the next reader would see a manifest one entry shorter
            shorter = dict(manifest, entries=manifest["entries"][:-1])
            repository._manifest_path(config_fp, image_fp).write_text(
                json.dumps(shorter))
            return manifest
        monkeypatch.setattr(repository, "_read_manifest", racing)
        response = self.pull(server)
        assert reads == [len(server.records)]
        assert len(response["entries"]) == len(server.records)
        assert len(pulled_records(response)) == len(response["entries"])


class TestV1ObjectsBehindAForgedManifest:
    def test_served_v1_objects_are_corrupt_not_installed(self, tmp_path,
                                                         reference):
        store = tmp_path / "store"
        shutil.copytree(DATA / "v1_store", store)
        vm = booted()
        assert forge_manifest(store, vm) == 5
        with CacheServer(store) as server:
            client = RemoteRepository(server.address, local=None)
            report = vm.warm_start(client)
            client.close()
        assert report.corrupt == report.attempted == 5
        assert (report.loaded, report.missing_objects) == (0, 0)
        assert_boots_like_the_interpreter(vm, reference)


class TestRepairStillScreens:
    def test_anti_entropy_heals_a_tampered_replica(self, tmp_path,
                                                   payload):
        records, config_fp, image_fp = payload
        with LocalCluster(tmp_path / "grid", shards=1,
                          replicas=2) as grid:
            spec = grid.spec()
            client = ClusterRepository(spec, retries=1,
                                       sleep=lambda _s: None)
            client.save(records, config_fp, image_fp)
            client.close()
            rotten = grid.repo_dir("shard0", 1)
            damage([rotten], tamper)
            report = anti_entropy(spec, retries=1, sleep=lambda _s: None)
            assert report.ok, report.format()
            # the tampered copy was screened out, never spread, and the
            # good sibling's copy was written over it
            assert report.groups[0].corrupt_discarded == 1
            assert report.total_re_replicated == 1
            healed = TranslationRepository(rotten).load(config_fp,
                                                        image_fp)
            assert len(healed) == len(records)
            for record in healed:
                validate_record(record)
            again = anti_entropy(spec, retries=1, sleep=lambda _s: None)
            assert again.ok and again.total_re_replicated == 0
            assert again.groups[0].corrupt_discarded == 0


class TestTheLoaderIsTheOneJudge:
    def test_nothing_is_installed_unvalidated(self, payload, monkeypatch):
        records = [parse_record(record.text) for record in payload[0]]
        edited = json.loads(records[0].text)
        edited["entry"] += 1
        broken = parse_record(json.dumps(edited))
        accepted = []
        real = loader_module.validate_record

        def judging(record):
            real(record)
            accepted.append(record["key"])
        monkeypatch.setattr(loader_module, "validate_record", judging)
        vm = booted()
        installed = []
        real_install = vm.runtime.directory.install

        def recording(data, translation, *placement):
            installed.append((translation.kind, translation.entry))
            real_install(data, translation, *placement)
        monkeypatch.setattr(vm.runtime.directory, "install", recording)
        report = WarmStartLoader(vm.runtime).load_records(
            records + [broken])
        with pytest.raises(PersistFormatError):
            real(broken)
        assert report.corrupt == 1
        assert sorted(accepted) == sorted(r["key"] for r in records)
        assert sorted(installed) == sorted(
            (r["kind"], r["entry"]) for r in records)

    def test_every_rule_runs_on_a_warm_install(self, payload):
        """The loader runs no screen: it installs only what the VM's own
        translators built.  Whenever the sanitizer is armed, all fifteen
        rules run on the installed bytes of every translation."""
        assert not hasattr(loader_module, "run_rules")
        vm = booted()
        with sanitizer.collecting() as installed:
            report = WarmStartLoader(vm.runtime).load_records(
                [parse_record(record.text) for record in payload[0]])
        assert report.loaded == len(payload[0])
        assert 0 < report.sbt_loaded < report.loaded
        assert installed.ok
        assert installed.rules_run == tuple(rule_ids())
        assert len(installed.rules_run) == 15
