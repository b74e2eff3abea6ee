"""Persistent translation repository and warm-start loader tests.

The sanitizer fixture (conftest) arms the full verifier rule-pack on
every ``TranslationDirectory.install``, so each warm start here is also
screened by the PR-1 static checks.
"""

import errno
import json
import os

import pytest

import repro.persist.repository as repository_module
from repro.core.config import interp_sbt, vm_be, vm_soft
from repro.core.vm import CoDesignedVM
from repro.isa.x86lite import assemble
from repro.persist import (
    TranslationRepository,
    WarmStartLoader,
    capture_translations,
    config_fingerprint,
    encode_record,
    image_fingerprint,
    parse_record,
    serialize_translation,
)
from repro.workloads.programs import PROGRAMS
from tests.stored import damage_stored, stored_texts, with_stored_code

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


def cold_save(repo, source=LOOP, config=None, hot_threshold=50):
    vm = CoDesignedVM(config or vm_soft(), hot_threshold=hot_threshold)
    vm.load(assemble(source))
    report = vm.run()
    vm.save_translations(repo)
    return vm, report


def warm_boot(repo, source=LOOP, config=None, hot_threshold=50):
    vm = CoDesignedVM(config or vm_soft(), hot_threshold=hot_threshold)
    vm.load(assemble(source))
    load = vm.warm_start(repo)
    return vm, load


class TestRoundTrip:
    def test_warm_run_translates_nothing(self, tmp_path):
        repo = TranslationRepository(tmp_path / "cache")
        _cold_vm, cold = cold_save(repo)
        warm_vm, load = warm_boot(repo)
        warm = warm_vm.run()
        assert load.loaded == load.attempted > 0
        assert load.dropped == 0
        assert warm.blocks_translated == 0
        assert warm.superblocks_translated == 0
        assert warm.output == cold.output
        assert warm.exit_code == cold.exit_code

    def test_sbt_copies_round_trip(self, tmp_path):
        repo = TranslationRepository(tmp_path / "cache")
        cold_save(repo, hot_threshold=20)
        warm_vm, load = warm_boot(repo, hot_threshold=20)
        assert load.sbt_loaded > 0
        warm = warm_vm.run()
        assert warm.superblocks_translated == 0
        # loaded SBT code actually executes (fused pairs observed)
        assert warm.fused_pairs_executed > 0

    def test_report_reaches_execution_stats(self, tmp_path):
        repo = TranslationRepository(tmp_path / "cache")
        cold_save(repo)
        warm_vm, load = warm_boot(repo)
        warm = warm_vm.run()
        assert warm.persist_loaded == load.loaded
        assert warm.persist_dropped == 0
        assert warm.persist_chains_restored == load.chains_restored
        assert "warm-start loads" in warm.summary()

    def test_chains_restored_eagerly(self, tmp_path):
        repo = TranslationRepository(tmp_path / "cache")
        cold_save(repo)
        _warm_vm, load = warm_boot(repo)
        assert load.chains_restored > 0

    def test_counter_rebound_to_fresh_allocation(self, tmp_path):
        repo = TranslationRepository(tmp_path / "cache")
        cold_vm, _ = cold_save(repo)
        old_counters = {t.counter_addr for t
                        in cold_vm.runtime.directory.bbt_cache.translations
                        if t.counter_addr is not None}
        warm_vm, load = warm_boot(repo)
        assert load.bbt_loaded > 0
        # warm profiling still works: a second hot run promotes as usual
        warm = warm_vm.run()
        assert warm.exit_code == 0
        for translation in \
                warm_vm.runtime.directory.bbt_cache.translations:
            assert translation.counter_addr is not None

    def test_works_under_vm_be_and_interp(self, tmp_path):
        for config in (vm_be(), interp_sbt()):
            repo = TranslationRepository(
                tmp_path / f"cache-{config.mode}")
            _, cold = cold_save(repo, config=config)
            warm_vm, load = warm_boot(repo, config=config)
            warm = warm_vm.run()
            assert load.dropped == 0
            assert warm.blocks_translated == 0
            assert warm.superblocks_translated == 0
            assert warm.output == cold.output

    #: ``(BBT blocks, SBT superblocks)`` a cold run translates at
    #: ``hot_threshold=50``; a change that moves one shows here.
    COLD_TRANSLATIONS = {
        "bubble_sort": (10, 3), "checksum": (6, 1),
        "fib_recursive": (8, 5), "fibonacci": (4, 0), "matmul": (14, 4),
        "mixhash": (6, 2), "quicksort": (17, 2), "sieve": (11, 6),
    }

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_every_seed_workload_warm_starts_clean(self, tmp_path, name):
        repo = TranslationRepository(tmp_path / "cache")
        _, cold = cold_save(repo, source=PROGRAMS[name])
        warm_vm, load = warm_boot(repo, source=PROGRAMS[name])
        warm = warm_vm.run()
        assert (cold.blocks_translated, cold.superblocks_translated) \
            == self.COLD_TRANSLATIONS[name]
        assert load.loaded == \
            cold.blocks_translated + cold.superblocks_translated
        assert load.dropped == 0
        assert warm.blocks_translated == 0
        assert warm.superblocks_translated == 0
        assert warm.output == cold.output
        assert warm.exit_code == cold.exit_code


class TestInvalidation:
    def test_changed_program_bytes_are_stale(self, tmp_path):
        repo = TranslationRepository(tmp_path / "cache")
        cold_save(repo)
        # same layout, one mutated instruction: image fingerprint moves,
        # so the manifest simply does not match
        changed = LOOP.replace("mov ecx, 200", "mov ecx, 201")
        warm_vm, load = warm_boot(repo, source=changed)
        assert load.loaded == 0
        warm = warm_vm.run()
        assert warm.blocks_translated > 0  # translated from scratch

    def test_stale_source_dropped_at_record_level(self, tmp_path):
        """Even with a forged manifest match, per-record source
        fingerprints catch translations of different program bytes."""
        repo = TranslationRepository(tmp_path / "cache")
        vm, _ = cold_save(repo)
        records = capture_translations(vm.runtime.directory,
                                       vm.state.memory)
        changed_vm = CoDesignedVM(vm_soft(), hot_threshold=50)
        changed_vm.load(assemble(
            LOOP.replace("add esi, ecx", "sub esi, ecx")))
        load = WarmStartLoader(changed_vm.runtime).load_records(records)
        assert load.stale_source > 0
        assert load.loaded < load.attempted

    def test_config_fingerprint_separates_manifests(self, tmp_path):
        repo = TranslationRepository(tmp_path / "cache")
        cold_save(repo, hot_threshold=50)
        # a different hot threshold is a different config fingerprint
        warm_vm, load = warm_boot(repo, hot_threshold=51)
        assert load.attempted == 0
        assert config_fingerprint(vm_soft().with_(hot_threshold=50)) != \
            config_fingerprint(vm_soft().with_(hot_threshold=51))

    def test_corrupt_object_never_installs(self, tmp_path):
        repo = TranslationRepository(tmp_path / "cache")
        cold_save(repo)
        # tamper every stored record: flip one bit of its source
        def flip(text):
            record = json.loads(text)
            source = bytearray.fromhex(record["source"][0][1])
            source[-1] ^= 1
            record["source"][0][1] = source.hex()
            return json.dumps(record)

        tampered = 0
        for key in stored_texts(repo.root):
            damage_stored(repo.root, key, flip)
            tampered += 1
        assert tampered > 0
        warm_vm, load = warm_boot(repo)
        # the store only stores: a tampered object that still parses is
        # served, and the loader's validation (it recomputes the content
        # key) is the one check that finds it
        assert load.loaded == 0
        assert load.corrupt == tampered
        assert load.missing_objects == 0
        warm = warm_vm.run()
        assert warm.exit_code == 0  # falls back to cold translation

    def test_truncated_object_counts_missing(self, tmp_path):
        repo = TranslationRepository(tmp_path / "cache")
        cold_save(repo)
        victim = min(stored_texts(repo.root))
        damage_stored(repo.root, victim, lambda _text: "{not json")
        _warm_vm, load = warm_boot(repo)
        assert load.missing_objects == 1
        assert load.loaded == load.attempted

    def test_verifier_rejects_bad_record(self, tmp_path):
        """A record carrying code that breaks a verifier invariant is
        dropped before install: no layout since 6 holds code."""
        repo = TranslationRepository(tmp_path / "cache")
        vm, _ = cold_save(repo)
        translation = vm.runtime.directory.sbt_cache.translations[0]
        record = serialize_translation(translation, vm.state.memory)
        fresh_vm = CoDesignedVM(vm_soft(), hot_threshold=50)
        fresh_vm.load(assemble(LOOP))
        # drop the terminating exit stub: the verifier's control-flow
        # rule would reject a fall-through-into-nothing body
        victim = with_stored_code(json.loads(record.text), translation,
                                  translation.code[:-12])
        victim["exits"] = []
        report = WarmStartLoader(fresh_vm.runtime).load_records(
            [encode_record(victim)])
        assert report.loaded == 0
        assert report.verifier_rejected + report.corrupt == 1


class TestRepositoryStore:
    def test_content_dedup_across_saves(self, tmp_path):
        repo = TranslationRepository(tmp_path / "cache")
        _, _ = cold_save(repo)
        vm2 = CoDesignedVM(vm_soft(), hot_threshold=50)
        vm2.load(assemble(LOOP))
        vm2.run()
        written_again = vm2.save_translations(repo)
        assert written_again == 0  # identical content keys: reused

    def test_stats_reflect_contents(self, tmp_path):
        repo = TranslationRepository(tmp_path / "cache")
        cold_save(repo)
        stats = repo.stats()
        assert stats.objects > 0
        assert stats.total_bytes > 0
        assert len(stats.manifests) == 1
        assert stats.manifests[0]["entries"] == stats.objects
        assert "repository" in stats.format()

    def test_gc_lru_evicts_oldest_first(self, tmp_path):
        repo = TranslationRepository(tmp_path / "cache")
        cold_save(repo, source=LOOP)
        first_keys = set(stored_texts(repo.root))
        # second program saved later: its objects are more recent
        cold_save(repo, source=PROGRAMS["checksum"])
        texts = stored_texts(repo.root)
        second_keys = set(texts) - first_keys
        assert second_keys
        second_bytes = sum(len(texts[key].encode()) for key in second_keys)
        report = repo.gc(second_bytes)
        assert report.evicted_objects == len(first_keys)
        assert set(stored_texts(repo.root)) == second_keys
        # the packs hold exactly the survivors: a rebuilt index agrees
        repo.meta_path.unlink()
        assert set(repo._load_meta()["objects"]) == second_keys

    def test_gc_strips_manifest_references(self, tmp_path):
        repo = TranslationRepository(tmp_path / "cache")
        cold_save(repo)
        repo.gc(0)  # evict everything
        warm_vm, load = warm_boot(repo)
        assert load.attempted == 0
        assert load.loaded == 0

    def test_load_touch_protects_from_gc(self, tmp_path):
        repo = TranslationRepository(tmp_path / "cache")
        vm, _ = cold_save(repo, source=LOOP)
        cold_save(repo, source=PROGRAMS["checksum"])
        # touching the first manifest's objects makes *them* the MRU set
        config_fp = config_fingerprint(vm.config)
        image_fp = image_fingerprint(vm._image)
        records = repo.load(config_fp, image_fp)
        assert records
        keep_bytes = sum(len(record.text.encode()) for record in records)
        repo.gc(keep_bytes)
        assert repo.load(config_fp, image_fp)


def made_up(count, name="k"):
    """Stored texts under made-up keys: a store does not judge them."""
    return [parse_record(json.dumps({"entry": index, "key": f"{name}{index}",
                                     "kind": "bbt"}))
            for index in range(count)]


class TestOnePackPerSave:
    @pytest.mark.parametrize("count", [1, 206])
    def test_a_save_makes_three_fsyncs(self, tmp_path, monkeypatch, count):
        """A save of new records writes one pack, one manifest and one
        index, and syncs each once — however many records it holds."""
        synced, real_fsync = [], os.fsync
        monkeypatch.setattr(os, "fsync",
                            lambda fd: synced.append(fd) or real_fsync(fd))
        visits, real_point = [], repository_module.fault_point
        monkeypatch.setattr(
            repository_module, "fault_point",
            lambda site, **context: visits.append(
                (site, context["path"].rpartition("/")[2]))
            or real_point(site, **context))
        repo = TranslationRepository(tmp_path / "store")
        assert repo.save(made_up(count), "cfg", "img") == count
        assert len(synced) == 3
        assert [name.rpartition(".")[2] for site, name in visits
                if site == "repo.fsync"] == ["pack", "json", "json"]
        assert [name for site, name in visits
                if site == "repo.fsync"][1:] == ["cfg__img.json",
                                                 "meta.json"]
        assert len(list((tmp_path / "store" / "packs").iterdir())) == 1
        assert len(stored_texts(repo.root)) == count

    def test_a_lost_index_write_is_rebuilt_from_the_packs(
            self, tmp_path, monkeypatch):
        """An io-error on the ``meta.json`` write after the pack landed:
        the next open sees a pack its index does not name, rebuilds the
        index from the packs, and the pull returns every record."""
        repo = TranslationRepository(tmp_path / "store")
        first, second = made_up(3, "a"), made_up(4, "b")
        assert repo.save(first, "cfg", "first") == 3
        real_point = repository_module.fault_point

        def failing_meta_write(site, **context):
            if site == "repo.write" and \
                    context["path"].endswith("meta.json"):
                raise OSError(errno.EIO, "injected EIO writing meta")
            return real_point(site, **context)

        monkeypatch.setattr(repository_module, "fault_point",
                            failing_meta_write)
        assert repo.save(second, "cfg", "second") == 4
        assert repo.io_errors == 1
        monkeypatch.setattr(repository_module, "fault_point", real_point)
        fresh = TranslationRepository(repo.root)
        for name, records in (("second", second), ("first", first)):
            assert fresh.fetch("cfg", name) == (records, 0)
        assert fresh.meta_recoveries > 0
        # and the first load wrote the rebuilt index back
        meta, rebuilt = TranslationRepository(repo.root)._open_meta()
        assert not rebuilt and len(meta["objects"]) == 7


class TestMergedManifest:
    """``merge=True`` writes the sorted union of keys, each once, from
    the first push on: any push order converges on one manifest."""

    def test_a_merged_push_into_an_empty_store_writes_sorted_entries(
            self, tmp_path):
        records = made_up(12)
        repo = TranslationRepository(tmp_path / "store")
        repo.save(records[::-1] + records[:3], "cfg", "img", merge=True)
        assert repo._read_manifest("cfg", "img")["entries"] == \
            sorted(record["key"] for record in records)

    def test_repeating_a_merged_push_writes_nothing(
            self, tmp_path, monkeypatch):
        records = made_up(12)[::-1]
        repo = TranslationRepository(tmp_path / "store")
        repo.save(records, "cfg", "img", merge=True)
        writes, real_point = [], repository_module.fault_point
        monkeypatch.setattr(
            repository_module, "fault_point",
            lambda site, **context: (site == "repo.write"
                                     and writes.append(context["path"]))
            or real_point(site, **context))
        assert repo.save(records, "cfg", "img", merge=True) == 0
        assert writes == []

    def test_push_order_does_not_change_the_manifest(self, tmp_path):
        records = made_up(12)
        manifests = []
        for name, order in (("one", records), ("two", records[::-1])):
            repo = TranslationRepository(tmp_path / name)
            repo.save(order, "cfg", "img", merge=True)
            manifests.append(repo._manifest_path("cfg", "img").read_bytes())
        assert manifests[0] == manifests[1]


class TestFlushCounters:
    def test_flush_pressure_counters_surface(self):
        """Tiny caches force flushes; the new counters must record the
        lost work and the re-translations."""
        from repro.memory import AddressSpace
        from repro.memory.loader import DEFAULT_STACK_TOP, load_image
        from repro.isa.x86lite.registers import Reg
        from repro.isa.x86lite.state import X86State
        from repro.translator import TranslationDirectory
        from repro.vmm.runtime import VMRuntime

        state = X86State(memory=AddressSpace())
        state.regs[Reg.ESP] = DEFAULT_STACK_TOP
        state.eip = load_image(assemble(PROGRAMS["quicksort"]),
                               state.memory)
        # keep the caches adjacent (chain JMP offsets are imm24-limited)
        directory = TranslationDirectory(state.memory,
                                         bbt_base=0x2000_0000,
                                         bbt_capacity=1024,
                                         sbt_base=0x2000_0000 + 1024,
                                         sbt_capacity=16384)
        runtime = VMRuntime(state, vm_soft().with_(hot_threshold=50),
                            directory=directory)
        runtime.run()
        stats = runtime.stats()
        assert stats["bbt_flushes"] > 0
        assert stats["translations_lost_in_flushes"] > 0
        assert stats["bbt_retranslations"] > 0
        # the CLI-facing report prints them
        from repro.core.stats import ExecutionReport
        report = ExecutionReport(
            config_name="t", exit_code=0, output=[],
            bbt_flushes=stats["bbt_flushes"],
            translations_lost_in_flushes=stats[
                "translations_lost_in_flushes"],
            bbt_retranslations=stats["bbt_retranslations"])
        text = report.summary()
        assert "cache flushes" in text
        assert "translations lost" in text
        assert "re-translations" in text
