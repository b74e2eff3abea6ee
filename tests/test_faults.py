"""Robustness: fault injection, self-healing, quarantine and fsck.

The contract under test is the package docstring of :mod:`repro.faults`:
translation is an optimization over an always-correct emulation path,
so no failure in the translation stack — rotten persisted state, a
crashing translator, a flipped bit in a code cache — may change
architected results or kill the run.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.cluster.manager import LocalCluster
from repro.core.config import vm_soft
from repro.core.vm import CoDesignedVM
from repro.faults import (
    FAULTS,
    SURFACES,
    FaultInjector,
    all_fault_names,
    injecting,
    make_fault,
    modes_for,
    prepare_baseline,
    run_faulted,
    run_matrix,
)
from repro.isa.x86lite import assemble
from repro.persist import TranslationRepository
from repro.vmm.quarantine import TranslationQuarantine
from repro.vmm.runtime import (
    DispatchBudgetExhausted,
    VMRuntimeError,
)
from repro.workloads.programs import PROGRAMS
from tests.stored import damage_stored, stored_texts

HOT = 20
REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def fib_baseline(tmp_path_factory):
    """One fault-free fibonacci baseline shared by the chaos tests."""
    return prepare_baseline("fibonacci", PROGRAMS["fibonacci"],
                            tmp_path_factory.mktemp("chaos"),
                            hot_threshold=HOT)


def _fresh_vm(source: str, **config_overrides) -> CoDesignedVM:
    vm = CoDesignedVM(vm_soft().with_(**config_overrides),
                      hot_threshold=HOT)
    vm.load(assemble(source))
    return vm


# -- the fault table ------------------------------------------------------------

def test_fault_table_doc_has_one_row_per_fault():
    doc = (REPO / "docs" / "robustness.md").read_text()
    table = doc.split("\n## Faults\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([a-z-]+)` \| `([a-z]+)` \|", table,
                      re.MULTILINE)
    assert sorted(name for name, _ in rows) == all_fault_names()
    assert dict(rows) == {name: fault.surface
                          for name, fault in FAULTS.items()}


def test_every_fault_has_one_surface_and_something_to_do():
    for fault in FAULTS.values():
        assert fault.surface in SURFACES, fault.name
        assert (fault.fire is None) == (not fault.sites), fault.name
        assert fault.fire is not None or fault.mangle is not None


def test_make_fault_copies_the_row_and_overrides_two_fields():
    first, second = make_fault("shard-down"), make_fault("shard-down")
    first.victim = ("shard0",)
    assert second.victim is None and FAULTS["shard-down"].victim is None
    assert make_fault("io-error", rate=1.0, max_injections=3).rate == 1.0
    with pytest.raises(ValueError, match="only rate and max_injections"):
        make_fault("io-error", sites=("dispatch",))
    with pytest.raises(ValueError, match="unknown fault"):
        make_fault("no-such-fault")


def test_modes_for_derives_runs_from_surfaces():
    assert modes_for(["io-error"]) == ["warm"]
    assert modes_for(["bbt-fault"]) == ["cold"]
    assert modes_for(["bbt-fault", "conn-refused"]) == ["remote", "cold"]
    assert modes_for(["conn-refused", "shard-down", "torn-meta"]) == \
        ["cluster"]
    assert modes_for(all_fault_names()) == ["cluster", "cold"]
    assert modes_for([]) == ["warm"]


def test_surface_sweep_runs_a_mixed_set_cold_and_remote(tmp_path):
    """A set with a cold and a remote fault gets one boot of each: the
    translator fault must see live translation, not a second warm
    boot through the server."""
    outcomes = run_matrix({"fibonacci": PROGRAMS["fibonacci"]},
                          [("bbt-fault", "conn-refused")], (11,),
                          str(tmp_path), hot_threshold=HOT, rate=1.0)
    assert [o.mode for o in outcomes] == ["remote", "cold"]
    assert ["remote" in o.stats for o in outcomes] == [True, False]
    assert outcomes[1].injected["bbt-fault"] > 0
    assert all(o.ok for o in outcomes), [o.format() for o in outcomes]


def test_run_faulted_rejects_an_unknown_mode(fib_baseline):
    with pytest.raises(ValueError, match="unknown chaos mode"):
        run_faulted(fib_baseline, [], seed=0, mode="lan")


def test_a_failed_wire_setup_is_an_outcome(fib_baseline, tmp_path,
                                           monkeypatch):
    """A cluster that cannot start fails the run with its flight
    recording; nothing escapes the harness."""
    def refuse(self):
        raise OSError("no port to bind")

    monkeypatch.setattr(LocalCluster, "start", refuse)
    outcome = run_faulted(fib_baseline, ["conn-refused"], seed=0,
                          workdir=tmp_path, mode="remote")
    assert not outcome.ok
    assert outcome.problems[0].startswith(
        "run did not complete: OSError: no port to bind")
    assert outcome.flight_recording is not None
    assert "remote" not in outcome.stats


# -- chaos invariant: every fault, every mode --------------------------------

#: (faults, seed, mode, fault overrides): each fault alone at full rate
#: on its surface, then two cocktails at their table rates through one
#: cache server -- network faults on its socket path, and a rotten
#: manifest on its store
SURVIVABLE = [
    *(pytest.param([name], 11, modes_for([name])[0], {"rate": 1.0},
                   id=name) for name in all_fault_names()),
    pytest.param(["conn-refused", "torn-frame"], 3, "remote", {},
                 id="remote-conn-refused+torn-frame"),
    pytest.param(["corrupt-manifest"], 1, "remote", {},
                 id="remote-corrupt-manifest"),
]


@pytest.mark.parametrize("faults,seed,mode,overrides", SURVIVABLE)
def test_every_fault_class_is_survivable(fib_baseline, faults, seed,
                                         mode, overrides, tmp_path):
    """Injecting a fault set leaves results unchanged."""
    outcome = run_faulted(fib_baseline, faults, seed=seed,
                          workdir=tmp_path, mode=mode, **overrides)
    assert outcome.ok, outcome.format()


def test_all_fault_classes_together(fib_baseline, tmp_path):
    for seed in (0, 1, 2):
        for mode in ("warm", "cold"):
            outcome = run_faulted(fib_baseline, all_fault_names(),
                                  seed=seed, workdir=tmp_path, mode=mode)
            assert outcome.ok, outcome.format()


def test_same_seed_replays_identical_fault_sequence(fib_baseline,
                                                    tmp_path):
    first = run_faulted(fib_baseline, all_fault_names(), seed=5,
                        workdir=tmp_path / "a")
    second = run_faulted(fib_baseline, all_fault_names(), seed=5,
                         workdir=tmp_path / "b")
    assert first.injected == second.injected
    assert first.disk_corruptions == second.disk_corruptions


def test_recovery_is_recorded_in_stats(fib_baseline, tmp_path):
    """Graceful degradation must be visible, not silent."""
    outcome = run_faulted(fib_baseline, ["bbt-fault"], seed=1,
                          workdir=tmp_path, mode="cold", rate=1.0)
    assert outcome.ok, outcome.format()
    assert outcome.stats["translation_faults"] > 0
    assert outcome.stats["interpreted_fallback_instrs"] > 0


def test_verifier_false_positive_degrades_to_cold_boot(fib_baseline,
                                                       tmp_path):
    outcome = run_faulted(fib_baseline, ["verifier-false-positive"],
                          seed=2, workdir=tmp_path, rate=1.0)
    assert outcome.ok, outcome.format()
    persist = outcome.stats["persist"]
    assert persist["verifier_rejected"] == persist["attempted"]
    assert persist["loaded"] == 0


def test_hotspot_misfire_is_absorbed(fib_baseline, tmp_path):
    outcome = run_faulted(fib_baseline, ["hotspot-misfire"], seed=3,
                          workdir=tmp_path, mode="cold", rate=1.0)
    assert outcome.ok, outcome.format()
    assert outcome.stats["hotspot_misfires"] > 0
    # the bogus entries failed into the quarantine, not into a crash
    assert outcome.stats["translation_faults"] > 0


def test_cache_corruption_detected_and_healed(fib_baseline, tmp_path):
    outcome = run_faulted(fib_baseline, ["cache-corruption"], seed=4,
                          workdir=tmp_path, mode="cold", rate=1.0)
    assert outcome.ok, outcome.format()
    if outcome.total_injected:
        assert outcome.stats["integrity_faults_detected"] > 0


# -- quarantine unit behaviour ------------------------------------------------

def test_quarantine_backoff_schedule():
    quarantine = TranslationQuarantine(max_retries=3,
                                       backoff_dispatches=16)
    error = RuntimeError("boom")
    assert quarantine.may_translate(0x100, "bbt", dispatch=0)
    record = quarantine.record_failure(0x100, "bbt", 10, error)
    assert record.retry_at == 10 + 16
    assert not quarantine.may_translate(0x100, "bbt", dispatch=25)
    assert quarantine.may_translate(0x100, "bbt", dispatch=26)
    record = quarantine.record_failure(0x100, "bbt", 26, error)
    assert record.retry_at == 26 + 32          # doubled
    assert not record.degraded
    record = quarantine.record_failure(0x100, "bbt", 60, error)
    assert record.degraded                     # third strike
    assert not quarantine.may_translate(0x100, "bbt", dispatch=10**9)
    assert quarantine.degraded == 1 and quarantine.quarantined == 0


def test_quarantine_success_lifts_the_sentence():
    quarantine = TranslationQuarantine()
    quarantine.record_failure(0x100, "bbt", 0, RuntimeError("x"))
    assert quarantine.quarantined == 1
    quarantine.record_success(0x100, "bbt")
    assert quarantine.quarantined == 0
    assert quarantine.may_translate(0x100, "bbt", dispatch=0)


def test_quarantine_is_per_kind():
    quarantine = TranslationQuarantine(max_retries=1)
    quarantine.record_failure(0x100, "sbt", 0, RuntimeError("x"))
    assert not quarantine.may_translate(0x100, "sbt", 0)
    assert quarantine.may_translate(0x100, "bbt", 0)


# -- typed runtime errors -----------------------------------------------------

def test_dispatch_budget_error_carries_context():
    vm = _fresh_vm(PROGRAMS["fibonacci"])
    with pytest.raises(DispatchBudgetExhausted) as excinfo:
        vm.runtime.run(max_dispatches=2)
    error = excinfo.value
    assert isinstance(error, VMRuntimeError)
    assert error.pc == vm.state.eip
    assert error.mode == "bbt"
    assert error.dispatches == 2
    assert f"pc={vm.state.eip:#x}" in str(error)
    assert "mode=bbt" in str(error)


# -- code-cache integrity -----------------------------------------------------

def test_masked_digest_ignores_linkage_words():
    """The integrity check compares the installed bytes with the
    translation's ``code`` with the linkage words masked: a patched
    linkage word is ignored, any other flipped byte is caught."""
    vm = _fresh_vm(PROGRAMS["fibonacci"])
    vm.run(max_instructions=200_000)
    directory = vm.runtime.directory
    memory = vm.runtime.memory
    translation = directory.bbt_cache.translations[0]
    masked = set()
    for offset in translation.integrity_mask():
        masked.update(range(offset, offset + 4))
    for offset in range(translation.native_len):
        addr = translation.native_addr + offset
        byte = memory.read(addr, 1)[0]
        memory.write(addr, bytes([byte ^ 0xFF]))
        assert directory.verify_integrity(translation) == \
            (offset in masked)
        memory.write(addr, bytes([byte]))
    assert directory.verify_integrity(translation)


def test_integrity_sweep_evicts_corrupted_translation():
    vm = _fresh_vm(PROGRAMS["fibonacci"], integrity_check_interval=1)
    vm.run(max_instructions=200_000)
    runtime = vm.runtime
    translation = runtime.directory.bbt_cache.translations[0]
    assert runtime.directory.verify_integrity(translation)
    masked = set()
    for offset in translation.integrity_mask():
        masked.update(range(offset, offset + 4))
    offset = next(i for i in range(translation.native_len)
                  if i not in masked)
    addr = translation.native_addr + offset
    byte = runtime.memory.read(addr, 1)[0]
    runtime.memory.write(addr, bytes([byte ^ 0x01]))
    assert not runtime.directory.verify_integrity(translation)
    runtime._integrity_sweep()
    assert runtime.integrity_faults_detected == 1
    assert runtime.directory.lookup(translation.entry) is None


# -- crash-safe repository ----------------------------------------------------

def _populated_repo(tmp_path):
    vm = _fresh_vm(PROGRAMS["fibonacci"])
    vm.run(max_instructions=2_000_000)
    repo = TranslationRepository(tmp_path / "repo")
    saved = vm.save_translations(repo)
    assert saved > 0
    return repo


def test_torn_meta_rebuilds_from_objects(tmp_path):
    repo = _populated_repo(tmp_path)
    objects = len(repo._load_meta()["objects"])
    data = repo.meta_path.read_bytes()
    repo.meta_path.write_bytes(data[:len(data) // 2])    # torn write
    fresh = TranslationRepository(repo.root)
    meta = fresh._load_meta()
    assert len(meta["objects"]) == objects
    assert fresh.meta_recoveries == 1


def test_missing_meta_rebuilds_from_objects(tmp_path):
    repo = _populated_repo(tmp_path)
    objects = len(repo._load_meta()["objects"])
    repo.meta_path.unlink()          # crash between objects and meta
    fresh = TranslationRepository(repo.root)
    assert len(fresh._load_meta()["objects"]) == objects


def test_journaled_writes_leave_no_tmp_files(tmp_path):
    repo = _populated_repo(tmp_path)
    leftovers = list(repo.root.rglob("*.tmp"))
    assert leftovers == []


def test_io_errors_are_absorbed_not_raised(tmp_path):
    vm = _fresh_vm(PROGRAMS["fibonacci"])
    vm.run(max_instructions=2_000_000)
    repo = TranslationRepository(tmp_path / "repo")
    injector = FaultInjector(9, ["io-error"], rate=1.0)
    with injecting(injector):
        vm.save_translations(repo)   # every write fails: no exception
    assert repo.io_errors > 0
    # and a fault-free save afterwards fully recovers
    assert vm.save_translations(repo) > 0


# -- fsck ---------------------------------------------------------------------

def test_fsck_clean_repo_is_clean(tmp_path):
    repo = _populated_repo(tmp_path)
    report = repo.fsck()
    assert report.ok, report.format()


@pytest.mark.parametrize("fault_name", [
    name for name in all_fault_names() if FAULTS[name].mangle is not None])
def test_fsck_detects_and_repairs_every_disk_fault(tmp_path, fault_name):
    repo = _populated_repo(tmp_path)
    injector = FaultInjector(13, [fault_name], rate=1.0)
    corruptions = injector.mangle_repository(repo.root)
    assert corruptions > 0
    dirty = repo.fsck(repair=False)
    if fault_name not in ("stale-record", "split-manifest"):
        # stale records are structurally valid; staleness is caught by
        # the loader's source re-fingerprinting, not by fsck — and
        # split-manifest only *drops* entries (a replica lagging its
        # siblings), damage anti-entropy repairs, not fsck
        assert not dirty.ok, (fault_name, dirty.format())
    repo.fsck(repair=True)
    clean = repo.fsck(repair=False)
    assert clean.ok, (fault_name, clean.format())


def test_fsck_repair_quarantines_corrupt_objects(tmp_path):
    repo = _populated_repo(tmp_path)
    keys = sorted(stored_texts(repo.root))
    damage_stored(repo.root, keys[0], lambda _text: "{ not json")
    report = repo.fsck(repair=True)
    assert report.corrupt_objects == 1
    assert report.quarantined_objects == 1
    assert [path.read_text() for path in repo.quarantine_dir.iterdir()] \
        == ["{ not json"]
    # the pack was rewritten without it: the survivors stay indexed
    assert sorted(stored_texts(repo.root)) == keys[1:]
    assert repo.fsck().ok


def test_fsck_indexes_unindexed_object(tmp_path):
    repo = _populated_repo(tmp_path)
    meta = repo._load_meta()
    key = sorted(meta["objects"])[0]
    del meta["objects"][key]
    repo._write_meta(meta)
    dirty = repo.fsck()
    assert dirty.unindexed_objects == 1
    repo.fsck(repair=True)
    assert key in repo._load_meta()["objects"]
    assert repo.fsck().ok


def test_fsck_strips_dangling_manifest_refs(tmp_path):
    repo = _populated_repo(tmp_path)
    manifest_path = sorted(repo.manifests_dir.glob("*.json"))[0]
    manifest = json.loads(manifest_path.read_text())
    victim_key = manifest["entries"][0]
    damage_stored(repo.root, victim_key, lambda _text: None)
    repo.fsck(repair=True)
    repaired = json.loads(manifest_path.read_text())
    assert victim_key not in repaired["entries"]
    assert repo.fsck().ok


def test_warm_start_works_after_fsck_repair(tmp_path):
    repo = _populated_repo(tmp_path)
    injector = FaultInjector(17, ["corrupt-object", "torn-meta"],
                             rate=0.5)
    injector.mangle_repository(repo.root)
    repo.fsck(repair=True)
    assert repo.fsck().ok
    vm = _fresh_vm(PROGRAMS["fibonacci"])
    report = vm.warm_start(repo)
    assert report.corrupt == 0       # damage already quarantined
    vm.run(max_instructions=2_000_000)
    assert vm.state.exit_code == 0


# -- loader hardening ---------------------------------------------------------

def test_loader_counts_undecodable_records(tmp_path, monkeypatch):
    repo = _populated_repo(tmp_path)
    import repro.persist.loader as loader_module
    real_rebuild = loader_module.WarmStartLoader._rebuild
    calls = []

    def explode_once(*args):
        if not calls:
            calls.append(1)
            raise RuntimeError("injected rebuild meltdown")
        return real_rebuild(*args)

    monkeypatch.setattr(loader_module.WarmStartLoader, "_rebuild",
                        explode_once)
    vm = _fresh_vm(PROGRAMS["fibonacci"])
    report = vm.warm_start(repo)
    assert report.undecodable == 1
    assert report.dropped >= 1
    assert "undecodable 1" in report.format()
    vm.run(max_instructions=2_000_000)
    assert vm.state.exit_code == 0


def test_stats_surface_persist_breakdown(tmp_path):
    repo = _populated_repo(tmp_path)
    vm = _fresh_vm(PROGRAMS["fibonacci"])
    vm.warm_start(repo)
    vm.run(max_instructions=2_000_000)
    stats = vm.stats()
    persist = stats["persist"]
    assert persist["loaded"] > 0
    assert persist["dropped"] == 0
    for reason in ("stale_source", "corrupt", "verifier_rejected",
                   "undecodable", "missing_objects"):
        assert reason in persist
    for counter in ("translation_faults", "blocks_quarantined",
                    "blocks_degraded", "integrity_faults_detected",
                    "hotspot_misfires"):
        assert stats[counter] == 0   # healthy run


def test_stats_empty_before_load():
    vm = CoDesignedVM(vm_soft())
    assert vm.stats() == {}
