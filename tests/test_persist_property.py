"""Property test: persisted translations round-trip losslessly.

For random hot-loop programs (shared ``loop_programs`` strategy): run
cold, serialize every translation through real JSON, warm-start a fresh
VM from the deserialized records, and check

* the re-materialized streams are semantically identical to the
  originals (equal micro-op by micro-op, modulo the re-bound profiling
  counter address in the BBT prologue);
* every record passes the verifier at install (the autouse sanitizer
  fixture raises on any violation);
* the warm run translates nothing and produces identical output.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import vm_soft
from repro.core.vm import CoDesignedVM
from repro.isa.fusible.opcodes import UOp
from repro.isa.fusible.registers import R_SCRATCH0
from repro.isa.x86lite import assemble
from repro.persist import (
    TranslationRepository,
    WarmStartLoader,
    capture_translations,
    parse_record,
)
from tests.stored import packed_keys
from tests.strategies import loop_programs
from tests.test_record_format import unsealed

HOT_THRESHOLD = 4  # low: random loops are short but must still promote


def _boot(source: str) -> CoDesignedVM:
    vm = CoDesignedVM(vm_soft(), hot_threshold=HOT_THRESHOLD)
    vm.load(assemble(source))
    return vm


def _canonical(uops, counter_addr):
    """The stream with the counter-address imms masked out.

    The BBT profiling prologue materializes the countdown counter's
    address via LUI/ORI into R_SCRATCH0; the loader re-binds it to a
    fresh allocation, so those two imms are the only legitimate
    difference between a persisted stream and its re-materialization.
    """
    masked = []
    for index, uop in enumerate(uops):
        if (counter_addr is not None and index in (1, 2)
                and uop.rd == R_SCRATCH0
                and uop.op in (UOp.LUI, UOp.ORI)):
            masked.append((uop.op, uop.rd, uop.rs1, uop.rs2, "counter",
                           uop.cond, uop.fused, uop.setflags,
                           uop.x86_addr))
        else:
            masked.append((uop.op, uop.rd, uop.rs1, uop.rs2, uop.imm,
                           uop.cond, uop.fused, uop.setflags,
                           uop.x86_addr))
    return masked


@settings(max_examples=25, deadline=None)
@given(source=loop_programs())
def test_serialize_roundtrip_is_semantically_identical(source):
    cold_vm = _boot(source)
    cold = cold_vm.run()
    records = capture_translations(cold_vm.runtime.directory,
                                   cold_vm.state.memory)
    assert records  # every loop program translates something
    originals = {
        (t.kind, t.entry): t
        for cache in (cold_vm.runtime.directory.bbt_cache,
                      cold_vm.runtime.directory.sbt_cache)
        for t in cache.translations}

    # through the stored text: what goes to disk is what comes back
    records = [parse_record(record.text) for record in records]

    warm_vm = _boot(source)
    load = WarmStartLoader(warm_vm.runtime).load_records(records)
    assert load.loaded == load.attempted == len(records)
    assert load.dropped == 0

    for cache in (warm_vm.runtime.directory.bbt_cache,
                  warm_vm.runtime.directory.sbt_cache):
        for translation in cache.translations:
            original = originals[(translation.kind, translation.entry)]
            assert _canonical(translation.uops,
                              translation.counter_addr) == \
                _canonical(original.uops, original.counter_addr)
            assert translation.instr_count == original.instr_count
            assert translation.fused_pairs == original.fused_pairs
            assert len(translation.exits) == len(original.exits)

    warm = warm_vm.run()
    assert warm.blocks_translated == 0
    assert warm.superblocks_translated == 0
    assert warm.output == cold.output
    assert warm.exit_code == cold.exit_code


# -- the write rule: the same store, written only where it changes ----------
#
# ``TranslationRepository`` stamps and writes only where the eviction
# order changes (docs/persistence.md, "Eviction").  The reference below
# is the same store in memory without that rule: every save and every
# load ticks the clock and stamps what it touches.

#: stored texts under made-up keys: the store does not judge what it holds
POOL = [unsealed({"key": f"k{index}", "kind": "bbt", "entry": index,
                  "pad": "x" * (40 * (index % 3))}) for index in range(6)]
SIZES = {record["key"]: len(record.text) for record in POOL}
MANIFESTS = ("a", "b")


class AlwaysStamp:
    def __init__(self):
        self.clock, self.used, self.manifests = 0, {}, {}

    def save(self, records, name, merge):
        self.clock += 1
        keys = [record["key"] for record in records]
        self.used.update(dict.fromkeys(keys, self.clock))
        if merge:
            keys = sorted(set(keys) | set(self.manifests.get(name, ())))
        self.manifests[name] = keys

    def load(self, name):
        if name not in self.manifests:
            return []
        self.clock += 1
        self.used.update(dict.fromkeys(self.manifests[name], self.clock))
        return self.manifests[name]

    def gc(self, budget):
        evicted = set()
        for key in self.order():
            if sum(SIZES[kept] for kept in self.used) <= budget:
                break
            del self.used[key]
            evicted.add(key)
        for name, keys in list(self.manifests.items()):
            if evicted & set(keys):
                self.manifests[name] = [k for k in keys if k not in evicted]
                if not self.manifests[name]:
                    del self.manifests[name]
        return len(evicted)

    def forget(self):           # meta.json deleted: rebuilt, all stamps 0
        self.clock, self.used = 0, dict.fromkeys(self.used, 0)

    def order(self):
        return sorted(self.used, key=lambda key: (self.used[key], key))

    def state(self):
        """What an operation can change: the objects grouped by stamp,
        oldest first (the eviction order and its ties), and every
        manifest."""
        ties = [sorted(key for key in self.used if self.used[key] == tick)
                for tick in sorted(set(self.used.values()))]
        return ties, dict(self.manifests)


def store_ties(repo):
    objects = repo._load_meta()["objects"]
    ticks = sorted({entry["last_used"] for entry in objects.values()})
    return [sorted(key for key, entry in objects.items()
                   if entry["last_used"] == tick) for tick in ticks]


def store_manifests(repo):
    manifests = {name: repo._read_manifest("cfg", name)
                 for name in MANIFESTS}
    return {name: manifest["entries"]
            for name, manifest in manifests.items() if manifest}


def files_of(repo):
    found = {}
    for path in sorted(repo.root.rglob("*")):
        if path.is_file():
            status = path.stat()
            found[str(path)] = (path.read_bytes(), status.st_ino,
                                status.st_mtime_ns)
    return found


subsets = st.lists(st.sampled_from(POOL), unique_by=lambda r: r["key"])
operations = st.one_of(
    st.tuples(st.just("save"), subsets, st.sampled_from(MANIFESTS),
              st.booleans()),
    st.tuples(st.just("load"), st.sampled_from(MANIFESTS)),
    st.tuples(st.just("gc"), st.integers(0, sum(SIZES.values()))),
    st.tuples(st.just("forget"), st.integers(0, sum(SIZES.values()))))


@settings(max_examples=120, deadline=None)
@given(steps=st.lists(operations, min_size=1, max_size=12))
def test_store_equals_the_always_stamping_one_and_writes_only_changes(
        steps):
    reference = AlwaysStamp()
    with tempfile.TemporaryDirectory() as scratch:
        repo = TranslationRepository(Path(scratch) / "store")
        for operation, *args in steps:
            before, files = reference.state(), files_of(repo)
            indexed = repo.meta_path.exists()
            packs = {path: files[path] for path in files
                     if path.endswith(".pack")}
            if operation == "save":
                records, name, merge = args
                dedup_only = all(record["key"] in reference.used
                                 for record in records)
                reference.save(records, name, merge)
                repo.save(records, "cfg", name, merge=merge)
                if dedup_only:
                    # a save of stored records writes no pack
                    assert {path: found for path, found
                            in files_of(repo).items()
                            if path.endswith(".pack")} == packs
            elif operation == "load":
                loaded = [r["key"] for r in repo.load("cfg", *args)]
                assert loaded == reference.load(*args)
            elif operation == "gc":
                assert repo.gc(*args).evicted_objects == \
                    reference.gc(*args)
            else:
                # a gc, then a lost index: rebuilt from the packs, which
                # hold exactly what gc left, so nothing evicted is back
                assert repo.gc(*args).evicted_objects == \
                    reference.gc(*args)
                if repo.meta_path.exists():
                    reference.forget()
                    repo.meta_path.unlink()
            ties, manifests = reference.state()
            assert store_ties(repo) == ties
            assert store_manifests(repo) == manifests
            assert packed_keys(repo.root) == sorted(reference.used)
            if operation != "forget" and not (
                    operation == "load" and args[0] not in manifests):
                # a lost index is back after the first operation (a
                # load of no manifest is none), whatever else changed
                assert repo.meta_path.exists() or not reference.used
                if indexed and reference.state() == before:
                    assert files_of(repo) == files
        for name in MANIFESTS:
            assert [r["key"] for r in repo.load("cfg", name)] == \
                reference.load(name)
