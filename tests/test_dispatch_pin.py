"""Every configuration's dispatch, pinned: what the runtime counts,
what the ledger charges and which events it emits, per seed program.

The digests were taken before the runtime's dispatch loops, block
emulators and translate paths became one of each; a change that moves
a counter, a cycle or the order of an event under any configuration
fails here.  A digest is the first 16 hex digits of the SHA-256 of the
value's canonical JSON, so a mismatch names the configuration and
program but not the field: print ``observed(...)`` on both sides to see
which moved.

The runs on tiny code caches pin what flushes and evictions leave
behind: the same three digests plus the code-cache region's bytes.
Those digests were taken before one path came to place and forget a
translation for both.
"""

import hashlib
import json

import pytest

from repro.core import CoDesignedVM, interp_sbt, vm_be, vm_fe, vm_soft
from repro.faults import FaultInjector, InjectedTranslatorFault, injecting
from repro.isa.x86lite import assemble
from repro.translator import TranslationDirectory
from repro.vmm.runtime import VMRuntime
from repro.workloads.programs import PROGRAMS

#: low enough that every program forms superblocks under every strategy
HOT_THRESHOLD = 20

CONFIGS = {"soft": vm_soft, "be": vm_be, "fe": vm_fe, "interp": interp_sbt}


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def observed(config_name: str, program: str) -> dict:
    """One traced run's counters, phase cycles and event names."""
    vm = CoDesignedVM(CONFIGS[config_name]().with_(trace=True),
                      hot_threshold=HOT_THRESHOLD)
    vm.load(assemble(PROGRAMS[program]))
    vm.run()
    return {"stats": vm.stats(), "phases": vm.ledger.totals(),
            "events": [event.name for event in vm.tracer.events]}


#: ``(config, program) -> (stats, phases, events)`` digests
PINNED = {
    ("be", "bubble_sort"): ("4560304ff7103c5e", "ae7feeeecb10f7e1",
        "548d01c78ef1654a"),
    ("be", "checksum"): ("b6692dbec6c22cfc", "70124942d8edbb01",
        "f72ab436e46d7685"),
    ("be", "fib_recursive"): ("01a92ffd1c2c5a2c", "c5d628e59e50efee",
        "038271df502ea0bc"),
    ("be", "fibonacci"): ("2729fb94e18bac58", "8cf67c61817c1ef6",
        "bb4a24780ebe77f7"),
    ("be", "matmul"): ("5fee56a72736ce1e", "2159a4432af68f0c",
        "80279cc78941533e"),
    ("be", "mixhash"): ("7a1c438bae38f00f", "0853cb8b55fb4b10",
        "29519a218b230cd0"),
    ("be", "quicksort"): ("88012c3085011c9e", "f2b36a392079bc21",
        "436c594f38208e7f"),
    ("be", "sieve"): ("de3cc769e54a6b7e", "66e03c0d6e779cf5",
        "a6f777dd86a5e0da"),
    ("fe", "bubble_sort"): ("6702eda54cb97aca", "7480b724c30ee728",
        "4604cefaab3f9351"),
    ("fe", "checksum"): ("0da661077ddd8317", "5c942f932684dbc9",
        "e563c5a9e14714a5"),
    ("fe", "fib_recursive"): ("8954ffedcadba94c", "f948d5de02e7ed2f",
        "22b58d4278310329"),
    ("fe", "fibonacci"): ("eafc1f6e4004ceef", "9e1f883a40711108",
        "e563c5a9e14714a5"),
    ("fe", "matmul"): ("905569f3ac5f6bc0", "5df1e23aefd88f38",
        "80b15897fc1be146"),
    ("fe", "mixhash"): ("6e2094aeed40ca9d", "0174d7cdd9637ec1",
        "32a87f22c32d273f"),
    ("fe", "quicksort"): ("fc6c90f96105bdb0", "5fd2f3db71931f19",
        "766872eb53b16f7a"),
    ("fe", "sieve"): ("b586fa40bfb5dcde", "96f5bc6f0b8ff169",
        "2043685a32b3cca6"),
    ("interp", "bubble_sort"): ("0ea7eacb55d59e17", "953394f11d559887",
        "f972d4061720224d"),
    ("interp", "checksum"): ("b18f95fc0d950d1b", "399e7c97e817619d",
        "2649a2ca166ff2e5"),
    ("interp", "fib_recursive"): ("8218619a9cc39724", "23847865843e8e92",
        "d40fabab0c6bd0ef"),
    ("interp", "fibonacci"): ("b0f8276d1e62beef", "a66ce0449e8a4da5",
        "2649a2ca166ff2e5"),
    ("interp", "matmul"): ("63064044b800d8b4", "0c92418f99cb4969",
        "cbe732408455397c"),
    ("interp", "mixhash"): ("2c191a1e5ede323c", "0dba65c25912592c",
        "55b771e17aeb665b"),
    ("interp", "quicksort"): ("1d7afb43df5ae9c7", "f107dfe722c90b3a",
        "21196bc63e50b610"),
    ("interp", "sieve"): ("d0e790d8af4fa493", "fd95308ba829a73b",
        "6fb77742105f8092"),
    ("soft", "bubble_sort"): ("bcd4314f6de12aa3", "fbeb629e95057d1e",
        "548d01c78ef1654a"),
    ("soft", "checksum"): ("a719948777b07902", "89b7cf18f87b5508",
        "f72ab436e46d7685"),
    ("soft", "fib_recursive"): ("c65f3a506b27b66f", "db5555f69d436709",
        "038271df502ea0bc"),
    ("soft", "fibonacci"): ("1830d88bc9390638", "0316e6d1aa85a5a6",
        "bb4a24780ebe77f7"),
    ("soft", "matmul"): ("b1b8b75b021e12d5", "69e55aa740319db0",
        "80279cc78941533e"),
    ("soft", "mixhash"): ("6a35e38f0b71d422", "127849f3ab9e8aa2",
        "29519a218b230cd0"),
    ("soft", "quicksort"): ("df6543e6fbe920d5", "a9bb6ae618dda95c",
        "436c594f38208e7f"),
    ("soft", "sieve"): ("676ff59942c35b8c", "38eb6627b500b272",
        "a6f777dd86a5e0da"),
}


#: the quarantine run's ``(interpreted_fallback_instrs, translation_faults,
#: blocks_degraded)`` and the digest of its profiler's edges
PINNED_FALLBACK = (80, 3, 1)
PINNED_EDGES = "d00e70fb1bd2afdd"


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_dispatch_is_pinned(config_name, program):
    seen = observed(config_name, program)
    assert (digest(seen["stats"]), digest(seen["phases"]),
            digest(seen["events"])) == PINNED[config_name, program]


class _FailingEntry:
    """Raises in every BBT translation of one entry: the block is
    quarantined, retried, then degraded to emulation for good."""

    def __init__(self, entry: int) -> None:
        self.entry = entry

    def visit(self, site, context):
        if site == "translate.bbt" and context.get("entry") == self.entry:
            raise InjectedTranslatorFault(f"bbt at {self.entry:#x}")


def test_a_quarantined_block_is_emulated_without_profiling():
    image = assemble(PROGRAMS["quicksort"])
    vm = CoDesignedVM(vm_soft(), hot_threshold=HOT_THRESHOLD)
    vm.load(image)
    entry = image.labels["part"]
    with injecting(_FailingEntry(entry)):
        report = vm.run()
    assert report.output == [231, 309]
    profiler = vm.runtime.profiler
    assert (report.interpreted_fallback_instrs, report.translation_faults,
            report.blocks_degraded) == PINNED_FALLBACK
    assert digest(sorted(
        [source, target, count]
        for source, targets in profiler.edges._edges.items()
        for target, count in targets.items())) == PINNED_EDGES


#: per program, ``(bbt_capacity, sbt_capacity)`` small enough that both
#: caches flush mid-run under VM.soft.  checksum and fibonacci form one
#: superblock each, so their SBT cache is smaller than it: the cache
#: flushes empty, the promotion faults into the quarantine, and the loop
#: stays on its BBT code
TINY_CACHES = {
    "bubble_sort": (384, 96), "checksum": (128, 16),
    "fib_recursive": (384, 64), "fibonacci": (128, 16),
    "matmul": (768, 224), "mixhash": (256, 64),
    "quicksort": (1216, 128), "sieve": (384, 160),
}
TINY_BASE = 0x2000_0000


def tiny_observed(program: str, config) -> tuple:
    """One traced VM.soft run on ``TINY_CACHES[program]``: the run's
    ``observed`` digests and the digest of the code-cache region."""
    bbt_capacity, sbt_capacity = TINY_CACHES[program]
    vm = CoDesignedVM(config.with_(trace=True), hot_threshold=HOT_THRESHOLD)
    vm.load(assemble(PROGRAMS[program]))
    directory = TranslationDirectory(
        vm.state.memory, bbt_base=TINY_BASE, bbt_capacity=bbt_capacity,
        sbt_base=TINY_BASE + bbt_capacity, sbt_capacity=sbt_capacity)
    vm.runtime = VMRuntime(vm.state, vm.config, directory=directory)
    vm.run()
    stats = vm.stats()
    region = vm.state.memory.read(TINY_BASE, bbt_capacity + sbt_capacity)
    return stats, (digest(stats), digest(vm.ledger.totals()),
                   digest([event.name for event in vm.tracer.events]),
                   hashlib.sha256(region).hexdigest()[:16])


#: ``program -> (stats, phases, events, code-cache region)`` digests
PINNED_TINY = {
    "bubble_sort": ("a934f5b10f43e991", "0cacd6abb2afda62",
        "705ecf4a8fff47d0", "7b3298875628b7ae"),
    "checksum": ("c2184ec10b66a904", "521735e4b99fa9ec",
        "749bc68f5fea8779", "c29e3a97c0f73bf0"),
    "fib_recursive": ("00dec0465dce8ff9", "9bf309a1c949cd77",
        "5ac7bbb21ba861e6", "5afc4d58410f8cf7"),
    "fibonacci": ("e5e8e8a5b2fd5dba", "4d7c20326bfd6cc5",
        "23031e8b3787cfef", "37dc26b1aeebcead"),
    "matmul": ("ee4ee99a04334de0", "82c00c8947064f11",
        "6a3331be52a1ee53", "45ff584fd6d5bfb6"),
    "mixhash": ("9b29842201fb37eb", "127849f3ab9e8aa2",
        "5fc2dd02ba0ba3ae", "ba32a6e37b4bda63"),
    "quicksort": ("c6940cb006ae0cc2", "43ce999944052e0d",
        "66cef688ffa1cce2", "9073ac0a618759bc"),
    "sieve": ("6336a510018b62e9", "57dd6f5acfd4e110",
        "a39d205ec91d6141", "8402c957f118277d"),
}


@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_flushes_are_pinned(program):
    stats, digests = tiny_observed(program, vm_soft())
    assert stats["bbt_flushes"] and stats["sbt_flushes"]
    assert digests == PINNED_TINY[program]


#: the corrupted run"s ``(integrity_faults_detected,
#: integrity_retranslations)`` and its four digests
PINNED_EVICTIONS = ((25, 21), ("14720599b78f3821", "76642a6ce04777ee",
                                 "903b7b8d1a3b1c68", "be8ea101c4f60c89"))


def test_evictions_are_pinned():
    injector = FaultInjector(4, ["cache-corruption"], rate=0.2)
    with injecting(injector):
        stats, digests = tiny_observed(
            "sieve", vm_soft().with_(integrity_check_interval=1))
    assert stats["bbt_flushes"] and stats["sbt_flushes"]
    assert ((stats["integrity_faults_detected"],
             stats["integrity_retranslations"]), digests) \
        == PINNED_EVICTIONS
