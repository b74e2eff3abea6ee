"""The registered fault classes — everything we know how to break.

Each :class:`FaultClass` models one failure mode of the translation
stack and declares *where* it strikes:

* **runtime faults** fire at :func:`~repro.faults.plane.fault_point`
  sites inside the production paths (``sites``);
* **disk faults** mangle a translation repository directly on disk
  between a save and the next warm start (``disk = True``).

All randomness comes from the injector's seeded generator, so a given
(seed, fault set) always produces the identical failure sequence — the
chaos gate's reproducibility rests on this.

Adding a fault class is one subclass plus :func:`register`; the chaos
matrix (the ``chaos`` drill), the hypothesis property test and the CLI pick
it up from :data:`FAULT_CLASSES` automatically.
"""

from __future__ import annotations

import errno
import json
import socket
from pathlib import Path
from typing import Dict, List, Type


class InjectedFault(Exception):
    """Base for exceptions raised *by* fault classes (never by real
    code), so recovery paths can be told apart from genuine failures in
    the injection log."""


class InjectedTranslatorFault(InjectedFault):
    """A translator crashed mid-translation (simulated codegen bug)."""


#: Address range guaranteed unmapped by every seed workload — bogus
#: hotspot candidates land here so a misfire can never alias real code.
_BOGUS_ENTRY_BASE = 0x7F00_0000


class FaultClass:
    """One failure mode; subclasses override ``fire`` and/or ``mangle``."""

    #: registry key, also the CLI / matrix spelling
    name: str = ""
    #: fault_point sites this class listens on
    sites: tuple = ()
    #: whether this class participates in repository mangling
    disk: bool = False
    #: whether this class strikes the shared-cache client path (its
    #: only surface is a warm start through a RemoteRepository)
    network: bool = False
    #: whether this class strikes the cluster tier (shard routing,
    #: replica sets); its full surface needs a warm start through a
    #: RemoteRepository fronting a sharded, replicated LocalCluster
    cluster: bool = False
    #: per-visit firing probability (deterministic via the seeded rng)
    rate: float = 0.25
    #: hard cap on firings per run (keeps chaos runs bounded)
    max_injections: int = 50

    def fire(self, rng, site: str, context: Dict):
        """React to one fault-point visit; may raise or return a value."""
        raise NotImplementedError

    def mangle(self, rng, root: Path) -> int:
        """Corrupt an on-disk repository; returns faults applied."""
        raise NotImplementedError


FAULT_CLASSES: Dict[str, Type[FaultClass]] = {}


def register(cls: Type[FaultClass]) -> Type[FaultClass]:
    """Class decorator: add a fault class to the global registry."""
    if not cls.name:
        raise ValueError(f"fault class {cls.__name__} has no name")
    if cls.name in FAULT_CLASSES:
        raise ValueError(f"duplicate fault class {cls.name!r}")
    FAULT_CLASSES[cls.name] = cls
    return cls


def all_fault_names() -> List[str]:
    return sorted(FAULT_CLASSES)


# -- repository disk faults --------------------------------------------------

def _files(root: Path, subdir: str) -> List[Path]:
    directory = root / subdir
    if not directory.is_dir():
        return []
    return sorted(directory.glob("*.json"))


def _flip_byte(rng, path: Path) -> bool:
    try:
        data = bytearray(path.read_bytes())
    except OSError:
        return False
    if not data:
        return False
    index = rng.randrange(len(data))
    data[index] ^= 1 << rng.randrange(8)
    path.write_bytes(bytes(data))
    return True


@register
class CorruptObjectFault(FaultClass):
    """Flip one bit in persisted object files (silent media rot)."""

    name = "corrupt-object"
    disk = True

    def mangle(self, rng, root: Path) -> int:
        applied = 0
        for path in _files(root, "objects"):
            if applied >= self.max_injections:
                break
            if rng.random() < self.rate and _flip_byte(rng, path):
                applied += 1
        return applied


@register
class TruncateObjectFault(FaultClass):
    """Truncate persisted object files mid-record (torn write / crash)."""

    name = "truncate-object"
    disk = True

    def mangle(self, rng, root: Path) -> int:
        applied = 0
        for path in _files(root, "objects"):
            if applied >= self.max_injections:
                break
            if rng.random() >= self.rate:
                continue
            try:
                size = path.stat().st_size
            except OSError:
                continue
            if size < 2:
                continue
            with open(path, "r+b") as handle:
                handle.truncate(rng.randrange(1, size))
            applied += 1
        return applied


@register
class TornMetaFault(FaultClass):
    """Tear ``meta.json``: leave a prefix of a legal write on disk."""

    name = "torn-meta"
    disk = True
    rate = 1.0

    def mangle(self, rng, root: Path) -> int:
        meta = root / "meta.json"
        try:
            data = meta.read_bytes()
        except OSError:
            return 0
        if len(data) < 2:
            return 0
        meta.write_bytes(data[:rng.randrange(1, len(data))])
        # a torn write can also leave the journal file behind
        (root / "meta.json.tmp").write_bytes(b'{"format": ')
        return 1


@register
class CorruptManifestFault(FaultClass):
    """Flip one bit in manifest files (stale or tampered manifests)."""

    name = "corrupt-manifest"
    disk = True
    rate = 0.5

    def mangle(self, rng, root: Path) -> int:
        applied = 0
        for path in _files(root, "manifests"):
            if applied >= self.max_injections:
                break
            if rng.random() < self.rate and _flip_byte(rng, path):
                applied += 1
        return applied


@register
class StaleRecordFault(FaultClass):
    """Rewrite an object's source fingerprint so it no longer matches
    the program image (a record saved from different text)."""

    name = "stale-record"
    disk = True
    rate = 0.5

    def mangle(self, rng, root: Path) -> int:
        applied = 0
        for path in _files(root, "objects"):
            if applied >= self.max_injections:
                break
            if rng.random() >= self.rate:
                continue
            try:
                record = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                continue    # already mangled by another fault class
            if not isinstance(record, dict):
                continue
            source = record.get("source")
            if not source or not source[0][1]:
                continue
            first = source[0][1]
            flipped = format(int(first[:2], 16) ^ 0xFF, "02x") + first[2:]
            record["source"][0][1] = flipped
            # keep the content key consistent: this models a *stale*
            # record (valid on disk, wrong source), not a corrupt one
            from repro.persist.format import record_key
            record.pop("key", None)
            record["key"] = record_key(record)
            new_path = path.with_name(record["key"] + ".json")
            path.unlink()
            new_path.write_text(json.dumps(record))
            self._rename_in_manifests(root, path.stem, record["key"])
            applied += 1
        return applied

    @staticmethod
    def _rename_in_manifests(root: Path, old: str, new: str) -> None:
        for manifest_path in _files(root, "manifests"):
            try:
                manifest = json.loads(manifest_path.read_text())
            except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                continue    # already mangled by another fault class
            entries = manifest.get("entries", [])
            if old in entries:
                manifest["entries"] = [new if key == old else key
                                       for key in entries]
                manifest_path.write_text(json.dumps(manifest, indent=1))


# -- repository I/O faults ---------------------------------------------------

@register
class IOErrorFault(FaultClass):
    """Simulated EIO on repository reads, ENOSPC on writes."""

    name = "io-error"
    sites = ("repo.read", "repo.write", "repo.fsync")
    rate = 0.3

    def fire(self, rng, site: str, context: Dict):
        path = context.get("path", "?")
        if site == "repo.write":
            raise OSError(errno.ENOSPC,
                          f"injected ENOSPC writing {path}")
        if site == "repo.fsync":
            raise OSError(errno.EIO,
                          f"injected EIO syncing {path}")
        raise OSError(errno.EIO, f"injected EIO reading {path}")


# -- translator faults -------------------------------------------------------

@register
class BBTTranslatorFault(FaultClass):
    """The basic-block translator crashes mid-translation."""

    name = "bbt-fault"
    sites = ("translate.bbt",)
    rate = 0.3

    def fire(self, rng, site: str, context: Dict):
        raise InjectedTranslatorFault(
            f"injected BBT fault at entry "
            f"{context.get('entry', 0):#x}")


@register
class SBTTranslatorFault(FaultClass):
    """The superblock translator crashes mid-translation."""

    name = "sbt-fault"
    sites = ("translate.sbt",)
    rate = 0.5

    def fire(self, rng, site: str, context: Dict):
        raise InjectedTranslatorFault(
            f"injected SBT fault at entry "
            f"{context.get('entry', 0):#x}")


# -- code-cache corruption ---------------------------------------------------

@register
class CacheCorruptionFault(FaultClass):
    """Flip one byte inside an installed translation's immutable body.

    Fires at dispatch boundaries (the only points where the VMM regains
    control), picking a random installed translation and a byte outside
    the runtime-patchable linkage words — those are VMM-owned and
    excluded from the integrity checksum (see
    ``Translation.integrity_mask``).
    """

    name = "cache-corruption"
    sites = ("dispatch",)
    rate = 0.05
    max_injections = 25

    def fire(self, rng, site: str, context: Dict):
        directory = context.get("directory")
        if directory is None:
            return None
        translations = (directory.bbt_cache.translations
                        + directory.sbt_cache.translations)
        translations = [t for t in translations if t.native_len > 0]
        if not translations:
            return None
        victim = rng.choice(translations)
        masked = set()
        for offset in victim.integrity_mask():
            masked.update(range(offset, offset + 4))
        candidates = [i for i in range(victim.native_len)
                      if i not in masked]
        if not candidates:
            return None
        offset = rng.choice(candidates)
        addr = victim.native_addr + offset
        byte = directory.memory.read(addr, 1)[0]
        directory.memory.write(addr, bytes([byte ^ (1 << rng.randrange(8))]))
        return ("corrupted", victim.kind, victim.entry, offset)


# -- shared-cache network faults ---------------------------------------------
#
# These strike the RemoteRepository client (src/repro/persist/remote.py)
# at its fault points; the server itself stays healthy, which is exactly
# the adversarial case — the client must absorb every transport failure
# through retries/breaker/fallback without changing architected state.

@register
class ConnRefusedFault(FaultClass):
    """The server's socket refuses the connection (down or restarting)."""

    name = "conn-refused"
    sites = ("net.connect",)
    network = True
    rate = 0.5

    def fire(self, rng, site: str, context: Dict):
        raise ConnectionRefusedError(
            errno.ECONNREFUSED,
            f"injected connection refused to "
            f"{context.get('address', '?')}")


@register
class TornFrameFault(FaultClass):
    """The connection drops mid-frame (server crash, network partition)."""

    name = "torn-frame"
    sites = ("net.send", "net.recv")
    network = True
    rate = 0.4

    def fire(self, rng, site: str, context: Dict):
        raise ConnectionResetError(
            errno.ECONNRESET,
            f"injected mid-frame disconnect during "
            f"{context.get('op', '?')}")


@register
class SlowServerFault(FaultClass):
    """The server stalls past the client's per-request deadline."""

    name = "slow-server"
    sites = ("net.recv",)
    network = True
    rate = 0.4

    def fire(self, rng, site: str, context: Dict):
        raise socket.timeout(
            f"injected server stall during {context.get('op', '?')}")


@register
class StaleLeaseFault(FaultClass):
    """The server reports writer-lease contention (stale/held lease)."""

    name = "stale-lease"
    sites = ("net.lease",)
    network = True
    rate = 0.5

    def fire(self, rng, site: str, context: Dict):
        return True     # the client treats truthy as "lease-busy"


@register
class CorruptPayloadFault(FaultClass):
    """A response frame arrives with a checksum-failing payload."""

    name = "corrupt-payload"
    sites = ("net.payload",)
    network = True
    rate = 0.4

    def fire(self, rng, site: str, context: Dict):
        return True     # the client raises a ProtocolError on truthy


# -- cluster faults ----------------------------------------------------------
#
# These strike the wire client (src/repro/persist/remote.py) where a
# cluster shows: shard routing in RemoteRepository (``cluster.route``)
# and the per-replica attempts of its ReplicaSet engines
# (``cluster.replica``, ``cluster.pull``).
# Outage classes pick a sticky victim — the first shard group (or
# replica) a rate-passing visit lands on stays down for the whole run,
# modelling a crashed process rather than flickering packet loss — so
# a seeded run replays the identical outage.

@register
class ShardDownFault(FaultClass):
    """One whole shard group is unreachable (every replica down)."""

    name = "shard-down"
    sites = ("cluster.route",)
    cluster = True
    rate = 1.0
    max_injections = 500

    def __init__(self) -> None:
        self._victim = None

    def fire(self, rng, site: str, context: Dict):
        group = context.get("group")
        if group is None:
            return None
        if self._victim is None:
            self._victim = group
        if group != self._victim:
            return None
        raise ConnectionRefusedError(
            errno.ECONNREFUSED,
            f"injected shard outage: every replica of {group} is down")


@register
class SlowShardFault(FaultClass):
    """One shard group stalls past the client's request deadline."""

    name = "slow-shard"
    sites = ("cluster.route",)
    cluster = True
    rate = 0.5
    max_injections = 100

    def __init__(self) -> None:
        self._victim = None

    def fire(self, rng, site: str, context: Dict):
        group = context.get("group")
        if group is None:
            return None
        if self._victim is None:
            self._victim = group
        if group != self._victim:
            return None
        raise socket.timeout(
            f"injected shard stall routing "
            f"{context.get('op', '?')} to {group}")


@register
class ReplicaPartitionFault(FaultClass):
    """One replica is partitioned away; its siblings keep serving."""

    name = "replica-partition"
    sites = ("cluster.replica",)
    cluster = True
    rate = 1.0
    max_injections = 500

    def __init__(self) -> None:
        self._victim = None

    def fire(self, rng, site: str, context: Dict):
        victim = (context.get("group"), context.get("replica"))
        if victim[1] is None:
            return None
        if self._victim is None:
            self._victim = victim
        if victim != self._victim:
            return None
        return True     # the attempt engine raises a connection reset


@register
class StaleReplicaFault(FaultClass):
    """A replica answers a pull from a stale manifest; the client
    discards the reply and fails over to a sibling."""

    name = "stale-replica"
    sites = ("cluster.pull",)
    cluster = True
    rate = 0.4

    def fire(self, rng, site: str, context: Dict):
        return True     # the engine treats truthy as a stale answer


@register
class SplitManifestFault(FaultClass):
    """A replica's manifests lag the cluster: drop a random subset of
    entries, modelling pushes the replica missed while partitioned.
    The store stays structurally valid — loads just see fewer warm
    records — and anti-entropy re-replicates the gap."""

    name = "split-manifest"
    disk = True
    cluster = True
    rate = 1.0

    def mangle(self, rng, root: Path) -> int:
        applied = 0
        for path in _files(root, "manifests"):
            if applied >= self.max_injections:
                break
            try:
                manifest = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                continue    # already mangled by another fault class
            if not isinstance(manifest, dict):
                continue
            entries = manifest.get("entries", [])
            if len(entries) < 2:
                continue
            keep = rng.randrange(1, len(entries))
            manifest["entries"] = sorted(rng.sample(entries, keep))
            path.write_text(json.dumps(manifest, indent=1))
            applied += 1
        return applied


# -- overload faults ---------------------------------------------------------
#
# These strike the overload-protection control plane (docs/overload.md)
# at its decision points: shedding in the client's response handling
# (``overload.shed``), deadline budgets at request entry
# (``overload.deadline``), and the hedge trigger of a replicated pull
# (``overload.hedge``).  Architected state must survive every one —
# shed and hedged requests retry or degrade down the normal ladder.

@register
class ServerOverloadedFault(FaultClass):
    """The server sheds the request with a retryable ``overloaded``
    answer (admission control under a thundering herd)."""

    name = "server-overloaded"
    sites = ("overload.shed",)
    network = True
    rate = 0.4

    def fire(self, rng, site: str, context: Dict):
        return True     # the client raises _Overloaded on truthy


@register
class ExpiredDeadlineFault(FaultClass):
    """A request's deadline budget is already spent at entry — the
    client must abandon it immediately (no retries, no breaker
    penalty) and degrade down the ladder."""

    name = "expired-deadline"
    sites = ("overload.deadline",)
    network = True
    rate = 0.3

    def fire(self, rng, site: str, context: Dict):
        return True     # the client treats truthy as a spent budget


@register
class HedgeTriggerFault(FaultClass):
    """The primary replica looks slow past the hedge threshold: the
    client must abandon it and hedge the pull to a sibling."""

    name = "hedge-trigger"
    sites = ("overload.hedge",)
    cluster = True
    rate = 0.5
    max_injections = 100

    def fire(self, rng, site: str, context: Dict):
        return True     # the engine hedges on truthy


# -- policy faults -----------------------------------------------------------

@register
class VerifierFalsePositiveFault(FaultClass):
    """The warm-start screening verifier rejects a good record."""

    name = "verifier-false-positive"
    sites = ("loader.verify",)
    rate = 0.4

    def fire(self, rng, site: str, context: Dict):
        return True     # the loader treats truthy as "rejected"


@register
class HotspotMisfireFault(FaultClass):
    """The hotspot detector reports a bogus (never-executed) entry."""

    name = "hotspot-misfire"
    sites = ("hotspot.candidate",)
    rate = 0.1
    max_injections = 10

    def fire(self, rng, site: str, context: Dict):
        # an address no seed workload maps: translation must fail and
        # the quarantine must absorb it without disturbing real blocks
        return _BOGUS_ENTRY_BASE + 4 * rng.randrange(0x1000)


def make_fault(name: str, **overrides) -> FaultClass:
    """Instantiate a registered fault class, with attribute overrides."""
    try:
        cls = FAULT_CLASSES[name]
    except KeyError:
        raise ValueError(f"unknown fault class {name!r}; "
                         f"registered: {all_fault_names()}") from None
    fault = cls()
    for attr, value in overrides.items():
        if not hasattr(fault, attr):
            raise ValueError(f"fault class {name!r} has no "
                             f"attribute {attr!r}")
        setattr(fault, attr, value)
    return fault
