"""The fault table — everything we know how to break, one row each.

Each :class:`Fault` row of :data:`FAULTS` is one failure mode of the
translation stack: a **runtime fault** fires at
:func:`~repro.faults.plane.fault_point` sites in the production paths
(``sites`` + ``fire``), a **disk fault** mangles a repository on disk
between a save and the next warm start (``mangle``), and ``surface``
names the one chaos mode that reaches it.  All randomness comes from
the injector's seeded generator, so a given (seed, fault set) always
produces the identical failure sequence.

Adding a fault is one row: the ``chaos`` drill, the hypothesis property
test, the fleet engine and reprolint's FLT001 read :data:`FAULTS`, and
``tests/test_faults.py`` holds ``docs/robustness.md``'s table to it.
"""

from __future__ import annotations

import errno
import json
import socket
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple


class InjectedFault(Exception):
    """Base for exceptions raised *by* faults (never by real code), so
    recovery paths can be told apart from genuine failures in the
    injection log."""


class InjectedTranslatorFault(InjectedFault):
    """A translator crashed mid-translation (simulated codegen bug)."""


#: The chaos modes, so the surfaces a fault can have: a warm start from a
#: local repository, a cold run, a warm start through one cache server or
#: through a sharded, replicated cluster.
SURFACES = ("warm", "cold", "remote", "cluster")

#: Address range guaranteed unmapped by every seed workload — bogus
#: hotspot candidates land here so a misfire can never alias real code.
_BOGUS_ENTRY_BASE = 0x7F00_0000


@dataclass
class Fault:
    """One failure mode.  ``fire(fault, rng, site, context)`` reacts to
    a visit of one of ``sites`` (may raise or return a stimulus);
    ``mangle(fault, rng, root)`` damages a repository directory and
    returns the corruptions applied — set for disk faults only."""

    name: str
    #: the one chaos mode that reaches it, one of :data:`SURFACES`
    surface: str
    sites: Tuple[str, ...] = ()
    #: per-visit firing probability (deterministic via the seeded rng)
    rate: float = 0.25
    #: hard cap on firings per run (keeps chaos runs bounded)
    max_injections: int = 50
    fire: Optional[Callable] = None
    mangle: Optional[Callable] = None
    #: the sticky outage's victim, chosen on its first strike
    victim: object = field(default=None, init=False, repr=False,
                           compare=False)


# -- repository disk faults --------------------------------------------------

def _manifests(root: Path) -> List[Path]:
    directory = root / "manifests"
    if not directory.is_dir():
        return []
    return sorted(directory.glob("*.json"))


def _packs(root: Path) -> List[Path]:
    from repro.persist.repository import TranslationRepository
    repo = TranslationRepository(root)
    return [repo.packs_dir / name for name in repo.pack_names()]


def _each_file(files: Callable, damage: Callable, coin: bool = True):
    """A mangle offering ``damage(rng, root, path)`` every file of
    ``files(root)`` in name order until ``max_injections`` of them took
    it; each file first draws a coin against ``rate`` unless ``coin``
    is off."""
    def mangle(fault: Fault, rng, root: Path) -> int:
        applied = 0
        for path in files(root):
            if applied >= fault.max_injections:
                break
            if coin and rng.random() >= fault.rate:
                continue
            if damage(rng, root, path):
                applied += 1
        return applied
    return mangle


def _flip_byte(rng, root: Path, path: Path) -> bool:
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


def _truncate(rng, root: Path, path: Path) -> bool:
    try:
        size = path.stat().st_size
    except OSError:
        return False
    if size < 2:
        return False
    with open(path, "r+b") as handle:
        handle.truncate(rng.randrange(1, size))
    return True


def _read_json(path: Path):
    """The parsed document, or None when another fault already mangled
    it past parsing."""
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return None


def _make_stale(fault: Fault, rng, root: Path) -> int:
    """Point each manifest at a stale copy of one of its records (valid
    on disk, wrong source), saved through the repository's own writer:
    the copy keeps a consistent content key, so this models a *stale*
    record, not a corrupt one."""
    from repro.persist.format import encode_record
    from repro.persist.repository import TranslationRepository
    repo = TranslationRepository(root)
    applied = 0
    for path in _manifests(root):
        manifest = _read_json(path)
        if not isinstance(manifest, dict):
            continue
        pair = (manifest.get("config_fingerprint"),
                manifest.get("image_fingerprint"))
        records = repo.load(*pair)
        if not records:
            continue
        index = rng.randrange(len(records))
        fields = json.loads(records[index].text)
        try:
            first = fields["source"][0][1]
            fields["source"][0][1] = \
                format(int(first[:2], 16) ^ 0xFF, "02x") + first[2:]
        except (LookupError, TypeError, ValueError):
            continue
        records[index] = encode_record(fields)
        applied += bool(repo.save(
            records, *pair, config_name=manifest.get("config_name", "")))
    return applied


def _split(rng, root: Path, path: Path) -> bool:
    manifest = _read_json(path)
    if not isinstance(manifest, dict):
        return False
    entries = manifest.get("entries", [])
    if len(entries) < 2:
        return False
    keep = rng.randrange(1, len(entries))
    manifest["entries"] = sorted(rng.sample(entries, keep))
    path.write_text(json.dumps(manifest, indent=1))
    return True


def _tear_meta(fault: Fault, rng, root: Path) -> int:
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


# -- runtime faults ----------------------------------------------------------

def _stimulus(fault: Fault, rng, site: str, context: Dict):
    """Return a truthy stimulus; the site's caller gives it its meaning
    (lease busy, checksum failure, stale answer, shed, spent budget,
    hedge, verifier rejection)."""
    return True


def _io_error(fault: Fault, rng, site: str, context: Dict):
    path = context.get("path", "?")
    if site == "repo.write":
        raise OSError(errno.ENOSPC, f"injected ENOSPC writing {path}")
    if site == "repo.fsync":
        raise OSError(errno.EIO, f"injected EIO syncing {path}")
    raise OSError(errno.EIO, f"injected EIO reading {path}")


def _translator_crash(fault: Fault, rng, site: str, context: Dict):
    kind = site.rpartition(".")[2].upper()
    raise InjectedTranslatorFault(
        f"injected {kind} fault at entry {context.get('entry', 0):#x}")


def _corrupt_cache(fault: Fault, rng, site: str, context: Dict):
    """Flip one bit of an installed translation's immutable body: a
    byte outside the runtime-patchable linkage words, which are
    VMM-owned and excluded from the integrity check (see
    ``Translation.integrity_mask``)."""
    directory = context.get("directory")
    if directory is None:
        return None
    translations = [t for t in (directory.bbt_cache.translations
                                + directory.sbt_cache.translations)
                    if t.native_len > 0]
    if not translations:
        return None
    victim = rng.choice(translations)
    masked = set()
    for offset in victim.integrity_mask():
        masked.update(range(offset, offset + 4))
    candidates = [i for i in range(victim.native_len) if i not in masked]
    if not candidates:
        return None
    offset = rng.choice(candidates)
    addr = victim.native_addr + offset
    byte = directory.memory.read(addr, 1)[0]
    directory.memory.write(addr, bytes([byte ^ (1 << rng.randrange(8))]))
    return ("corrupted", victim.kind, victim.entry, offset)


def _bogus_hotspot(fault: Fault, rng, site: str, context: Dict):
    # an address no seed workload maps: translation must fail and the
    # quarantine must absorb it without disturbing real blocks
    return _BOGUS_ENTRY_BASE + 4 * rng.randrange(0x1000)


def _refuse(fault: Fault, rng, site: str, context: Dict):
    raise ConnectionRefusedError(
        errno.ECONNREFUSED,
        f"injected connection refused to "
        f"{context.get('address', context.get('group', '?'))}")


def _reset(fault: Fault, rng, site: str, context: Dict):
    raise ConnectionResetError(
        errno.ECONNRESET,
        f"injected mid-frame disconnect during {context.get('op', '?')}")


def _stall(fault: Fault, rng, site: str, context: Dict):
    raise socket.timeout(
        f"injected stall during {context.get('op', '?')}"
        f" at {context.get('group', 'the server')}")


def _sticky(strike: Callable, *keys: str):
    """An outage that keeps its victim: the first shard group (or
    replica) a rate-passing visit lands on — the ``keys`` of its
    context — stays down for the whole run, a crashed process rather
    than flickering packet loss, so a seeded run replays the identical
    outage."""
    def fire(fault: Fault, rng, site: str, context: Dict):
        victim = tuple(context.get(key) for key in keys)
        if victim[-1] is None:
            return None
        if fault.victim is None:
            fault.victim = victim
        if victim != fault.victim:
            return None
        return strike(fault, rng, site, context)
    return fire


# -- the table -------------------------------------------------------------
#
# docs/robustness.md names what each row damages and what recovers it.

FAULTS: Dict[str, Fault] = {fault.name: fault for fault in (
    Fault("corrupt-object", "warm",
          mangle=_each_file(_packs, _flip_byte)),
    Fault("truncate-object", "warm",
          mangle=_each_file(_packs, _truncate)),
    Fault("torn-meta", "warm", rate=1.0, mangle=_tear_meta),
    Fault("corrupt-manifest", "warm", rate=0.5,
          mangle=_each_file(_manifests, _flip_byte)),
    Fault("stale-record", "warm", mangle=_make_stale),
    Fault("io-error", "warm", ("repo.read", "repo.write", "repo.fsync"),
          rate=0.3, fire=_io_error),
    Fault("bbt-fault", "cold", ("translate.bbt",), rate=0.3,
          fire=_translator_crash),
    Fault("sbt-fault", "cold", ("translate.sbt",), rate=0.5,
          fire=_translator_crash),
    Fault("cache-corruption", "cold", ("dispatch",), rate=0.05,
          max_injections=25, fire=_corrupt_cache),
    Fault("conn-refused", "remote", ("net.connect",), rate=0.5,
          fire=_refuse),
    Fault("torn-frame", "remote", ("net.send", "net.recv"), rate=0.4,
          fire=_reset),
    Fault("slow-server", "remote", ("net.recv",), rate=0.4, fire=_stall),
    Fault("stale-lease", "remote", ("net.lease",), rate=0.5,
          fire=_stimulus),
    Fault("corrupt-payload", "remote", ("net.payload",), rate=0.4,
          fire=_stimulus),
    Fault("shard-down", "cluster", ("cluster.route",), rate=1.0,
          max_injections=500, fire=_sticky(_refuse, "group")),
    Fault("slow-shard", "cluster", ("cluster.route",), rate=0.5,
          max_injections=100, fire=_sticky(_stall, "group")),
    Fault("replica-partition", "cluster", ("cluster.replica",), rate=1.0,
          max_injections=500, fire=_sticky(_stimulus, "group", "replica")),
    Fault("stale-replica", "cluster", ("cluster.pull",), rate=0.4,
          fire=_stimulus),
    Fault("split-manifest", "cluster", rate=1.0,
          mangle=_each_file(_manifests, _split, coin=False)),
    Fault("server-overloaded", "remote", ("overload.shed",), rate=0.4,
          fire=_stimulus),
    Fault("expired-deadline", "remote", ("overload.deadline",), rate=0.3,
          fire=_stimulus),
    Fault("hedge-trigger", "cluster", ("overload.hedge",), rate=0.5,
          max_injections=100, fire=_stimulus),
    Fault("verifier-false-positive", "warm", ("loader.verify",),
          rate=0.4, fire=_stimulus),
    Fault("hotspot-misfire", "cold", ("hotspot.candidate",), rate=0.1,
          max_injections=10, fire=_bogus_hotspot),
)}


def all_fault_names() -> List[str]:
    return sorted(FAULTS)


def make_fault(name: str, **overrides) -> Fault:
    """A fresh copy of the named row (with its own sticky victim);
    ``rate`` and ``max_injections`` may be overridden."""
    try:
        row = FAULTS[name]
    except KeyError:
        raise ValueError(f"unknown fault {name!r}; "
                         f"known: {all_fault_names()}") from None
    unknown = sorted(set(overrides) - {"rate", "max_injections"})
    if unknown:
        raise ValueError(f"fault {name!r}: only rate and max_injections "
                         f"can be overridden, not {unknown}")
    return replace(row, **overrides)
