"""Anti-entropy repair: diff replica manifests, re-replicate the gaps.

Replicas drift: a replica misses pushes while partitioned, a
below-quorum write lands on one sibling only, disk rot eats objects.
:func:`anti_entropy` walks every shard group and, per (config, image)
manifest pair:

1. pulls each reachable replica's records and screens every one
   through :func:`~repro.persist.format.validate_record` — the same
   structural screen ``fsck`` applies on disk — so a corrupt replica
   can never *spread* damage through repair;
2. computes the merged union of the surviving records (keyed by
   content address, exactly the union the server's ``merge=true``
   manifest semantics converge on);
3. pushes each replica the keys it is missing (a ``merge`` push, so
   repair composes with live writers), and re-verifies convergence
   from the manifests' key lists.

The pass is read-mostly, idempotent, and safe to run against a live
cluster; replicas that stay unreachable are reported, not fatal — the
next pass heals them after restart.  ``repro cluster repair`` and the
outage drills of ``tools/drills.py`` drive this.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.cluster.topology import ClusterSpec
from repro.persist.format import PersistFormatError, Record, validate_record
from repro.persist.remote import ReplicaSet, pulled_records

log = logging.getLogger("repro.cluster")


@dataclass
class GroupRepair:
    """Repair outcome for one shard group."""

    group: str
    pairs: int = 0
    #: replica address -> records re-replicated onto it
    re_replicated: Dict[str, int] = field(default_factory=dict)
    unreachable: List[str] = field(default_factory=list)
    corrupt_discarded: int = 0
    #: every reachable replica's manifests now list the merged union
    converged: bool = True

    @property
    def total_re_replicated(self) -> int:
        return sum(self.re_replicated.values())


@dataclass
class RepairReport:
    """One anti-entropy pass over the whole cluster."""

    groups: List[GroupRepair] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(g.converged for g in self.groups)

    @property
    def total_re_replicated(self) -> int:
        return sum(g.total_re_replicated for g in self.groups)

    @property
    def unreachable(self) -> List[str]:
        return [addr for g in self.groups for addr in g.unreachable]

    def format(self) -> str:
        lines = [f"anti-entropy: {len(self.groups)} group(s), "
                 f"{self.total_re_replicated} record(s) re-replicated, "
                 f"{'converged' if self.ok else 'NOT converged'}"]
        for g in self.groups:
            detail = ", ".join(
                f"{addr}+{count}" for addr, count
                in sorted(g.re_replicated.items()) if count) or "in sync"
            line = (f"  {g.group}: {g.pairs} manifest pair(s), {detail}")
            if g.corrupt_discarded:
                line += f", {g.corrupt_discarded} corrupt discarded"
            if g.unreachable:
                line += ", unreachable: " + ", ".join(g.unreachable)
            lines.append(line)
        return "\n".join(lines)


def _manifest_pairs(client: ReplicaSet) -> Optional[Set]:
    """The (config_fp, image_fp) pairs one replica holds, from its
    stats manifests (names are ``<config_fp>__<image_fp>``)."""
    info = client.ask("stats")
    if info is None:
        return None
    pairs = set()
    repository = info.get("repository") or {}
    for manifest in repository.get("manifests", ()):
        name = manifest.get("name", "")
        config_fp, sep, image_fp = name.partition("__")
        if sep and config_fp and image_fp:
            pairs.add((config_fp, image_fp))
    return pairs


def anti_entropy(spec, timeout: float = 2.0, retries: int = 1,
                 sleep=None) -> RepairReport:
    """One repair pass; see the module docstring for the algorithm."""
    spec = ClusterSpec.parse(spec)
    report = RepairReport()
    for group in spec.groups:
        outcome = GroupRepair(group=group.name)
        report.groups.append(outcome)
        clients = {}
        for address in group.replicas:
            kwargs = {"timeout": timeout, "retries": retries,
                      "name": group.name}
            if sleep is not None:
                kwargs["sleep"] = sleep
            # one engine per replica: repair needs each one's own
            # answer, not the first healthy sibling's
            clients[str(address)] = ReplicaSet([address], **kwargs)
        # discover the manifest pairs present anywhere in the group
        pairs: Set = set()
        reachable: Dict[str, ReplicaSet] = {}
        for address, client in clients.items():
            found = _manifest_pairs(client)
            if found is None:
                outcome.unreachable.append(address)
                continue
            reachable[address] = client
            pairs |= found
        if not reachable:
            outcome.converged = False
            continue
        outcome.pairs = len(pairs)
        for config_fp, image_fp in sorted(pairs):
            payload = {"config_fp": config_fp, "image_fp": image_fp}
            merged: Dict[str, Record] = {}
            holdings: Dict[str, Set[str]] = {}
            for address, client in reachable.items():
                try:
                    records = pulled_records(
                        client.request("pull", dict(payload)))
                except Exception as error:  # noqa: BLE001 - a replica
                    # dying mid-pass is the expected weather here
                    log.warning("repair pull from %s failed: %s",
                                address, error)
                    if address not in outcome.unreachable:
                        outcome.unreachable.append(address)
                    continue
                held = set()
                for record in records:
                    try:
                        validate_record(record)
                    except PersistFormatError:
                        outcome.corrupt_discarded += 1
                        continue
                    merged.setdefault(record["key"], record)
                    held.add(record["key"])
                holdings[address] = held
            # re-replicate each replica's missing share (merge push:
            # composes with live writers and is idempotent)
            for address, held in sorted(holdings.items()):
                missing = sorted(set(merged) - held)
                if not missing:
                    continue
                push = dict(payload)
                push["records"] = [merged[key].text for key in missing]
                push["merge"] = True
                # repair pushes may overwrite an existing-but-corrupt
                # object file (a plain push would skip it as a dedup)
                push["repair"] = True
                try:
                    reachable[address].request("push", push)
                except Exception as error:  # noqa: BLE001 - same
                    # weather as above; the next pass retries
                    log.warning("repair push to %s failed: %s",
                                address, error)
                    outcome.converged = False
                    continue
                outcome.re_replicated[address] = \
                    outcome.re_replicated.get(address, 0) + len(missing)
            # convergence check: every reachable replica's manifest
            # must now cover the merged union (a replica may keep
            # dangling entries for keys *no* replica holds a valid
            # copy of — nothing can re-replicate those, and loads
            # skip them exactly like the single store does)
            want = set(merged)
            for address in sorted(holdings):
                try:
                    response = reachable[address].request(
                        "manifest", {**payload, "keys": True})
                except Exception as error:  # noqa: BLE001 - replica
                    # died between repair and re-check
                    log.warning("repair re-check of %s failed: %s",
                                address, error)
                    outcome.converged = False
                    continue
                if want - set(response.get("keys") or []):
                    outcome.converged = False
        if outcome.unreachable:
            outcome.converged = False
    return report
