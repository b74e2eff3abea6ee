"""Cluster topology: shard groups, replica sets, and the spec format.

A :class:`ClusterSpec` names the whole cluster: an ordered tuple of
:class:`ShardGroup` entries, each binding a group name to its replica
addresses (any form :func:`repro.persist.remote.parse_address`
accepts).  The spec travels three ways:

* **spec string** — ``shard0=127.0.0.1:7001,127.0.0.1:7002;shard1=…``
  (groups ``;``-separated, replicas ``,``-separated) for CLI flags;
* **dict** — :meth:`ClusterSpec.to_dict` / :meth:`from_dict`, the
  picklable form the fleet engine ships to process pools and the JSON
  form ``@file`` CLI arguments load;
* **in process** — :class:`~repro.cluster.manager.LocalCluster` builds
  one directly from the servers it spawns.

The group *order* in a spec is part of cluster identity: clients union
pull results in sorted-group order and the ring hashes group names, so
two clients holding the same spec always agree on routing and record
precedence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.cluster.ring import DEFAULT_VNODES, HashRing


@dataclass(frozen=True)
class ShardGroup:
    """One shard: a name plus the replica addresses holding its data."""

    name: str
    replicas: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("shard group needs a name")
        if not self.replicas:
            raise ValueError(
                f"shard group {self.name!r} has no replicas")
        if not isinstance(self.replicas, tuple):
            object.__setattr__(self, "replicas", tuple(self.replicas))


@dataclass(frozen=True)
class ClusterSpec:
    """The full cluster shape: ordered shard groups + ring fan-out."""

    groups: Tuple[ShardGroup, ...]
    vnodes: int = DEFAULT_VNODES

    def __post_init__(self) -> None:
        if not self.groups:
            raise ValueError("cluster spec has no shard groups")
        if not isinstance(self.groups, tuple):
            object.__setattr__(self, "groups", tuple(self.groups))
        names = [group.name for group in self.groups]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate shard group names in {names}")

    @property
    def replication(self) -> int:
        """The smallest replica count across groups (the R the cluster
        can actually promise)."""
        return min(len(group.replicas) for group in self.groups)

    def ring(self) -> HashRing:
        return HashRing([group.name for group in self.groups],
                        vnodes=self.vnodes)

    def group(self, name: str) -> ShardGroup:
        for group in self.groups:
            if group.name == name:
                return group
        raise KeyError(f"no shard group {name!r} in this spec")

    # -- interchange ---------------------------------------------------------

    @classmethod
    def parse(cls, spec) -> "ClusterSpec":
        """Coerce a spec string / dict / ClusterSpec into a spec."""
        if isinstance(spec, ClusterSpec):
            return spec
        if isinstance(spec, dict):
            return cls.from_dict(spec)
        if not isinstance(spec, str) or not spec.strip():
            raise ValueError(f"unusable cluster spec {spec!r}")
        groups = []
        for part in spec.split(";"):
            part = part.strip()
            if not part:
                continue
            name, sep, addresses = part.partition("=")
            if not sep or not name.strip():
                raise ValueError(
                    f"unusable shard group {part!r} "
                    f"(want name=addr[,addr...])")
            replicas = tuple(addr.strip()
                             for addr in addresses.split(",")
                             if addr.strip())
            groups.append(ShardGroup(name=name.strip(),
                                     replicas=replicas))
        return cls(groups=tuple(groups))

    @classmethod
    def from_dict(cls, data: Dict) -> "ClusterSpec":
        groups = tuple(
            ShardGroup(name=entry["name"],
                       replicas=tuple(entry["replicas"]))
            for entry in data.get("groups", ()))
        return cls(groups=groups,
                   vnodes=int(data.get("vnodes", DEFAULT_VNODES)))

    def to_dict(self) -> Dict:
        return {
            "groups": [{"name": group.name,
                        "replicas": list(group.replicas)}
                       for group in self.groups],
            "vnodes": self.vnodes,
        }

    def to_string(self) -> str:
        """The CLI spec-string form (round-trips through parse)."""
        return ";".join(
            f"{group.name}=" + ",".join(str(addr)
                                        for addr in group.replicas)
            for group in self.groups)

    def format(self) -> str:
        lines = [f"cluster: {len(self.groups)} shard group(s), "
                 f"replication {self.replication}, "
                 f"{self.vnodes} vnodes/group"]
        for group in self.groups:
            lines.append(f"  {group.name}: "
                         + ", ".join(str(addr)
                                     for addr in group.replicas))
        return "\n".join(lines)

    def addresses(self) -> List[str]:
        """Every replica address in spec order (drills/health tools)."""
        return [str(addr) for group in self.groups
                for addr in group.replicas]
