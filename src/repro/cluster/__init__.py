"""Fault-tolerant translation-cache cluster (the fleet-grade tier).

The single-socket cache server of :mod:`repro.cacheserver` scales out
here: content-addressed objects are sharded across N server processes
by a consistent-hash ring (:mod:`repro.cluster.ring`), each shard group
is replicated R ways (:mod:`repro.cluster.topology`), and the one wire
client (:mod:`repro.persist.remote`; a single server is its 1x1 case)
degrades replica → other replica → local cache → cold translation —
never raising into the VM.  Replicas converge
through deterministic manifest merging (sorted union of
verifier-screened entries) and the anti-entropy repair pass
(:mod:`repro.cluster.repair`).

See ``docs/cluster.md`` for topology, merge semantics, the failover
ladder and the faults that exercise every rung.
"""

from repro.cluster.manager import LocalCluster
from repro.cluster.repair import RepairReport, anti_entropy
from repro.cluster.ring import HashRing
from repro.cluster.topology import ClusterSpec, ShardGroup
from repro.persist.remote import RemoteRepository

#: the wire repository under the name the cluster tier's callers import
ClusterRepository = RemoteRepository

__all__ = [
    "ClusterRepository",
    "ClusterSpec",
    "HashRing",
    "LocalCluster",
    "RepairReport",
    "ShardGroup",
    "anti_entropy",
]
