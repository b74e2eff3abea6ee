"""ClusterRepository — the wire repository under its cluster name.

There is one shared-cache client: :class:`repro.persist.remote
.RemoteRepository` routes content keys across the shard groups of a
:class:`~repro.cluster.topology.ClusterSpec` and serves each group
through one :class:`~repro.persist.remote.ReplicaSet` request engine;
a single server is its one-group, one-replica case.  This module keeps
the name the cluster tier's callers import.
"""

from repro.persist.remote import RemoteRepository as ClusterRepository

__all__ = ["ClusterRepository"]
