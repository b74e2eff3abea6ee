"""LocalCluster — a shards x replicas grid of in-process cache servers.

Tests, the drills and the fleet engine need a real cluster — real
sockets, real per-replica stores — without managing OS processes.
:class:`LocalCluster` spins up ``shards`` x ``replicas``
:class:`~repro.cacheserver.server.CacheServer` instances on loopback
TCP (port 0, kernel-assigned), each over its own repository directory
``<root>/<group>/replica<r>``, and exposes the resulting
:class:`~repro.cluster.topology.ClusterSpec`.

Failure drills are first-class: :meth:`stop_replica` hard-stops one
server (its port stays reserved in the spec, so clients see a refused
connection — the same observable as a crashed process), and
:meth:`restart_replica` brings it back on the *same* address, store
intact, so anti-entropy can heal it.  ``tools/drills.py`` subclasses it
over ``repro serve`` subprocesses (:meth:`_spawn` is the one seam) for
the genuine ``kill -9`` variant; this class is the in-process twin the
deterministic gates drive.
"""

from __future__ import annotations

import logging
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.cacheserver.server import CacheServer
from repro.cluster.topology import ClusterSpec, ShardGroup

log = logging.getLogger("repro.cluster")

DEFAULT_SHARDS = 3
DEFAULT_REPLICAS = 2


class LocalCluster:
    """Spin up (and break, and heal) a whole cluster in one process."""

    def __init__(self, root, shards: int = DEFAULT_SHARDS,
                 replicas: int = DEFAULT_REPLICAS,
                 max_queue_depth: Optional[int] = None) -> None:
        if shards < 1 or replicas < 1:
            raise ValueError(
                f"need at least 1 shard and 1 replica, got "
                f"{shards}x{replicas}")
        self.root = Path(root)
        self.shards = shards
        self.replicas = replicas
        self.max_queue_depth = max_queue_depth
        self.servers: Dict[Tuple[str, int], CacheServer] = {}
        self._started = False

    def group_name(self, shard: int) -> str:
        return f"shard{shard}"

    def repo_dir(self, group: str, index: int) -> Path:
        return self.root / group / f"replica{index}"

    # -- lifecycle ----------------------------------------------------------

    @staticmethod
    def role(index: int) -> str:
        return "primary" if index == 0 else "replica"

    def _spawn(self, group: str, index: int, old=None):
        """Start replica ``index`` of ``group`` on a kernel-assigned
        loopback port — or, replacing the stopped server ``old``, on
        its address."""
        server = CacheServer(
            self.repo_dir(group, index),
            host=old.host if old else "127.0.0.1",
            port=old.port if old else 0,
            max_queue_depth=self.max_queue_depth,
            shard_id=group, role=self.role(index))
        server.start()
        return server

    def start(self) -> ClusterSpec:
        """Bind and start every server; returns the live spec."""
        if self._started:
            return self.spec()
        for shard in range(self.shards):
            group = self.group_name(shard)
            for index in range(self.replicas):
                self.servers[(group, index)] = self._spawn(group, index)
        self._started = True
        log.info("local cluster up: %dx%d under %s",
                 self.shards, self.replicas, self.root)
        return self.spec()

    def spec(self) -> ClusterSpec:
        """The cluster spec for the (started) grid.  Addresses stay
        valid across stop_replica/restart_replica — a stopped replica's
        port simply refuses connections, like a crashed process."""
        if not self._started:
            raise RuntimeError("LocalCluster.spec() before start()")
        groups = []
        for shard in range(self.shards):
            group = self.group_name(shard)
            replicas = tuple(
                self.servers[(group, index)].address
                for index in range(self.replicas))
            groups.append(ShardGroup(name=group, replicas=replicas))
        return ClusterSpec(groups=tuple(groups))

    def stop(self) -> None:
        # every accept loop is told before any is waited for
        for server in self.servers.values():
            server.signal_stop()
        for server in self.servers.values():
            server.stop()
        self._started = False

    # -- failure drills ------------------------------------------------------

    def server(self, group: str, index: int) -> CacheServer:
        return self.servers[(group, index)]

    def stop_replica(self, group: str, index: int) -> str:
        """Hard-stop one replica (connection-refused from now on);
        returns its address, which stays reserved in the spec."""
        server = self.servers[(group, index)]
        server.kill()
        log.info("stopped replica %s/%d at %s", group, index,
                 server.address)
        return server.address

    def restart_replica(self, group: str, index: int) -> str:
        """Bring a stopped replica back on the same address, its
        on-disk store untouched (the anti-entropy repair target)."""
        old = self.servers[(group, index)]
        old.stop()
        server = self.servers[(group, index)] = \
            self._spawn(group, index, old)
        return server.address

    def __enter__(self) -> "LocalCluster":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
