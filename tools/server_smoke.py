#!/usr/bin/env python
"""Shared-cache server smoke gate (the ``make serve-smoke`` target).

Exercises the full client/server path the way an operator would:

1. spawn ``repro serve`` as a real subprocess on a unix socket;
2. run a workload cold and ``push`` its translations through a
   :class:`~repro.persist.RemoteRepository`;
3. warm-start a fresh VM through the server — it must load every
   record and translate **zero** blocks at boot;
4. ``kill -9`` the server mid-run, then warm-start two more clients:
   one with a local fallback repository (must still boot warm from
   it) and one with nothing (must degrade to cold translation) —
   both must reproduce the cold run's architected results exactly.

Any divergence, missed fallback, or surviving server process fails
the gate (exit 1).  Run directly (``python tools/server_smoke.py``)
or via ``make serve-smoke`` / ``make verify``.  See
``docs/cache_server.md``.
"""

from __future__ import annotations

import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core.config import vm_soft                    # noqa: E402
from repro.core.vm import CoDesignedVM                   # noqa: E402
from repro.isa.x86lite.assembler import assemble         # noqa: E402
from repro.persist import RemoteRepository, ReplicaSet   # noqa: E402
from repro.workloads.programs import PROGRAMS            # noqa: E402

HOT_THRESHOLD = 20
WORKLOAD = "fibonacci"
SERVER_STARTUP_DEADLINE = 15.0


def start_server(socket_path: str, cache_dir: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--socket", socket_path, "--cache-dir", cache_dir],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env, cwd=str(REPO))
    # readiness via the wire ``health`` op — the same structured probe
    # operators and the cluster tooling use, not a stdout scrape
    probe = ReplicaSet([f"unix:{socket_path}"], timeout=0.5,
                       retries=0, sleep=lambda _s: None)
    try:
        deadline = time.monotonic() + SERVER_STARTUP_DEADLINE
        while time.monotonic() < deadline:
            health = probe.ask("health")
            if health is not None:
                print(f"server ready: role={health.get('role')} "
                      f"objects={health.get('objects')} "
                      f"at {health.get('address')}")
                return proc
            if proc.poll() is not None:
                break
            time.sleep(0.05)
    finally:
        probe.close()
    raise RuntimeError("server subprocess never answered the health op")


def fresh_vm() -> CoDesignedVM:
    vm = CoDesignedVM(vm_soft(), hot_threshold=HOT_THRESHOLD)
    vm.load(assemble(PROGRAMS[WORKLOAD]))
    return vm


def main() -> int:
    problems = []
    with tempfile.TemporaryDirectory(prefix="repro-serve-") as workdir:
        work = pathlib.Path(workdir)
        socket_path = str(work / "cache.sock")
        server = start_server(socket_path, str(work / "server-repo"))
        try:
            # cold baseline + push through the live server
            cold_vm = fresh_vm()
            cold = cold_vm.run()
            client = RemoteRepository(f"unix:{socket_path}")
            pushed = cold_vm.save_translations(client)
            print(f"pushed {pushed} record(s) through unix:{socket_path}")
            if pushed <= 0:
                problems.append("push wrote no records")
            # seed the local fallback store for the degraded client
            cold_vm.save_translations(str(work / "local-repo"))

            # warm start through the live server: zero BBT at boot
            warm_vm = fresh_vm()
            load = warm_vm.warm_start(RemoteRepository(f"unix:{socket_path}"))
            warm = warm_vm.run()
            print(f"warm boot via server: {load.loaded}/{load.attempted} "
                  f"loaded, {warm.blocks_translated} block(s) translated")
            if load.loaded <= 0:
                problems.append("warm start through the server loaded "
                                "no records")
            if warm.blocks_translated != 0:
                problems.append(f"warm boot still translated "
                                f"{warm.blocks_translated} block(s)")
            if (warm.exit_code, warm.output) != (cold.exit_code,
                                                cold.output):
                problems.append("warm run diverged from the cold run")
        finally:
            server.send_signal(signal.SIGKILL)
            server.wait(timeout=10)
        print("server killed; clients must now degrade")

        # degraded client with a local fallback: still boots warm
        fallback = RemoteRepository(
            f"unix:{socket_path}", local=str(work / "local-repo"),
            timeout=0.5, retries=1, sleep=lambda _s: None)
        deg_vm = fresh_vm()
        deg_load = deg_vm.warm_start(fallback)
        degraded = deg_vm.run()
        stats = fallback.remote_stats
        print(f"fallback-to-local: {deg_load.loaded} loaded, "
              f"{stats.fallbacks} fallback(s), "
              f"{stats.conn_errors} conn error(s)")
        if stats.fallbacks == 0:
            problems.append("dead server produced no fallback")
        if deg_load.loaded <= 0 or degraded.blocks_translated != 0:
            problems.append("local fallback did not boot warm")
        if (degraded.exit_code, degraded.output) != (cold.exit_code,
                                                     cold.output):
            problems.append("fallback-to-local run diverged")

        # degraded client with no fallback: completes cold
        bare = RemoteRepository(f"unix:{socket_path}", timeout=0.5,
                                retries=1, sleep=lambda _s: None)
        bare_vm = fresh_vm()
        bare_load = bare_vm.warm_start(bare)
        cold_again = bare_vm.run()
        print(f"fallback-to-cold: {bare_load.loaded} loaded, "
              f"{cold_again.blocks_translated} block(s) translated")
        if bare_load.loaded != 0:
            problems.append("dead server somehow served records")
        if cold_again.blocks_translated == 0:
            problems.append("cold fallback translated nothing")
        if (cold_again.exit_code, cold_again.output) != (cold.exit_code,
                                                         cold.output):
            problems.append("fallback-to-cold run diverged")

    if problems:
        for problem in problems:
            print(f"FAIL  {problem}")
        print(f"\nserve smoke: {len(problems)} FAILURE(S)")
        return 1
    print("\nserve smoke: push, warm boot, and both degradations ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
