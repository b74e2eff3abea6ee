"""Writer lease: cross-process mutual exclusion for repository writers.

The repository's crash-safety story (journaled tmp+rename writes) makes
every *individual* file update atomic, but a multi-process deployment —
many VM instances saving into one shared store, a gc pass running from
cron, the cache server's handler threads — also needs the *sequence*
object-writes -> manifest -> meta to be exclusive, or two concurrent
savers can interleave meta updates and a gc can evict objects a
mid-flight manifest is about to reference.

The lease is a single file (``<root>/writer.lease``) created with
``O_CREAT | O_EXCL`` — atomic on every filesystem we care about — whose
JSON body names the holder and an expiry time.  Rules:

* **acquire**: create the file exclusively; on ``FileExistsError``,
  poll until the holder releases or the lease *expires* (a crashed
  holder must not wedge the store forever);
* **steal**: an expired lease is broken by atomically renaming it to a
  unique tombstone first — exactly one stealer wins the rename, so two
  processes can never both think they broke it — then re-contending on
  the normal create path;
* **release**: unlink only if the body still names us (a steal may have
  already recycled the file to another holder).

Holders are identified by ``pid:thread-id:counter``, so handler threads
inside one server process exclude each other exactly like separate
processes do.  Everything degrades, nothing deadlocks: ``acquire``
returns ``False`` after its timeout and callers fall back (a save that
cannot get the lease saves nothing; a gc evicts nothing) rather than
blocking the VM.
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import threading
import time
from pathlib import Path
from typing import Optional

log = logging.getLogger("repro.persist")

#: Default lease lifetime.  Saves and gc passes complete in well under a
#: second; a holder that is this stale has crashed and may be stolen.
DEFAULT_TTL = 30.0

#: Default time acquire() spends contending before giving up.
DEFAULT_TIMEOUT = 10.0

_POLL_INTERVAL = 0.01

_holder_counter = itertools.count()


def _holder_id() -> str:
    return (f"{os.getpid()}:{threading.get_ident()}:"
            f"{next(_holder_counter)}")


class WriterLease:
    """One writer's handle on the repository lock file."""

    def __init__(self, root, ttl: float = DEFAULT_TTL,
                 holder: Optional[str] = None) -> None:
        self.root = Path(root)
        self.path = self.root / "writer.lease"
        self.ttl = ttl
        self.holder = holder or _holder_id()
        self.held = False

    # -- acquisition --------------------------------------------------------

    def try_acquire(self) -> bool:
        """One atomic attempt; no waiting, no stealing."""
        self.root.mkdir(parents=True, exist_ok=True)
        body = json.dumps({
            "holder": self.holder,
            "pid": os.getpid(),
            "expires": time.time() + self.ttl,
        })
        try:
            # reprolint: disable=FLT001 - lease contention is injected
            # at the net.lease fault site; a repo-plane fault here would
            # stall every chaos run on lease-acquire timeouts instead
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        except OSError as error:
            log.warning("lease create at %s failed: %s", self.path, error)
            return False
        try:
            os.write(fd, body.encode())
        finally:
            os.close(fd)
        self.held = True
        return True

    def acquire(self, timeout: Optional[float] = None) -> bool:
        """Contend for the lease; returns False after ``timeout``
        (``DEFAULT_TIMEOUT``, read at call time, when None)."""
        if timeout is None:
            timeout = DEFAULT_TIMEOUT
        deadline = time.monotonic() + timeout
        while True:
            if self.try_acquire():
                return True
            if self._expired():
                self._break_stale()
                continue    # re-contend immediately after a steal
            if time.monotonic() >= deadline:
                return False
            time.sleep(_POLL_INTERVAL)

    def _read(self) -> Optional[dict]:
        try:
            body = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return None
        return body if isinstance(body, dict) else None

    def _expired(self) -> bool:
        body = self._read()
        if body is None:
            # unreadable (mid-steal, torn, or just released): not ours
            # to break — the create path will settle it
            return False
        expires = body.get("expires")
        return not isinstance(expires, (int, float)) \
            or time.time() > expires

    def _break_stale(self) -> None:
        """Atomically retire an expired lease file.

        The rename target is unique per breaker, so when two processes
        race to steal, exactly one rename succeeds; the loser's rename
        raises and it simply re-contends.
        """
        tombstone = self.path.with_name(
            f"writer.lease.stale-{_holder_id()}")
        try:
            # reprolint: disable=FLT001 - see try_acquire: the lease
            # protocol is exercised via net.lease, not the repo plane
            os.rename(self.path, tombstone)
        except OSError:
            return      # someone else broke (or released) it first
        log.warning("broke stale writer lease at %s", self.path)
        try:
            tombstone.unlink()
        except OSError:
            pass

    # -- release ------------------------------------------------------------

    def release(self) -> None:
        if not self.held:
            return
        self.held = False
        body = self._read()
        if body is not None and body.get("holder") != self.holder:
            return      # stolen after expiry and re-acquired: not ours
        try:
            self.path.unlink()
        except OSError:
            pass

    # -- context manager ----------------------------------------------------

    def __enter__(self) -> "WriterLease":
        if not self.acquire():
            raise LeaseBusyError(
                f"could not acquire writer lease at {self.path}")
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class LeaseBusyError(Exception):
    """The writer lease stayed contended past the acquire timeout."""
