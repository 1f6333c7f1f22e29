"""Byte-range lock manager.

PVFS itself has no locking (paper §4.1), which is why ROMIO disables
data-sieving *writes* on it.  This manager exists so the sieving write
path can be implemented and tested against a configuration that does
advertise locking (``PVFSConfig(supports_locking=True)``), as the paper
discusses for other file systems — including the serialization of
overlapping writers it warns about, which falls out of the FIFO
conflict queue here.
"""

from __future__ import annotations

from .errors import LockUnsupported

__all__ = ["LockManager", "LockToken"]


class LockToken:
    """A granted byte-range lock."""

    __slots__ = ("handle", "lo", "hi", "owner", "released")

    def __init__(self, handle: int, lo: int, hi: int, owner: str):
        self.handle = handle
        self.lo = lo
        self.hi = hi
        self.owner = owner
        self.released = False

    def overlaps(self, handle: int, lo: int, hi: int) -> bool:
        return handle == self.handle and lo < self.hi and hi > self.lo


class LockManager:
    """Exclusive byte-range locks with FIFO waiting.

    Lives on the metadata server's node; acquiring costs one round trip
    (charged by the caller through ``lock_rpc_time``).
    """

    def __init__(self, env, config):
        self.env = env
        self.config = config
        self._held: list[LockToken] = []
        self._waiters: list[tuple[LockToken, object]] = []
        self.acquisitions = 0
        self.contentions = 0

    def acquire(self, handle: int, lo: int, hi: int, owner: str):
        """Generator: resolves with a LockToken once granted."""
        if not self.config.supports_locking:
            raise LockUnsupported(
                "this file system does not support byte-range locking"
            )
        if hi <= lo:
            raise ValueError("empty lock range")
        token = LockToken(handle, lo, hi, owner)
        if self._conflicts(token) or self._waiters:
            # queue behind existing waiters even if currently free, for
            # FIFO fairness; release() moves us to _held before firing
            self.contentions += 1
            ev = self.env.event()
            self._waiters.append((token, ev))
            yield ev
        else:
            self._held.append(token)
            self.acquisitions += 1
        return token

    def release(self, token: LockToken) -> None:
        if token.released:
            raise RuntimeError("double release of lock")
        token.released = True
        self._held.remove(token)
        # grant FIFO waiters whose ranges are now free
        remaining = []
        for waiter, ev in self._waiters:
            if not self._conflicts(waiter):
                self._held.append(waiter)
                self.acquisitions += 1
                ev.succeed()
            else:
                remaining.append((waiter, ev))
        self._waiters = remaining

    def _conflicts(self, token: LockToken) -> bool:
        return any(
            h.overlaps(token.handle, token.lo, token.hi) for h in self._held
        )
