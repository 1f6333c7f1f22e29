"""PVFS error types."""

from __future__ import annotations

__all__ = [
    "PVFSError",
    "LockUnsupported",
    "ProtocolError",
    "ServerTimeout",
    "RetriesExhausted",
]


class PVFSError(Exception):
    """Base class for file-system errors."""


class ProtocolError(PVFSError):
    """A request that violates the wire protocol (malformed message).

    Raised by the server's decode stage; the daemon reports it back to
    the client instead of dying.
    """


class LockUnsupported(PVFSError):
    """Byte-range locking requested on a file system without it.

    PVFS does not support locking, which is why ROMIO cannot perform
    data-sieving writes on it (paper §4.1).
    """


class ServerTimeout(PVFSError):
    """An I/O RPC received no response within the fault-injection
    timeout (``FaultConfig.rpc_timeout``).

    Carries the job (request) id, the target server index, the issuing
    client name and the attempt count, so degraded-mode failures are
    attributable without digging through traces.
    """

    def __init__(
        self,
        message: str,
        *,
        job_id: int = -1,
        server: int = -1,
        client: str = "",
        attempts: int = 0,
    ):
        super().__init__(message)
        self.job_id = job_id
        self.server = server
        self.client = client
        self.attempts = attempts


class RetriesExhausted(ServerTimeout):
    """Every bounded retry of one request timed out; the client gave up.

    The terminal failure of the failover path: raised (never a hang)
    after ``FaultConfig.max_retries`` resends each missed their
    ``rpc_timeout`` deadline.  Subclasses :class:`ServerTimeout`, so
    callers can catch either the terminal or the whole timeout family.
    """
