"""Deterministic fault injection: the mechanism behind ``repro.faults``.

Arm it with ``PVFSConfig(faults=FaultConfig(...))``.  Three fault
families thread through the simulated cluster:

* **disk** — transient slowdowns (the media takes ``disk_slow_factor``×
  its modelled time) and full stalls (a flat ``disk_stall_seconds``
  penalty), charged inside the server storage stage so every observer
  (StageTimes, metrics histograms, ``server.storage`` spans) stays
  reconciled;
* **network** — client↔iod data-path messages are dropped (the bytes
  cross the wire, the mailbox never hears of them) or duplicated (a
  ghost copy arrives one extra latency later);
* **server crash** — windows of simulated time during which an I/O
  daemon discards incoming I/O requests (its control path stays up,
  like a wedged data thread).

Clients survive all three through per-RPC timeouts with exponential
backoff and bounded retries (:mod:`repro.pvfs.client`); a request whose
every retry times out surfaces a typed
:class:`~repro.pvfs.errors.RetriesExhausted`, never a hang.

Determinism is the design center: every fault decision is drawn from a
:class:`FaultPlan` — counter-keyed BLAKE2b streams seeded by
``FaultConfig.seed``, never the wall clock — so a given ``(workload,
seed, fault config)`` triple replays bit-for-bit, and the recorded
:class:`FaultEvent` log is directly comparable across runs.  The
injector is zero-overhead when disarmed: ``faults=None`` leaves the
:data:`NULL_FAULTS` singleton in place (every site is one attribute
test), and an armed-but-inert config (all probabilities zero, no crash
windows) is float-equality identical to ``faults=None``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Optional

from ..metrics import NULL_METRICS
from ..trace import NULL_TRACER

__all__ = [
    "FaultConfig",
    "FaultPlan",
    "FaultEvent",
    "FaultInjector",
    "NullFaults",
    "NULL_FAULTS",
    "SEVERITY_LEVELS",
    "severity_config",
]


@dataclass(frozen=True)
class FaultConfig:
    """Static fault-injection parameters (all probabilities per event).

    The default instance is *inert*: armed (decision sites run) but
    injecting nothing — useful for bit-identity tests.  Probabilities
    apply per decision site: per storage stage with media time for the
    disk families, per faultable message for the network families.
    """

    #: Seed of the deterministic draw streams (:class:`FaultPlan`).
    seed: int = 0
    #: Probability a storage stage runs slow.
    disk_slow_prob: float = 0.0
    #: Slowdown multiplier: a slow stage takes ``factor``× its modelled
    #: media time (the extra ``(factor-1)·disk_time`` is the fault).
    disk_slow_factor: float = 2.0
    #: Probability a storage stage stalls outright.
    disk_stall_prob: float = 0.0
    #: Flat stall duration added to a stalled stage, seconds.
    disk_stall_seconds: float = 5e-3
    #: Probability a client↔iod data-path message is dropped.
    net_drop_prob: float = 0.0
    #: Probability such a message is duplicated (ghost copy delivered
    #: one extra latency later; dropped messages are never duplicated).
    net_dup_prob: float = 0.0
    #: Crash windows ``(server_index, t_start, t_end)`` in simulated
    #: seconds: the daemon discards I/O requests while ``t_start <= now
    #: < t_end`` (metadata and control traffic keep flowing).
    server_crashes: tuple = ()
    #: Client-side per-RPC response timeout, simulated seconds.  This
    #: is the *base* deadline: it doubles per consecutive timeout of
    #: the same request (TCP RTO style), so a transfer whose legitimate
    #: wire time exceeds the base still completes instead of timing out
    #: forever.
    rpc_timeout: float = 50e-3
    #: Bound on resends after timeouts before the client gives up with
    #: :class:`~repro.pvfs.errors.RetriesExhausted`.
    max_retries: int = 8
    #: Base backoff before a timed-out request is resent; doubles per
    #: consecutive timeout (exponential backoff).
    retry_backoff: float = 1e-3
    #: Collective failover: consecutive timeouts of one aggregated
    #: ``OP_COLL`` request before the aggregator hands its rounds to
    #: the next surviving candidate (``repro.pvfs.collective``).  Must
    #: stay below ``max_retries`` to leave the new aggregator budget;
    #: re-election is attempted once the escalation ladder reaches this
    #: rung and a surviving candidate exists, otherwise the plain
    #: ladder continues to ``RetriesExhausted``.
    coll_reelect_after: int = 3

    def __post_init__(self):
        for name in (
            "disk_slow_prob", "disk_stall_prob",
            "net_drop_prob", "net_dup_prob",
        ):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p!r}")
        if self.disk_slow_factor < 1.0:
            raise ValueError("disk_slow_factor must be >= 1")
        if self.disk_stall_seconds < 0:
            raise ValueError("disk_stall_seconds must be non-negative")
        if self.rpc_timeout <= 0:
            raise ValueError("rpc_timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be non-negative")
        if self.coll_reelect_after < 1:
            raise ValueError("coll_reelect_after must be >= 1")
        for win in self.server_crashes:
            if len(win) != 3:
                raise ValueError(
                    "server_crashes entries are (server, t0, t1) triples"
                )
            s, t0, t1 = win
            if s < 0 or t0 < 0 or t1 < t0:
                raise ValueError(f"bad crash window {win!r}")

    @property
    def can_inject(self) -> bool:
        """False iff this config is inert (nothing can ever be injected).

        An inert config must be float-equality identical to
        ``faults=None``, so the client arms its RPC timers only when
        this is True — a timer on a legitimately-slow RPC would
        otherwise inject a spurious resend.
        """
        return bool(
            self.disk_slow_prob
            or self.disk_stall_prob
            or self.net_drop_prob
            or self.net_dup_prob
            or self.server_crashes
        )


class FaultPlan:
    """Counter-keyed deterministic draw streams.

    ``draw(kind)`` hashes ``seed:kind:counter`` with BLAKE2b and maps
    the digest to a uniform float in ``[0, 1)``; each kind advances its
    own counter.  No wall clock, no shared RNG state — the *n*-th draw
    of a kind is a pure function of ``(seed, kind, n)``, so replays are
    bit-for-bit and adding a new fault family never perturbs the
    streams of existing ones.
    """

    __slots__ = ("seed", "_counters")

    def __init__(self, seed: int):
        self.seed = seed
        self._counters: dict[str, int] = {}

    def draw(self, kind: str) -> float:
        n = self._counters.get(kind, 0)
        self._counters[kind] = n + 1
        digest = blake2b(
            f"{self.seed}:{kind}:{n}".encode(), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big") / 2.0**64


@dataclass
class FaultEvent:
    """One injected fault, as recorded in the injector's event log."""

    seq: int  #: position in the log (0-based)
    t: float  #: simulated instant of the decision
    kind: str  #: e.g. ``net.drop``, ``disk.stall``, ``rpc.timeout``
    where: str  #: actor or link, e.g. ``iod3`` or ``cl0->ios2``
    info: dict = field(default_factory=dict)

    def key(self) -> tuple:
        """Hashable, order-stable form used by determinism tests."""
        return (
            self.seq,
            self.t,
            self.kind,
            self.where,
            tuple(sorted(self.info.items())),
        )


class FaultInjector:
    """Decision sites + event log + observability for one file system.

    One injector per :class:`~repro.pvfs.system.PVFS` when
    ``config.faults`` is set.  The instrumented layers call the
    decision sites (``net_fault``, ``disk_penalty``, ``server_down``)
    and the recorders (``crash_drop``, ``rpc_timeout`` …); every
    injected fault appends a :class:`FaultEvent`, bumps a counter,
    emits a ``fault.*`` trace span (when tracing) and a
    ``repro_fault_events`` metric (when metering).
    """

    enabled = True

    def __init__(self, env, config: FaultConfig, tracer=None, metrics=None):
        self.env = env
        self.config = config
        self.plan = FaultPlan(config.seed)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.events: list[FaultEvent] = []
        # per-family counters (all mirrored in summary())
        self.drops = 0
        self.dups = 0
        self.disk_slowdowns = 0
        self.disk_stalls = 0
        self.stall_seconds = 0.0  #: total injected disk fault time
        self.crash_drops = 0
        self.timeouts = 0
        self.failovers = 0
        self.exhausted = 0
        self.coll_resends = 0
        self.coll_reelections = 0

    @property
    def armed(self) -> bool:
        """True iff the config can inject at all (see
        :attr:`FaultConfig.can_inject`); clients arm RPC timers only
        then, keeping inert configs bit-identical to ``faults=None``."""
        return self.config.can_inject

    @property
    def degraded(self) -> bool:
        """True iff at least one fault was actually injected."""
        return bool(self.events)

    def event_log(self) -> list[tuple]:
        """The full event log as comparable tuples (determinism tests)."""
        return [ev.key() for ev in self.events]

    def summary(self) -> dict:
        """Deterministic per-run fault accounting (benchmarks, tests)."""
        return {
            "events": len(self.events),
            "drops": self.drops,
            "dups": self.dups,
            "disk_slowdowns": self.disk_slowdowns,
            "disk_stalls": self.disk_stalls,
            "stall_seconds": self.stall_seconds,
            "crash_drops": self.crash_drops,
            "timeouts": self.timeouts,
            "failovers": self.failovers,
            "exhausted": self.exhausted,
            "coll_resends": self.coll_resends,
            "coll_reelections": self.coll_reelections,
        }

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _record(
        self,
        kind: str,
        where: str,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
        trace_id: int = -1,
        parent=None,
        **info,
    ) -> None:
        now = self.env.now
        t0 = now if t0 is None else t0
        t1 = t0 if t1 is None else t1
        self.events.append(
            FaultEvent(len(self.events), t0, kind, where, info)
        )
        if self.metrics.enabled:
            self.metrics.fault(kind)
        if self.tracer.enabled and trace_id >= 0:
            self.tracer.add(
                f"fault.{kind}", "fault", where, t0, t1,
                trace_id=trace_id, parent=parent, **info,
            )

    # ------------------------------------------------------------------
    # network faults (called by Network.send for faultable messages)
    # ------------------------------------------------------------------
    def net_fault(self, src: str, dst: str, nbytes: int, payload) -> Optional[str]:
        """Decide one faultable message's fate: None, 'drop' or 'dup'."""
        cfg = self.config
        verdict = None
        if cfg.net_drop_prob > 0 and (
            self.plan.draw("net.drop") < cfg.net_drop_prob
        ):
            verdict = "drop"
            self.drops += 1
        elif cfg.net_dup_prob > 0 and (
            self.plan.draw("net.dup") < cfg.net_dup_prob
        ):
            verdict = "dup"
            self.dups += 1
        if verdict is None:
            return None
        self._record(
            f"net.{verdict}",
            f"{src}->{dst}",
            trace_id=getattr(payload, "trace_id", -1),
            parent=getattr(payload, "trace_parent", None),
            nbytes=nbytes,
            req_id=getattr(payload, "req_id", -1),
        )
        return verdict

    # ------------------------------------------------------------------
    # disk faults (called by the schedulers' storage stage)
    # ------------------------------------------------------------------
    def disk_penalty(
        self,
        where: str,
        disk_time: float,
        *,
        t_start: float,
        trace_id: int = -1,
        parent=None,
    ) -> float:
        """Extra storage-stage seconds injected for this request.

        ``t_start`` is the simulated instant the storage stage begins;
        fault spans are laid end-to-end after the unperturbed media
        time (``t_start + disk_time``), so the ``server.storage`` span
        still covers the whole effective stage and per-stage
        reconciliations stay exact.
        """
        cfg = self.config
        extra = 0.0
        t = t_start + disk_time
        if cfg.disk_slow_prob > 0 and (
            self.plan.draw("disk.slow") < cfg.disk_slow_prob
        ):
            slow = disk_time * (cfg.disk_slow_factor - 1.0)
            extra += slow
            self.disk_slowdowns += 1
            self.stall_seconds += slow
            if self.metrics.enabled:
                self.metrics.fault_stall(slow)
            self._record(
                "disk.slow", where, t, t + slow,
                trace_id=trace_id, parent=parent, extra_s=slow,
            )
            t += slow
        if cfg.disk_stall_prob > 0 and (
            self.plan.draw("disk.stall") < cfg.disk_stall_prob
        ):
            stall = cfg.disk_stall_seconds
            extra += stall
            self.disk_stalls += 1
            self.stall_seconds += stall
            if self.metrics.enabled:
                self.metrics.fault_stall(stall)
            self._record(
                "disk.stall", where, t, t + stall,
                trace_id=trace_id, parent=parent, extra_s=stall,
            )
        return extra

    # ------------------------------------------------------------------
    # server crashes (called by the daemon receive loop)
    # ------------------------------------------------------------------
    def server_down(self, index: int) -> bool:
        """Is server ``index`` inside one of its crash windows now?"""
        now = self.env.now
        for s, t0, t1 in self.config.server_crashes:
            if s == index and t0 <= now < t1:
                return True
        return False

    def crash_drop(self, where: str, req) -> None:
        """Record an I/O request discarded by crashed daemon ``where``."""
        self.crash_drops += 1
        self._record(
            "server.crash",
            where,
            trace_id=getattr(req, "trace_id", -1),
            parent=getattr(req, "trace_parent", None),
            req_id=getattr(req, "req_id", -1),
            client=getattr(req, "client", ""),
        )

    # ------------------------------------------------------------------
    # client failover (called by the PVFS client's retry loop)
    # ------------------------------------------------------------------
    def rpc_timeout(self, client: str, req, attempt: int, span=None) -> None:
        self.timeouts += 1
        self._record(
            "rpc.timeout", client,
            trace_id=getattr(req, "trace_id", -1), parent=span,
            req_id=req.req_id, server=req.server, attempt=attempt,
        )

    def rpc_failover(self, client: str, req, attempts: int, span=None) -> None:
        """A request succeeded after at least one timeout + resend."""
        self.failovers += 1
        self._record(
            "rpc.failover", client,
            trace_id=getattr(req, "trace_id", -1), parent=span,
            req_id=req.req_id, server=req.server, attempts=attempts,
        )

    def rpc_exhausted(self, client: str, req, attempts: int, span=None) -> None:
        self.exhausted += 1
        self._record(
            "rpc.exhausted", client,
            trace_id=getattr(req, "trace_id", -1), parent=span,
            req_id=req.req_id, server=req.server, attempts=attempts,
        )

    # ------------------------------------------------------------------
    # collective failover (called by the collective ack/handoff layer)
    # ------------------------------------------------------------------
    def coll_resend(
        self, client: str, server: int, round_no: int,
        attempt: int, *, kind: str, trace_id: int = -1, span=None,
    ) -> None:
        """A collective data segment was resent (write) or re-fetched
        (read) after its per-(round, server) ack timed out."""
        self.coll_resends += 1
        self._record(
            "coll.resend", client,
            trace_id=trace_id, parent=span,
            server=server, round=round_no, attempt=attempt, what=kind,
        )

    def coll_reelection(
        self, client: str, server: int, from_agg: int, to_agg: int,
        rounds: int, *, trace_id: int = -1, span=None,
    ) -> None:
        """An aggregator's rounds were handed to a surviving candidate
        after its composite request timed out past the ladder."""
        self.coll_reelections += 1
        self._record(
            "coll.reelect", client,
            trace_id=trace_id, parent=span,
            server=server, from_agg=from_agg, to_agg=to_agg,
            rounds=rounds,
        )

    def coll_exhausted(
        self, client: str, server: int, round_no: int, attempts: int,
        *, trace_id: int = -1, span=None,
    ) -> None:
        """Every resend of a collective segment timed out (the caller
        raises :class:`~repro.pvfs.errors.RetriesExhausted`)."""
        self.exhausted += 1
        self._record(
            "rpc.exhausted", client,
            trace_id=trace_id, parent=span,
            req_id=-1, server=server, round=round_no, attempts=attempts,
        )


class NullFaults:
    """Disarmed fault injection: every site is a no-op behind
    ``enabled=False`` (the ``NULL_TRACER``/``NULL_METRICS`` pattern).
    The client's retry recorders (``rpc_*``, ``coll_*``) have no stub
    here: they are reached only through an RTO ladder, which exists
    only under an armed injector."""

    enabled = False
    config = None
    events: list = []
    armed = False

    @property
    def degraded(self) -> bool:
        return False

    def event_log(self) -> list:
        return []

    def summary(self) -> dict:
        return {}

    def net_fault(self, src, dst, nbytes, payload) -> None:
        return None

    def disk_penalty(self, where, disk_time, **kw) -> float:
        return 0.0

    def server_down(self, index) -> bool:
        return False

    def crash_drop(self, where, req) -> None:
        pass


#: Shared disarmed singleton; ``PVFS`` uses it when ``config.faults`` is None.
NULL_FAULTS = NullFaults()


#: Severity levels of the ``repro-bench faults`` sweep, mildest first.
SEVERITY_LEVELS = ("none", "light", "moderate", "heavy")


def severity_config(level: str, seed: int = 1234) -> Optional[FaultConfig]:
    """The benchmark sweep's named severity presets.

    ``none`` returns ``None`` (fault machinery fully disarmed — the
    fault-free reference point of the sweep); the others scale all
    three fault families together, with ``heavy`` adding a server
    crash window early in the run to exercise client failover.
    """
    if level == "none":
        return None
    if level == "light":
        return FaultConfig(
            seed=seed,
            disk_slow_prob=0.05,
            net_drop_prob=0.01,
            net_dup_prob=0.01,
        )
    if level == "moderate":
        return FaultConfig(
            seed=seed,
            disk_slow_prob=0.15,
            disk_slow_factor=3.0,
            disk_stall_prob=0.02,
            disk_stall_seconds=2e-3,
            net_drop_prob=0.03,
            net_dup_prob=0.02,
        )
    if level == "heavy":
        return FaultConfig(
            seed=seed,
            disk_slow_prob=0.3,
            disk_slow_factor=4.0,
            disk_stall_prob=0.05,
            disk_stall_seconds=5e-3,
            net_drop_prob=0.08,
            net_dup_prob=0.05,
            # one iod loses its data path for the first 20 simulated ms
            server_crashes=((1, 0.0, 0.02),),
            rpc_timeout=25e-3,
        )
    raise ValueError(
        f"unknown severity {level!r}; choose from {SEVERITY_LEVELS}"
    )
