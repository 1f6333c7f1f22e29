"""Metric instruments and the registry that owns them.

The registry is a plain container keyed on the *simulated* clock: it
never touches the event queue, so collecting metrics is pure
observation — exactly the contract ``repro.trace`` established for
spans.  Four instrument kinds:

* :class:`Counter` — monotonically increasing total (messages sent,
  bytes transferred, retries);
* :class:`Gauge` — a value that goes up and down (bytes in flight);
* :class:`Histogram` — log-bucketed latency distribution with
  ``sum``/``count`` and interpolated quantile estimates (p50/p95/p99);
* :class:`Series` — a sampled time series of ``(t, value, dt)`` points
  produced by the periodic sampler, stored as one column of a
  shared-clock :class:`SampleTable`; ``integral()`` recovers the
  value×time area so rate series reconcile with busy-time totals.

Instruments live in *families* (one name, one kind, one help string)
and are distinguished by label sets, mirroring the OpenMetrics data
model so :mod:`repro.metrics.export` can render the exposition format
directly.
"""

from __future__ import annotations

import bisect
import re
from array import array
from typing import Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "SampleTable",
    "Series",
    "MetricFamily",
    "MetricsRegistry",
    "log_buckets",
    "DEFAULT_LATENCY_BUCKETS",
]

#: OpenMetrics metric / label name grammar.
METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def log_buckets(
    lo: float = 1e-6, hi: float = 10.0, per_decade: int = 3
) -> tuple[float, ...]:
    """Geometric bucket bounds from ``lo`` to at least ``hi``.

    ``per_decade`` bounds per factor of ten; the default spans 1 µs to
    10 s, which covers every simulated latency the cluster produces
    (NIC transfer of one header up to a full collective I/O phase).
    """
    if lo <= 0 or hi <= lo:
        raise ValueError("need 0 < lo < hi")
    out = []
    k = 0
    while True:
        v = lo * 10.0 ** (k / per_decade)
        out.append(v)
        if v >= hi:
            return tuple(out)
        k += 1


#: Shared default for latency histograms (22 bounds, 1 µs … 10 s).
DEFAULT_LATENCY_BUCKETS = log_buckets()


class Counter:
    """Monotonic total.  OpenMetrics renders it as ``<name>_total``."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A value that can rise and fall."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Log-bucketed distribution with exact ``sum`` and ``count``.

    ``bounds`` are the upper bucket edges (``le`` values); one implicit
    overflow bucket catches everything above the last bound.  ``sum``
    accumulates the raw observed values, so histogram totals reconcile
    exactly with any other accounting of the same quantities (the
    acceptance cross-check against :class:`~repro.simulation.stats.StageTimes`).
    """

    kind = "histogram"
    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Optional[tuple[float, ...]] = None):
        b = tuple(bounds) if bounds is not None else DEFAULT_LATENCY_BUCKETS
        if not b or list(b) != sorted(b) or len(set(b)) != len(b):
            raise ValueError("bucket bounds must be sorted and distinct")
        self.bounds = b
        self.counts = [0] * (len(b) + 1)  # last = overflow (+Inf)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> list[int]:
        """Cumulative bucket counts, one per bound plus ``+Inf``."""
        out, running = [], 0
        for c in self.counts:
            running += c
            out.append(running)
        return out

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by interpolating within buckets.

        The same estimate ``histogram_quantile`` computes from a
        Prometheus scrape: linear within the containing bucket, the
        lower edge of the first bucket taken as 0, and the last bound
        returned for anything in the overflow bucket.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        running = 0
        for i, c in enumerate(self.counts):
            if c == 0:
                continue
            if running + c >= target:
                if i == len(self.bounds):  # overflow bucket
                    return self.bounds[-1]
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i]
                frac = (target - running) / c
                return lo + (hi - lo) * frac
            running += c
        return self.bounds[-1]


class SampleTable:
    """Row-major samples on one shared clock.

    Tick ``i`` holds ``t[i]``, ``dt[i]`` and ``width`` values
    (``values[i * width : (i + 1) * width]``); the sampler appends a
    whole row with one ``extend``.  Columns are claimed before the first
    row lands (:class:`Series` does it), never after.
    """

    __slots__ = ("width", "t", "dt", "values")

    def __init__(self):
        self.width = 0
        self.t = array("d")
        self.dt = array("d")
        self.values = array("d")

    def add_column(self) -> int:
        if self.t:
            raise ValueError("sample table already has rows")
        self.width += 1
        return self.width - 1

    def append(self, t: float, dt: float, row) -> None:
        self.t.append(t)
        self.dt.append(dt)
        self.values.extend(row)


class Series:
    """A sampled time series: one column of a :class:`SampleTable`.

    ``t`` and ``dt`` are the table's shared clock columns — ``dt`` is
    the width of the sampling interval the point summarizes (the tail
    sample at finalize time can be shorter than the cadence) — and
    ``values`` is this column's stride of the row-major block.  For
    rate-valued series (NIC utilization), ``integral()`` recovers the
    underlying busy seconds: ``sum(value * dt)``.
    """

    kind = "series"
    __slots__ = ("table", "column")

    def __init__(self, table: SampleTable):
        self.table = table
        self.column = table.add_column()

    @property
    def t(self):
        return self.table.t

    @property
    def dt(self):
        return self.table.dt

    @property
    def values(self):
        return self.table.values[self.column :: self.table.width]

    def integral(self) -> float:
        return sum(v * d for v, d in zip(self.values, self.dt))

    @property
    def last(self) -> float:
        table = self.table
        if not table.t:
            return 0.0
        return table.values[self.column - table.width]

    def __len__(self) -> int:
        return len(self.table.t)


_KINDS = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": Histogram,
    "series": Series,
}


class MetricFamily:
    """One metric name: a kind, a help string, labeled children."""

    __slots__ = ("name", "kind", "help", "children")

    def __init__(self, name: str, kind: str, help: str = ""):
        self.name = name
        self.kind = kind
        self.help = help
        #: sorted ``((label, value), ...)`` tuple → instrument
        self.children: dict[tuple, object] = {}

    def labeled(self) -> list[tuple[dict, object]]:
        """``(labels-dict, instrument)`` pairs in insertion order."""
        return [(dict(k), v) for k, v in self.children.items()]


class MetricsRegistry:
    """Families of named, labeled instruments.

    ``counter``/``gauge``/``histogram``/``series`` get-or-create the
    instrument for ``(name, labels)``; asking for an existing name with
    a different kind is a programming error and raises.
    """

    def __init__(self):
        self.families: dict[str, MetricFamily] = {}

    # ------------------------------------------------------------------
    def _child(self, name: str, kind: str, help: str, labels: dict, **kw):
        fam = self.families.get(name)
        if fam is None:
            if not METRIC_NAME_RE.match(name):
                raise ValueError(f"invalid metric name {name!r}")
            fam = MetricFamily(name, kind, help)
            self.families[name] = fam
        elif fam.kind != kind:
            raise ValueError(
                f"metric {name!r} is a {fam.kind}, not a {kind}"
            )
        key = tuple(sorted(labels.items()))
        child = fam.children.get(key)
        if child is None:
            for ln, lv in key:
                if not LABEL_NAME_RE.match(ln):
                    raise ValueError(f"invalid label name {ln!r}")
                if not isinstance(lv, str):
                    raise TypeError(f"label {ln!r} value must be a string")
            child = _KINDS[kind](**kw)
            fam.children[key] = child
        return child

    # ------------------------------------------------------------------
    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._child(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._child(name, "gauge", help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[tuple[float, ...]] = None,
        **labels,
    ) -> Histogram:
        return self._child(name, "histogram", help, labels, bounds=buckets)

    def series(
        self, name: str, help: str, table: SampleTable, **labels
    ) -> Series:
        """``table`` places a *new* series as the next column of a
        shared-clock table (a hit ignores it)."""
        return self._child(name, "series", help, labels, table=table)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(f.children) for f in self.families.values())
