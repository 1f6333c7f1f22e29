"""Simulated-clock metrics: counters, gauges, histograms, time series.

The metrics twin of :mod:`repro.trace`: enable with
``PVFSConfig(metrics=True)``, collect pure observations (metrics-on
runs are bit-identical to metrics-off), export OpenMetrics text or
JSON, and gate regressions with ``repro-bench compare``.
"""

from .export import (
    imbalance_report,
    metrics_json,
    openmetrics,
    validate_openmetrics,
)
from .fairness import jain_index
from .hub import (
    NULL_METRICS,
    STAGES,
    MetricsHub,
    NullMetrics,
    reconcile_metrics,
)
from .registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    SampleTable,
    Series,
    log_buckets,
)

__all__ = [
    "jain_index",
    "MetricsHub",
    "NullMetrics",
    "NULL_METRICS",
    "STAGES",
    "reconcile_metrics",
    "MetricsRegistry",
    "MetricFamily",
    "Counter",
    "Gauge",
    "Histogram",
    "SampleTable",
    "Series",
    "log_buckets",
    "DEFAULT_LATENCY_BUCKETS",
    "openmetrics",
    "validate_openmetrics",
    "metrics_json",
    "imbalance_report",
]
