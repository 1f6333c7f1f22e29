"""Exposition formats for a :class:`~repro.metrics.hub.MetricsHub`.

* :func:`openmetrics` — the OpenMetrics / Prometheus text exposition
  format.  Counters render as ``<name>_total``, histograms as
  cumulative ``_bucket{le=...}`` samples plus ``_sum``/``_count``, and
  sampled time series as gauges carrying their **last** sampled value
  (the exposition format has no series type; a real Prometheus server
  would build the series by scraping repeatedly — full series data
  lives in the JSON export).
* :func:`validate_openmetrics` — a small grammar checker for the text
  format (the acceptance gate: exported text must parse).
* :func:`metrics_json` — everything the registry holds, including full
  series points, as a JSON-ready dict (``METRICS_*.json`` artifacts).
* :func:`imbalance_report` — the per-server load-imbalance /
  stripe-hotspot summary: max-over-mean busy seconds and bytes served,
  naming the hottest server (paper §4's load-skew argument in data).
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

from .registry import LABEL_NAME_RE, METRIC_NAME_RE

if TYPE_CHECKING:  # pragma: no cover
    from .hub import MetricsHub

__all__ = [
    "openmetrics",
    "validate_openmetrics",
    "metrics_json",
    "imbalance_report",
]


def _fmt(v) -> str:
    """Render a sample value: Prometheus-style ``1.0`` for whole floats."""
    if isinstance(v, bool):  # pragma: no cover - defensive
        raise TypeError("boolean sample value")
    if isinstance(v, int):
        return str(v)
    if v == int(v) and abs(v) < 1e15:
        return f"{v:.1f}"
    return repr(float(v))  # a numpy scalar's repr is np.float64(...)


def _escape(v: str) -> str:
    return v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels(labels: dict, extra: str = "") -> str:
    parts = [f'{k}="{_escape(v)}"' for k, v in sorted(labels.items())]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def openmetrics(hub: "MetricsHub") -> str:
    """Render the hub's registry as OpenMetrics text (ends ``# EOF``)."""
    lines: list[str] = []
    for fam in hub.registry.families.values():
        kind = "gauge" if fam.kind == "series" else fam.kind
        lines.append(f"# TYPE {fam.name} {kind}")
        if fam.help:
            lines.append(f"# HELP {fam.name} {_escape(fam.help)}")
        for labels, inst in fam.labeled():
            if fam.kind == "counter":
                lines.append(
                    f"{fam.name}_total{_labels(labels)} {_fmt(inst.value)}"
                )
            elif fam.kind == "gauge":
                lines.append(
                    f"{fam.name}{_labels(labels)} {_fmt(inst.value)}"
                )
            elif fam.kind == "series":
                lines.append(f"{fam.name}{_labels(labels)} {_fmt(inst.last)}")
            else:  # histogram
                cum = inst.cumulative()
                for bound, c in zip(inst.bounds, cum):
                    le = _labels(labels, f'le="{format(bound, "g")}"')
                    lines.append(f"{fam.name}_bucket{le} {c}")
                le = _labels(labels, 'le="+Inf"')
                lines.append(f"{fam.name}_bucket{le} {cum[-1]}")
                lines.append(
                    f"{fam.name}_sum{_labels(labels)} {_fmt(inst.sum)}"
                )
                lines.append(
                    f"{fam.name}_count{_labels(labels)} {inst.count}"
                )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# grammar checking
# ----------------------------------------------------------------------
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[^ ]+)$"
)
_LABEL_PAIR_RE = re.compile(
    r'^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"$'
)
_SUFFIXES = {
    "counter": ("_total",),
    "gauge": ("",),
    "histogram": ("_bucket", "_sum", "_count"),
}


def validate_openmetrics(text: str) -> list[str]:
    """Check ``text`` against the exposition-format grammar.

    Returns a list of problems (empty = valid).  Checks: exactly one
    ``# EOF`` and it is the final line; every sample is preceded by a
    ``# TYPE`` for its family and uses a suffix legal for that kind;
    metric/label names match the grammar; values parse as numbers;
    histogram buckets are cumulative non-decreasing and the ``+Inf``
    bucket equals ``_count``.
    """
    problems: list[str] = []
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[-1] != "# EOF":
        problems.append("missing final # EOF line")
    if sum(1 for ln in lines if ln == "# EOF") > 1:
        problems.append("multiple # EOF lines")

    types: dict[str, str] = {}
    # (family, labels-minus-le) -> list of (bound, cumulative count)
    buckets: dict[tuple, list[tuple[float, int]]] = {}
    counts: dict[tuple, float] = {}

    for i, line in enumerate(lines, 1):
        if line == "# EOF":
            if i != len(lines):
                problems.append(f"line {i}: # EOF before end of input")
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or parts[3] not in (
                "counter",
                "gauge",
                "histogram",
                "summary",
                "untyped",
            ):
                problems.append(f"line {i}: malformed TYPE line")
                continue
            name = parts[2]
            if not METRIC_NAME_RE.match(name):
                problems.append(f"line {i}: bad metric name {name!r}")
            if name in types:
                problems.append(f"line {i}: duplicate TYPE for {name!r}")
            types[name] = parts[3]
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("#"):
            problems.append(f"line {i}: unknown comment {line!r}")
            continue
        if not line:
            problems.append(f"line {i}: blank line")
            continue

        m = _SAMPLE_RE.match(line)
        if not m:
            problems.append(f"line {i}: unparsable sample {line!r}")
            continue
        sample = m.group("name")
        family = kind = None
        for fam, ty in types.items():
            for suffix in _SUFFIXES.get(ty, ("",)):
                if sample == fam + suffix:
                    family, kind = fam, ty
                    break
            if family:
                break
        if family is None:
            problems.append(
                f"line {i}: sample {sample!r} has no preceding TYPE"
            )
            continue

        labels: dict[str, str] = {}
        raw = m.group("labels")
        ok = True
        if raw:
            for pair in raw.split(","):
                pm = _LABEL_PAIR_RE.match(pair)
                if not pm:
                    problems.append(f"line {i}: bad label pair {pair!r}")
                    ok = False
                    break
                ln = pm.group("name")
                if not LABEL_NAME_RE.match(ln):  # pragma: no cover
                    problems.append(f"line {i}: bad label name {ln!r}")
                labels[ln] = pm.group("value")
        if not ok:
            continue
        try:
            value = float(m.group("value"))
        except ValueError:
            problems.append(
                f"line {i}: bad sample value {m.group('value')!r}"
            )
            continue

        if kind == "histogram":
            key_labels = tuple(
                sorted((k, v) for k, v in labels.items() if k != "le")
            )
            key = (family, key_labels)
            if sample == family + "_bucket":
                if "le" not in labels:
                    problems.append(f"line {i}: bucket without le label")
                    continue
                le = labels["le"]
                bound = float("inf") if le == "+Inf" else float(le)
                buckets.setdefault(key, []).append((bound, int(value)))
            elif sample == family + "_count":
                counts[key] = value

    for (family, key_labels), pairs in buckets.items():
        bounds = [b for b, _ in pairs]
        cums = [c for _, c in pairs]
        if bounds != sorted(bounds):
            problems.append(f"{family}: bucket bounds not sorted")
        if cums != sorted(cums):
            problems.append(f"{family}: bucket counts not cumulative")
        if bounds and bounds[-1] != float("inf"):
            problems.append(f"{family}: missing +Inf bucket")
        key = (family, key_labels)
        if key in counts and cums and cums[-1] != counts[key]:
            problems.append(
                f"{family}: +Inf bucket {cums[-1]} != count {counts[key]}"
            )
    return problems


# ----------------------------------------------------------------------
# JSON export
# ----------------------------------------------------------------------
def metrics_json(hub: "MetricsHub") -> dict:
    """The whole registry as a JSON-ready dict (schema 1).

    Unlike the text exposition this keeps full series points
    (``t``/``value``/``dt`` triples) and adds interpolated quantile
    estimates to histograms.  Everything is derived from the simulated
    clock, so the document is deterministic — safe to diff run-to-run.
    """
    families = []
    for fam in hub.registry.families.values():
        metrics = []
        for labels, inst in fam.labeled():
            entry: dict = {"labels": labels}
            if fam.kind in ("counter", "gauge"):
                entry["value"] = inst.value
            elif fam.kind == "histogram":
                entry.update(
                    bounds=list(inst.bounds),
                    counts=list(inst.counts),
                    sum=inst.sum,
                    count=inst.count,
                    p50=inst.quantile(0.50),
                    p95=inst.quantile(0.95),
                    p99=inst.quantile(0.99),
                )
            else:  # series
                entry.update(
                    t=list(inst.t),
                    values=list(inst.values),
                    dt=list(inst.dt),
                    integral=inst.integral(),
                )
            metrics.append(entry)
        families.append(
            {
                "name": fam.name,
                "kind": fam.kind,
                "help": fam.help,
                "metrics": metrics,
            }
        )
    return {
        "schema": 1,
        "interval_s": hub.interval,
        "samples": hub.samples,
        "families": families,
    }


# ----------------------------------------------------------------------
# load-imbalance / stripe-hotspot report
# ----------------------------------------------------------------------
def imbalance_report(servers) -> dict:
    """Per-server load skew: max-over-mean busy seconds and bytes served.

    ``servers`` is any iterable of I/O servers (ducktyped: ``index``,
    ``stage_times``, ``bytes_read``, ``bytes_written``).  A
    ``max_over_mean`` of 1.0 means perfectly balanced striping; large
    values flag a stripe hotspot (one daemon absorbing a
    disproportionate share of the access pattern).
    """
    rows = []
    for s in servers:
        rows.append(
            {
                "server": s.index,
                "busy_s": s.stage_times.busy,
                "requests": s.stage_times.requests,
                "bytes": s.bytes_read + s.bytes_written,
            }
        )
    report: dict = {"servers": rows}
    for key in ("busy_s", "bytes"):
        vals = [r[key] for r in rows]
        mean = sum(vals) / len(vals) if vals else 0.0
        peak = max(vals) if vals else 0.0
        hottest = (
            max(rows, key=lambda r: r[key])["server"] if rows else None
        )
        report[key.removesuffix("_s")] = {
            "mean": mean,
            "max": peak,
            "max_over_mean": peak / mean if mean else 1.0,
            "hottest_server": hottest,
        }
    return report
