"""``repro-bench faults``: the severity sweep and the CI chaos gate."""

import json
from pathlib import Path

import pytest

from repro.bench.characteristics import METHOD_ORDER
from repro.bench.cli import COMMANDS
from repro.bench.document import write_document
from repro.bench.faultscmd import (
    DOCUMENT,
    collect_faults_bench,
    fault_spec,
    smoke,
)
from repro.bench.runner import run
from repro.faults import SEVERITY_LEVELS

ARMED = SEVERITY_LEVELS[1:]


def test_sweep_document_structure(tmp_path):
    doc = collect_faults_bench(methods=["datatype_io"])
    path = write_document(DOCUMENT, tmp_path, doc)
    assert path.name == "BENCH_faults.json"
    assert json.loads(path.read_text()) == doc
    assert doc["schema"] == 1
    assert set(doc["severities"]) == set(SEVERITY_LEVELS)
    assert doc["severities"]["none"] is None
    assert doc["severities"]["heavy"]["net_drop_prob"] > 0
    per = doc["methods"]["datatype_io"]
    assert set(per) == set(SEVERITY_LEVELS)
    for level in SEVERITY_LEVELS:
        entry = per[level]
        assert entry["supported"]
        assert entry["mbps"] > 0
        assert entry["elapsed_s"] > 0
    assert not per["none"]["degraded"]
    assert "faults" not in per["none"]
    assert per["heavy"]["degraded"]
    assert per["heavy"]["faults"]["events"] > 0
    assert per["heavy"]["faults"]["exhausted"] == 0


def test_degradation_costs_bandwidth():
    doc = collect_faults_bench(methods=["datatype_io"])
    per = doc["methods"]["datatype_io"]
    # the fault-free reference must be the fastest cell of the sweep
    assert per["none"]["mbps"] >= max(
        per[lvl]["mbps"] for lvl in ("light", "moderate", "heavy")
    )


def test_sweep_is_deterministic(monkeypatch):
    from repro.bench import runner

    a = collect_faults_bench(methods=["datatype_io"])
    monkeypatch.setattr(runner, "_CELLS", {})  # run every cell again
    b = collect_faults_bench(methods=["datatype_io"])
    assert a == b


def test_sweep_equals_checked_in_baseline_exactly(tmp_path):
    # the whole sweep, byte for byte: `compare` only holds it to +-5 %
    path = write_document(DOCUMENT, tmp_path)
    baseline = Path(__file__).parents[2] / "results" / "BENCH_faults.json"
    assert path.read_bytes() == baseline.read_bytes()


def test_cli_has_faults_command():
    assert "faults" in COMMANDS


def test_chaos_smoke_gate_passes():
    assert smoke() == []


@pytest.mark.parametrize("level", ARMED)
@pytest.mark.parametrize("method", [m for m in METHOD_ORDER if m != "posix"])
def test_armed_sweep_cell_ends_quiescent(method, level):
    # the cancelled timers of a finished run leave the queue with it
    run(fault_spec(method, level)).fs.assert_quiescent()


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP 18: armed POSIX returns while iod0 still serves "
    "timed-out requests and answers sit unread in client mailboxes",
)
def test_armed_posix_cell_ends_quiescent():
    r = run(fault_spec("posix", "light", trace=True))
    assert [s.name for s in r.tracer.open_spans()] == []
    r.fs.assert_quiescent()
