"""The multi-tenant scale sweep: cell docs, smoke gate, CLI plumbing."""

import copy
import json

import pytest

from repro.bench.document import write_document
from repro.bench.scalecmd import (
    DOCUMENT,
    SMOKE_SPEC,
    collect_scale_bench,
    render_scale,
    run_scale_cell,
    smoke_check,
)

#: A seconds-not-minutes grid for unit tests; same shape as the specs.
TINY_SPEC = {
    "cells": [
        [8, 1, 2],
        [16, 2, 4],
    ],
    "weighted": {"cell": [8, 2, 2], "weights": [1.0, 2.0]},
    "blocks": 2,
    "base_reps": 2,
}


@pytest.fixture(scope="module")
def tiny_doc():
    return collect_scale_bench(TINY_SPEC)


def test_cell_validation():
    with pytest.raises(ValueError):
        run_scale_cell(10, 1, 4)  # clients not a multiple of iods
    with pytest.raises(ValueError):
        run_scale_cell(8, 2, 4, weights=[1.0])  # weight count mismatch


def test_collect_covers_the_grid(tiny_doc):
    assert [
        [c["clients"], c["tenants"], c["iods"]] for c in tiny_doc["cells"]
    ] == TINY_SPEC["cells"]
    assert tiny_doc["spec"] == TINY_SPEC
    assert tiny_doc["weighted"]["weights"] == [1.0, 2.0]
    # doubled grid really does more work
    b = [c["total_bytes"] for c in tiny_doc["cells"]]
    assert b[1] > b[0]


def test_cell_accounting_is_self_consistent(tiny_doc):
    for cell in tiny_doc["cells"] + [tiny_doc["weighted"]]:
        per_tenant = cell["per_tenant"]
        assert len(per_tenant) == cell["tenants"]
        assert sum(t["ranks"] for t in per_tenant.values()) == cell["clients"]
        assert sum(t["bytes"] for t in per_tenant.values()) == (
            cell["total_bytes"]
        )
        # every request passed through admission exactly once
        assert all(t["admitted"] > 0 for t in per_tenant.values())
        assert 0.0 < cell["server_busy_frac"] <= 1.0


def test_equal_weight_cells_are_fair(tiny_doc):
    for cell in tiny_doc["cells"]:
        assert cell["jain_weighted"] >= 0.9


def test_weighted_cell_shares_proportional(tiny_doc):
    weighted = tiny_doc["weighted"]
    rates = [
        t["mbps"] / t["weight"] for t in weighted["per_tenant"].values()
    ]
    mean = sum(rates) / len(rates)
    assert all(abs(r - mean) / mean <= 0.10 for r in rates)
    assert weighted["jain_weighted"] >= 0.9


def test_smoke_check_passes_clean_doc(tiny_doc):
    assert smoke_check(tiny_doc) == []


def test_smoke_check_flags_each_failure(tiny_doc):
    doc = copy.deepcopy(tiny_doc)
    # truncated sweep: second cell did no more work than the first
    doc["cells"][1]["total_bytes"] = doc["cells"][0]["total_bytes"]
    # unfair equal-weight cell
    doc["cells"][0]["jain_weighted"] = 0.5
    # weighted cell off proportional
    first = next(iter(doc["weighted"]["per_tenant"].values()))
    first["mbps"] *= 3.0
    problems = smoke_check(doc)
    # with two tenants, skewing one skews both off the mean -> 4 lines
    assert len(problems) == 4
    assert any("not above previous" in p for p in problems)
    assert any("Jain index" in p for p in problems)
    assert any("deviates" in p for p in problems)


def test_write_and_render(tmp_path, tiny_doc):
    doc = tiny_doc
    path = write_document(DOCUMENT, tmp_path, doc)
    assert path.name == "BENCH_scale.json"
    assert json.loads(path.read_text())["spec"] == TINY_SPEC
    text = render_scale(doc)
    assert len(text.splitlines()) == 3  # 2 equal cells + 1 weighted
    assert "1:2" in text and "equal" in text


def test_determinism(tiny_doc):
    """Same spec, same document — the compare gate depends on this."""
    again = collect_scale_bench(TINY_SPEC)
    assert again == tiny_doc


def test_cli_scale_smoke_monkeypatched(monkeypatch, capsys):
    """The ``scale --smoke`` CI entry point gates on smoke_check."""
    from repro.bench import cli, scalecmd

    monkeypatch.setattr(scalecmd, "SMOKE_SPEC", TINY_SPEC)
    assert cli.main(["scale", "--smoke"]) == 0
    assert "scale smoke OK" in capsys.readouterr().err


def test_smoke_spec_shape():
    """SMOKE_SPEC stays a miniature of the full sweep's shape."""
    assert all(len(cell) == 3 for cell in SMOKE_SPEC["cells"])
    assert len(SMOKE_SPEC["weighted"]["cell"]) == 3
    assert SMOKE_SPEC["weighted"]["weights"] == [1.0, 2.0, 4.0, 8.0]
