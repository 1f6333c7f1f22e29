"""``repro-bench collective``: smoke gate assertions + document shape."""

import copy

import pytest

# the module-scoped sweep fixtures run paper-scale cells
pytestmark = pytest.mark.slow

from repro.bench.characteristics import METHOD_ORDER
from repro.bench.collectivecmd import (
    QUICK_SPEC,
    collect_collective_bench,
    collect_smoke,
    dominance_problems,
    render_collective,
    smoke_check,
)

SMALL_SMOKE = {
    "clients": (2, 4),
    "methods": ("list_io", "datatype_io", "collective_dtype"),
}


@pytest.fixture(scope="module")
def smoke_doc():
    return collect_smoke(SMALL_SMOKE)


def test_smoke_passes(smoke_doc):
    assert smoke_check(smoke_doc) == []


def test_smoke_catches_lost_ordering(smoke_doc):
    doc = copy.deepcopy(smoke_doc)
    top = max(doc["cells"])
    doc["cells"][top]["collective_dtype"]["mbps"] = 0.01
    assert any("does not beat list_io" in p for p in smoke_check(doc))


def test_smoke_catches_nondeterminism(smoke_doc):
    doc = copy.deepcopy(smoke_doc)
    doc["replay"]["elapsed_s"] += 1e-9
    assert any("nondeterministic" in p for p in smoke_check(doc))


def test_smoke_catches_linear_request_growth(smoke_doc):
    doc = copy.deepcopy(smoke_doc)
    top = max(doc["cells"])
    lo = min(doc["cells"])
    doc["cells"][top]["collective_dtype"]["requests"] = (
        doc["cells"][lo]["collective_dtype"]["requests"] * top // lo
    )
    assert any("requests grew" in p for p in smoke_check(doc))


@pytest.fixture(scope="module")
def quick_doc():
    return collect_collective_bench(QUICK_SPEC)


def test_quick_doc_shape(quick_doc):
    assert set(quick_doc["figures"]) == {"fig10_read", "fig10_write", "fig12"}
    for cell in quick_doc["figures"].values():
        assert set(cell["mbps"]) == set(METHOD_ORDER)
    s = quick_doc["flash_showcase"]
    # FLASH: all ranks share one fingerprint — total collapse
    assert s["views_merged"] == s["clients"] - 1
    assert s["collective_mbps"] > s["independent_mbps"]


def test_quick_doc_dominates_and_renders(quick_doc):
    # even at reduced scale the sixth curve wins every cell today; if a
    # future change narrows that to paper scale only, drop this to the
    # full-spec gate of the record (collectivecmd._problems)
    assert dominance_problems(quick_doc) == []
    text = render_collective(quick_doc)
    assert "collective_dtype" in text
    assert "FLASH showcase" in text


def test_dominance_problems_reports_loss(quick_doc):
    doc = copy.deepcopy(quick_doc)
    doc["dominance"]["fig12"] = False
    assert any("fig12" in p for p in dominance_problems(doc))
