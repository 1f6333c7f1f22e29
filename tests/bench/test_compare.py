"""The regression gate: tolerance bands, directions, coverage, exit codes."""

import copy
import json

import pytest

from repro.bench.compare import (
    DEFAULT_TOLERANCE,
    compare_against_dir,
    compare_docs,
    render_compare,
    update_baselines,
)

PIPE_BASE = {
    "schema": 1,
    "benchmarks": {
        "fig8_tile_read": {
            "datatype_io": {
                "supported": True,
                "mbps": 1.0,
                "elapsed_s": 0.05,
                "n_clients": 6,
                "io_ops_per_client": 1.0,
                "server_stages": {
                    "decode_s": 0.02,
                    "plan_s": 0.01,
                    "cache_s": 0.0,
                    "storage_s": 0.005,
                    "respond_s": 0.001,
                },
            },
            "data_sieving": {"supported": False},
        }
    },
}

CACHE_BASE = {
    "schema": 2,
    "phases": {
        "shifted": {
            "sim_speedup": 1.03,
            "hit_rate": 0.98,
            "scan_reduction": 0.999,
        }
    },
}

FAULTS_BASE = {
    "schema": 1,
    "seed": 1234,
    "methods": {
        "datatype_io": {
            "none": {"supported": True, "mbps": 0.5, "elapsed_s": 1.0},
            "heavy": {"supported": True, "mbps": 0.1, "elapsed_s": 4.0},
            "unusual": {"supported": False, "note": "n/a"},
        }
    },
}

SCALE_BASE = {
    "schema": 1,
    "method": "datatype_io",
    "spec": {"cells": [[64, 1, 4]], "weighted": None},
    "cells": [
        {
            "clients": 64,
            "tenants": 1,
            "iods": 4,
            "mbps": 30.0,
            "elapsed_s": 0.26,
            "jain_weighted": 1.0,
            "total_bytes": 8388608,
        }
    ],
    "weighted": {
        "clients": 32,
        "tenants": 4,
        "iods": 4,
        "weights": [1.0, 2.0, 4.0, 8.0],
        "mbps": 25.0,
        "elapsed_s": 0.4,
        "jain_weighted": 0.99,
        "total_bytes": 4194304,
    },
}

COLL_BASE = {
    "schema": 1,
    "spec": {
        "grid": 120,
        "clients_per_dim": 2,
        "fig12_clients": 8,
        "showcase_clients": 4,
    },
    "figures": {
        "fig10_read": {
            "clients": 8,
            "mbps": {
                "posix": 1.0,
                "data_sieving": None,
                "datatype_io": 32.0,
                "collective_dtype": 41.0,
            },
        },
        "fig12": {
            "clients": 8,
            "mbps": {"list_io": 0.6, "collective_dtype": 36.0},
        },
    },
    "flash_showcase": {
        "clients": 4,
        "views_merged": 3,
        "dedup_ratio": 0.75,
        "requests_saved": 10,
        "collective_requests": 101,
        "independent_requests": 164,
        "collective_mbps": 18.4,
        "independent_mbps": 9.6,
    },
    "dominance": {"fig10_read": True, "fig12": True},
}


def test_identical_docs_pass():
    deltas = compare_docs("pipeline", PIPE_BASE, copy.deepcopy(PIPE_BASE))
    assert deltas and not any(d.regression for d in deltas)
    deltas = compare_docs("dtype_cache", CACHE_BASE, copy.deepcopy(CACHE_BASE))
    assert deltas and not any(d.regression for d in deltas)


def test_bandwidth_drop_beyond_tolerance_is_regression():
    cur = copy.deepcopy(PIPE_BASE)
    m = cur["benchmarks"]["fig8_tile_read"]["datatype_io"]
    m["mbps"] = 0.9  # -10% < -5% tolerance
    deltas = compare_docs("pipeline", PIPE_BASE, cur)
    bad = [d for d in deltas if d.regression]
    assert [(d.metric, d.source) for d in bad] == [
        ("mbps", "pipeline/fig8_tile_read/datatype_io")
    ]
    assert bad[0].change == pytest.approx(-0.1)


def test_drop_within_tolerance_passes():
    cur = copy.deepcopy(PIPE_BASE)
    cur["benchmarks"]["fig8_tile_read"]["datatype_io"]["mbps"] = 0.96
    deltas = compare_docs("pipeline", PIPE_BASE, cur)
    assert not any(d.regression for d in deltas)


def test_custom_tolerance_band():
    cur = copy.deepcopy(PIPE_BASE)
    cur["benchmarks"]["fig8_tile_read"]["datatype_io"]["mbps"] = 0.96
    deltas = compare_docs("pipeline", PIPE_BASE, cur, tolerance=0.01)
    assert any(d.regression and d.metric == "mbps" for d in deltas)


def test_elapsed_and_busy_increase_are_regressions():
    cur = copy.deepcopy(PIPE_BASE)
    m = cur["benchmarks"]["fig8_tile_read"]["datatype_io"]
    m["elapsed_s"] = 0.06  # +20%
    m["server_stages"]["decode_s"] = 0.04  # busy 0.036 -> 0.056
    deltas = compare_docs("pipeline", PIPE_BASE, cur)
    bad = {d.metric for d in deltas if d.regression}
    assert bad == {"elapsed_s", "server_busy_s"}


def test_improvement_is_reported_not_failed():
    cur = copy.deepcopy(PIPE_BASE)
    cur["benchmarks"]["fig8_tile_read"]["datatype_io"]["mbps"] = 2.0
    deltas = compare_docs("pipeline", PIPE_BASE, cur)
    d = next(d for d in deltas if d.metric == "mbps")
    assert not d.regression and d.improved


def test_missing_method_is_coverage_regression():
    cur = copy.deepcopy(PIPE_BASE)
    del cur["benchmarks"]["fig8_tile_read"]["datatype_io"]
    deltas = compare_docs("pipeline", PIPE_BASE, cur)
    assert any(
        d.regression and d.metric == "coverage" for d in deltas
    )


def test_missing_benchmark_is_coverage_regression():
    cur = {"schema": 1, "benchmarks": {}}
    deltas = compare_docs("pipeline", PIPE_BASE, cur)
    assert any(d.regression and "missing" in d.note for d in deltas)


def test_support_loss_is_regression_support_gain_is_not():
    cur = copy.deepcopy(PIPE_BASE)
    cur["benchmarks"]["fig8_tile_read"]["datatype_io"]["supported"] = False
    deltas = compare_docs("pipeline", PIPE_BASE, cur)
    assert any(d.regression and d.metric == "supported" for d in deltas)

    # baseline-unsupported pair gaining support: nothing to compare
    cur = copy.deepcopy(PIPE_BASE)
    cur["benchmarks"]["fig8_tile_read"]["data_sieving"] = {
        "supported": True,
        "mbps": 1.0,
        "elapsed_s": 1.0,
        "server_stages": {k: 0.0 for k in PIPE_BASE["benchmarks"][
            "fig8_tile_read"]["datatype_io"]["server_stages"]},
    }
    deltas = compare_docs("pipeline", PIPE_BASE, cur)
    assert not any(d.regression for d in deltas)


def test_dtype_cache_hit_rate_drop_is_regression():
    cur = copy.deepcopy(CACHE_BASE)
    cur["phases"]["shifted"]["hit_rate"] = 0.5
    deltas = compare_docs("dtype_cache", CACHE_BASE, cur)
    assert any(d.regression and d.metric == "hit_rate" for d in deltas)


@pytest.mark.parametrize(
    "field, value, passes",
    [
        ("speedup", 0.4, True),  # a field no gate names (schema 1's wall ratio)
        ("sim_speedup", 0.99, False),
        ("hit_rate", 0.0, False),
        ("scan_reduction", 0.0, False),
    ],
)
def test_dtype_cache_cli_gates_simulated_fields_only(
    monkeypatch, tmp_path, field, value, passes
):
    """``dtype-cache --min-speedup`` gates what ``compare`` compares,
    the simulated fields; a stray wall ratio in a document (schema 1
    recorded one: both runs share one host-level ExpansionStore, so it
    is not a property of the cache) gates nothing."""
    from repro.bench import cli, dtype_cache

    doc = copy.deepcopy(CACHE_BASE)
    doc["phases"]["shifted"][field] = value
    monkeypatch.setattr(dtype_cache, "collect", lambda *a, **kw: doc)
    monkeypatch.chdir(tmp_path)  # no --out: the document lands in the cwd
    argv = ["dtype-cache", "--min-speedup", "1.0"]
    if passes:
        assert cli.main(argv) == 0
    else:
        with pytest.raises(SystemExit, match="shifted"):
            cli.main(argv)


def test_faults_identical_docs_pass():
    deltas = compare_docs("faults", FAULTS_BASE, copy.deepcopy(FAULTS_BASE))
    assert deltas and not any(d.regression for d in deltas)


def test_faults_degraded_bandwidth_drop_is_regression():
    cur = copy.deepcopy(FAULTS_BASE)
    cur["methods"]["datatype_io"]["heavy"]["mbps"] = 0.05  # -50%
    deltas = compare_docs("faults", FAULTS_BASE, cur)
    bad = [d for d in deltas if d.regression]
    assert [(d.source, d.metric) for d in bad] == [
        ("faults/datatype_io/heavy", "mbps")
    ]


def test_faults_elapsed_increase_is_regression():
    cur = copy.deepcopy(FAULTS_BASE)
    cur["methods"]["datatype_io"]["heavy"]["elapsed_s"] = 5.0  # +25%
    deltas = compare_docs("faults", FAULTS_BASE, cur)
    assert any(
        d.regression and d.metric == "elapsed_s" for d in deltas
    )


def test_faults_support_loss_and_coverage():
    # a severity cell losing support regresses…
    cur = copy.deepcopy(FAULTS_BASE)
    cur["methods"]["datatype_io"]["heavy"]["supported"] = False
    deltas = compare_docs("faults", FAULTS_BASE, cur)
    assert any(d.regression and d.metric == "supported" for d in deltas)
    # …a whole method disappearing is a coverage regression…
    deltas = compare_docs("faults", FAULTS_BASE, {"methods": {}})
    assert any(d.regression and d.metric == "coverage" for d in deltas)
    # …and a baseline-unsupported cell gaining support compares nothing
    cur = copy.deepcopy(FAULTS_BASE)
    cur["methods"]["datatype_io"]["unusual"] = {
        "supported": True,
        "mbps": 1.0,
        "elapsed_s": 1.0,
    }
    deltas = compare_docs("faults", FAULTS_BASE, cur)
    assert not any(d.regression for d in deltas)


def test_scale_identical_docs_pass():
    deltas = compare_docs("scale", SCALE_BASE, copy.deepcopy(SCALE_BASE))
    assert deltas and not any(d.regression for d in deltas)


def test_scale_bandwidth_drop_is_regression():
    cur = copy.deepcopy(SCALE_BASE)
    cur["cells"][0]["mbps"] = 20.0
    deltas = compare_docs("scale", SCALE_BASE, cur)
    bad = [d for d in deltas if d.regression]
    assert len(bad) == 1 and bad[0].source == "scale/64x1x4"
    assert bad[0].metric == "mbps"


def test_scale_fairness_drop_is_regression_even_if_faster():
    """Un-fairing the rotation regresses even with better throughput."""
    cur = copy.deepcopy(SCALE_BASE)
    cur["weighted"]["jain_weighted"] = 0.6
    cur["weighted"]["mbps"] = 50.0  # a "speedup"
    deltas = compare_docs("scale", SCALE_BASE, cur)
    bad = [d for d in deltas if d.regression]
    assert [
        (d.source, d.metric) for d in bad
    ] == [("scale/weighted", "jain_weighted")]


def test_scale_missing_cell_is_coverage_regression():
    cur = copy.deepcopy(SCALE_BASE)
    cur["cells"] = []
    deltas = compare_docs("scale", SCALE_BASE, cur)
    bad = [d for d in deltas if d.regression]
    assert len(bad) == 1
    assert bad[0].source == "scale/64x1x4" and bad[0].metric == "coverage"


# ----------------------------------------------------------------------
# collective
# ----------------------------------------------------------------------
def test_collective_identical_docs_pass():
    deltas = compare_docs("collective", COLL_BASE, copy.deepcopy(COLL_BASE))
    assert deltas
    assert not any(d.regression for d in deltas)


def test_collective_bandwidth_drop_is_regression():
    cur = copy.deepcopy(COLL_BASE)
    cur["figures"]["fig10_read"]["mbps"]["collective_dtype"] = 30.0
    deltas = compare_docs("collective", COLL_BASE, cur)
    assert any(
        d.regression and d.source == "collective/fig10_read/collective_dtype"
        for d in deltas
    )


def test_collective_dominance_flip_is_regression_even_within_tolerance():
    cur = copy.deepcopy(COLL_BASE)
    # bandwidth moves less than 5% but the crown is lost
    cur["figures"]["fig12"]["mbps"]["collective_dtype"] = 35.0
    cur["figures"]["fig12"]["mbps"]["list_io"] = 35.5
    cur["dominance"]["fig12"] = False
    deltas = compare_docs("collective", COLL_BASE, cur)
    dom = [d for d in deltas if d.metric == "dominance"]
    assert dom and dom[0].regression


def test_collective_showcase_dedup_loss_is_regression():
    cur = copy.deepcopy(COLL_BASE)
    cur["flash_showcase"]["views_merged"] = 0
    cur["flash_showcase"]["requests_saved"] = 0
    deltas = compare_docs("collective", COLL_BASE, cur)
    assert any(
        d.regression and d.metric == "views_merged" for d in deltas
    )


def test_collective_support_loss_is_regression():
    cur = copy.deepcopy(COLL_BASE)
    cur["figures"]["fig10_read"]["mbps"]["datatype_io"] = None
    deltas = compare_docs("collective", COLL_BASE, cur)
    assert any(
        d.regression and d.metric == "supported" for d in deltas
    )


def test_compare_against_dir_requires_a_baseline(tmp_path):
    with pytest.raises(FileNotFoundError):
        compare_against_dir(tmp_path)


def test_compare_against_dir_with_injected_docs(tmp_path):
    (tmp_path / "BENCH_pipeline.json").write_text(json.dumps(PIPE_BASE))
    (tmp_path / "BENCH_dtype_cache.json").write_text(json.dumps(CACHE_BASE))
    (tmp_path / "BENCH_faults.json").write_text(json.dumps(FAULTS_BASE))
    (tmp_path / "BENCH_scale.json").write_text(json.dumps(SCALE_BASE))
    (tmp_path / "BENCH_collective.json").write_text(json.dumps(COLL_BASE))
    deltas, notes = compare_against_dir(
        tmp_path,
        pipeline_doc=copy.deepcopy(PIPE_BASE),
        dtype_cache_doc=copy.deepcopy(CACHE_BASE),
        faults_doc=copy.deepcopy(FAULTS_BASE),
        scale_doc=copy.deepcopy(SCALE_BASE),
        collective_doc=copy.deepcopy(COLL_BASE),
    )
    # a passing gate says what it checked: one line per file + a total
    assert notes[-1] == "5 baseline file(s) checked"
    assert all("field(s) diffed" in n for n in notes[:-1])
    assert not any(d.regression for d in deltas)

    regressed = copy.deepcopy(PIPE_BASE)
    regressed["benchmarks"]["fig8_tile_read"]["datatype_io"]["mbps"] = 0.5
    deltas, _ = compare_against_dir(
        tmp_path,
        pipeline_doc=regressed,
        dtype_cache_doc=copy.deepcopy(CACHE_BASE),
        faults_doc=copy.deepcopy(FAULTS_BASE),
        scale_doc=copy.deepcopy(SCALE_BASE),
        collective_doc=copy.deepcopy(COLL_BASE),
    )
    assert any(d.regression for d in deltas)


def test_compare_against_dir_skips_missing_files(tmp_path):
    (tmp_path / "BENCH_pipeline.json").write_text(json.dumps(PIPE_BASE))
    deltas, notes = compare_against_dir(
        tmp_path, pipeline_doc=copy.deepcopy(PIPE_BASE)
    )
    assert len(notes) == 6  # 1 diffed + 4 skipped + files-checked total
    assert any("BENCH_dtype_cache.json" in n for n in notes)
    assert any("BENCH_faults.json" in n for n in notes)
    assert any("BENCH_scale.json" in n for n in notes)
    assert any("BENCH_collective.json" in n for n in notes)
    assert notes[-1] == "1 baseline file(s) checked"


def test_update_baselines_writes_all_documents(tmp_path):
    written = update_baselines(
        tmp_path / "results",
        pipeline_doc=copy.deepcopy(PIPE_BASE),
        dtype_cache_doc=copy.deepcopy(CACHE_BASE),
        faults_doc=copy.deepcopy(FAULTS_BASE),
        scale_doc=copy.deepcopy(SCALE_BASE),
        collective_doc=copy.deepcopy(COLL_BASE),
    )
    assert [p.name for p in written] == [
        "BENCH_pipeline.json",
        "BENCH_dtype_cache.json",
        "BENCH_faults.json",
        "BENCH_scale.json",
        "BENCH_collective.json",
    ]
    # the refreshed baselines must round-trip and gate clean against
    # the very documents they were refreshed from
    assert json.loads(written[2].read_text()) == FAULTS_BASE
    deltas, notes = compare_against_dir(
        tmp_path / "results",
        pipeline_doc=copy.deepcopy(PIPE_BASE),
        dtype_cache_doc=copy.deepcopy(CACHE_BASE),
        faults_doc=copy.deepcopy(FAULTS_BASE),
        scale_doc=copy.deepcopy(SCALE_BASE),
        collective_doc=copy.deepcopy(COLL_BASE),
    )
    assert notes[-1] == "5 baseline file(s) checked"
    assert not any(d.regression for d in deltas)


def test_cli_update_baseline_flag(tmp_path, capsys):
    from repro.bench import cli
    from repro.bench import compare as compare_mod

    orig = compare_mod.update_baselines

    def fake_update(baseline_dir):
        return orig(
            baseline_dir,
            pipeline_doc=copy.deepcopy(PIPE_BASE),
            dtype_cache_doc=copy.deepcopy(CACHE_BASE),
            faults_doc=copy.deepcopy(FAULTS_BASE),
            scale_doc=copy.deepcopy(SCALE_BASE),
            collective_doc=copy.deepcopy(COLL_BASE),
        )

    compare_mod.update_baselines = fake_update
    try:
        rc = cli.main(
            ["compare", "--baseline", str(tmp_path), "--update-baseline"]
        )
    finally:
        compare_mod.update_baselines = orig
    assert rc == 0
    assert (tmp_path / "BENCH_faults.json").exists()
    assert "BENCH_faults.json" in capsys.readouterr().err


def test_render_compare_verdicts():
    cur = copy.deepcopy(PIPE_BASE)
    cur["benchmarks"]["fig8_tile_read"]["datatype_io"]["mbps"] = 0.5
    text = render_compare(compare_docs("pipeline", PIPE_BASE, cur))
    assert "REGRESSION" in text
    assert "1 regression(s)" in text
    assert f"±{DEFAULT_TOLERANCE:.1%}" in text


def test_render_compare_prints_units():
    deltas = compare_docs("pipeline", PIPE_BASE, copy.deepcopy(PIPE_BASE))
    text = render_compare(deltas)
    assert "1 MiB/s" in text  # mbps values carry their unit
    assert "0.05 s" in text  # elapsed_s carries seconds
    units = {d.metric: d.unit for d in deltas}
    assert units["mbps"] == "MiB/s"
    assert units["elapsed_s"] == "s"
    assert units["server_busy_s"] == "s"


def test_regression_line_names_the_baseline_file(tmp_path):
    (tmp_path / "BENCH_pipeline.json").write_text(json.dumps(PIPE_BASE))
    regressed = copy.deepcopy(PIPE_BASE)
    regressed["benchmarks"]["fig8_tile_read"]["datatype_io"]["mbps"] = 0.5
    deltas, _ = compare_against_dir(tmp_path, pipeline_doc=regressed)
    bad = [d for d in deltas if d.regression]
    assert bad and all(d.baseline_file == "BENCH_pipeline.json" for d in bad)
    text = render_compare(deltas)
    line = next(l for l in text.splitlines() if "REGRESSION" in l)
    assert "[BENCH_pipeline.json]" in line


def _with_blame(doc, shares):
    doc = copy.deepcopy(doc)
    doc["benchmarks"]["fig8_tile_read"]["datatype_io"][
        "critical_blame"
    ] = dict(shares)
    return doc


def test_blame_delta_attached_to_regressions():
    base = _with_blame(
        PIPE_BASE, {"disk": 0.4, "net_wire": 0.3, "client_cpu": 0.3}
    )
    cur = _with_blame(
        PIPE_BASE, {"disk": 0.7, "net_wire": 0.2, "client_cpu": 0.1}
    )
    cur["benchmarks"]["fig8_tile_read"]["datatype_io"]["mbps"] = 0.5
    deltas = compare_docs("pipeline", base, cur)
    bad = next(d for d in deltas if d.regression and d.metric == "mbps")
    # the note IS the blame shift (not "regression; blame: ..."), and it
    # names the resource whose critical-path share moved most
    assert bad.note == "blame: disk 40.0%→70.0% of critical path"
    line = next(
        l for l in render_compare(deltas).splitlines() if "REGRESSION" in l
    )
    assert "blame: disk" in line


def test_blame_delta_suffixes_improvements():
    base = _with_blame(PIPE_BASE, {"disk": 0.9, "client_cpu": 0.1})
    cur = _with_blame(
        PIPE_BASE, {"disk": 0.3, "client_cpu": 0.2, "net_wire": 0.5}
    )
    cur["benchmarks"]["fig8_tile_read"]["datatype_io"]["mbps"] = 2.0
    deltas = compare_docs("pipeline", base, cur)
    d = next(d for d in deltas if d.metric == "mbps")
    assert d.improved  # the suffix must not break the improved property
    assert d.note.startswith("improved; blame: disk")


def test_blame_delta_absent_when_baseline_predates_blame():
    # older baselines carry no critical_blame: drift still gates, the
    # note just stays plain
    cur = copy.deepcopy(PIPE_BASE)
    cur["benchmarks"]["fig8_tile_read"]["datatype_io"]["mbps"] = 0.5
    deltas = compare_docs("pipeline", PIPE_BASE, cur)
    bad = next(d for d in deltas if d.regression)
    assert bad.note == "regression"


def test_cli_compare_exit_codes(tmp_path, capsys):
    """End-to-end through the CLI: exit 0 clean, SystemExit on regression."""
    from repro.bench import cli
    from repro.bench import compare as compare_mod

    (tmp_path / "BENCH_pipeline.json").write_text(json.dumps(PIPE_BASE))

    docs = {"doc": copy.deepcopy(PIPE_BASE)}
    orig = compare_mod.compare_against_dir

    def fake_compare(baseline_dir, tolerance, **kw):
        return orig(baseline_dir, tolerance, pipeline_doc=docs["doc"])

    compare_mod.compare_against_dir = fake_compare
    try:
        assert (
            cli.main(["compare", "--baseline", str(tmp_path)]) == 0
        )
        docs["doc"] = copy.deepcopy(PIPE_BASE)
        docs["doc"]["benchmarks"]["fig8_tile_read"]["datatype_io"][
            "mbps"
        ] = 0.5
        with pytest.raises(SystemExit, match="regression"):
            cli.main(["compare", "--baseline", str(tmp_path)])
    finally:
        compare_mod.compare_against_dir = orig
    capsys.readouterr()


# ----------------------------------------------------------------------
# the registry and the record-level checks of the gate
# ----------------------------------------------------------------------
def test_schema_mismatch_is_refused_by_name(tmp_path):
    stale = copy.deepcopy(FAULTS_BASE)
    stale["schema"] = 0
    with pytest.raises(ValueError) as exc:
        compare_docs("faults", stale, copy.deepcopy(FAULTS_BASE))
    # the message names the file and both versions
    assert "BENCH_faults.json" in str(exc.value)
    assert "schema 0" in str(exc.value) and "schema 1" in str(exc.value)
    # ... and it reaches the gate, not just the walker
    (tmp_path / "BENCH_faults.json").write_text(json.dumps(stale))
    with pytest.raises(ValueError, match="BENCH_faults.json"):
        compare_against_dir(tmp_path, faults_doc=copy.deepcopy(FAULTS_BASE))


def test_registry_order_is_report_order_is_checked_in_baselines():
    """A ``BENCH_*.json`` checked in under ``results/`` without a record
    would be gated by nothing: it fails here."""
    from pathlib import Path

    from repro.bench.registry import DOCUMENTS

    files = [record.file for record in DOCUMENTS]
    assert files == [
        "BENCH_pipeline.json",
        "BENCH_dtype_cache.json",
        "BENCH_faults.json",
        "BENCH_scale.json",
        "BENCH_collective.json",
    ]
    results = Path(__file__).parents[2] / "results"
    assert sorted(p.name for p in results.glob("BENCH_*.json")) == sorted(files)
    assert len({record.command for record in DOCUMENTS}) == len(DOCUMENTS)


def test_gate_saves_and_judges_the_documents_it_collected(
    monkeypatch, tmp_path
):
    """``compare --out`` publishes what it simulated, and each fresh
    document is held to its record's own acceptance check — CI need not
    re-run a sweep to upload it or to apply its bar."""
    from repro.bench import scalecmd

    from .test_scalecmd import TINY_SPEC

    baseline, out = tmp_path / "base", tmp_path / "out"
    update_baselines(
        baseline,
        pipeline_doc=copy.deepcopy(PIPE_BASE),
        dtype_cache_doc=copy.deepcopy(CACHE_BASE),
        faults_doc=copy.deepcopy(FAULTS_BASE),
        scale_doc=scalecmd.collect_scale_bench(TINY_SPEC),
        collective_doc=copy.deepcopy(COLL_BASE),
    )
    injected = dict(
        pipeline_doc=copy.deepcopy(PIPE_BASE),
        dtype_cache_doc=copy.deepcopy(CACHE_BASE),
        faults_doc=copy.deepcopy(FAULTS_BASE),
        collective_doc=copy.deepcopy(COLL_BASE),
    )
    deltas, notes = compare_against_dir(baseline, save_to=out, **injected)
    assert not any(d.regression for d in deltas)
    # only the document this run collected is saved, byte-equal to the
    # baseline it replayed (same spec, deterministic sweep)
    assert [p.name for p in out.iterdir()] == ["BENCH_scale.json"]
    assert (out / "BENCH_scale.json").read_bytes() == (
        baseline / "BENCH_scale.json"
    ).read_bytes()
    assert f"saved {out / 'BENCH_scale.json'}" in notes

    monkeypatch.setattr(scalecmd, "smoke_check", lambda doc: ["unfair"])
    deltas, _ = compare_against_dir(baseline, **injected)
    bad = [d for d in deltas if d.regression]
    assert [(d.source, d.metric, d.note) for d in bad] == [
        ("scale", "acceptance", "unfair")
    ]
    line = next(
        l for l in render_compare(deltas).splitlines() if "REGRESSION" in l
    )
    assert "(unfair) [BENCH_scale.json]" in line


def test_dtype_cache_replay_reproduces_the_checked_in_document():
    """Every field of ``BENCH_dtype_cache.json`` is simulated, so
    ``compare``'s replay of the baseline (``collect(baseline)``, the
    baseline passed positionally) reproduces it exactly."""
    import pathlib

    from repro.bench import dtype_cache

    path = pathlib.Path(__file__).parents[2] / "results" / "BENCH_dtype_cache.json"
    base = json.loads(path.read_text())
    assert dtype_cache.DOCUMENT.collect(base) == base
