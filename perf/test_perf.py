"""Self-tests of the benchmark (``pytest perf/``; not part of tier-1).

The end-to-end fixture runs the whole benchmark twice at ``--quick``
size (about a minute), because the properties worth checking — exact
repeatability of every simulated value, layer conservation, failure
accounting — are properties of whole runs.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

import pytest

import schema

sys.path.insert(0, str(schema.SRC))

import compare  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402

UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ----------------------------------------------------------------------
# the metric sheet
# ----------------------------------------------------------------------
def test_every_module_has_a_layer():
    unmapped = [
        str(p.relative_to(schema.PKG))
        for p in sorted(schema.PKG.rglob("*.py"))
        if schema.layer_of_module(p.relative_to(schema.PKG).as_posix()) is None
    ]
    assert not unmapped, f"add these to schema.LAYER_RULES: {unmapped}"


def test_new_code_cannot_hide_in_other():
    assert schema.layer_of_module("pvfs/brand_new.py") is None
    assert schema.layer_of_module("simulation/brand_new.py") is None
    assert schema.layer_of_module("brand_new/core.py") is None
    assert schema.layer_of_file("/x/src/repro/pvfs/client.py") == "client"
    assert schema.layer_of_file("/usr/lib/python3/json/decoder.py") == "other"
    assert set(layer for _rule, layer in schema.LAYER_RULES) <= set(schema.LAYERS)


def test_metric_names_and_units():
    sheet = schema.END_TO_END + schema.END_TO_END_LOCAL + schema.PER_LAYER
    names = [m[0] for m in sheet]
    assert len(names) == len(set(names))
    for name, unit, better, *_ in sheet:
        assert schema.NAME_RE.match(name), name
        assert UNIT_RE.match(unit), (name, unit)
        assert better in ("lower", "higher")
    assert len(schema.PER_LAYER) <= 128


def test_benchmark_json_matches_the_sheet():
    doc = json.loads((schema.ROOT / "BENCHMARK.json").read_text())
    assert doc["paths"] == ["perf"]
    assert [w["name"] for w in doc["workloads"]] == list(W.NAMES)
    assert {w["name"]: w["why"] for w in doc["workloads"]} == schema.WORKLOAD_WHY
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]
    ] == schema.END_TO_END
    assert [
        (m["name"], m["unit"], m["better"]) for m in doc["per_layer"]
    ] == schema.PER_LAYER


# ----------------------------------------------------------------------
# failure accounting
# ----------------------------------------------------------------------
def test_corrupted_read_fails_the_cell():
    case = oracle.block3d_case(3, 12, 2)
    good = W.run_pass([W.real(case, "datatype_io")])
    assert [r.ok for r in good] == [True]
    # a read that comes back one bit off the oracle's expectation
    case.expect = [[b.copy() for b in frames] for frames in case.bufs]
    case.expect[5][0][17] ^= 0x01
    bad = W.run_pass([W.real(case, "datatype_io"), W.real(case, "list_io")])
    assert [r.ok for r in bad] == [False, False]
    assert "rank 5" in bad[0].error


def test_corrupted_file_image_fails_the_cell():
    case = oracle.tile_case(3, 32, 24, 1)
    case.image = case.image.copy()
    case.image[-1] ^= 0x80
    (res,) = W.run_pass([W.real(case, "two_phase")])
    assert not res.ok and "file image" in res.error


def test_sieving_write_is_the_expected_skip():
    (res,) = W.run_pass([W.real(oracle.flash_case(3, 2, 1), "data_sieving")])
    assert res.ok and res.mib_s == 0.0


def test_raising_cell_is_counted_not_fatal():
    def boom():
        raise RuntimeError("boom")

    ok = W.sim("ok", lambda: W.TileWorkload.reduced(1), "list_io")
    results = W.run_pass([W.Cell("boom", boom), ok])
    assert [r.ok for r in results] == [False, True]
    assert "RuntimeError: boom" in results[0].error


def test_failed_cell_makes_the_run_exit_nonzero(monkeypatch, tmp_path, capsys):
    def fake_spawn(workload, seed, quick, seconds=None, reps=None, trace=False):
        return {
            "setup_s": 0.5, "rep_wall_s": [1.0, 1.1],
            "peak_rss_mib": 90.0, "sim_gmean_mib_s": 2.0,
            "sim_fingerprint": "f" * 64,
            "cells": {"c": {"host_s": [1.0, 1.1], "off_s": [0.0, 0.0],
                            "on_s": [0.0, 0.0], "sim_mib_s": 2.0}},
            "attempted": 2, "failed": 1,
            "failures": [{"cell": "c", "rep": 1, "error": "oracle mismatch"}],
        }

    monkeypatch.setattr(run, "spawn", fake_spawn)
    monkeypatch.setattr(run, "calibrate", lambda: 7000.0)
    code = run.main([
        "--workload", "degraded", "--trace", "0", "--out", str(tmp_path / "b.json"),
    ])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False
    assert (last["attempted"], last["failed"]) == (6, 3)
    ledger = json.loads((tmp_path / "b.json").read_text())
    assert ledger["workloads"]["degraded"]["end_to_end"]["fail_frac"]["value"] == 0.5


def test_no_program_no_result(tmp_path):
    """Without ``src/repro`` beside it the benchmark refuses to report."""
    bare = tmp_path / "perf"
    bare.mkdir()
    for p in pathlib.Path(__file__).parent.glob("*.py"):
        (bare / p.name).write_text(p.read_text())
    done = subprocess.run(
        [sys.executable, str(bare / "run.py"), "--workload", "observed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout


# ----------------------------------------------------------------------
# compare verdicts
# ----------------------------------------------------------------------
def _m(samples):
    return run._stat(samples, "s")


def test_compare_verdicts():
    base = _m([1.00, 1.01, 0.99, 1.00, 1.02])
    assert compare.verdict("wall_s", base, _m([1.00, 1.02, 0.99, 1.01, 1.00])) == "unchanged"
    assert compare.verdict("wall_s", base, _m([1.40, 1.41, 1.39, 1.42, 1.40])) == "regressed"
    assert compare.verdict("wall_s", base, _m([0.80, 0.81, 0.79, 0.80, 0.82])) == "improved"
    noisy = _m([0.7, 1.0, 1.3, 0.8, 1.25])
    assert compare.verdict("wall_s", base, noisy) == "unresolved"
    exact = {"value": 2.0, "unit": "MiB/s"}
    assert compare.verdict("sim_gmean_mib_s", exact, dict(exact)) == "unchanged"
    assert compare.verdict(
        "sim_gmean_mib_s", exact, {"value": 1.9999, "unit": "MiB/s"}
    ) == "regressed"


# ----------------------------------------------------------------------
# whole runs
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledgers")
    ledgers = []
    for tag in ("a", "b"):
        path = out / f"{tag}.json"
        done = subprocess.run(
            [sys.executable, str(schema.ROOT / "perf" / "run.py"), "--quick",
             "--seed", "5", "--reps", "1", "--out", str(path)],
            capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        last = json.loads(done.stdout.strip().splitlines()[-1])
        assert last["correct"] and last["failed"] == 0
        ledgers.append(json.loads(path.read_text()))
    return ledgers


def test_simulated_values_repeat_exactly(two_runs):
    a, b = two_runs
    for name in W.NAMES:
        wa, wb = a["workloads"][name], b["workloads"][name]
        assert wa["sim_fingerprint"] == wb["sim_fingerprint"]
        assert (
            wa["end_to_end"]["sim_gmean_mib_s"] == wb["end_to_end"]["sim_gmean_mib_s"]
        )
        for metric in schema.EXACT:
            assert wa["per_layer"][metric] == wb["per_layer"][metric], (name, metric)
    rows, bad = compare.compare(a, b)
    assert not [r for r in rows if "CHANGED" in r]


def test_every_metric_is_reported(two_runs):
    for name, doc in two_runs[0]["workloads"].items():
        assert set(doc["per_layer"]) == {m[0] for m in schema.PER_LAYER}
        want = {m[0] for m in schema.END_TO_END} | {"fail_frac"}
        if name == "observed":
            want.add("obs_overhead_ratio")
        assert set(doc["end_to_end"]) == want
        assert all(v["value"] > 0 for k, v in doc["end_to_end"].items()
                   if k != "fail_frac")


def test_layer_self_time_is_conserved(two_runs):
    for ledger in two_runs:
        for name, doc in ledger["workloads"].items():
            assert abs(doc["layer_conservation"] - 1.0) <= 0.02, name


def test_workloads_separate_the_layers(two_runs):
    layers = {n: d["per_layer"] for n, d in two_runs[0]["workloads"].items()}
    for name, m in layers.items():
        assert (m["client.retries"] > 0) == (name == "degraded"), name
        assert (m["faults.injected"] > 0) == (name == "degraded"), name
        assert (m["obs.spans"] > 0) == (name == "observed"), name
    assert layers["observed"]["obs.overhead_ratio"] > 1.0
    assert layers["real_bytes"]["regions.gather_scatter_s"] > 0
