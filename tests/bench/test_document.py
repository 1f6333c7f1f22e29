"""One record per ``results/`` file: the writer and the record command."""

import json

import pytest

from repro.bench import cli, scalecmd
from repro.bench.document import write_document
from repro.bench.registry import DOCUMENTS, RECORDS

from .test_scalecmd import TINY_SPEC


def test_file_and_keyword_follow_the_name():
    for record in DOCUMENTS:
        assert record.file == f"BENCH_{record.name}.json"
        assert record.keyword == f"{record.name}_doc"


def test_write_document_defaults_to_cwd(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    for record in DOCUMENTS:
        path = write_document(record, None, {"schema": 1})
        assert path.parent.resolve() == tmp_path
        assert path.read_text() == '{\n  "schema": 1\n}\n'
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        r.file for r in DOCUMENTS
    )


@pytest.mark.parametrize(
    "argv, written",
    [
        (["json"], "BENCH_pipeline.json"),
        (["dtype-cache", "--quick"], "BENCH_dtype_cache.json"),
        (["faults"], "BENCH_faults.json"),
        (["scale"], "BENCH_scale.json"),
        (["collective", "--quick"], "BENCH_collective.json"),
    ],
)
def test_document_command_without_out_writes_the_cwd_not_results(
    monkeypatch, tmp_path, capsys, argv, written
):
    """``results/`` holds the baselines the gate compares against: only
    ``--out results/`` or ``compare --update-baseline`` may write it."""
    monkeypatch.setattr(scalecmd, "FULL_SPEC", TINY_SPEC)
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
    assert [p.name for p in tmp_path.iterdir()] == [written]
    assert f"[saved {written}]" in capsys.readouterr().err


def test_scale_smoke_out_saves_the_sweep_it_checked(
    monkeypatch, tmp_path, capsys
):
    real, calls = scalecmd.collect_scale_bench, []

    def counting(spec=None):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(scalecmd, "SMOKE_SPEC", TINY_SPEC)
    monkeypatch.setattr(scalecmd, "collect_scale_bench", counting)
    assert cli.main(["scale", "--smoke", "--out", str(tmp_path)]) == 0
    assert calls == [TINY_SPEC]  # collected once, not once more to write
    saved = json.loads((tmp_path / "BENCH_scale.json").read_text())
    assert saved["spec"] == TINY_SPEC
    captured = capsys.readouterr()
    assert "scale smoke OK" in captured.err
    assert len(captured.out.splitlines()) == 3  # rendered once


NO_SMOKE = [r.command for r in RECORDS if r.smoke is None]


def test_records_without_a_smoke_gate():
    assert NO_SMOKE == [
        "table1", "table2", "table3", "fig8", "fig10", "fig12", "json", "dtype-cache"
    ]


@pytest.mark.parametrize("command", [*NO_SMOKE, "all"])
def test_smoke_is_a_usage_error_without_a_gate(monkeypatch, tmp_path, capsys, command):
    """``--smoke`` writes nothing unless ``--out`` is given, so a record
    with no smoke gate refuses it before anything runs."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit:
        cli.main([command, "--smoke"])
    assert exit.value.code == 2
    assert "no smoke gate" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
