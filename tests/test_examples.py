"""Every example must run end-to-end (they self-verify their data)."""

import importlib.util
import pathlib

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def load_example(name):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_quickstart(capsys):
    load_example("quickstart").main()
    out = capsys.readouterr().out
    assert "OK: all ranks verified their data." in out
    assert "dataloop wire size" in out


def test_tile_wall(capsys):
    load_example("tile_wall").main()
    out = capsys.readouterr().out
    assert "all tiles verified against the frame" in out
    assert "datatype_io" in out


def test_flash_checkpoint(capsys):
    load_example("flash_checkpoint").main()
    out = capsys.readouterr().out
    assert "checkpoint verified bit-for-bit" in out


def test_datatype_tour(capsys):
    load_example("datatype_tour").main()
    out = capsys.readouterr().out
    assert "partial processing" in out
    assert "serialized" in out


def test_block3d_sweep(capsys, monkeypatch):
    mod = load_example("block3d_sweep")
    monkeypatch.setattr(mod, "GRID", 24)  # keep the test fast
    mod.main()
    out = capsys.readouterr().out
    assert "bottleneck" in out
    assert "Datatype I/O" in out
