"""The documented knob and constant tables list every dataclass field.

``tools/check_docs.py`` holds README's ``PVFSConfig`` and ``Hints``
tables and ``docs/calibration.md``'s ``CostModel`` table to
``dataclasses.fields()``; these tests run that check on the real files
and show it failing on a table that lost, doubled or invented a row.
"""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from repro.mpiio import Hints
from repro.pvfs import PVFSConfig
from repro.simulation import CostModel

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "check_docs", ROOT / "tools" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)

TABLES = dict(zip((PVFSConfig, Hints, CostModel), check_docs.FIELD_TABLES))


def _table(cls):
    rel, heading, _ = TABLES[cls]
    return rel, heading, (ROOT / rel).read_text()


def _row(text: str, name: str) -> str:
    return next(ln for ln in text.splitlines() if ln.startswith(f"| `{name}`"))


def test_every_table_matches_its_dataclass():
    assert check_docs.check_field_tables() == []


@pytest.mark.parametrize(
    "cls,field",
    [(cls, f.name) for cls in TABLES for f in dataclasses.fields(cls)],
    ids=lambda v: v.__name__ if isinstance(v, type) else v,
)
def test_a_dropped_row_fails(cls, field):
    rel, heading, text = _table(cls)
    dropped = text.replace(_row(text, field) + "\n", "")
    assert check_docs.check_field_table(rel, heading, dropped, cls) == [
        f"{rel}: {heading!r}: {cls.__name__}.{field} is not in the table"
    ]


@pytest.mark.parametrize(
    "extra,problem",
    [
        ("cb_nodes", "`cb_nodes` is listed 2 times"),
        ("coll_drain_bytes", "`coll_drain_bytes` is not a Hints field"),
        ("hints.cb_nodes", "`hints.cb_nodes` does not extend a Hints field"),
    ],
)
def test_doubled_unknown_and_stray_dotted_rows_fail(extra, problem):
    rel, heading, text = _table(Hints)
    row = _row(text, "cb_nodes")
    grown = text.replace(row, f"{row}\n| `{extra}` | 1 | x |")
    assert check_docs.check_field_table(rel, heading, grown, Hints) == [
        f"{rel}: {heading!r}: {problem}"
    ]
