"""The paper's evaluation (§4) as one list of claims, held at two scales.

A claim is (name, paper section, predicate, scales).  The predicate
reads a *source*: ``{"fig8" | "fig10-read" | "fig10-write" | "fig12":
{clients: {method: MiB/s}}, "table1": {method: Row}, "table2" |
"table3": {clients: {method: Row}}}``, ``None`` marking a gap or an
unsupported row.  :func:`printed` parses the checked-in ``results/*.txt``
(paper scale) and raises on a missing or unreadable row; the running
source runs through ``runner.cell`` only the cells that are cheap and at
which a claim holds, so its figure rows carry only the methods they ran.
EXPERIMENTS.md names a claim after every ✔, and names every claim.
"""

from __future__ import annotations

import itertools
import math
import re
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from repro.bench import Block3DWorkload, FlashWorkload, TileWorkload, run_workload
from repro.bench.characteristics import (
    INDEPENDENT_METHODS,
    METHOD_LABELS,
    METHOD_ORDER,
    block3d_spec,
    flash_spec,
)
from repro.bench.report import PAPER_TABLE1, PAPER_TABLE2, PAPER_TABLE3, TABLE1
from repro.bench.runner import Spec, cell, mesh
from repro.dataloops import build_dataloop, wire_size
from repro.datatypes import INT, subarray
from repro.mpiio import Hints
from repro.pvfs import PVFSConfig

ROOT = Path(__file__).resolve().parents[2]
MIB = 1024 * 1024
TP, LIST, DT = "two_phase", "list_io", "datatype_io"
FIG10 = ("fig10-read", "fig10-write")
BOTH, PRINTED, RUNNING = ("printed", "running"), ("printed",), ("running",)


class Row(NamedTuple):
    desired: float
    accessed: float
    ops: float
    resent: float


class Claim(NamedTuple):
    name: str
    section: str
    holds: Callable[[dict], bool]
    scales: tuple = BOTH


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * abs(want)


def _matches(
    rows: dict, paper: dict, *, resent_rel: float, list_slack=0, bytes_rel=0.01
) -> bool:
    """A row for every method the paper lists, and no other; bytes
    within ``bytes_rel``, operations exact (list I/O within
    ``list_slack``), resent data within ``resent_rel``; an unsupported
    method where the paper has none.  Table 3's ``(n-1)/n`` resend is a
    claim of its own."""
    if set(rows) != set(paper):
        return False
    for method, want in paper.items():
        row = rows[method]
        if want is None or row is None:
            if want is not row:
                return False
            continue
        desired, accessed, ops, resent = want
        if not (
            _close(row.desired, desired, bytes_rel)
            and _close(row.accessed, accessed, bytes_rel)
            and abs(row.ops - ops) <= (list_slack if method == LIST else 0)
            and (row.resent == 0 if resent is None else isinstance(resent, str)
                 or _close(row.resent, resent, resent_rel))
        ):
            return False
    return True


def _tables(s: dict):
    return [s["table1"], *s["table2"].values(), *s["table3"].values()]


def _read_stalls(s: dict) -> bool:
    """27 → 64 clients: datatype reads stop scaling while writes keep
    rising and stay above them."""
    read, write = (s[f] for f in FIG10)
    r = read[64][DT] / read[27][DT]
    return r < 1.25 and write[64][DT] / write[27][DT] > r and write[64][DT] > read[64][DT]


def _write_peak(s: dict) -> bool:
    rows = s["fig10-write"].values()
    others = [v for row in rows for m, v in row.items()
              if m in INDEPENDENT_METHODS and m != DT and v is not None]
    return max(row[DT] for row in rows) >= 1.5 * max(others)


def _request_is_concise(s: dict) -> bool:
    block = subarray([600] * 3, [150] * 3, [0] * 3, INT)
    loop_bytes = wire_size(build_dataloop(block))
    pair_bytes = block.flatten().count * 12
    return loop_bytes < 200 and pair_bytes == 22_500 * 12 and pair_bytes > 1000 * loop_bytes


def _tile(method: str, frames=1, **config):
    return cell(Spec(TileWorkload.paper(frames=frames), method, PVFSConfig(**config)))


def _list_bound_sets_ops(s: dict) -> bool:
    runs = [_tile(LIST, list_io_max_regions=b) for b in (16, 64, 256)]
    return [c.io_ops for c in runs] == [48, 12, 3] and (
        runs[0].bandwidth_mbps < runs[1].bandwidth_mbps < runs[2].bandwidth_mbps
    )


def _cb_sets_rounds(s: dict) -> bool:
    """An aggregator writes its 60³-int domain in ⌈domain/cb⌉ rounds."""
    return all(
        run_workload(
            Block3DWorkload(grid=120, clients_per_dim=2, is_write=True),
            TP, hints=Hints(cb_buffer_size=cb),
        ).io_ops == math.ceil(60**3 * 4 / cb)
        for cb in (64 * 1024, 256 * 1024, MIB)
    )


def _cache_shrinks_requests(s: dict) -> bool:
    cached, plain = (_tile(DT, frames=5, datatype_cache=on) for on in (True, False))
    return (cached.request_desc_bytes < plain.request_desc_bytes
            and cached.bandwidth_mbps >= plain.bandwidth_mbps)


class _GappedFlash(FlashWorkload):
    """A gap after every rank's section: every two-phase round has holes."""

    def displacement(self, rank, rep):
        return 2 * super().displacement(rank, rep)


def _sparse_reads_less(s: dict) -> bool:
    rmw, dtype = (
        run_workload(_GappedFlash(n_clients=4, nblocks=8, nxb=4, nguard=2, nvar=4),
                     TP, hints=Hints(tp_sparse_method=m)).accessed_bytes
        for m in ("rmw", DT)
    )
    return dtype < rmw


CLAIMS = [
    # characteristics (Tables 1–3): exact, except the documented ±1
    Claim("table1_matches_paper", "§4.2", lambda s: _matches(
        s["table1"], PAPER_TABLE1, resent_rel=0.10)),
    Claim("table2_matches_paper", "§4.3", lambda s: all(
        _matches(rows, PAPER_TABLE2[n], resent_rel=0.02, list_slack=1)
        for n, rows in s["table2"].items())),
    Claim("table3_matches_paper", "§4.4", lambda s: all(
        _matches(rows, PAPER_TABLE3, resent_rel=0, bytes_rel=0) for rows in s["table3"].values())),
    Claim("list_io_ops_are_runs_over_64", "§2.4", lambda s: all(
        rows[LIST].ops == math.ceil(rows["posix"].ops / 64) for rows in _tables(s))),
    Claim("two_phase_resends_all_but_own_share", "§4.4", lambda s: all(
        _close(rows[TP].resent / rows[TP].desired, (n - 1) / n, 0.01)
        for n, rows in s["table3"].items())),
    # Figure 8: the tile reader at 6 clients
    Claim("tile_datatype_fastest", "§4.2", lambda s: all(
        s["fig8"][6][DT] > s["fig8"][6][m] for m in INDEPENDENT_METHODS if m != DT)),
    Claim("tile_datatype_beats_list", "§4.2", lambda s: (
        s["fig8"][6][DT] >= 1.10 * s["fig8"][6][LIST])),
    Claim("tile_posix_unusable", "§4.2", lambda s: (
        s["fig8"][6]["posix"] < 0.2 * s["fig8"][6][DT]
        and s["fig8"][6]["posix"] == min(s["fig8"][6][m] for m in INDEPENDENT_METHODS))),
    # Figure 10: the 3-D block read and write curves
    Claim("block3d_read_stalls", "§4.3", _read_stalls),
    Claim("block3d_write_peak", "§4.3", _write_peak),
    Claim("block3d_datatype_beats_list", "§4.3", lambda s: all(
        s[f][n][DT] > s[f][n][LIST] for f in FIG10 for n in (27, 64)), PRINTED),
    Claim("block3d_list_declines", "§4.3", lambda s: all(
        s[f][64][LIST] < s[f][27][LIST] for f in FIG10), PRINTED),
    Claim("block3d_posix_far_below", "§4.3", lambda s: all(
        row["posix"] < 0.15 * row[DT] for f in FIG10 for row in s[f].values()), PRINTED),
    # Figure 12: FLASH checkpoint writes
    Claim("flash_two_phase_wins_small", "§4.4", lambda s: (
        s["fig12"][2][TP] > max(s["fig12"][2][DT], s["fig12"][2][LIST]))),
    Claim("flash_datatype_leads_large", "§4.4", lambda s: all(
        row[DT] > row[TP] for n, row in s["fig12"].items() if n >= 32)),
    Claim("flash_list_below_two_phase", "§4.4", lambda s: all(
        row[LIST] < row[TP] for row in s["fig12"].values() if LIST in row)),
    # one 150³ block of the 600³ array: a dataloop, not 22 500 pairs
    Claim("dataloop_request_is_concise", "§3", _request_is_concise, RUNNING),
    # ablations: each knob that exists for them shows its effect
    Claim("list_io_max_regions_sets_ops", "§2.4", _list_bound_sets_ops, RUNNING),
    Claim("dataloop_batch_regions_is_invisible", "§3.2", lambda s: len(
        {_tile(DT, dataloop_batch_regions=b) for b in (256, 4096, 65536)}) == 1, RUNNING),
    Claim("direct_dataloop_lifts_read_stall", "§5", lambda s: cell(Spec(
        Block3DWorkload(grid=300, clients_per_dim=4), DT, PVFSConfig(direct_dataloop=True)
    )).bandwidth_mbps > s["fig10-read"][64][DT], RUNNING),
    Claim("cb_buffer_size_sets_rounds", "§2.3", _cb_sets_rounds, RUNNING),
    Claim("datatype_cache_shrinks_requests", "§5", _cache_shrinks_requests, RUNNING),
    Claim("tp_sparse_method_reads_less", "§5", _sparse_reads_less, RUNNING),
]
BY_NAME = {c.name: c for c in CLAIMS}

# -- the printed source: results/*.txt ---------------------------------
RESULTS = ("fig8", "fig10", "fig12", "table1", "table2", "table3")
FIGURES = {
    "fig8-tile-read": "fig8",
    "fig10-3dblock-read": "fig10-read",
    "fig10-3dblock-write": "fig10-write",
    "fig12-flash-write": "fig12",
}
#: the client counts ``repro-bench all`` regenerates
PRINTED_CLIENTS = {
    "fig8": [6],
    "fig10-read": [8, 27, 64],
    "fig10-write": [8, 27, 64],
    "fig12": [2, 4, 8, 16, 32, 48, 64, 96, 128],
    "table2": [8, 27, 64],
    "table3": [4],
}
_METHOD = {label: m for m, label in METHOD_LABELS.items()}


def _value(token: str) -> float | None:
    if token == "—":
        return None
    if token.endswith(" MB"):
        return float(token[:-3]) * MIB
    return float(token.replace(",", ""))


def _parse(text: str, s: dict) -> None:
    """Add one results file's figure and characteristics tables to ``s``."""
    lines = text.splitlines()
    for i, title in enumerate(lines):
        body = itertools.takewhile(str.strip, lines[i + 1 :])
        if fig := re.fullmatch(r"(\S+)  \(aggregate MiB/s\)", title):
            _, header, *rows = body
            methods = [_METHOD[m] for m in re.findall(r"\S.*?I/O", header.split(None, 1)[1])]
            if methods != METHOD_ORDER:
                raise ValueError(f"{title}: {methods}")
            points = s[FIGURES[fig[1]]] = {}
            for row in rows:
                x, *values = row.split()
                if len(values) != len(methods):
                    raise ValueError(row)
                points[int(x)] = dict(zip(methods, map(_value, values)))
        elif table := re.match(r"Table (\d)", title):
            table_rows = {}
            for line in list(body)[4:]:
                label, *values = re.split(r"\s{2,}", line)
                desired, accessed, ops, resent = map(_value, values)
                row = None if desired is None else Row(desired, accessed, ops, resent or 0)
                table_rows[_METHOD[label]] = row
            if list(table_rows) != INDEPENDENT_METHODS:
                raise ValueError(f"{title}: {list(table_rows)}")
            name, clients = f"table{table[1]}", re.search(r"\((\d+) clients\)", title)
            if clients:
                s.setdefault(name, {})[int(clients[1])] = table_rows
            else:
                s[name] = table_rows


def _results() -> dict[str, str]:
    return {n: (ROOT / "results" / f"{n}.txt").read_text() for n in RESULTS}


def printed(texts: dict[str, str] | None = None) -> dict:
    """The source parsed from ``texts`` (results file stem -> text;
    default the checked-in ``results/``)."""
    s: dict = {}
    for text in (texts or _results()).values():
        _parse(text, s)
    for key, clients in PRINTED_CLIENTS.items():
        if list(s.get(key, ())) != clients:
            raise ValueError(f"{key}: clients {list(s.get(key, ()))}")
    return s


# -- the running source: memoised cells --------------------------------
def _rows(cells) -> dict:
    return {
        c.method: Row(c.desired_bytes, c.accessed_bytes, c.io_ops, c.resent_bytes)
        if c.supported else None
        for c in cells
    }


def _bandwidths(make, *methods) -> dict:
    return {m: cell(Spec(make(), m)).bandwidth_mbps for m in methods}


def _block(c: int, **kw):
    return lambda: Block3DWorkload(grid=300, clients_per_dim=c, **kw)


def _column(spec_at) -> list:
    """A characteristics table's cells: ``spec_at(method)`` per method."""
    return list(mesh(spec_at, method=INDEPENDENT_METHODS).values())


_RUNNING = {
    "table1": lambda: _rows(TABLE1.collect().values()),
    "table2": lambda: {8: _rows(_column(partial(block3d_spec, 2)))},
    "table3": lambda: {n: _rows(_column(partial(flash_spec, n))) for n in (2, 4)},
    "fig8": lambda: {6: {m: c.bandwidth_mbps for m, c in TABLE1.collect().items()}},
    # at 64 clients on this grid two-phase reads (77.7 MiB/s) beat
    # datatype reads (72.2), so no read ordering is claimed here
    "fig10-read": lambda: {c**3: _bandwidths(_block(c), DT) for c in (3, 4)},
    "fig10-write": lambda: {
        c**3: _bandwidths(_block(c, is_write=True), TP, DT) for c in (3, 4)
    },
    # list I/O costs about a second per point above 2 clients
    "fig12": lambda: {
        n: _bandwidths(lambda: FlashWorkload.paper(n), TP, DT, *([LIST] if n == 2 else []))
        for n in (2, 32, 64)
    },
}


class _Running(dict):
    def __missing__(self, key):
        self[key] = value = _RUNNING[key]()
        return value


@pytest.fixture(scope="module")
def running():
    return _Running()


#: these read the paper-size Table 2 cells (~10 s, shared with
#: ``test_runner_report``'s Table 2 test)
PAPER_SIZE_TABLE2 = {"table2_matches_paper", "list_io_ops_are_runs_over_64"}


def _at(scale: str):
    slow = PAPER_SIZE_TABLE2 if scale == "running" else ()
    return [
        pytest.param(c, id=c.name, marks=[pytest.mark.slow] * (c.name in slow))
        for c in CLAIMS
        if scale in c.scales
    ]


@pytest.mark.parametrize("claim", _at("printed"))
def test_claim_holds_at_paper_scale(claim):
    assert claim.holds(printed()), f"{claim.name} ({claim.section})"


@pytest.mark.parametrize("claim", _at("running"))
def test_claim_holds_in_running_code(claim, running):
    assert claim.holds(running), f"{claim.name} ({claim.section})"


#: claim -> (results file, text, replacement) that must break it
PERTURB = {
    "table1_matches_paper": ("table1", "5.56 MB", "6.56 MB"),
    "table2_matches_paper": ("table2", "1,407", "1,405"),
    "table3_matches_paper": ("table3", "  2       5.62 MB", "  3       5.62 MB"),
    "list_io_ops_are_runs_over_64": ("table2", "   352", "   353"),
    "two_phase_resends_all_but_own_share": ("table3", "5.62 MB", "3.75 MB"),
    "tile_datatype_fastest": ("fig8", "  17.8", "  77.8"),
    "tile_datatype_beats_list": ("fig8", "  50.6", "  62.6"),
    "tile_posix_unusable": ("fig8", "  2.9", " 14.9"),
    "block3d_read_stalls": ("fig10", "100.6", "130.6"),
    "block3d_write_peak": ("fig10", "187.8", "140.8"),
    "block3d_datatype_beats_list": ("fig10", "55.4", "155.4"),
    "block3d_list_declines": ("fig10", "40.8", "70.8"),
    "block3d_posix_far_below": ("fig10", "1.5              11.9", "9.5              11.9"),
    "flash_two_phase_wins_small": ("fig12", "9.0               0.2", "4.0               0.2"),
    "flash_datatype_leads_large": ("fig12", "131.4", "141.4"),
    "flash_list_below_two_phase": ("fig12", "35.7               2.2", "35.7              42.2"),
}


def test_every_paper_scale_claim_has_a_perturbation():
    assert sorted(PERTURB) == sorted(c.name for c in CLAIMS if "printed" in c.scales)


@pytest.mark.parametrize("name", sorted(PERTURB))
def test_a_perturbed_result_breaks_its_claim(name):
    stem, old, new = PERTURB[name]
    texts = _results()
    assert texts[stem].count(old) == 1, (stem, old)
    texts[stem] = texts[stem].replace(old, new)
    assert not BY_NAME[name].holds(printed(texts))


def test_a_missing_or_unreadable_row_raises():
    texts = _results()
    # a client count or a method label, then numbers (plot lines carry a |)
    data_row = re.compile(r"\s*\d+(\s+([\d.]+|—))+|\S.*?I/O {2,}.*")
    rows = [(stem, line) for stem, text in texts.items()
            for line in text.splitlines() if data_row.fullmatch(line)]
    assert len(rows) == (1 + 2 * 3 + 9) + (5 + 3 * 5 + 5)
    for stem, line in rows:
        for broken in ("", line[:-1] + "x\n"):
            damaged = texts[stem].replace(line + "\n", broken)
            with pytest.raises((ValueError, KeyError)):
                printed(dict(texts, **{stem: damaged}))


def test_experiments_names_every_claim():
    named = re.findall(r"✔(?:\s+`(\w+)`)?", (ROOT / "EXPERIMENTS.md").read_text())
    assert "" not in named, "a ✔ that names no claim"
    assert set(named) == set(BY_NAME)
