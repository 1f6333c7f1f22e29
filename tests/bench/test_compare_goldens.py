"""Parent-recorded goldens of the compare gate's walk.

``compare_goldens.json`` was recorded at the commit named in its
``recorded_at`` key — the last one with five hand-written
``compare_*_docs`` walkers — before they became one table-driven
``compare_docs`` (the ``tests/pvfs/pipeline_goldens.json`` pattern).  For
each checked-in ``results/BENCH_*.json`` it pins the identity comparison
plus a fixed seeded set of perturbed copies — a key dropped, a value
nulled, a number scaled by 0.8/0.9/1.1/1.3, a flag flipped, at every
nesting level, on the current side and (for the shallow levels) on the
baseline side — as the sha256 of the ``render_compare`` text, its
non-``ok`` lines and its summary line, or the type of the exception
raised.  The top-level ``"schema"`` key is left alone: nothing read it
at the recording commit, the single walker refuses a mismatch
(``test_compare.py`` covers that).

The single walker reproduces every entry except :data:`ARGUED`: an
entry of ``BENCH_collective.json`` that is *absent* from the current run
is now a coverage failure, the rule every other document already
followed (the hand-written walker called an absent bandwidth "was
supported in baseline", skipped it when the baseline's was ``None``, and
skipped an absent FLASH showcase silently).

It is re-recorded (``python -m tests.bench.test_compare_goldens`` from
the repository root, on a clean checkout of the commit to pin) only by a
change that argues the old verdicts were wrong.
"""

import copy
import functools
import hashlib
import json
import random
import subprocess
from pathlib import Path

import pytest

from repro.bench import compare

GOLDENS_PATH = Path(__file__).parent / "compare_goldens.json"
RESULTS = Path(__file__).parents[2] / "results"
NAMES = ("pipeline", "dtype_cache", "faults", "scale", "collective")
FACTORS = (0.8, 0.9, 1.1, 1.3)

#: every path this shallow is perturbed; deeper levels are sampled
EXHAUSTIVE_DEPTH, SAMPLES_PER_DEPTH = 3, 48


def walk(name, base, cur):
    walker = getattr(compare, "compare_docs", None)
    if walker is not None:
        return walker(name, base, cur)
    # recording only: the five walkers of the commit being pinned
    return getattr(compare, f"compare_{name}_docs")(base, cur)


def _paths(node, prefix=()):
    children = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list)
        else ()
    )
    for key, value in children:
        yield prefix + (key,), value
        yield from _paths(value, prefix + (key,))


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _apply(doc, path, op):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    last = path[-1]
    if op == "drop":
        del node[last]
    elif op == "null":
        node[last] = None
    elif op == "flip":
        node[last] = not node[last]
    else:
        node[last] = node[last] * float(op[1:])
    return doc


def perturbations(name, base):
    """``(case name, side, perturbed document)`` in a fixed order."""
    rng = random.Random(f"compare-goldens:{name}")
    paths = [(p, v) for p, v in _paths(base) if p[0] != "schema"]
    eligible = {
        "drop": paths,
        "null": paths,
        "scale": [(p, v) for p, v in paths if _is_number(v)],
        "flip": [(p, v) for p, v in paths if isinstance(v, bool)],
    }
    for op, candidates in eligible.items():
        by_depth = {}
        for p, _ in candidates:
            by_depth.setdefault(len(p), []).append(p)
        for depth, group in sorted(by_depth.items()):
            if depth > EXHAUSTIVE_DEPTH and len(group) > SAMPLES_PER_DEPTH:
                group = rng.sample(group, SAMPLES_PER_DEPTH)
            for path in group:
                label = op
                if op == "scale":
                    label = f"x{rng.choice(FACTORS)}"
                where = "/".join(map(str, path))
                doc = _apply(base, path, label)
                yield f"cur:{label}:{where}", "cur", doc
                if depth <= EXHAUSTIVE_DEPTH and op != "scale":
                    yield f"base:{label}:{where}", "base", doc


def snapshot(name, base, cur) -> dict:
    try:
        text = compare.render_compare(walk(name, base, cur))
    except Exception as exc:  # the type is the contract, not the text
        return {"raises": type(exc).__name__}
    lines = text.splitlines()
    return {
        "sha256": hashlib.sha256(text.encode()).hexdigest()[:16],
        "flagged": [ln for ln in lines[4:-2] if not ln.endswith("  ok")],
        "summary": lines[-1],
    }


@functools.lru_cache(maxsize=None)
def cases(name):
    base = json.loads((RESULTS / f"BENCH_{name}.json").read_text())
    identity = snapshot(name, base, copy.deepcopy(base))
    out = {"identity": identity}
    for case, side, doc in perturbations(name, base):
        snap = (
            snapshot(name, base, doc)
            if side == "cur"
            else snapshot(name, doc, base)
        )
        # most perturbations touch a field nothing gates: say so in a word
        out[case] = "identity" if snap == identity else snap
    return out


def record():
    """Write the goldens file from the working tree's behaviour."""
    head = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
        check=True, cwd=GOLDENS_PATH.parent,
    ).stdout.strip()
    doc = {"recorded_at": head, "cases": {n: cases(n) for n in NAMES}}
    GOLDENS_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return doc


GOLDENS = (
    json.loads(GOLDENS_PATH.read_text())["cases"]
    if GOLDENS_PATH.exists()
    else {}
)

_FIGURES = ("fig10_read", "fig10_write", "fig12")
_METHODS = (
    "collective_dtype", "data_sieving", "datatype_io",
    "list_io", "posix", "two_phase",
)

#: The argued differences, by name: collective case -> the sources now
#: reported "<level> missing from current run" (nothing else flagged).
ARGUED = {
    **{
        f"cur:drop:figures/{fig}/mbps": [f"{fig}/{m}" for m in _METHODS]
        for fig in _FIGURES
    },
    **{
        f"cur:drop:figures/{fig}/mbps/{m}": [f"{fig}/{m}"]
        for fig in _FIGURES
        for m in _METHODS
    },
    "cur:drop:flash_showcase": ["flash_showcase"],
    "cur:null:flash_showcase": ["flash_showcase"],
}


@pytest.mark.parametrize("name", NAMES)
def test_single_walker_reproduces_the_recorded_walk(name):
    got, want = cases(name), GOLDENS[name]
    assert set(got) == set(want)
    argued = ARGUED if name == "collective" else {}
    moved = {k for k in got if got[k] != want[k]}
    assert moved == set(argued), sorted(moved ^ set(argued))[:5]


@pytest.mark.parametrize("case", ARGUED)
def test_absent_collective_entry_is_a_coverage_failure(case):
    snap = cases("collective")[case]
    expected = [
        f"collective/{source} coverage — — +0.0% REGRESSION "
        f"({'showcase' if source == 'flash_showcase' else 'method'} "
        "missing from current run)"
        for source in ARGUED[case]
    ]
    assert [" ".join(ln.split()) for ln in snap["flagged"]] == expected
    assert snap["summary"].startswith(
        f"{len(expected)} regression(s), 0 improvement(s), "
    )


def test_goldens_reach_every_verdict():
    """The recorded set is not all identities: every document has cases
    that regress, improve, lose coverage and raise."""
    for name, recorded in GOLDENS.items():
        snaps = [s for s in recorded.values() if s != "identity"]
        text = json.dumps(snaps)
        assert len(recorded) > 150, name
        assert "REGRESSION" in text and "improved" in text, name
        assert "missing from current run" in text, name
        assert {"KeyError", "TypeError"} <= {
            s["raises"] for s in snaps if "raises" in s
        }, name


if __name__ == "__main__":  # pragma: no cover
    n = sum(len(c) for c in record()["cases"].values())
    print(f"recorded {n} cases -> {GOLDENS_PATH}")
