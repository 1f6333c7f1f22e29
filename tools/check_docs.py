#!/usr/bin/env python
"""Documentation checks: markdown links, doctests in fenced examples,
and the tables that list a dataclass's fields.

Two passes over every tracked ``*.md`` file:

1. **Link check** — every relative markdown link (``[text](target)``)
   must point at a file or directory that exists (anchors are stripped;
   ``http(s)``/``mailto`` targets are skipped — CI must not depend on
   the network).
2. **Doctest check** — every fenced ```` ```python ```` block that
   contains ``>>>`` prompts is run through :mod:`doctest` with
   ``src/`` importable, so the examples in the docs stay executable as
   the code evolves.

Then the **field tables** (``FIELD_TABLES``): the first table under
each named heading must name every field of its dataclass in its first
column exactly once, and nothing else — a dotted row such as
``faults.coll_reelect_after`` documents a field of a field.

Exit status is nonzero iff any check fails.  Run locally with::

    PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import dataclasses
import doctest
import importlib
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: [text](target) — excluding images and in-page anchors.
LINK_RE = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
FENCE_RE = re.compile(r"^```(\w*)\s*$")
SKIP_SCHEMES = ("http://", "https://", "mailto:")
SKIP_DIRS = {".git", ".github", "__pycache__", ".claude", "node_modules"}

#: (markdown file, table heading, "module:class") — see the docstring
FIELD_TABLES = [
    ("README.md", "### Server knobs (`PVFSConfig`)", "repro.pvfs.config:PVFSConfig"),
    ("README.md", "### MPI-IO hints (`Hints`)", "repro.mpiio.hints:Hints"),
    (
        "docs/calibration.md",
        "## Every constant (`CostModel`)",
        "repro.simulation.costs:CostModel",
    ),
]
#: the backticked name opening a table row
ROW_NAME_RE = re.compile(r"^\|\s*`([\w.]+)`")


def markdown_files() -> list[pathlib.Path]:
    files = []
    for path in sorted(ROOT.rglob("*.md")):
        if not SKIP_DIRS.intersection(p.name for p in path.parents):
            files.append(path)
    return files


def check_links(path: pathlib.Path) -> list[str]:
    problems = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        for target in LINK_RE.findall(line):
            if target.startswith(SKIP_SCHEMES) or target.startswith("#"):
                continue
            rel = target.split("#", 1)[0]
            if not rel:
                continue
            resolved = (path.parent / rel).resolve()
            if not resolved.exists():
                problems.append(
                    f"{path.relative_to(ROOT)}:{lineno}: broken link "
                    f"-> {target}"
                )
    return problems


def python_examples(path: pathlib.Path) -> list[tuple[int, str]]:
    """(start_line, source) for each fenced python block with doctests."""
    blocks = []
    lines = path.read_text().splitlines()
    in_block, lang, start, buf = False, "", 0, []
    for lineno, line in enumerate(lines, 1):
        fence = FENCE_RE.match(line)
        if fence and not in_block:
            in_block, lang, start, buf = True, fence.group(1), lineno, []
        elif line.strip() == "```" and in_block:
            if lang == "python" and any(">>>" in ln for ln in buf):
                blocks.append((start, "\n".join(buf) + "\n"))
            in_block = False
        elif in_block:
            buf.append(line)
    return blocks


def check_doctests(path: pathlib.Path) -> list[str]:
    problems = []
    runner = doctest.DocTestRunner(
        optionflags=doctest.ELLIPSIS | doctest.NORMALIZE_WHITESPACE,
        verbose=False,
    )
    parser = doctest.DocTestParser()
    for start, source in python_examples(path):
        name = f"{path.relative_to(ROOT)}:{start}"
        test = parser.get_doctest(source, {}, name, str(path), start)
        out: list[str] = []
        runner.run(test, out=out.append)
        if runner.failures:
            problems.append(f"{name}: doctest failed\n" + "".join(out))
            runner = doctest.DocTestRunner(  # reset failure counter
                optionflags=doctest.ELLIPSIS | doctest.NORMALIZE_WHITESPACE,
                verbose=False,
            )
    return problems


def table_names(text: str, heading: str) -> list[str] | None:
    """First-column names of the first table under ``heading`` (``None``
    when there is no such heading)."""
    lines = text.splitlines()
    if heading not in lines:
        return None
    rows: list[str] = []
    for line in lines[lines.index(heading) + 1 :]:
        if line.startswith("|"):
            rows.append(line)
        elif rows:
            break
    return [m.group(1) for m in map(ROW_NAME_RE.match, rows) if m]


def check_field_table(rel: str, heading: str, text: str, cls) -> list[str]:
    """Problems of one table against ``dataclasses.fields(cls)``."""
    where = f"{rel}: {heading!r}"
    names = table_names(text, heading)
    if names is None:
        return [f"{where}: heading not found"]
    fields = [f.name for f in dataclasses.fields(cls)]
    top = [n for n in names if "." not in n]
    problems = [
        f"{where}: {cls.__name__}.{n} is not in the table"
        for n in fields
        if n not in top
    ]
    problems += [
        f"{where}: `{n}` is not a {cls.__name__} field"
        for n in dict.fromkeys(top)
        if n not in fields
    ]
    problems += [
        f"{where}: `{n}` is listed {top.count(n)} times"
        for n in dict.fromkeys(top)
        if top.count(n) > 1
    ]
    problems += [
        f"{where}: `{n}` does not extend a {cls.__name__} field"
        for n in names
        if "." in n and n.split(".", 1)[0] not in fields
    ]
    return problems


def check_field_tables() -> list[str]:
    problems = []
    for rel, heading, target in FIELD_TABLES:
        module, name = target.split(":")
        cls = getattr(importlib.import_module(module), name)
        text = (ROOT / rel).read_text()
        problems.extend(check_field_table(rel, heading, text, cls))
    return problems


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    files = markdown_files()
    problems: list[str] = []
    examples = 0
    for path in files:
        problems.extend(check_links(path))
        examples += len(python_examples(path))
        problems.extend(check_doctests(path))
    problems.extend(check_field_tables())
    for p in problems:
        print(p, file=sys.stderr)
    print(
        f"checked {len(files)} markdown files, {examples} python "
        f"example(s), {len(FIELD_TABLES)} field tables: "
        f"{len(problems)} problem(s)"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
