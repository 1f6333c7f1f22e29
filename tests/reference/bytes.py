"""The bytes a file view must move, from the typemap alone.

A rank's access is a *view* ``(displacement, filetype, memtype, count,
buf)``: ``count`` instances of ``memtype`` over ``buf`` make the packed
stream (MPI-3.1 §4.1), and the stream fills the filetype's entries in
typemap order, instance after instance from ``displacement`` (§13.3, an
etype of one byte, offset 0).  Everything here is :mod:`.oracle`'s
typemap walk; nothing comes from ``repro``.
"""

from __future__ import annotations

import numpy as np

from .oracle import pack, typemap

__all__ = ["image", "read"]


def _file_runs(displacement, filetype, nbytes):
    """``(file offset, length)`` of the view's first ``nbytes`` bytes."""
    entries, extent, out = typemap(filetype), filetype.extent, []
    base = displacement
    while nbytes > 0:
        for d, n in entries:
            n = min(n, nbytes)
            out.append((base + d, n))
            nbytes -= n
            if not nbytes:
                break
        base += extent
    return out


def _lay(out: np.ndarray, runs, stream) -> np.ndarray:
    """Copy ``stream`` into ``out``'s ``runs``, in order."""
    at = 0
    for d, n in runs:
        out[d : d + n] = stream[at : at + n]
        at += n
    return out


def image(views) -> np.ndarray:
    """The file every rank's write of its view must leave behind;
    bytes no view covers are zero."""
    placed = []
    for disp, filetype, memtype, count, buf in views:
        stream = pack(buf, memtype, count)
        placed.append((_file_runs(disp, filetype, stream.size), stream))
    out = np.zeros(max((d + n for runs, _ in placed for d, n in runs), default=0), np.uint8)
    for runs, stream in placed:
        _lay(out, runs, stream)
    return out


def read(file: np.ndarray, view) -> np.ndarray:
    """What a zeroed copy of the view's buffer holds once the view is
    read back from ``file``: bytes the memtype skips stay zero."""
    disp, filetype, memtype, count, buf = view
    entries = typemap(memtype, count)
    runs = _file_runs(disp, filetype, sum(n for _, n in entries))
    stream = np.concatenate([file[d : d + n] for d, n in runs] or [np.zeros(0, np.uint8)])
    return _lay(np.zeros(len(buf), np.uint8), entries, stream)
