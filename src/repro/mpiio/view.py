"""MPI-IO file views.

A view is ``(displacement, etype, filetype)``: the visible file data is
the filetype's packed stream, tiled from ``displacement``; offsets in
read/write calls count *etypes* within that stream.  The view keeps the
filetype's dataloop (built once, reused every operation — note the
paper's prototype *re*-converts per operation, which the client charges
for separately).
"""

from __future__ import annotations

from typing import Optional

from ..dataloops import Dataloop, DataloopStream, build_dataloop
from ..datatypes import BYTE, Datatype
from ..regions import Regions

__all__ = ["FileView"]


class FileView:
    """An applied file view."""

    __slots__ = ("displacement", "etype", "filetype", "loop")

    def __init__(
        self,
        displacement: int = 0,
        etype: Datatype = BYTE,
        filetype: Optional[Datatype] = None,
    ):
        if displacement < 0:
            raise ValueError("negative displacement")
        if filetype is None:
            filetype = etype
        if etype.size <= 0:
            raise ValueError("etype must have positive size")
        if filetype.size % etype.size != 0:
            raise ValueError(
                f"filetype size {filetype.size} is not a multiple of "
                f"etype size {etype.size}"
            )
        self.displacement = displacement
        self.etype = etype
        self.filetype = filetype
        self.loop: Dataloop = build_dataloop(filetype)

    # ------------------------------------------------------------------
    @property
    def is_contiguous(self) -> bool:
        """Whether the visible stream is a dense byte range."""
        return self.filetype.is_contiguous

    def stream_window(self, offset_etypes: int, nbytes: int) -> tuple[int, int]:
        """Packed-stream byte range of an access at the given offset."""
        if offset_etypes < 0 or nbytes < 0:
            raise ValueError("negative offset or size")
        first = offset_etypes * self.etype.size
        return first, first + nbytes

    def file_regions(
        self, first: int, last: int, max_regions: int = 1 << 20
    ) -> Regions:
        """Materialize the file regions of stream bytes ``[first, last)``.

        Offsets are absolute (displacement included).
        """
        if last <= first:
            return Regions.empty()
        size = self.loop.data_size
        if size <= 0:
            return Regions.empty()
        count = -(-last // size)
        return DataloopStream(
            self.loop,
            count=count,
            base_offset=self.displacement,
            first=first,
            last=last,
            max_regions=max_regions,
        ).regions()

    def __repr__(self) -> str:
        return (
            f"<FileView disp={self.displacement} etype={self.etype.describe()} "
            f"filetype={self.filetype.describe()}>"
        )
