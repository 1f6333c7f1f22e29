"""File views whose regions run backwards or out of order, end to end.

A descending or shuffled ``hindexed`` filetype is what sends a file
range through ``partition_with_stream``'s per-interval masked clip and
two-phase through its unsorted path.  Every method writes such a view
from 2 ranks with real bytes, and all six read it back;
``tests/test_byte_oracle.py`` (its ``descending`` and ``shuffled``
geometries) holds the file and every buffer to the MPI typemap.
"""

import pytest

from ..conftest import ALL_METHODS
from ..test_byte_oracle import check


@pytest.mark.parametrize("writer", ALL_METHODS)
@pytest.mark.parametrize("view", ["descending", "shuffled"])
def test_every_reader_gets_what_every_writer_wrote(view, writer):
    check(view, writer)
